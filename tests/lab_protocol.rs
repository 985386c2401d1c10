//! Golden tests for the lab wire protocol: the exact JSON of every
//! request and response variant is pinned, byte for byte.
//!
//! The wire format is the daemon's public contract — an external client
//! built against these strings must keep working — so any drift in
//! field names, field order, number formatting, or the version envelope
//! fails here first, deliberately. (The simulation itself is
//! deterministic, which is what lets the *response* bodies be golden:
//! the same scenario and seed produce the same nanosecond counts on
//! every machine, as `determinism_golden.rs` separately guarantees.)
//!
//! If a change to these strings is intentional, bump
//! [`WIRE_VERSION`](harborsim::study::lab::wire::WIRE_VERSION) and
//! update the goldens together.

use harborsim::hw::presets;
use harborsim::study::lab::wire::{
    decode_request, decode_response, encode_request, encode_response,
};
use harborsim::study::lab::{
    CampaignReport, CampaignResult, CampaignRow, CampaignRowKind, DaemonStats, EngineStats,
    LabRequest, LabResponse, Query, QueryEngine,
};
use harborsim::study::scenario::{Execution, Scenario};
use harborsim::study::workloads;
use harborsim::study::CacheStats;

fn sc() -> Scenario {
    Scenario::new(presets::lenox(), workloads::artery_cfd_small())
        .execution(Execution::singularity_self_contained())
        .nodes(2)
        .ranks_per_node(14)
}

const SCENARIO_JSON: &str = r#"{"cluster":"lenox","workload":"cfd-small","env":"singularity self-contained","nodes":2,"rpn":14,"tpr":1,"engine":{"kind":"analytic"},"deploy":false,"placement":"block","taper":null,"degraded":[],"shards":1,"open":null}"#;

/// Encode, pin, decode, re-encode: the golden string is both the
/// encoder's output and a fixed point of decode ∘ encode.
fn pin_request(req: &LabRequest, golden: &str) {
    let encoded = encode_request(req).expect("request encodes");
    assert_eq!(encoded, golden);
    let decoded = decode_request(&encoded).expect("golden request decodes");
    assert_eq!(encode_request(&decoded).expect("re-encodes"), golden);
}

fn pin_response(resp: &LabResponse, golden: &str) {
    let encoded = encode_response(resp);
    assert_eq!(encoded, golden);
    let decoded = decode_response(&encoded).expect("golden response decodes");
    assert_eq!(encode_response(&decoded), golden);
}

#[test]
fn request_plan_is_pinned() {
    pin_request(
        &LabRequest::plan(sc()),
        &format!(r#"{{"v":1,"kind":"plan","scenario":{SCENARIO_JSON}}}"#),
    );
}

#[test]
fn request_execute_is_pinned() {
    pin_request(
        &LabRequest::execute(sc(), 7),
        &format!(r#"{{"v":1,"kind":"execute","scenario":{SCENARIO_JSON},"seed":7}}"#),
    );
}

#[test]
fn request_batch_is_pinned() {
    pin_request(
        &LabRequest::Batch {
            queries: vec![Query::new(sc(), &[1, 2])],
        },
        &format!(
            r#"{{"v":1,"kind":"batch","queries":[{{"scenario":{SCENARIO_JSON},"seeds":[1,2]}}]}}"#
        ),
    );
}

#[test]
fn request_campaign_is_pinned() {
    pin_request(
        &LabRequest::Campaign {
            script: "seeds quick\n".into(),
        },
        r#"{"v":1,"kind":"campaign","script":"seeds quick\n"}"#,
    );
}

#[test]
fn request_stats_is_pinned() {
    pin_request(&LabRequest::Stats, r#"{"v":1,"kind":"stats"}"#);
}

#[test]
fn response_plan_is_pinned() {
    let lab = QueryEngine::new();
    pin_response(
        &lab.handle(LabRequest::plan(sc())),
        r#"{"v":1,"kind":"plan","plan":{"fingerprint":"ad6313171d03757a","engine":"analytic","ranks":28,"deployment":false}}"#,
    );
}

#[test]
fn response_execute_is_pinned() {
    let lab = QueryEngine::new();
    pin_response(
        &lab.handle(LabRequest::execute(sc(), 7)),
        r#"{"v":1,"kind":"execute","outcome":{"elapsed_ns":71248977,"result":{"elapsed_ns":71248977,"compute_ns":2637528,"comm":{"halo_ns":22889723,"allreduce_ns":45360068,"pairs_ns":0,"other_ns":361658},"inter_node_msgs":8490,"intra_node_msgs":22005,"inter_node_bytes":3837140,"links":[{"label":"node0:up","busy_s":0.01639324786324786,"bytes":1918010},{"label":"node1:up","busy_s":0.016402820512820507,"bytes":1919130},{"label":"node0:down","busy_s":0.016402820512820507,"bytes":1919130},{"label":"node1:down","busy_s":0.01639324786324786,"bytes":1918010},{"label":"leaf0:spine-up","busy_s":0,"bytes":0},{"label":"leaf0:spine-down","busy_s":0,"bytes":0}],"engine":"analytic"},"deployment":null}}"#,
    );
}

#[test]
fn response_batch_is_pinned() {
    let lab = QueryEngine::new();
    pin_response(
        &lab.handle(LabRequest::Batch {
            queries: vec![Query::new(sc(), &[1])],
        }),
        r#"{"v":1,"kind":"batch","results":[{"ok":[{"elapsed_ns":71109337,"result":{"elapsed_ns":71109337,"compute_ns":0,"comm":{"halo_ns":0,"allreduce_ns":0,"pairs_ns":0,"other_ns":0},"inter_node_msgs":8490,"intra_node_msgs":22005,"inter_node_bytes":3837140,"links":[{"label":"node0:up","busy_s":0.01639324786324786,"bytes":1918010},{"label":"node1:up","busy_s":0.016402820512820507,"bytes":1919130},{"label":"node0:down","busy_s":0.016402820512820507,"bytes":1919130},{"label":"node1:down","busy_s":0.01639324786324786,"bytes":1918010},{"label":"leaf0:spine-up","busy_s":0,"bytes":0},{"label":"leaf0:spine-down","busy_s":0,"bytes":0}],"engine":"analytic"},"deployment":null}]}]}"#,
    );
}

#[test]
fn response_campaign_is_pinned() {
    // covers both row kinds and the hex fingerprint encoding
    pin_response(
        &LabResponse::Campaign(CampaignReport {
            campaigns: vec![CampaignResult {
                name: "probe".into(),
                rows: vec![
                    CampaignRow {
                        label: "(base)".into(),
                        fingerprint: 0x00ff00ff00ff00ff,
                        kind: CampaignRowKind::Closed {
                            mean_elapsed_s: 12.5,
                        },
                    },
                    CampaignRow {
                        label: "n=2".into(),
                        fingerprint: 0x0123456789abcdef,
                        kind: CampaignRowKind::Open {
                            jobs: 40,
                            utilization: 0.5,
                            wait_p50_s: 1.5,
                            wait_p99_s: 9.0,
                        },
                    },
                ],
            }],
        }),
        r#"{"v":1,"kind":"campaign","campaigns":[{"name":"probe","rows":[{"label":"(base)","fingerprint":"00ff00ff00ff00ff","closed":{"mean_elapsed_s":12.5}},{"label":"n=2","fingerprint":"0123456789abcdef","open":{"jobs":40,"utilization":0.5,"wait_p50_s":1.5,"wait_p99_s":9}}]}]}"#,
    );
}

#[test]
fn response_stats_is_pinned() {
    pin_response(
        &LabResponse::Stats(EngineStats {
            cache: CacheStats {
                hits: 5,
                misses: 2,
                waits: 1,
                uncached: 0,
                contended: 3,
                entries: 2,
            },
            per_shard: vec![CacheStats {
                hits: 5,
                misses: 2,
                waits: 1,
                uncached: 0,
                contended: 3,
                entries: 2,
            }],
            batched_executes: 4,
            daemon: None,
        }),
        r#"{"v":1,"kind":"stats","cache":{"hits":5,"misses":2,"waits":1,"uncached":0,"contended":3,"entries":2},"per_shard":[{"hits":5,"misses":2,"waits":1,"uncached":0,"contended":3,"entries":2}],"batched_executes":4}"#,
    );
}

/// The daemon block is additive: an in-process stats response (daemon
/// `None`) pins to exactly the pre-reactor golden above, and a daemon-
/// served one appends the block without touching any earlier byte.
#[test]
fn response_stats_with_daemon_block_is_pinned() {
    pin_response(
        &LabResponse::Stats(EngineStats {
            cache: CacheStats {
                hits: 5,
                misses: 2,
                waits: 1,
                uncached: 0,
                contended: 3,
                entries: 2,
            },
            per_shard: vec![CacheStats {
                hits: 5,
                misses: 2,
                waits: 1,
                uncached: 0,
                contended: 3,
                entries: 2,
            }],
            batched_executes: 4,
            daemon: Some(DaemonStats {
                mode: "reactor".to_string(),
                accept_errors: 1,
                late_503s: 2,
                open_conns: 256,
            }),
        }),
        r#"{"v":1,"kind":"stats","cache":{"hits":5,"misses":2,"waits":1,"uncached":0,"contended":3,"entries":2},"per_shard":[{"hits":5,"misses":2,"waits":1,"uncached":0,"contended":3,"entries":2}],"batched_executes":4,"daemon":{"mode":"reactor","accept_errors":1,"late_503s":2,"open_conns":256}}"#,
    );
}

#[test]
fn response_script_error_is_pinned() {
    let lab = QueryEngine::new();
    pin_response(
        &lab.handle(LabRequest::Campaign {
            script: "nonsense\n".into(),
        }),
        r#"{"v":1,"kind":"error","error":{"type":"script","stage":"parse","line":1,"col":1,"msg":"unknown directive `nonsense` (expected seeds, taper, shards, trace, experiments, or campaign)"}}"#,
    );
}

#[test]
fn response_runtime_error_is_pinned() {
    // Docker genuinely is not installed on CTE-POWER in the paper's
    // software table, so this is the natural typed-error probe
    let lab = QueryEngine::new();
    pin_response(
        &lab.handle(LabRequest::execute(
            Scenario::new(presets::cte_power(), workloads::artery_cfd_small())
                .execution(Execution::docker()),
            1,
        )),
        r#"{"v":1,"kind":"error","error":{"type":"runtime-unavailable","runtime":"Docker","cluster":"CTE-POWER"}}"#,
    );
}

/// Out-of-range scenario fields are wire errors, not worker panics or
/// silently different scenarios: the tapers, factors, node and shard
/// count below would otherwise reach an `assert!` in the scenario builder
/// or the plan compiler, and the wide counts would wrap.
#[test]
fn out_of_range_scenario_fields_are_rejected_at_decode() {
    let with = |from: &str, to: &str| {
        assert!(SCENARIO_JSON.contains(from), "fixture lacks {from}");
        format!(
            r#"{{"v":1,"kind":"execute","scenario":{},"seed":7}}"#,
            SCENARIO_JSON.replace(from, to)
        )
    };
    for (from, to) in [
        (r#""taper":null"#, r#""taper":0"#),
        (r#""taper":null"#, r#""taper":-1"#),
        (r#""taper":null"#, r#""taper":1.5"#),
        (r#""degraded":[]"#, r#""degraded":[[1,0]]"#),
        (r#""degraded":[]"#, r#""degraded":[[1,-0.5]]"#),
        (r#""degraded":[]"#, r#""degraded":[[1,2]]"#),
        (r#""degraded":[]"#, r#""degraded":[[2,0.5]]"#),
        (r#""shards":1"#, r#""shards":0"#),
        (r#""shards":1"#, r#""shards":4294967296"#),
        // counts wider than 32 bits used to wrap (4294967298 nodes ran as 2)
        (r#""nodes":2"#, r#""nodes":4294967298"#),
        (r#""rpn":14"#, r#""rpn":4294967310"#),
    ] {
        let wire = with(from, to);
        match decode_request(&wire) {
            Err(e) => assert!(!e.msg.is_empty(), "{wire}"),
            Ok(_) => panic!("decoded out-of-range {to}"),
        }
    }
    // the closed ends of the ranges still decode
    for (from, to) in [
        (r#""taper":null"#, r#""taper":1"#),
        (r#""degraded":[]"#, r#""degraded":[[1,1]]"#),
    ] {
        let wire = with(from, to);
        assert!(decode_request(&wire).is_ok(), "{wire}");
    }
}
