//! Versioned JSON wire format for the lab protocol.
//!
//! Serializes exactly the [`protocol`](super::protocol) types — there is
//! no separate wire schema to drift from the in-process API. Every
//! message is one JSON object with a version field (`"v": 1`) and a
//! `"kind"` discriminant matching the [`LabRequest`]/[`LabResponse`]
//! variant; the [`daemon`](super::daemon) speaks nothing else.
//!
//! Encoding conventions, chosen for determinism and exact round-trips:
//!
//! - **Field order is fixed** (the hand-rolled [`Json`] writer preserves
//!   insertion order), so equal values encode to byte-identical strings
//!   — what the golden tests pin.
//! - **Durations travel as integer nanoseconds** (`*_ns`), the same
//!   `u64` the simulator counts in — no float rounding on the wire.
//! - **64-bit fingerprints travel as 16-digit hex strings** (JSON
//!   numbers are only exact to 2^53).
//! - **Clusters and workloads travel by registry name** (the same names
//!   the `.hsim` DSL resolves: `lenox`, `mn4`, `cfd-small`, ...); a
//!   scenario built on a hand-rolled cluster is not wire-encodable.
//! - **Errors round-trip typed**: script errors keep their stage,
//!   `line:col` span, and message exactly; runtime-unavailable keeps its
//!   runtime and cluster; placement/build errors travel as kind +
//!   rendered message and decode to [`HarborError::Remote`].

use super::protocol::{
    CampaignReport, CampaignResult, CampaignRow, CampaignRowKind, DaemonStats, EngineStats,
    LabRequest, LabResponse, PlanInfo,
};
use super::{CacheStats, Query};
use crate::error::HarborError;
use crate::json::Json;
use crate::open::{MixSpec, OpenSpec};
use crate::scenario::{EngineKind, Execution, Outcome, Scenario};
use crate::script::{ScriptError, ScriptStage, Span};
use harborsim_container::containment::Containment;
use harborsim_container::runtime::RuntimeKind;
use harborsim_des::SimDuration;
use harborsim_mpi::result::{CommBreakdown, LinkUsage, SimResult};
use harborsim_mpi::Placement;
use std::fmt;

/// The one protocol version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// Why a message cannot be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One-line diagnostic.
    pub msg: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

impl From<crate::json::JsonError> for WireError {
    fn from(e: crate::json::JsonError) -> WireError {
        WireError { msg: e.to_string() }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError { msg: msg.into() })
}

/// Encode a request to its canonical wire string.
///
/// # Errors
/// Only scenarios built from the cluster/workload registries are
/// encodable (the wire names them by registry name).
pub fn encode_request(req: &LabRequest) -> Result<String, WireError> {
    let envelope = Json::obj().set("v", WIRE_VERSION);
    let json = match req {
        LabRequest::Plan { scenario } => envelope
            .set("kind", "plan")
            .set("scenario", encode_scenario(scenario)?),
        LabRequest::Execute { scenario, seed } => envelope
            .set("kind", "execute")
            .set("scenario", encode_scenario(scenario)?)
            .set("seed", *seed),
        LabRequest::Batch { queries } => {
            let mut arr = Vec::with_capacity(queries.len());
            for q in queries {
                arr.push(
                    Json::obj()
                        .set("scenario", encode_scenario(&q.scenario)?)
                        .set(
                            "seeds",
                            Json::Arr(q.seeds.iter().map(|&s| s.into()).collect()),
                        ),
                );
            }
            envelope.set("kind", "batch").set("queries", Json::Arr(arr))
        }
        LabRequest::Campaign { script } => envelope
            .set("kind", "campaign")
            .set("script", script.as_str()),
        LabRequest::Stats => envelope.set("kind", "stats"),
    };
    Ok(json.write())
}

/// Decode a request from its wire string.
///
/// # Errors
/// Malformed JSON, an unsupported version, an unknown kind, or any
/// out-of-registry name.
pub fn decode_request(src: &str) -> Result<LabRequest, WireError> {
    let json = Json::parse(src)?;
    check_version(&json)?;
    match get_str(&json, "kind")? {
        "plan" => Ok(LabRequest::plan(decode_scenario(get(&json, "scenario")?)?)),
        "execute" => Ok(LabRequest::Execute {
            scenario: Box::new(decode_scenario(get(&json, "scenario")?)?),
            seed: get_u64(&json, "seed")?,
        }),
        "batch" => {
            let mut queries = Vec::new();
            for q in get_arr(&json, "queries")? {
                let scenario = decode_scenario(get(q, "scenario")?)?;
                let mut seeds = Vec::new();
                for s in get_arr(q, "seeds")? {
                    seeds.push(s.as_u64().ok_or_else(|| WireError {
                        msg: "seeds must be unsigned integers".into(),
                    })?);
                }
                queries.push(Query { scenario, seeds });
            }
            Ok(LabRequest::Batch { queries })
        }
        "campaign" => Ok(LabRequest::Campaign {
            script: get_str(&json, "script")?.to_string(),
        }),
        "stats" => Ok(LabRequest::Stats),
        other => err(format!("unknown request kind `{other}`")),
    }
}

/// Encode a response to its canonical wire string. Responses are always
/// encodable (they carry no open-world types).
pub fn encode_response(resp: &LabResponse) -> String {
    let envelope = Json::obj().set("v", WIRE_VERSION);
    let json = match resp {
        LabResponse::Plan(info) => envelope.set("kind", "plan").set(
            "plan",
            Json::obj()
                .set(
                    "fingerprint",
                    match info.fingerprint {
                        Some(fp) => Json::fingerprint(fp),
                        None => Json::Null,
                    },
                )
                .set("engine", info.engine.as_str())
                .set("ranks", info.ranks)
                .set("deployment", info.deployment),
        ),
        LabResponse::Execute(outcome) => envelope
            .set("kind", "execute")
            .set("outcome", encode_outcome(outcome)),
        LabResponse::Batch(results) => envelope.set("kind", "batch").set(
            "results",
            Json::Arr(
                results
                    .iter()
                    .map(|r| match r {
                        Ok(outcomes) => Json::obj().set(
                            "ok",
                            Json::Arr(outcomes.iter().map(encode_outcome).collect()),
                        ),
                        Err(e) => Json::obj().set("err", encode_error(e)),
                    })
                    .collect(),
            ),
        ),
        LabResponse::Campaign(report) => envelope.set("kind", "campaign").set(
            "campaigns",
            Json::Arr(report.campaigns.iter().map(encode_campaign).collect()),
        ),
        LabResponse::Stats(stats) => {
            let json = envelope
                .set("kind", "stats")
                .set("cache", encode_cache_stats(&stats.cache))
                .set(
                    "per_shard",
                    Json::Arr(stats.per_shard.iter().map(encode_cache_stats).collect()),
                )
                .set("batched_executes", stats.batched_executes);
            // The daemon field is optional on the wire: in-process
            // stats omit it entirely, keeping their bytes pinned.
            match &stats.daemon {
                Some(d) => json.set("daemon", encode_daemon_stats(d)),
                None => json,
            }
        }
        LabResponse::Error(e) => envelope.set("kind", "error").set("error", encode_error(e)),
    };
    json.write()
}

/// Decode a response from its wire string.
///
/// # Errors
/// Malformed JSON, an unsupported version, or an unknown kind.
pub fn decode_response(src: &str) -> Result<LabResponse, WireError> {
    let json = Json::parse(src)?;
    check_version(&json)?;
    match get_str(&json, "kind")? {
        "plan" => {
            let p = get(&json, "plan")?;
            Ok(LabResponse::Plan(PlanInfo {
                fingerprint: match get(p, "fingerprint")? {
                    Json::Null => None,
                    j => Some(decode_fingerprint(j)?),
                },
                engine: get_str(p, "engine")?.to_string(),
                ranks: get_u64(p, "ranks")? as u32,
                deployment: get_bool(p, "deployment")?,
            }))
        }
        "execute" => Ok(LabResponse::Execute(Box::new(decode_outcome(get(
            &json, "outcome",
        )?)?))),
        "batch" => {
            let mut results = Vec::new();
            for r in get_arr(&json, "results")? {
                if let Some(ok) = r.get("ok") {
                    let mut outcomes = Vec::new();
                    for o in ok.as_arr().ok_or_else(|| WireError {
                        msg: "`ok` must be an array".into(),
                    })? {
                        outcomes.push(decode_outcome(o)?);
                    }
                    results.push(Ok(outcomes));
                } else {
                    results.push(Err(decode_error(get(r, "err")?)?));
                }
            }
            Ok(LabResponse::Batch(results))
        }
        "campaign" => {
            let mut campaigns = Vec::new();
            for c in get_arr(&json, "campaigns")? {
                campaigns.push(decode_campaign(c)?);
            }
            Ok(LabResponse::Campaign(CampaignReport { campaigns }))
        }
        "stats" => {
            let mut per_shard = Vec::new();
            for s in get_arr(&json, "per_shard")? {
                per_shard.push(decode_cache_stats(s)?);
            }
            let daemon = match json.get("daemon") {
                Some(d) => Some(decode_daemon_stats(d)?),
                None => None,
            };
            Ok(LabResponse::Stats(EngineStats {
                cache: decode_cache_stats(get(&json, "cache")?)?,
                per_shard,
                batched_executes: get_u64(&json, "batched_executes")?,
                daemon,
            }))
        }
        "error" => Ok(LabResponse::Error(decode_error(get(&json, "error")?)?)),
        other => err(format!("unknown response kind `{other}`")),
    }
}

// ---------------------------------------------------------------- helpers

fn check_version(json: &Json) -> Result<(), WireError> {
    match get_u64(json, "v")? {
        WIRE_VERSION => Ok(()),
        v => err(format!(
            "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
        )),
    }
}

fn get<'a>(json: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    json.get(key).ok_or_else(|| WireError {
        msg: format!("missing field `{key}`"),
    })
}

fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, WireError> {
    get(json, key)?.as_str().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a string"),
    })
}

fn get_u64(json: &Json, key: &str) -> Result<u64, WireError> {
    get(json, key)?.as_u64().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be an unsigned integer"),
    })
}

/// A count that must fit the `u32` it decodes into: a wider value is an
/// error, not silently truncated.
fn get_u32(json: &Json, key: &str) -> Result<u32, WireError> {
    u32::try_from(get_u64(json, key)?).map_err(|_| WireError {
        msg: format!("field `{key}` must fit in 32 bits"),
    })
}

fn get_f64(json: &Json, key: &str) -> Result<f64, WireError> {
    get(json, key)?.as_f64().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a number"),
    })
}

fn get_bool(json: &Json, key: &str) -> Result<bool, WireError> {
    get(json, key)?.as_bool().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be a boolean"),
    })
}

fn get_arr<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    get(json, key)?.as_arr().ok_or_else(|| WireError {
        msg: format!("field `{key}` must be an array"),
    })
}

fn decode_fingerprint(json: &Json) -> Result<u64, WireError> {
    let s = json.as_str().ok_or_else(|| WireError {
        msg: "a fingerprint must be a hex string".into(),
    })?;
    if s.len() != 16 {
        return err("a fingerprint must be 16 hex digits");
    }
    u64::from_str_radix(s, 16).map_err(|_| WireError {
        msg: "a fingerprint must be 16 hex digits".into(),
    })
}

fn duration_ns(json: &Json, key: &str) -> Result<SimDuration, WireError> {
    Ok(SimDuration::from_nanos(get_u64(json, key)?))
}

// ------------------------------------------------------------- scenarios

/// The cluster registry the wire names clusters by — same canonical
/// names and aliases as the `.hsim` DSL.
fn cluster_name(cluster: &harborsim_hw::ClusterSpec) -> Option<&'static str> {
    let debug = format!("{cluster:?}");
    [
        ("lenox", harborsim_hw::presets::lenox()),
        ("marenostrum4", harborsim_hw::presets::marenostrum4()),
        ("cte-power", harborsim_hw::presets::cte_power()),
        ("thunderx", harborsim_hw::presets::thunderx()),
    ]
    .into_iter()
    .find(|(_, preset)| format!("{preset:?}") == debug)
    .map(|(name, _)| name)
}

fn cluster_by_name(name: &str) -> Result<harborsim_hw::ClusterSpec, WireError> {
    match name {
        "lenox" => Ok(harborsim_hw::presets::lenox()),
        "marenostrum4" | "mn4" => Ok(harborsim_hw::presets::marenostrum4()),
        "cte-power" | "cte" => Ok(harborsim_hw::presets::cte_power()),
        "thunderx" => Ok(harborsim_hw::presets::thunderx()),
        other => err(format!("unknown cluster `{other}`")),
    }
}

/// The workload registry names, resolved by comparing memo keys (a
/// workload's identity on the wire is its registry name).
const WORKLOAD_NAMES: [&str; 6] = [
    "cfd-small",
    "cfd-lenox",
    "cfd-cte",
    "fsi-small",
    "fsi-mn4",
    "chain-halo",
];

fn workload_name(case: &dyn harborsim_alya::workload::AlyaCase) -> Option<&'static str> {
    let key = case.memo_key()?;
    WORKLOAD_NAMES.into_iter().find(|name| {
        crate::workloads::by_name(name)
            .is_some_and(|w| w.memo_key().as_deref() == Some(key.as_str()))
    })
}

fn env_name(env: Execution) -> Result<&'static str, WireError> {
    match (env.runtime, env.containment) {
        (RuntimeKind::BareMetal, Containment::SystemSpecific) => Ok("bare-metal"),
        (RuntimeKind::Docker, Containment::SelfContained) => Ok("docker"),
        (RuntimeKind::Shifter, Containment::SelfContained) => Ok("shifter"),
        (RuntimeKind::Singularity, Containment::SelfContained) => Ok("singularity self-contained"),
        (RuntimeKind::Singularity, Containment::SystemSpecific) => {
            Ok("singularity system-specific")
        }
        (runtime, containment) => err(format!(
            "execution environment {runtime:?}/{containment:?} has no wire name"
        )),
    }
}

fn env_by_name(name: &str) -> Result<Execution, WireError> {
    match name {
        "bare-metal" => Ok(Execution::bare_metal()),
        "docker" => Ok(Execution::docker()),
        "shifter" => Ok(Execution::shifter()),
        "singularity self-contained" => Ok(Execution::singularity_self_contained()),
        "singularity system-specific" => Ok(Execution::singularity_system_specific()),
        other => err(format!("unknown execution environment `{other}`")),
    }
}

fn encode_scenario(s: &Scenario) -> Result<Json, WireError> {
    let cluster = cluster_name(&s.cluster).ok_or_else(|| WireError {
        msg: "only the four paper-cluster presets are wire-encodable".into(),
    })?;
    let workload = workload_name(s.case.as_ref()).ok_or_else(|| WireError {
        msg: "only registry workloads are wire-encodable".into(),
    })?;
    let mut json = Json::obj()
        .set("cluster", cluster)
        .set("workload", workload)
        .set("env", env_name(s.env)?)
        .set("nodes", s.nodes)
        .set("rpn", s.ranks_per_node)
        .set("tpr", s.threads_per_rank)
        .set(
            "engine",
            match s.engine {
                EngineKind::Analytic => Json::obj().set("kind", "analytic"),
                EngineKind::Des { max_steps_per_kind } => Json::obj()
                    .set("kind", "des")
                    .set("max_steps_per_kind", max_steps_per_kind),
            },
        )
        .set("deploy", s.deploy)
        .set(
            "placement",
            match s.placement {
                Placement::Block => "block",
                Placement::RoundRobin => "round-robin",
            },
        )
        .set(
            "taper",
            match s.spine_taper {
                Some(t) => Json::from(t),
                None => Json::Null,
            },
        )
        .set(
            "degraded",
            Json::Arr(
                s.degraded_uplinks
                    .iter()
                    .map(|&(node, factor)| Json::Arr(vec![Json::from(node), Json::from(factor)]))
                    .collect(),
            ),
        )
        .set("shards", s.shards);
    json = json.set(
        "open",
        match &s.open {
            Some(spec) => encode_open(spec)?,
            None => Json::Null,
        },
    );
    Ok(json)
}

fn decode_scenario(json: &Json) -> Result<Scenario, WireError> {
    let cluster = cluster_by_name(get_str(json, "cluster")?)?;
    let workload_name = get_str(json, "workload")?;
    let case = crate::workloads::by_name(workload_name).ok_or_else(|| WireError {
        msg: format!("unknown workload `{workload_name}`"),
    })?;
    let mut scenario = Scenario {
        cluster,
        case,
        env: env_by_name(get_str(json, "env")?)?,
        nodes: get_u32(json, "nodes")?,
        ranks_per_node: get_u32(json, "rpn")?,
        threads_per_rank: get_u32(json, "tpr")?,
        engine: {
            let e = get(json, "engine")?;
            match get_str(e, "kind")? {
                "analytic" => EngineKind::Analytic,
                "des" => EngineKind::Des {
                    max_steps_per_kind: get_u32(e, "max_steps_per_kind")?,
                },
                other => return err(format!("unknown engine kind `{other}`")),
            }
        },
        deploy: get_bool(json, "deploy")?,
        placement: match get_str(json, "placement")? {
            "block" => Placement::Block,
            "round-robin" => Placement::RoundRobin,
            other => return err(format!("unknown placement `{other}`")),
        },
        spine_taper: match get(json, "taper")? {
            Json::Null => None,
            t => Some(fraction(
                t.as_f64().ok_or_else(|| WireError {
                    msg: "`taper` must be a number".into(),
                })?,
                "`taper`",
            )?),
        },
        degraded_uplinks: Vec::new(),
        shards: match get_u32(json, "shards")? {
            0 => return err("`shards` must be at least 1"),
            n => n,
        },
        open: match get(json, "open")? {
            Json::Null => None,
            spec => Some(decode_open(spec)?),
        },
    };
    for pair in get_arr(json, "degraded")? {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| WireError {
                msg: "`degraded` entries must be [node, factor] pairs".into(),
            })?;
        let node = pair[0].as_u64().ok_or_else(|| WireError {
            msg: "degraded node must be an unsigned integer".into(),
        })?;
        if node >= u64::from(scenario.nodes) {
            return err(format!(
                "degraded node {node} is outside the scenario's {} nodes",
                scenario.nodes
            ));
        }
        let factor = pair[1].as_f64().ok_or_else(|| WireError {
            msg: "degraded factor must be a number".into(),
        })?;
        scenario
            .degraded_uplinks
            .push((node as u32, fraction(factor, "degraded factor")?));
    }
    Ok(scenario)
}

/// `v` if it lies in (0, 1] — a taper or a de-rating factor — else an
/// error naming `what`. Checked here so the builder's asserts are never
/// reached from the wire.
fn fraction(v: f64, what: &str) -> Result<f64, WireError> {
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        err(format!("{what} must lie in (0, 1], got {v}"))
    }
}

fn encode_open(spec: &OpenSpec) -> Result<Json, WireError> {
    let mut envs = Vec::with_capacity(spec.env_mix.values.len());
    for &env in &spec.env_mix.values {
        envs.push(Json::from(env_name(env)?));
    }
    Ok(Json::obj()
        .set("rate_per_s", spec.rate_per_s)
        .set("horizon_s", spec.horizon_s)
        .set("tenants", spec.tenants)
        .set(
            "node_mix",
            Json::obj().set("s", spec.node_mix.s).set(
                "values",
                Json::Arr(spec.node_mix.values.iter().map(|&v| v.into()).collect()),
            ),
        )
        .set(
            "workload_mix",
            Json::obj().set("s", spec.workload_mix.s).set(
                "values",
                Json::Arr(
                    spec.workload_mix
                        .values
                        .iter()
                        .map(|v| v.as_str().into())
                        .collect(),
                ),
            ),
        )
        .set(
            "env_mix",
            Json::obj()
                .set("s", spec.env_mix.s)
                .set("values", Json::Arr(envs)),
        ))
}

fn decode_open(json: &Json) -> Result<OpenSpec, WireError> {
    let node_mix = get(json, "node_mix")?;
    let workload_mix = get(json, "workload_mix")?;
    let env_mix = get(json, "env_mix")?;
    let mut nodes = Vec::new();
    for v in get_arr(node_mix, "values")? {
        nodes.push(
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| WireError {
                    msg: "node mix values must be 32-bit unsigned integers".into(),
                })?,
        );
    }
    let mut workloads = Vec::new();
    for v in get_arr(workload_mix, "values")? {
        workloads.push(
            v.as_str()
                .ok_or_else(|| WireError {
                    msg: "workload mix values must be strings".into(),
                })?
                .to_string(),
        );
    }
    let mut envs = Vec::new();
    for v in get_arr(env_mix, "values")? {
        envs.push(env_by_name(v.as_str().ok_or_else(|| WireError {
            msg: "env mix values must be strings".into(),
        })?)?);
    }
    Ok(OpenSpec {
        rate_per_s: get_f64(json, "rate_per_s")?,
        horizon_s: get_f64(json, "horizon_s")?,
        tenants: get_u32(json, "tenants")?,
        node_mix: MixSpec {
            s: get_f64(node_mix, "s")?,
            values: nodes,
        },
        workload_mix: MixSpec {
            s: get_f64(workload_mix, "s")?,
            values: workloads,
        },
        env_mix: MixSpec {
            s: get_f64(env_mix, "s")?,
            values: envs,
        },
    })
}

// -------------------------------------------------------------- outcomes

fn encode_outcome(outcome: &Outcome) -> Json {
    let r = &outcome.result;
    let mut json = Json::obj()
        .set("elapsed_ns", outcome.elapsed.as_nanos())
        .set(
            "result",
            Json::obj()
                .set("elapsed_ns", r.elapsed.as_nanos())
                .set("compute_ns", r.compute.as_nanos())
                .set(
                    "comm",
                    Json::obj()
                        .set("halo_ns", r.comm.halo.as_nanos())
                        .set("allreduce_ns", r.comm.allreduce.as_nanos())
                        .set("pairs_ns", r.comm.pairs.as_nanos())
                        .set("other_ns", r.comm.other.as_nanos()),
                )
                .set("inter_node_msgs", r.inter_node_msgs)
                .set("intra_node_msgs", r.intra_node_msgs)
                .set("inter_node_bytes", r.inter_node_bytes)
                .set(
                    "links",
                    Json::Arr(
                        r.links
                            .iter()
                            .map(|l| {
                                Json::obj()
                                    .set("label", l.label.as_str())
                                    .set("busy_s", l.busy_s)
                                    .set("bytes", l.bytes)
                            })
                            .collect(),
                    ),
                )
                .set("engine", r.engine),
        );
    json = json.set(
        "deployment",
        match &outcome.deployment {
            Some(d) => Json::obj()
                .set("makespan_ns", d.makespan.as_nanos())
                .set("first_ready_ns", d.first_ready.as_nanos())
                .set("mean_ready_s", d.mean_ready_s)
                .set("gateway_seconds", d.gateway_seconds)
                .set("bytes_pulled", d.bytes_pulled)
                .set("bytes_from_pfs", d.bytes_from_pfs)
                .set("image_bytes", d.image_bytes),
            None => Json::Null,
        },
    );
    json
}

fn decode_outcome(json: &Json) -> Result<Outcome, WireError> {
    let r = get(json, "result")?;
    let comm = get(r, "comm")?;
    let mut links = Vec::new();
    for l in get_arr(r, "links")? {
        links.push(LinkUsage {
            label: get_str(l, "label")?.to_string(),
            busy_s: get_f64(l, "busy_s")?,
            bytes: get_u64(l, "bytes")?,
        });
    }
    let engine = match get_str(r, "engine")? {
        "analytic" => "analytic",
        "des" => "des",
        other => return err(format!("unknown result engine `{other}`")),
    };
    Ok(Outcome {
        elapsed: duration_ns(json, "elapsed_ns")?,
        result: SimResult {
            elapsed: duration_ns(r, "elapsed_ns")?,
            compute: duration_ns(r, "compute_ns")?,
            comm: CommBreakdown {
                halo: duration_ns(comm, "halo_ns")?,
                allreduce: duration_ns(comm, "allreduce_ns")?,
                pairs: duration_ns(comm, "pairs_ns")?,
                other: duration_ns(comm, "other_ns")?,
            },
            inter_node_msgs: get_u64(r, "inter_node_msgs")?,
            intra_node_msgs: get_u64(r, "intra_node_msgs")?,
            inter_node_bytes: get_u64(r, "inter_node_bytes")?,
            links,
            engine,
        },
        deployment: match get(json, "deployment")? {
            Json::Null => None,
            d => Some(harborsim_container::deploy::DeploymentReport {
                makespan: duration_ns(d, "makespan_ns")?,
                first_ready: duration_ns(d, "first_ready_ns")?,
                mean_ready_s: get_f64(d, "mean_ready_s")?,
                gateway_seconds: get_f64(d, "gateway_seconds")?,
                bytes_pulled: get_u64(d, "bytes_pulled")?,
                bytes_from_pfs: get_u64(d, "bytes_from_pfs")?,
                image_bytes: get_u64(d, "image_bytes")?,
            }),
        },
    })
}

// ------------------------------------------------------------- campaigns

fn encode_campaign(c: &CampaignResult) -> Json {
    Json::obj().set("name", c.name.as_str()).set(
        "rows",
        Json::Arr(
            c.rows
                .iter()
                .map(|row| {
                    let json = Json::obj()
                        .set("label", row.label.as_str())
                        .set("fingerprint", Json::fingerprint(row.fingerprint));
                    match &row.kind {
                        CampaignRowKind::Closed { mean_elapsed_s } => {
                            json.set("closed", Json::obj().set("mean_elapsed_s", *mean_elapsed_s))
                        }
                        CampaignRowKind::Open {
                            jobs,
                            utilization,
                            wait_p50_s,
                            wait_p99_s,
                        } => json.set(
                            "open",
                            Json::obj()
                                .set("jobs", *jobs)
                                .set("utilization", *utilization)
                                .set("wait_p50_s", *wait_p50_s)
                                .set("wait_p99_s", *wait_p99_s),
                        ),
                    }
                })
                .collect(),
        ),
    )
}

fn decode_campaign(json: &Json) -> Result<CampaignResult, WireError> {
    let mut rows = Vec::new();
    for row in get_arr(json, "rows")? {
        let kind = if let Some(closed) = row.get("closed") {
            CampaignRowKind::Closed {
                mean_elapsed_s: get_f64(closed, "mean_elapsed_s")?,
            }
        } else {
            let open = get(row, "open")?;
            CampaignRowKind::Open {
                jobs: get_u64(open, "jobs")?,
                utilization: get_f64(open, "utilization")?,
                wait_p50_s: get_f64(open, "wait_p50_s")?,
                wait_p99_s: get_f64(open, "wait_p99_s")?,
            }
        };
        rows.push(CampaignRow {
            label: get_str(row, "label")?.to_string(),
            fingerprint: decode_fingerprint(get(row, "fingerprint")?)?,
            kind,
        });
    }
    Ok(CampaignResult {
        name: get_str(json, "name")?.to_string(),
        rows,
    })
}

// ----------------------------------------------------------------- stats

fn encode_cache_stats(s: &CacheStats) -> Json {
    Json::obj()
        .set("hits", s.hits)
        .set("misses", s.misses)
        .set("waits", s.waits)
        .set("uncached", s.uncached)
        .set("contended", s.contended)
        .set("entries", s.entries)
}

fn decode_cache_stats(json: &Json) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: get_u64(json, "hits")?,
        misses: get_u64(json, "misses")?,
        waits: get_u64(json, "waits")?,
        uncached: get_u64(json, "uncached")?,
        contended: get_u64(json, "contended")?,
        entries: get_u64(json, "entries")? as usize,
    })
}

fn encode_daemon_stats(d: &DaemonStats) -> Json {
    Json::obj()
        .set("mode", d.mode.as_str())
        .set("accept_errors", d.accept_errors)
        .set("late_503s", d.late_503s)
        .set("open_conns", d.open_conns)
}

fn decode_daemon_stats(json: &Json) -> Result<DaemonStats, WireError> {
    Ok(DaemonStats {
        mode: get_str(json, "mode")?.to_string(),
        accept_errors: get_u64(json, "accept_errors")?,
        late_503s: get_u64(json, "late_503s")?,
        open_conns: get_u64(json, "open_conns")?,
    })
}

// ---------------------------------------------------------------- errors

fn encode_error(e: &HarborError) -> Json {
    match e {
        HarborError::Script(se) => Json::obj()
            .set("type", "script")
            .set("stage", se.stage.to_string())
            .set("line", se.span.line)
            .set("col", se.span.col)
            .set("msg", se.msg.as_str()),
        HarborError::RuntimeUnavailable { runtime, cluster } => Json::obj()
            .set("type", "runtime-unavailable")
            .set("runtime", runtime.as_str())
            .set("cluster", cluster.as_str()),
        HarborError::Placement(p) => Json::obj()
            .set("type", "placement")
            .set("msg", p.to_string()),
        HarborError::Build(b) => Json::obj().set("type", "build").set("msg", b.to_string()),
        HarborError::Remote { kind, msg } => Json::obj()
            .set("type", kind.as_str())
            .set("msg", msg.as_str()),
    }
}

fn decode_error(json: &Json) -> Result<HarborError, WireError> {
    match get_str(json, "type")? {
        "script" => Ok(HarborError::Script(ScriptError {
            stage: match get_str(json, "stage")? {
                "lex" => ScriptStage::Lex,
                "parse" => ScriptStage::Parse,
                "compile" => ScriptStage::Compile,
                other => return err(format!("unknown script stage `{other}`")),
            },
            span: Span {
                line: get_u64(json, "line")? as u32,
                col: get_u64(json, "col")? as u32,
            },
            msg: get_str(json, "msg")?.to_string(),
        })),
        "runtime-unavailable" => Ok(HarborError::RuntimeUnavailable {
            runtime: get_str(json, "runtime")?.to_string(),
            cluster: get_str(json, "cluster")?.to_string(),
        }),
        kind => Ok(HarborError::Remote {
            kind: kind.to_string(),
            msg: get_str(json, "msg")?.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use harborsim_hw::presets;

    fn scenario() -> Scenario {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(4)
            .ranks_per_node(14)
    }

    #[test]
    fn scenarios_round_trip_every_knob() {
        let s = scenario()
            .threads_per_rank(2)
            .engine(EngineKind::Des {
                max_steps_per_kind: 50,
            })
            .with_deployment()
            .placement(Placement::RoundRobin)
            .spine_taper(0.66)
            .degrade_node_uplink(3, 0.1)
            .shards(4);
        let key = super::super::PlanKey::of(&s, None).unwrap();
        let json = encode_scenario(&s).unwrap();
        let back = decode_scenario(&json).unwrap();
        let back_key = super::super::PlanKey::of(&back, None).unwrap();
        assert_eq!(key, back_key, "wire round-trip must preserve the plan key");
        // and the encoding itself is deterministic
        assert_eq!(json.write(), encode_scenario(&back).unwrap().write());
    }

    #[test]
    fn open_specs_round_trip() {
        let s = scenario().open_campaign(OpenSpec {
            rate_per_s: 0.04,
            horizon_s: 900.0,
            tenants: 4,
            node_mix: MixSpec {
                s: 1.2,
                values: vec![1, 2],
            },
            workload_mix: MixSpec::single("cfd-small".to_string()),
            env_mix: MixSpec {
                s: 1.1,
                values: vec![Execution::docker(), Execution::shifter()],
            },
        });
        let key = super::super::PlanKey::of(&s, None).unwrap();
        let back = decode_scenario(&encode_scenario(&s).unwrap()).unwrap();
        assert_eq!(key, super::super::PlanKey::of(&back, None).unwrap());
    }

    #[test]
    fn custom_clusters_are_rejected_not_garbled() {
        let mut custom = presets::lenox();
        custom.node_count += 1;
        let s = Scenario::new(custom, workloads::artery_cfd_small());
        assert!(encode_scenario(&s).is_err());
    }

    #[test]
    fn errors_round_trip_typed() {
        let script = HarborError::Script(ScriptError {
            stage: ScriptStage::Compile,
            span: Span { line: 3, col: 11 },
            msg: "unknown cluster `atlantis`".into(),
        });
        let rt = HarborError::RuntimeUnavailable {
            runtime: "Docker".into(),
            cluster: "MareNostrum4".into(),
        };
        for e in [&script, &rt] {
            let back = decode_error(&encode_error(e)).unwrap();
            assert_eq!(&back, e, "typed errors must round-trip exactly");
        }
        // placement errors degrade to Remote but keep the rendered text
        let placement = HarborError::Placement(harborsim_hw::PlacementError::ZeroDimension);
        let back = decode_error(&encode_error(&placement)).unwrap();
        match &back {
            HarborError::Remote { kind, msg } => {
                assert_eq!(kind, "placement");
                assert_eq!(msg, &placement.to_string());
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
        assert_eq!(back.to_string(), placement.to_string());
    }

    #[test]
    fn requests_survive_encode_decode() {
        let req = LabRequest::batch([scenario(), scenario().nodes(2)], &[1, 2, 3]);
        let wire = encode_request(&req).unwrap();
        let back = decode_request(&wire).unwrap();
        // re-encoding the decoded request is byte-identical
        assert_eq!(encode_request(&back).unwrap(), wire);
        let LabRequest::Batch { queries } = back else {
            panic!("kind must survive");
        };
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].seeds, vec![1, 2, 3]);
    }

    #[test]
    fn version_mismatches_are_rejected() {
        let msg = encode_request(&LabRequest::Stats).unwrap();
        let bumped = msg.replace("\"v\":1", "\"v\":2");
        // `Scenario` carries boxed workloads and has no `Debug`, so
        // requests don't either: match instead of `unwrap_err`
        let e = match decode_request(&bumped) {
            Err(e) => e,
            Ok(_) => panic!("a future wire version must be rejected"),
        };
        assert!(e.msg.contains("version"), "{e}");
    }
}
