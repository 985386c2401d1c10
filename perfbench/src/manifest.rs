//! The benchmark's one table of workloads and metrics.
//!
//! `BENCHMARK.json` at the repository root is rendered from these
//! tables (`perfbench --manifest`), and a test pins the committed file
//! to the rendering, so a name the benchmark prints always exists in
//! the manifest.

/// A workload: its name and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "repro",
        why: "the researcher's job: reproduce_all --script scripts/repro_full.hsim on one CPU, 13 experiments and shape checks, fresh process each; batches, DES, open engine, 149 plan compiles; no HTTP",
    },
    Workload {
        name: "serve-small",
        why: "daemon front end and plan-cache hit path: open-loop Poisson executes at 2k and 20k/s on one connection, Zipf(1.1) over 12 cached plans; par, DES and compile bypassed",
    },
];

/// An end-to-end metric with its regression bound (share of the
/// parent's median).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "repro_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.24,
    },
];

/// The experiments of the full reproduction, by their `experiments`
/// directive names, in the order `reproduce_all` runs them.
pub const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "tables",
    "ext-io",
    "ext-breakdown",
    "ext-campaign",
    "ext-open-system",
    "ext-weak",
    "ext-oversub",
    "ext-degraded",
    "ext-locality",
    "validation",
];

/// Request verbs whose codec cost the traced run reports.
pub const VERBS: &[&str] = &["execute", "batch", "campaign"];

/// Layers whose self time the traced run reports.
pub const LAYERS: &[&str] = &[
    "daemon",
    "http",
    "wire",
    "lab",
    "scenario",
    "script",
    "experiments",
    "open",
    "alya",
];

/// Every per-layer metric as `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for (name, unit) in [
        ("failed_share", "ratio"),
        ("p50_ms.low", "ms"),
        ("p99_ms.low", "ms"),
        ("p50_ms.high", "ms"),
        ("p99_ms.high", "ms"),
        ("heavy_p50_ms", "ms"),
        ("max_rate_qps", "1/s"),
        ("gen.sent", "count"),
        ("gen.answered", "count"),
        ("gen.late_p99_ms", "ms"),
        ("gen.late_max_ms", "ms"),
        ("gen.offered_qps.low", "1/s"),
        ("gen.achieved_qps.low", "1/s"),
        ("gen.samples.low", "count"),
        ("gen.offered_qps.high", "1/s"),
        ("gen.achieved_qps.high", "1/s"),
        ("gen.samples.high", "count"),
        ("gen.samples.heavy", "count"),
        ("daemon.stats_rtt_us", "us"),
        ("daemon.open_conns", "count"),
        ("daemon.late_503s", "count"),
        ("daemon.accept_errors", "count"),
        ("http.parse_head_ns", "ns"),
        ("http.render_response_ns", "ns"),
    ] {
        add(name, unit);
    }
    for verb in VERBS {
        add(&format!("wire.decode_request_us.{verb}"), "us");
        add(&format!("wire.encode_response_us.{verb}"), "us");
        add(&format!("wire.request_bytes.{verb}"), "B");
        add(&format!("wire.response_bytes.{verb}"), "B");
    }
    for (name, unit) in [
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.waits", "count"),
        ("cache.contended", "count"),
        ("cache.evictions", "count"),
        ("cache.hit_ratio", "ratio"),
        ("lab.batched_executes", "count"),
        ("lab.plan_hit_us", "us"),
        ("lab.plan_miss_us", "us"),
        ("lab.handle_execute_us", "us"),
        ("scenario.compile_us", "us"),
        ("scenario.execute_us.analytic", "us"),
        ("scenario.execute_us.des", "us"),
        ("script.compile_us.campaign", "us"),
        ("script.compile_us.experiment", "us"),
    ] {
        add(name, unit);
    }
    for exp in EXPERIMENTS {
        add(&format!("repro.{exp}_s"), "s");
    }
    for (name, unit) in [
        ("open.campaign_s", "s"),
        ("open.jobs", "count"),
        ("host_threads", "count"),
        ("alya.serial_step_ms", "ms"),
        ("alya.cups", "1/s"),
        ("alya.cg_iters", "count"),
        ("alya.flops", "count"),
        ("alya.bytes_per_step", "B"),
    ] {
        add(name, unit);
    }
    for layer in LAYERS {
        add(&format!("self_ms.{layer}"), "ms");
    }
    add("trace.spans", "count");
    add("trace.span_cost_ns", "ns");
    add("trace.overhead_ms", "ms");
    m
}

/// The unit of any metric the benchmark prints.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(n, u)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(n),
                quoted(u),
                quoted(better_of(n))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Which direction is better for a per-layer metric: rates, ratios of
/// useful work and counts of work done are better higher; times,
/// sizes, lateness and failures lower.
fn better_of(name: &str) -> &'static str {
    let higher = [
        "max_rate_qps",
        "gen.answered",
        "gen.achieved_qps.low",
        "gen.achieved_qps.high",
        "cache.hits",
        "cache.hit_ratio",
        "lab.batched_executes",
        "alya.cups",
        "host_threads",
        "gen.sent",
        "gen.offered_qps.low",
        "gen.offered_qps.high",
        "gen.samples.low",
        "gen.samples.high",
        "gen.samples.heavy",
        "open.jobs",
        "trace.spans",
    ];
    if higher.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 40;

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(per_layer().len() <= 128);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END
                .iter()
                .all(|m| m.name == "setup_s" || m.bound < setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn committed_manifest_is_the_rendering() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render(),
            "regenerate with `perfbench --manifest > BENCHMARK.json`"
        );
        let json = harborsim_core::json::Json::parse(&committed).expect("manifest parses");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(json.get(key).is_some(), "{key}");
        }
    }
}
