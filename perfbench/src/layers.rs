//! The traced run's in-process layer probes: the benchmark calls each
//! layer's public functions itself, with a span around every call.
//!
//! Each probe runs on its own thread, confined to one CPU: several
//! layers reach `harborsim_par::run`, which can deadlock with two or
//! more workers (see `child::one_cpu`), and on one CPU it takes its
//! serial path, as the reproductions do. The par pool itself is not
//! probed for the same reason. A deadline stays as a net: a hung call
//! costs one failed operation, not the run.

use crate::child;
use crate::driver::{Req, Verb};
use crate::manifest::{EXPERIMENTS, VERBS};
use crate::mix::{self, Mix};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{with_deadline, Tally};
use harborsim_alya::cfd::{CfdConfig, CfdSolver};
use harborsim_alya::mesh::TubeMesh;
use harborsim_core::experiments::{
    ext_breakdown, ext_campaign, ext_degraded, ext_io, ext_locality, ext_open_system, ext_oversub,
    ext_weak, fig1, fig2, fig3, tables, validation,
};
use harborsim_core::lab::daemon::http;
use harborsim_core::lab::{wire, LabRequest, LabResponse, QueryEngine};
use harborsim_core::scenario::{EngineKind, Scenario};
use harborsim_des::trace::Recorder;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Metrics = BTreeMap<String, f64>;

/// One probe, ready to run on its own thread.
type ProbeFn = Box<dyn FnOnce(Probe) -> Probe + Send>;

/// Every probe finishes in about two seconds; one that has not after
/// this is hung.
const PROBE_DEADLINE: Duration = Duration::from_secs(20);

/// What one probe hands back: spans and wrong answers. Its metrics are
/// published as they are measured, so a probe that hangs part-way
/// still leaves the ones it finished.
struct Probe {
    t0: Instant,
    metrics: Arc<Mutex<Metrics>>,
    tracer: Tracer,
    wrong: u64,
}

impl Probe {
    fn new(t0: Instant, metrics: Arc<Mutex<Metrics>>) -> Probe {
        Probe {
            t0,
            metrics,
            tracer: Tracer::new(t0),
            wrong: 0,
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), value);
    }
}

/// What a metric reads when the probe measuring it hung: a time reads
/// the probe deadline (the call took at least that long), anything else
/// zero (nothing finished).
fn unmeasured(unit: &str) -> f64 {
    let s = PROBE_DEADLINE.as_secs_f64();
    match unit {
        "s" => s,
        "ms" => s * 1e3,
        "us" => s * 1e6,
        "ns" => s * 1e9,
        _ => 0.0,
    }
}

/// Run every probe; the replay stream is the workload's own low-phase
/// requests (`picks` into `mix`), plus one batch and one campaign so
/// every verb is measured.
pub fn run_all(
    mix: &Mix,
    picks: &[u32],
    t0: Instant,
    tracer: &mut Tracer,
    out: &mut Metrics,
    tally: &mut Tally,
) {
    let stream: Arc<Vec<Req>> = Arc::new(
        picks
            .iter()
            .take(2000)
            .map(|&m| mix.menu[m as usize].clone())
            .chain(mix::reference_requests())
            .collect(),
    );

    let probes: Vec<(&str, ProbeFn)> = vec![
        ("replay", Box::new(move |p| replay(&stream, p))),
        ("scenario", Box::new(scenario_and_script)),
        ("experiments", Box::new(experiments)),
        ("open", Box::new(open)),
        ("alya", Box::new(alya)),
    ];
    let cpu = child::one_cpu()
        .map_err(|e| eprintln!("perfbench: probes run unconfined: cannot read the CPU mask: {e}"))
        .ok();
    let mut hung = false;
    for (name, probe) in probes {
        tally.attempted += 1;
        let published = Arc::new(Mutex::new(Metrics::new()));
        let p = Probe::new(t0, Arc::clone(&published));
        let confined = move || {
            if let Some(Err(e)) = cpu.as_ref().map(child::confine) {
                eprintln!("perfbench: the {name} probe runs unconfined: {e}");
            }
            probe(p)
        };
        match with_deadline(PROBE_DEADLINE, confined) {
            Some(p) => {
                tally.failed += p.wrong;
                tally.wrong += p.wrong;
                tracer.absorb(p.tracer);
            }
            None => {
                eprintln!("perfbench: the {name} probe hung past its deadline");
                tally.failed += 1;
                hung = true;
            }
        }
        out.extend(std::mem::take(
            &mut *published.lock().unwrap_or_else(|e| e.into_inner()),
        ));
    }
    if hung {
        for (name, unit) in crate::manifest::per_layer() {
            out.entry(name).or_insert_with(|| unmeasured(unit));
        }
    }
    out.insert(
        "host_threads".into(),
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
}

/// Per-request timings of one traced replay pass.
#[derive(Default)]
struct Samples {
    parse_ns: Vec<f64>,
    render_ns: Vec<f64>,
    /// Per verb: decode µs, encode µs, request bytes, response bytes.
    per_verb: BTreeMap<&'static str, [Vec<f64>; 4]>,
    handle_exec_us: Vec<f64>,
    errors: u64,
}

/// One request through the daemon's own layers, in process: parse the
/// head, decode, handle, encode, render. With a tracer, each layer call
/// gets a span under one root span per request.
fn serve_one(engine: &QueryEngine, req: &Req, id: u64, t: Option<(&mut Tracer, &mut Samples)>) {
    let Some((t, s)) = t else {
        let (head, used) = http::parse_head(&req.wire)
            .ok()
            .flatten()
            .expect("benchmark request heads parse");
        let body =
            std::str::from_utf8(&req.wire[used..used + head.content_length]).expect("utf-8 body");
        let decoded = wire::decode_request(body).expect("benchmark requests decode");
        let resp = wire::encode_response(&engine.handle(decoded));
        let mut out = Vec::new();
        http::render_response(&mut out, 200, &resp);
        std::hint::black_box(out);
        return;
    };
    let root = t.open("replay", "request", id, None);
    let (parsed, ns) = t.time("http", "parse_head", id, Some(root), || {
        http::parse_head(&req.wire)
    });
    s.parse_ns.push(ns as f64);
    let (head, used) = parsed
        .ok()
        .flatten()
        .expect("benchmark request heads parse");
    let body =
        std::str::from_utf8(&req.wire[used..used + head.content_length]).expect("utf-8 body");
    let (decoded, dec_ns) = t.time("wire", "decode_request", id, Some(root), || {
        wire::decode_request(body)
    });
    let decoded = decoded.expect("benchmark requests decode");
    let (resp, handle_ns) = t.time("lab", "handle", id, Some(root), || engine.handle(decoded));
    if matches!(resp, LabResponse::Error(_)) {
        s.errors += 1;
    }
    let (text, enc_ns) = t.time("wire", "encode_response", id, Some(root), || {
        wire::encode_response(&resp)
    });
    let mut out = Vec::new();
    let (_, ren_ns) = t.time("http", "render_response", id, Some(root), || {
        http::render_response(&mut out, 200, &text)
    });
    s.render_ns.push(ren_ns as f64);
    t.close(root);
    if req.verb == Verb::Execute {
        s.handle_exec_us.push(handle_ns as f64 / 1e3);
    }
    let v = s.per_verb.entry(req.verb.name()).or_default();
    v[0].push(dec_ns as f64 / 1e3);
    v[1].push(enc_ns as f64 / 1e3);
    v[2].push(body.len() as f64);
    v[3].push(text.len() as f64);
}

/// One pass over the stream on a fresh engine; its wall time.
fn pass(stream: &[Req], mut traced: Option<(&mut Tracer, &mut Samples)>) -> Duration {
    let engine = QueryEngine::new();
    let start = Instant::now();
    for (k, req) in stream.iter().enumerate() {
        let t = traced.as_mut().map(|(t, s)| (&mut **t, &mut **s));
        serve_one(&engine, req, k as u64, t);
    }
    start.elapsed()
}

/// Replay the request stream through the daemon's layers in process.
/// After a warm-up pass, bare and traced passes alternate three times
/// on fresh engines; the median wall-time difference is the tracing
/// overhead. A last traced pass gives the per-layer figures.
fn replay(stream: &[Req], mut p: Probe) -> Probe {
    let t0 = p.t0;
    pass(stream, None);
    let diffs: Vec<f64> = (0..3)
        .map(|_| {
            let bare = pass(stream, None);
            let mut scratch = (Tracer::new(t0), Samples::default());
            let traced = pass(stream, Some((&mut scratch.0, &mut scratch.1)));
            (traced.as_secs_f64() - bare.as_secs_f64()) * 1e3
        })
        .collect();
    p.set("trace.overhead_ms", median(&diffs));

    let mut t = Tracer::new(t0);
    let mut s = Samples::default();
    pass(stream, Some((&mut t, &mut s)));
    p.wrong += s.errors;
    p.set("http.parse_head_ns", median(&s.parse_ns));
    p.set("http.render_response_ns", median(&s.render_ns));
    for verb in VERBS {
        let v = s.per_verb.get(verb).expect("every verb is replayed");
        p.set(&format!("wire.decode_request_us.{verb}"), median(&v[0]));
        p.set(&format!("wire.encode_response_us.{verb}"), median(&v[1]));
        p.set(&format!("wire.request_bytes.{verb}"), median(&v[2]));
        p.set(&format!("wire.response_bytes.{verb}"), median(&v[3]));
    }
    p.set("lab.handle_execute_us", median(&s.handle_exec_us));

    // Plan resolution on a fresh engine: the first lookup of each
    // scenario compiles (miss), the second is served (hit). Executing
    // the resolved plan is the scenario layer's share of a request.
    let engine = QueryEngine::new();
    let (mut hit, mut miss, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    for (k, req) in stream.iter().enumerate().take(400) {
        let Ok(LabRequest::Execute { scenario, seed }) = wire::decode_request(&req.body) else {
            continue;
        };
        let id = k as u64;
        let misses = engine.stats().misses;
        let (plan, ns) = t.time("lab", "plan", id, None, || engine.plan(&scenario));
        let plan = plan.expect("benchmark scenarios compile");
        if engine.stats().misses > misses {
            miss.push(ns as f64 / 1e3);
            let (_, ns) = t.time("lab", "plan", id, None, || engine.plan(&scenario));
            hit.push(ns as f64 / 1e3);
        } else {
            hit.push(ns as f64 / 1e3);
        }
        let (_, ns) = t.time("scenario", "execute", id, None, || {
            plan.execute(seed, &mut Recorder::off())
        });
        exec.push(ns as f64 / 1e3);
    }
    p.set("lab.plan_hit_us", median(&hit));
    p.set("lab.plan_miss_us", median(&miss));
    p.set("scenario.execute_us.analytic", median(&exec));

    // The cost of one span, measured on a scratch tracer.
    let mut scratch = Tracer::new(Instant::now());
    let n = 100_000;
    let s = Instant::now();
    for i in 0..n {
        let id = scratch.open("replay", "span", i, None);
        scratch.close(id);
    }
    p.set(
        "trace.span_cost_ns",
        s.elapsed().as_nanos() as f64 / n as f64,
    );
    p.tracer = t;
    p
}

fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..n)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&v)
}

/// Fresh compiles, a DES execute, and script compiles.
fn scenario_and_script(mut p: Probe) -> Probe {
    let mut t = Tracer::new(p.t0);
    let compile = median_us(9, || {
        let s = harborsim_bench::loadgen::menu_scenario(8);
        let (plan, _) = t.time("scenario", "compile", 0, None, || s.compile());
        std::hint::black_box(plan.expect("menu scenarios compile"));
    });
    p.set("scenario.compile_us", compile);

    let des = Scenario::new(
        harborsim_hw::presets::lenox(),
        harborsim_core::workloads::artery_cfd_small(),
    )
    .nodes(2)
    .engine(EngineKind::Des {
        max_steps_per_kind: 2,
    })
    .compile()
    .expect("the DES probe scenario compiles");
    let des_us = median_us(9, || {
        t.time("scenario", "execute_des", 0, None, || {
            std::hint::black_box(des.execute(11, &mut Recorder::off()))
        });
    });
    p.set("scenario.execute_us.des", des_us);

    let campaign = mix::campaign_script(4);
    let c = median_us(9, || {
        let (r, _) = t.time("script", "compile", 0, None, || {
            harborsim_core::script::compile_str(&campaign)
        });
        std::hint::black_box(r.expect("the campaign script compiles"));
    });
    p.set("script.compile_us.campaign", c);
    let scripts = [
        fig1::SCRIPT,
        fig2::SCRIPT,
        fig3::SCRIPT,
        ext_degraded::SCRIPT,
        ext_locality::SCRIPT,
        ext_open_system::SCRIPT,
    ];
    let mut per_script = Vec::new();
    for src in scripts {
        per_script.push(median_us(3, || {
            let (r, _) = t.time("script", "compile", 0, None, || {
                harborsim_core::script::compile_str(src)
            });
            std::hint::black_box(r.expect("experiment scripts compile"));
        }));
    }
    p.set("script.compile_us.experiment", median(&per_script));
    p.tracer = t;
    p
}

/// Each experiment's public `run`, in `reproduce_all`'s order, on one
/// fresh engine, with its shape check.
fn experiments(mut p: Probe) -> Probe {
    let mut t = Tracer::new(p.t0);
    let lab = QueryEngine::new();
    let seeds = harborsim_core::runner::default_seeds();
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        let start = Instant::now();
        let violations = t
            .time("experiments", "run", i as u64, None, || match *name {
                "fig1" => fig1::check_shape(&fig1::run(&lab, seeds)),
                "fig2" => fig2::check_shape(&fig2::run(&lab, seeds)),
                "fig3" => fig3::check_shape(&fig3::run(&lab, seeds)),
                "tables" => {
                    let mut v = tables::check_deployment_shape(&tables::deployment(&lab, seeds));
                    v.extend(tables::check_portability_shape(&tables::portability(
                        &lab, seeds,
                    )));
                    v
                }
                "ext-io" => ext_io::check_shape(&ext_io::run()),
                "ext-breakdown" => ext_breakdown::check_shape(&ext_breakdown::run(&lab, seeds[0])),
                "ext-campaign" => ext_campaign::check_shape(&ext_campaign::run(&lab, seeds)),
                "ext-open-system" => {
                    ext_open_system::check_shape(&ext_open_system::run(&lab, seeds))
                }
                "ext-weak" => ext_weak::check_shape(&ext_weak::run(&lab, seeds)),
                "ext-oversub" => ext_oversub::check_shape(&ext_oversub::run(&lab, seeds)),
                "ext-degraded" => ext_degraded::check_shape(&ext_degraded::run(&lab, seeds)),
                "ext-locality" => ext_locality::check_shape(&ext_locality::run(&lab, seeds)),
                "validation" => validation::check_shape(&validation::run(&lab)),
                other => unreachable!("unknown experiment {other}"),
            })
            .0;
        p.set(&format!("repro.{name}_s"), start.elapsed().as_secs_f64());
        if !violations.is_empty() {
            eprintln!("perfbench: {name} shape check failed: {violations:?}");
            p.wrong += 1;
        }
    }
    p.tracer = t;
    p
}

/// One open-system campaign: the committed ext-open-system script's
/// first run.
fn open(mut p: Probe) -> Probe {
    let mut t = Tracer::new(p.t0);
    let lab = QueryEngine::new();
    let compiled = harborsim_core::script::compile_str(ext_open_system::SCRIPT)
        .expect("the committed open-system script compiles");
    let scenario = &compiled.campaigns[0].runs[0].scenario;
    let (report, ns) = t.time("open", "run_open_campaign", 0, None, || {
        harborsim_core::run_open_campaign(&lab, scenario, 11, &mut Recorder::off())
    });
    match report {
        Ok(r) => {
            p.set("open.campaign_s", ns as f64 / 1e9);
            p.set("open.jobs", r.jobs as f64);
        }
        Err(e) => {
            eprintln!("perfbench: open campaign failed: {e}");
            p.wrong += 1;
            p.set("open.campaign_s", ns as f64 / 1e9);
            p.set("open.jobs", 0.0);
        }
    }
    p.tracer = t;
    p
}

/// Steps of the artery tube solve on the serial kernels. The same
/// steps through the threaded kernels (on this probe's one CPU, so on
/// one worker) must leave the state bit for bit equal.
fn alya(mut p: Probe) -> Probe {
    const STEPS: usize = 30;
    let mut t = Tracer::new(p.t0);
    let mesh = TubeMesh::cylinder(17, 17, 48, 7.0);
    let mut cfg = CfdConfig::stable(&mesh, 25.0, 0.08);
    cfg.parallel = false;
    let mut serial = CfdSolver::new(mesh.clone(), cfg.clone());
    cfg.parallel = true;
    let mut threaded = CfdSolver::new(mesh.clone(), cfg);
    let (_, serial_ns) = t.time("alya", "serial_steps", 0, None, || serial.run(STEPS));
    threaded.run(STEPS);
    let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    if !same(&serial.w, &threaded.w)
        || !same(&serial.p, &threaded.p)
        || serial.stats.cg_iters != threaded.stats.cg_iters
    {
        eprintln!("perfbench: threaded CFD steps differ from the serial solve");
        p.wrong += 1;
    }
    let step_ms = serial_ns as f64 / 1e6 / STEPS as f64;
    let cg_per_step = serial.stats.cg_iters as f64 / STEPS as f64;
    p.set("alya.serial_step_ms", step_ms);
    p.set(
        "alya.cups",
        mesh.active_cells() as f64 / (step_ms / 1e3).max(1e-12),
    );
    p.set("alya.cg_iters", serial.stats.cg_iters as f64);
    p.set("alya.flops", serial.stats.flops / STEPS as f64);
    // Computed from array sizes, not measured: per step the momentum and
    // divergence sweeps stream eight full-box arrays (u, v, w, p and
    // their updates) and each CG iteration streams five (x, r, p, Ap
    // and the coefficient mask).
    p.set(
        "alya.bytes_per_step",
        mesh.total_cells() as f64 * 8.0 * (8.0 + 5.0 * cg_per_step),
    );
    p.tracer = t;
    p
}
