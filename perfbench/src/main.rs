//! HarborSim's benchmark: the reproduction, the lab daemon and the
//! kernels, measured end to end and layer by layer.
//!
//! ```sh
//! python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds the shipped `reproduce_all` and this program from
//! source, then runs `perfbench --bin <reproduce_all> ARGS`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`). `perfbench --manifest` prints the
//! `BENCHMARK.json` these tables define. NOTES.md says why each
//! workload exists and which layer should move which number.

mod child;
mod driver;
mod hostspeed;
mod layers;
mod manifest;
mod mix;
mod repro;
mod serve;
mod stats;
mod trace;

use child::CpuSet;
use hostspeed::Scaler;
use manifest::{END_TO_END, WORKLOADS};
use mix::Mix;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Operations attempted and failed; `wrong` counts the failures that
/// were wrong answers (rather than missing ones), which make the run
/// incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// Run `f` on its own thread; give up on it after `limit`. A call that
/// never returns (the par pool can deadlock) is left parked, and the
/// process's exit ends it.
pub fn with_deadline<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx.recv_timeout(limit).ok();
    if out.is_some() {
        let _ = handle.join();
    }
    out
}

/// A run may take at most 180 s; past this the watchdog stops every
/// child and exits without a result.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// How `--seconds` is spent, as work counts fixed by it so both sides
/// of a comparison do the same work: `repro` runs REPROS_PER_SECOND
/// reproductions (1.1-2.2 s each on one CPU, as the host's speed
/// varies) per second of the run; serve-small one daemon session (about
/// 4.5 s) per SECONDS_PER_SESSION, at least MIN_SESSIONS, and
/// SIDE_REPROS reproductions.
const REPROS_PER_SECOND: f64 = 0.45;
const SECONDS_PER_SESSION: f64 = 10.0;
const MIN_SESSIONS: f64 = 3.0;
const SIDE_REPROS: f64 = 18.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--bin <reproduce_all>]\n       perfbench --manifest",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            print!("{}", manifest::render());
            exit(0);
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].contains(&value.as_str()).then(|| value == "1"),
            "--bin" => bin = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        bin: bin.unwrap_or_else(|| {
            let target = std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into());
            Path::new(&target).join("release/reproduce_all")
        }),
    }
}

/// Reproductions in this process, each on one CPU between two timings
/// of the speed kernel there: each must pass its shape checks and write
/// the same `summary.json` as the first. Times are kept as measured and
/// scaled to the nominal host (`hostspeed`).
struct Repros {
    scaler: Scaler,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    raw_wall_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    first_summary: Option<Vec<u8>>,
}

impl Repros {
    fn new(cpu: CpuSet) -> Repros {
        Repros {
            scaler: Scaler::new(cpu),
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            raw_wall_s: Vec::new(),
            peak_rss_mb: Vec::new(),
            first_summary: None,
        }
    }

    fn run(&mut self, bin: &Path, root: &Path, tally: &mut Tally, tracer: &mut Tracer) {
        let summary = root.join("target/study/summary.json");
        tally.attempted += 1;
        let ((r, start), scale) = self.scaler.around(|cpu| {
            let start = Instant::now();
            (repro::run_once(bin, &summary, cpu), start)
        });
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                tally.failed += 1;
                return;
            }
        };
        tracer.record(
            "process",
            "reproduce_all",
            self.wall_s.len() as u64,
            start,
            start + Duration::from_secs_f64(r.wall_s),
        );
        let same = match (&self.first_summary, &r.summary) {
            (_, None) => false,
            (None, Some(s)) => {
                self.first_summary = Some(s.clone());
                true
            }
            (Some(a), Some(b)) => a == b,
        };
        if r.timed_out {
            eprintln!("perfbench: reproduce_all hung; killed at its deadline");
            tally.failed += 1;
        } else if !r.ok || !same {
            eprintln!(
                "perfbench: reproduce_all failed its checks (exit ok: {}, summary identical: {same})",
                r.ok
            );
            tally.failed += 1;
            tally.wrong += 1;
        } else {
            self.setup_s.push(r.setup_s * scale);
            self.wall_s.push(r.wall_s * scale);
            self.raw_wall_s.push(r.wall_s);
            self.peak_rss_mb.push(r.peak_rss_mb);
        }
    }
}

fn main() {
    let args = parse_args();
    thread::spawn(|| {
        thread::sleep(RUN_DEADLINE);
        eprintln!("perfbench: run deadline passed; stopping every child");
        child::kill_all();
        exit(3);
    });
    let root = std::env::current_dir().expect("a working directory");
    if !args.bin.is_file() {
        eprintln!(
            "perfbench: {} not found (build it with `cargo build --release -p harborsim-bench --bin reproduce_all`)",
            args.bin.display()
        );
        exit(2);
    }
    let t0 = Instant::now();
    let s = args.seconds;
    let mut tally = Tally::default();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut tracer = Tracer::new(t0);
    // Reproductions and the speed kernel run on one CPU (see
    // `child::one_cpu` and `hostspeed`).
    let cpu = child::one_cpu().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot read the CPU affinity mask: {e}");
        exit(1);
    });
    let mut repros = Repros::new(cpu);

    // Every run measures every end-to-end metric. `repro` fills its time
    // with reproductions; serve-small runs daemon sessions plus a few
    // reproductions for `repro_wall_s`. A traced `repro` run adds the
    // daemon sessions too, for the daemon's per-layer metrics.
    let repro = args.workload == "repro";
    let (reproductions, sessions) = if repro {
        (
            s * REPROS_PER_SECOND,
            if args.trace {
                s / SECONDS_PER_SESSION
            } else {
                0.0
            },
        )
    } else {
        (SIDE_REPROS, s / SECONDS_PER_SESSION)
    };
    for _ in 0..reproductions.round() as usize {
        repros.run(&args.bin, &root, &mut tally, &mut tracer);
    }
    m.insert("repro_wall_s".into(), median(&repros.wall_s));
    println!(
        "  {} reproductions: wall {:.4} s as measured, speed kernel {:.2} ms ({:.0} ms nominal), both medians",
        repros.raw_wall_s.len(),
        median(&repros.raw_wall_s),
        median(&repros.scaler.kernel_s) * 1e3,
        hostspeed::NOMINAL_S * 1e3,
    );
    let mix = Mix::small();
    let mut low_picks = Vec::new();
    if sessions > 0.0 {
        let out = serve::session(
            &args.bin,
            &mix,
            args.seed,
            sessions.round().max(MIN_SESSIONS) as u64,
            &mut tally,
            Some(&mut tracer),
        )
        .unwrap_or_else(|e| {
            eprintln!("perfbench: the daemon session failed: {e}");
            child::kill_all();
            exit(1);
        });
        m.extend(out.metrics);
        low_picks = out.low_picks;
    }
    if repro {
        m.insert("setup_s".into(), median(&repros.setup_s));
        m.insert("peak_rss_mb".into(), median(&repros.peak_rss_mb));
    }

    if args.trace {
        layers::run_all(&mix, &low_picks, t0, &mut tracer, &mut m, &mut tally);
        let self_ms = tracer.self_ms();
        for layer in manifest::LAYERS {
            m.insert(
                format!("self_ms.{layer}"),
                self_ms.get(layer).copied().unwrap_or(0.0),
            );
        }
        m.insert("trace.spans".into(), tracer.spans.len() as f64);
        let dir = root.join(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    m.insert(
        "failed_share".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    report(&args, &m, &tally);
}

/// Print every metric of this run's kind by name with its unit, the
/// run's context, and the result line.
fn report(args: &Args, m: &BTreeMap<String, f64>, tally: &Tally) {
    let names: Vec<String> = if args.trace {
        manifest::per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|e| e.name.to_string()).collect()
    };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    println!(
        "workload {} seed {} seconds {} trace {} host_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        thread::available_parallelism().map_or(1, |n| n.get())
    );
    for name in &names {
        let unit = manifest::unit_of(name).expect("every printed name is in the manifest");
        match m.get(name) {
            Some(v) if v.is_finite() => {
                println!("  {name:<36} {v:>16.6} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => missing.push(name.as_str()),
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: no value measured for {missing:?}");
        exit(1);
    }
    println!(
        "  attempted {} failed {} (wrong answers {})",
        tally.attempted, tally.failed, tally.wrong
    );
    let correct = tally.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    if !correct {
        exit(1);
    }
}
