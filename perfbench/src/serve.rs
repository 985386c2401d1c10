//! A daemon session: the shipped `reproduce_all --serve` as a child,
//! driven open-loop at the workload's two fixed rates and up its rate
//! ladder, with every answer checked.

use crate::child::{Exit, Watched};
use crate::driver::{self, Conn, OpenRun, Req, STATS_REQUEST};
use crate::mix::{self, Mix};
use crate::stats::{beyond, median, percentile, Rng};
use crate::trace::Tracer;
use crate::Tally;
use harborsim_core::lab::{wire, EngineStats, LabResponse, QueryEngine};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// p99 limit of the rate ladder, ms: above the 3–12 ms jitter seen at
/// unsaturated rates, so the knee sets the sustained rate, not the host.
const LIMIT_MS: f64 = 20.0;

/// The two fixed offered rates, requests/s: unloaded, so service
/// overhead shows, and below the knee (about 35–45k/s on two hardware
/// threads), so queueing shows.
const LOW_RATE: f64 = 2_000.0;
const HIGH_RATE: f64 = 20_000.0;

/// Phase lengths of one session, seconds.
const LOW_S: f64 = 1.0;
const HIGH_S: f64 = 0.6;
const RUNG_S: f64 = 0.4;

/// The rate ladder is fixed: rung i offers `HIGH_RATE × STEP^i`.
const STEP: f64 = 1.06;

/// The ladder spans `HIGH_RATE × STEP^±MAX_RUNG` (0.15× to 6.5×).
const MAX_RUNG: i32 = 32;

/// Passes over the heavy probe; the first warms the plan cache.
const HEAVY_PASSES: usize = 11;

/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(3);

/// Daemons started and stopped after each session for their set-up
/// time alone (a few ms each), so `setup_s` is a median of many.
const EXTRA_SETUPS: usize = 5;

pub struct Daemon {
    watched: Watched,
    pub addr: SocketAddr,
    pub ready_s: f64,
}

impl Daemon {
    /// Spawn the daemon and wait until it answers `GET /v1/stats`.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let watched = Watched::spawn(bin, &["--serve", "127.0.0.1:0"], None)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let Some((_, line)) = watched.wait_line(deadline, |l| l.contains("serving on http://"))
        else {
            watched.wait(Instant::now());
            return Err("the daemon never announced its address".into());
        };
        let addr: SocketAddr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unparseable announcement: {line}"))?;
        let answered = Conn::connect(addr).and_then(|mut c| c.query(STATS_REQUEST));
        match answered {
            Ok(resp) if resp.status == 200 => Ok(Daemon {
                ready_s: watched.spawned.elapsed().as_secs_f64(),
                watched,
                addr,
            }),
            other => {
                watched.wait(Instant::now());
                Err(format!(
                    "the daemon did not answer its first stats request: {:?}",
                    other.map(|r| r.status)
                ))
            }
        }
    }

    /// Ask the daemon to shut down; kill it if it has not exited in 5 s.
    pub fn stop(self) -> Exit {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let shutdown =
                b"POST /v1/shutdown HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
            let _ = conn.query(shutdown);
        }
        self.watched.wait(Instant::now() + Duration::from_secs(5)).0
    }
}

fn stats(conn: &mut Conn) -> Option<EngineStats> {
    let resp = conn.query(STATS_REQUEST).ok()?;
    match wire::decode_response(std::str::from_utf8(&resp.body).ok()?) {
        Ok(LabResponse::Stats(s)) => Some(s),
        _ => None,
    }
}

/// Offered and achieved rate, and the latency percentiles behind them.
pub struct PhaseStats {
    pub offered: f64,
    pub achieved: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
}

/// Samples per window of the windowed p99: ten lie beyond it.
const WINDOW_SAMPLES: usize = 1000;

/// p50 over the whole phase; p99 as the median of the p99s of equal
/// time windows holding at least [`WINDOW_SAMPLES`] requests each, so
/// one scheduler stall on a shared host moves one window, not the
/// figure.
fn summarize(run: &OpenRun, rate: f64) -> PhaseStats {
    let lat = run.latencies_ms(|_| true);
    let windows = (lat.len() / WINDOW_SAMPLES).clamp(1, 16) as u64;
    let span = run.sched_ns.last().copied().unwrap_or(0) + 1;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let (from, to) = (span * w / windows, span * (w + 1) / windows);
            let lat = run.latencies_ms(|k| (from..to).contains(&run.sched_ns[k]));
            percentile(&lat, 0.99)
        })
        .collect();
    PhaseStats {
        offered: rate,
        achieved: run.answered() as f64 / run.span_s().max(1e-9),
        p50_ms: percentile(&lat, 0.5),
        p99_ms: median(&p99s),
        samples: lat.len(),
    }
}

/// What a serve measurement produced: every metric by name, each the
/// median over the independent daemon sessions of the run, and the
/// first session's low-phase picks for the in-process replay.
pub struct ServeOut {
    pub metrics: BTreeMap<String, f64>,
    pub low_picks: Vec<u32>,
}

/// Accounting for one open-loop phase: every scheduled request is an
/// operation; unanswered ones and wrong answers fail.
fn account(run: &OpenRun, tally: &mut Tally, gen: &mut GenStats) {
    let n = run.sched_ns.len() as u64;
    let answered = run.answered() as u64;
    tally.attempted += n;
    tally.failed += n - answered + run.bad.len() as u64;
    tally.wrong += run.bad.len() as u64;
    gen.sent += run.sent() as u64;
    gen.answered += answered;
    gen.late.extend(run.lateness_ms());
}

#[derive(Default)]
struct GenStats {
    sent: u64,
    answered: u64,
    late: Vec<f64>,
}

/// Run `sessions` independent daemon sessions — each a fresh daemon
/// (spawn to ready is its set-up time) driven through warm-up, the idle
/// stats round trip, the low and high phases, the rate ladder and the
/// heavy probe — and report every metric's median over them: on a
/// small shared host, neighbours slow whole sessions by up to 3×, and
/// the median session is the figure that repeats. `setup_s` is the
/// median over these daemons and [`EXTRA_SETUPS`] more per session.
/// It is not scaled by the speed kernel (`hostspeed`): a daemon's
/// set-up, thread starts and a socket, did not slow with the host as
/// memory-bound work does (scaled, five-run sets of it moved 1.4-1.8 ms
/// as the kernel moved 45-70 ms).
pub fn session(
    bin: &Path,
    mix: &Mix,
    seed: u64,
    sessions: u64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<ServeOut, String> {
    let mut per_session: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut low_picks = Vec::new();
    let mut setups = Vec::new();
    for i in 0..sessions {
        let mut rng = Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(i));
        tally.attempted += 1;
        let daemon = Daemon::spawn(bin).inspect_err(|_| tally.failed += 1)?;
        let ready_s = daemon.ready_s;
        let out = drive(&daemon, mix, &mut rng, tally, tracer.take());
        if daemon.stop().timed_out {
            eprintln!("perfbench: the daemon did not shut down; killed");
        }
        let (metrics, picks) = out?;
        setups.push(ready_s);
        for _ in 0..EXTRA_SETUPS {
            tally.attempted += 1;
            let extra = Daemon::spawn(bin).inspect_err(|_| tally.failed += 1)?;
            setups.push(extra.ready_s);
            if extra.stop().timed_out {
                eprintln!("perfbench: the daemon did not shut down; killed");
            }
        }
        println!(
            "  session {i}: p50 low {:.4} high {:.4} ms, p99 low {:.4} high {:.4} ms, max rate {:.0}/s, heavy p50 {:.4} ms, setup {:.6} s, peak rss {:.3} MB",
            metrics["p50_ms.low"],
            metrics["p50_ms.high"],
            metrics["p99_ms.low"],
            metrics["p99_ms.high"],
            metrics["max_rate_qps"],
            metrics["heavy_p50_ms"],
            ready_s,
            metrics["peak_rss_mb"],
        );
        for (k, v) in metrics {
            per_session.entry(k).or_default().push(v);
        }
        if i == 0 {
            low_picks = picks;
        }
    }
    per_session.insert("setup_s".into(), setups);
    Ok(ServeOut {
        metrics: per_session
            .into_iter()
            .map(|(k, v)| (k, median(&v)))
            .collect(),
        low_picks,
    })
}

fn drive(
    daemon: &Daemon,
    mix: &Mix,
    rng: &mut Rng,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<(BTreeMap<String, f64>, Vec<u32>), String> {
    let menu = &mix.menu;
    // Expected answers, computed in-process before the clock starts:
    // every response is compared with them byte for byte.
    let engine = QueryEngine::new();
    let expect: Arc<Vec<Vec<u8>>> = Arc::new(
        menu.iter()
            .map(|r| mix::expected_body(&engine, &r.body))
            .collect(),
    );
    let probe = mix::heavy_executes();
    let probe_expect: Vec<Vec<u8>> = probe
        .iter()
        .map(|r| mix::expected_body(&engine, &r.body))
        .collect();
    let addr = daemon.addr;
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut gen = GenStats::default();
    let mut layer = BTreeMap::new();

    // Warm-up, closed loop: every plan compiled and cached.
    for (req, exp) in menu.iter().zip(expect.iter()) {
        closed(&mut conn, req, exp, tally);
    }
    let before = stats(&mut conn).ok_or("stats before the run")?;

    // The front-end floor: stats round trips on the idle daemon.
    let rtt: Vec<f64> = (0..64)
        .filter_map(|_| {
            let t = Instant::now();
            conn.query(STATS_REQUEST)
                .ok()
                .map(|_| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    layer.insert("daemon.stats_rtt_us".into(), median(&rtt));

    let mut phase = |rate: f64, secs: f64, rng: &mut Rng, tally: &mut Tally| {
        let (sched, picks) = driver::poisson_schedule(rng, rate, secs, |r| mix.pick(r));
        let run = driver::run_open(addr, menu, &expect, sched, picks, DRAIN)
            .map_err(|e| format!("open-loop phase at {rate}/s: {e}"))?;
        account(&run, tally, &mut gen);
        let lat = run.latencies_ms(|_| true);
        let late = run.lateness_ms();
        println!(
            "  phase {rate:>8.0}/s {secs:>5.2}s: {} sent {} answered, p50 {:.3} ms p99 {:.3} ms over {} samples, sender late p99 {:.3} ms",
            run.sent(),
            run.answered(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.99),
            lat.len(),
            percentile(&late, 0.99),
        );
        Ok::<OpenRun, String>(run)
    };

    let low_run = phase(LOW_RATE, LOW_S, rng, tally)?;
    let low = summarize(&low_run, LOW_RATE);
    // Peak memory after warm-up and the unloaded rate. Past it, the
    // backlog, and the buffers holding it, grow with how fast the host
    // runs that minute (4.96-5.62 MB after the high rate over one set):
    // the high rate queues on purpose, and the ladder overloads.
    let peak_rss_mb = daemon
        .watched
        .peak_rss_mb()
        .ok_or("the daemon's peak resident set is unreadable")?;
    let high_run = phase(HIGH_RATE, HIGH_S, rng, tally)?;
    let high = summarize(&high_run, HIGH_RATE);

    // The ladder: rung i offers HIGH_RATE × STEP^i. A rung passes when
    // its p99 is within the limit, 99% of its requests are
    // answered within the limit after its last send (so no backlog is
    // left growing), and every answer checks out. Gallop from the high
    // rate to bracket the knee, then bisect.
    let mut rung = |i: i32, rng: &mut Rng, tally: &mut Tally| {
        let rate = (HIGH_RATE * STEP.powi(i)).round();
        let run = phase(rate, RUNG_S, rng, tally)?;
        let within = (LIMIT_MS * 1e6) as u64;
        let n = run.sched_ns.len();
        let ok = summarize(&run, rate).p99_ms <= LIMIT_MS
            && run.answered_by(within) as f64 >= 0.99 * n as f64
            && run.bad.is_empty();
        let achieved = run.answered_by(within) as f64 / run.span_s().max(1e-9);
        Ok::<(bool, f64), String>((ok, achieved))
    };
    let (mut pass, mut fail) = (None::<(i32, f64)>, None::<i32>);
    let (first_ok, first_rate) = rung(0, rng, tally)?;
    let mut step = 1;
    if first_ok {
        pass = Some((0, first_rate));
        while fail.is_none() {
            let i = pass.map_or(0, |p| p.0) + step;
            if i > MAX_RUNG {
                break;
            }
            match rung(i, rng, tally)? {
                (true, r) => pass = Some((i, r)),
                (false, _) => fail = Some(i),
            }
            step *= 2;
        }
    } else {
        fail = Some(0);
        while pass.is_none() {
            let i = fail.map_or(0, |f| f) - step;
            if i < -MAX_RUNG {
                break;
            }
            match rung(i, rng, tally)? {
                (true, r) => pass = Some((i, r)),
                (false, _) => fail = Some(i),
            }
            step *= 2;
        }
    }
    while let (Some((lo, _)), Some(hi)) = (pass, fail) {
        if hi - lo <= 1 {
            break;
        }
        let mid = (lo + hi) / 2;
        match rung(mid, rng, tally)? {
            (true, r) => pass = Some((mid, r)),
            (false, _) => fail = Some(mid),
        }
    }
    let max_rate_qps = pass.map_or(first_rate, |p| p.1);

    // Heavy latency: large executes, one at a time, on the idle daemon
    // (the first pass is warm-up).
    let mut heavy = Vec::new();
    for pass in 0..HEAVY_PASSES {
        for (req, exp) in probe.iter().zip(&probe_expect) {
            let t = Instant::now();
            if closed(&mut conn, req, exp, tally) && pass > 0 {
                heavy.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let (heavy_p50_ms, heavy_samples) = (median(&heavy), heavy.len());

    let after = stats(&mut conn).ok_or("stats after the run")?;
    drop(conn);
    record_stats(&mut layer, &before, &after);

    gen.late.sort_by(f64::total_cmp);
    for (name, value) in [
        ("gen.sent", gen.sent as f64),
        ("gen.answered", gen.answered as f64),
        ("gen.late_p99_ms", percentile(&gen.late, 0.99)),
        ("gen.late_max_ms", gen.late.last().copied().unwrap_or(0.0)),
        ("gen.offered_qps.low", low.offered),
        ("gen.achieved_qps.low", low.achieved),
        ("gen.samples.low", low.samples as f64),
        ("gen.offered_qps.high", high.offered),
        ("gen.achieved_qps.high", high.achieved),
        ("gen.samples.high", high.samples as f64),
        ("gen.samples.heavy", heavy_samples as f64),
    ] {
        layer.insert(name.into(), value);
    }
    for (what, s) in [("low", &low), ("high", &high)] {
        if beyond(s.samples, 0.99) < 10 {
            eprintln!(
                "perfbench: only {} samples behind p99_ms.{what}; the tail is not resolved",
                s.samples
            );
        }
    }
    if let Some(tracer) = tracer {
        // One span per low-phase request over the wire: scheduled
        // instant to the arrival of its answer.
        let t0 = low_run.t0;
        for k in 0..low_run.sched_ns.len() {
            if let Some(done) = low_run.done_ns[k] {
                tracer.record(
                    "daemon",
                    "request",
                    k as u64,
                    t0 + Duration::from_nanos(low_run.sched_ns[k]),
                    t0 + Duration::from_nanos(done),
                );
            }
        }
    }
    for (name, v) in [
        ("p50_ms.low", low.p50_ms),
        ("p99_ms.low", low.p99_ms),
        ("p50_ms.high", high.p50_ms),
        ("p99_ms.high", high.p99_ms),
        ("max_rate_qps", max_rate_qps),
        ("heavy_p50_ms", heavy_p50_ms),
        ("peak_rss_mb", peak_rss_mb),
    ] {
        layer.insert(name.into(), v);
    }
    Ok((layer, low_run.pick))
}

/// One closed-loop query checked against its expected bytes; false
/// (and a failure tallied) when it is unanswered or wrong.
fn closed(conn: &mut Conn, req: &Req, expect: &[u8], tally: &mut Tally) -> bool {
    tally.attempted += 1;
    match conn.query(&req.wire) {
        Ok(r) if r.status == 200 && r.body == expect => true,
        Ok(_) => {
            tally.failed += 1;
            tally.wrong += 1;
            false
        }
        Err(_) => {
            tally.failed += 1;
            false
        }
    }
}

fn record_stats(layer: &mut BTreeMap<String, f64>, before: &EngineStats, after: &EngineStats) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let (b, a) = (&before.cache, &after.cache);
    let hits = d(a.hits, b.hits);
    let misses = d(a.misses, b.misses);
    let waits = d(a.waits, b.waits);
    // Every miss inserts one plan; the entries that did not stay were
    // evicted.
    let evictions = (misses - (a.entries as f64 - b.entries as f64)).max(0.0);
    for (name, v) in [
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.waits", waits),
        ("cache.contended", d(a.contended, b.contended)),
        ("cache.evictions", evictions),
        ("cache.hit_ratio", hits / (hits + misses + waits).max(1.0)),
        (
            "lab.batched_executes",
            d(after.batched_executes, before.batched_executes),
        ),
    ] {
        layer.insert(name.into(), v);
    }
    let (db, da) = (before.daemon.as_ref(), after.daemon.as_ref());
    let field =
        |f: fn(&harborsim_core::lab::DaemonStats) -> u64| d(da.map_or(0, f), db.map_or(0, f));
    layer.insert("daemon.open_conns".into(), field(|s| s.open_conns));
    layer.insert("daemon.late_503s".into(), field(|s| s.late_503s));
    layer.insert("daemon.accept_errors".into(), field(|s| s.accept_errors));
}
