//! The researcher's job: `reproduce_all --script scripts/repro_full.hsim`
//! in a fresh process confined to one CPU, under a deadline, with every
//! shape check and a byte-identical `summary.json` required.
//!
//! With two or more CPUs the reproduction can hang in
//! `harborsim_par::run` (see `child::one_cpu`); on one it takes the
//! serial path, as every machine with one hardware thread does.

use crate::child::{CpuSet, Watched};
use std::path::Path;
use std::time::{Duration, Instant};

/// One reproduction run.
pub struct ReproRun {
    /// Spawn to the first experiment header.
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Exit 0 and every shape check passed.
    pub ok: bool,
    pub timed_out: bool,
    pub summary: Option<Vec<u8>>,
}

/// A reproduction on one CPU takes 1.0-2.2 s, with the host's speed;
/// four times the slowest is a hang.
const DEADLINE: Duration = Duration::from_secs(8);

/// Run the full reproduction once, confined to `cpu`. `summary` is
/// where `reproduce_all` writes `summary.json` (removed first, so a
/// stale file never passes).
pub fn run_once(bin: &Path, summary: &Path, cpu: &CpuSet) -> Result<ReproRun, String> {
    let _ = std::fs::remove_file(summary);
    let watched = Watched::spawn(bin, &["--script", "scripts/repro_full.hsim"], Some(*cpu))?;
    let deadline = Instant::now() + DEADLINE;
    let first = watched.wait_line(deadline, |l| {
        l.starts_with("== ") && !l.starts_with("== Machine calibration")
    });
    let setup_s = first.map(|(at, _)| at.duration_since(watched.spawned).as_secs_f64());
    let (exit, lines) = watched.wait(deadline);
    let passed = lines
        .iter()
        .any(|l| l.starts_with("All shape checks passed"));
    Ok(ReproRun {
        setup_s: setup_s.unwrap_or(exit.wall_s),
        wall_s: exit.wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        ok: exit.code == Some(0) && passed && setup_s.is_some(),
        timed_out: exit.timed_out,
        summary: std::fs::read(summary).ok(),
    })
}
