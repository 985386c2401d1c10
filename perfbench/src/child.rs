//! Processes under test: spawn, watch stdout, wait under a deadline,
//! kill when hung, and read their peak resident memory.

use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
fn allowed() -> io::Result<CpuSet> {
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live out-parameter of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(allowed)
}

/// A mask of one CPU: the lowest the calling thread may run on.
///
/// `harborsim_par::run` can deadlock once it has two or more workers
/// (its own deque lock is still held while it steals from another's),
/// and it sizes its pool by `available_parallelism`, which reads this
/// mask. Code confined to one CPU takes `run`'s serial path, so it
/// cannot hang there.
pub fn one_cpu() -> io::Result<CpuSet> {
    let allowed = allowed()?;
    let (word, bits) = allowed
        .0
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = CpuSet([0; 16]);
    one.0[word] = bits & bits.wrapping_neg();
    Ok(one)
}

/// The CPUs the calling thread may run on outside `mask`, if any.
fn others(mask: &CpuSet) -> Option<CpuSet> {
    let mut rest = allowed().ok()?;
    for (r, m) in rest.0.iter_mut().zip(mask.0) {
        *r &= !m;
    }
    rest.0.iter().any(|bits| *bits != 0).then_some(rest)
}

/// Confine the calling thread, and every thread it starts from now
/// on, to `mask`.
pub fn confine(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a live, correctly sized input; pid 0 names the
    // calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

const SIGKILL: i32 = 9;

/// Children not yet reaped, so the run's watchdog can stop them all.
static LIVE: Mutex<Vec<i32>> = Mutex::new(Vec::new());

/// Kill every child still running (the run's last resort before it
/// exits on its own deadline).
pub fn kill_all() {
    let live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    for &pid in live.iter() {
        // SAFETY: plain syscall on a pid we spawned and have not reaped,
        // so it cannot name another process.
        unsafe { kill(pid, SIGKILL) };
    }
}

const WNOHANG: i32 = 1;

/// How a watched child ended.
pub struct Exit {
    /// Exit code; `None` when killed by a signal (also after a
    /// watchdog kill).
    pub code: Option<i32>,
    /// The watchdog killed it at the deadline.
    pub timed_out: bool,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Spawn to exit.
    pub wall_s: f64,
}

/// A running child whose stdout lines arrive, timestamped, on a channel.
pub struct Watched {
    child: Child,
    pub spawned: Instant,
    lines: mpsc::Receiver<(Instant, String)>,
    reader: Option<thread::JoinHandle<()>>,
}

impl Watched {
    /// Spawn `program args` with stdout piped and stderr inherited;
    /// with `cpus`, the child runs confined to that mask from its first
    /// instruction, and the thread that timestamps its lines runs off
    /// it where it can: sharing the busy child's CPU, it would see each
    /// line only when the scheduler next preempts the child.
    pub fn spawn(program: &Path, args: &[&str], cpus: Option<CpuSet>) -> Result<Watched, String> {
        let mut cmd = Command::new(program);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(mask) = cpus {
            // SAFETY: the hook runs in the forked child before exec and
            // makes one async-signal-safe syscall on a mask it owns. (It
            // also makes std fork rather than posix_spawn: a vfork child
            // would report this process's peak memory as its own.)
            unsafe { cmd.pre_exec(move || confine(&mask)) };
        }
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        LIVE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(child.id() as i32);
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let elsewhere = cpus.as_ref().and_then(others);
        // Reads until EOF, so the pipe never fills however much the child
        // prints; ends when the child exits or is killed.
        let reader = thread::spawn(move || {
            if let Some(Err(e)) = elsewhere.as_ref().map(confine) {
                eprintln!("perfbench: the line reader shares the child's CPU: {e}");
            }
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Watched {
            child,
            spawned,
            lines,
            reader: Some(reader),
        })
    }

    /// The child's peak resident set so far, MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// The first stdout line satisfying `pred`, with its arrival time,
    /// waiting at most until `deadline`.
    pub fn wait_line(
        &self,
        deadline: Instant,
        mut pred: impl FnMut(&str) -> bool,
    ) -> Option<(Instant, String)> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok((at, line)) if pred(&line) => return Some((at, line)),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    /// Every stdout line still buffered (call after the child exited).
    pub fn drain_lines(&self) -> Vec<String> {
        self.lines.try_iter().map(|(_, l)| l).collect()
    }

    /// Wait for the child to exit; at `deadline`, kill it and reap it.
    pub fn wait(mut self, deadline: Instant) -> (Exit, Vec<String>) {
        let pid = self.child.id() as i32;
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        let mut timed_out = false;
        loop {
            // SAFETY: `status` and `usage` are live, correctly sized
            // out-parameters, and `pid` is our own unreaped child (std
            // never waits on it: this is the only reaper).
            let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
            if r == pid {
                LIVE.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|&p| p != pid);
                break;
            }
            if r < 0 {
                break; // ECHILD: nothing left to reap
            }
            if Instant::now() >= deadline && !timed_out {
                timed_out = true;
                let _ = self.child.kill(); // not yet reaped, so the pid is still ours
            }
            thread::sleep(Duration::from_millis(2));
        }
        let wall_s = self.spawned.elapsed().as_secs_f64();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let exited = status & 0x7f == 0;
        let exit = Exit {
            code: exited.then_some((status >> 8) & 0xff),
            timed_out,
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
            wall_s,
        };
        (exit, self.drain_lines())
    }
}
