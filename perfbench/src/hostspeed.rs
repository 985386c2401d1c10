//! Host-speed correction for the bounded times.
//!
//! On this 2-thread shared host the same code runs up to twice as fast
//! in one minute as in the next: a reproduction confined to one CPU
//! took 1.05-1.15 s for five minutes, then 2.0-2.2 s for the next three,
//! with steal under 1%. What slows is memory: of five kernels timed
//! between 109 reproductions over 200 s (sorting, a floating-point
//! chain, a heap and hash map, a memory stream, two threads yielding),
//! the stream tracked the reproduction best. Over 35 s windows the
//! median reproduction moved 1.52-1.93 s while its ratio to the stream
//! moved 26.9-27.6, its ratio to the sort and floating-point chain
//! together 57-63. So a reproduction's set-up and wall times are
//! reported as measured times scaled by `NOMINAL_S / kernel time`, the
//! kernel timed on the same CPU just before and just after: seconds on
//! a host where the kernel takes [`NOMINAL_S`]. The kernel is not part of the
//! program, so nothing a change to the program does moves it.

use crate::child::{confine, CpuSet};
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// The nominal kernel time, seconds: chosen so that a scaled
/// reproduction reads about what one took in this host's quiet minutes
/// (1.05 s; the kernel takes about 1/27 of a reproduction).
pub const NOMINAL_S: f64 = 0.039;

/// The kernel: fill a 64 MB array (page faults and writes) and sum it
/// three times (reads). About 60 ms.
fn kernel() -> u64 {
    let v = vec![1u64; 1 << 23];
    (0..3).map(|_| black_box(&v).iter().sum::<u64>()).sum()
}

/// Seconds the kernel takes on a thread confined to `cpu`.
pub fn kernel_s(cpu: &CpuSet) -> f64 {
    thread::scope(|s| {
        s.spawn(|| {
            if let Err(e) = confine(cpu) {
                eprintln!("perfbench: the speed kernel runs unconfined: {e}");
            }
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .join()
        .expect("the speed kernel does not panic")
    })
}

/// Measurements on one CPU, each scaled by the kernel timed on that CPU
/// before and after it (the kernel after one measurement serves as the
/// one before the next).
pub struct Scaler {
    cpu: CpuSet,
    before: Option<f64>,
    /// Every kernel time taken, seconds.
    pub kernel_s: Vec<f64>,
}

impl Scaler {
    pub fn new(cpu: CpuSet) -> Scaler {
        Scaler {
            cpu,
            before: None,
            kernel_s: Vec::new(),
        }
    }

    fn time_kernel(&mut self) -> f64 {
        let t = kernel_s(&self.cpu);
        self.kernel_s.push(t);
        t
    }

    /// Run `measure` between two kernel timings; its result and the
    /// factor that scales a time it took to the nominal host.
    pub fn around<T>(&mut self, measure: impl FnOnce(&CpuSet) -> T) -> (T, f64) {
        let before = match self.before.take() {
            Some(t) => t,
            None => self.time_kernel(),
        };
        let out = measure(&self.cpu);
        let after = self.time_kernel();
        self.before = Some(after);
        (out, NOMINAL_S / ((before + after) / 2.0))
    }
}
