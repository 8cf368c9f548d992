//! Core-speed calibration between pieces of measured work.
//!
//! The benchmark shares its host with other tenants. Time spent waiting
//! for a core is left out by timing CPU time, but their load also slows
//! the core itself while it runs the program (a busy sibling thread,
//! shared caches), and on a shared host that moves the program's CPU
//! times by 10–40% from one minute to the next. The [`Kernel`] here is
//! benchmark code only, so no change to the program moves it; it is run
//! between the program's operations, and each operation's CPU time is
//! divided by how much slower than [`REFERENCE_NS_PER_ROUND`] the kernel
//! ran just before and just after it. The figures are then CPU times on a
//! core running at a fixed reference speed.
//!
//! The kernel is a chain of floating-point multiply-adds. Of the kernels
//! tried (pointer chases over rings of 64 KiB, 8 MiB and 64 MiB, a
//! streaming sum, this chain), it tracked the program's own slow-downs
//! best: on `deploy-hard`, pass CPU time spread by 10% (coefficient of
//! variation over 12 passes) and the normalised time by 2%.

use crate::thread_cpu;
use std::hint::black_box;

/// Nanoseconds one kernel round takes on the reference core (the quiet
/// 2-core x86-64 VM the benchmark was written on). It only scales every
/// normalised figure by one constant.
pub const REFERENCE_NS_PER_ROUND: f64 = 14.0;

/// The calibration kernel: `rounds` rounds of four dependent
/// multiply-add chains.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    rounds: usize,
}

impl Kernel {
    /// A kernel of `rounds` rounds per sample.
    pub fn new(rounds: usize) -> Self {
        Kernel { rounds }
    }

    /// Runs the kernel once; returns its slow-down against the reference
    /// core (1.0 at reference speed, 1.3 when 30% slower).
    pub fn sample(&self) -> f64 {
        let started = thread_cpu();
        let (mut a, mut b, mut c, mut d) = (1.0f64, 1.5f64, 0.5f64, 0.25f64);
        let k = black_box(0.999_999f64);
        for _ in 0..self.rounds {
            a = a.mul_add(k, 1e-9);
            b = b.mul_add(k, 1e-9);
            c = c.mul_add(k, 1e-9);
            d = d.mul_add(k, 1e-9);
        }
        black_box((a, b, c, d));
        let ns = (thread_cpu() - started).as_secs_f64() * 1e9;
        ns / self.rounds as f64 / REFERENCE_NS_PER_ROUND
    }
}

/// Brackets a run of operations with kernel samples. Must be used from
/// the thread (or, pinned, the core) that runs the operations.
#[derive(Debug)]
pub struct Speed {
    kernel: Kernel,
    last: f64,
}

impl Speed {
    /// Starts tracking with a first kernel sample.
    pub fn new(kernel: Kernel) -> Self {
        Speed {
            kernel,
            last: kernel.sample(),
        }
    }

    /// Takes the next kernel sample and returns the slow-down of the
    /// operation that ran since the previous one: the mean of the two
    /// samples around it. Divide the operation's CPU time by it.
    pub fn slowdown(&mut self) -> f64 {
        let now = self.kernel.sample();
        let factor = (self.last + now) / 2.0;
        self.last = now;
        factor
    }
}
