//! Host context recorded around each run (never gated): the processor
//! count and two fixed probes — a dependent integer loop, which slows
//! only when the clock or core is shared, and a random walk over a
//! buffer larger than the last-level cache, which slows when other
//! processes contend for cache and memory. Comparing the probes before
//! and after a run tells a contention phase from a regression.

use crate::clock;
use crate::rng::Stream;
use std::hint::black_box;

/// One probe reading.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Milliseconds for a fixed 50 M-step integer recurrence.
    pub int_loop_ms: f64,
    /// Mean nanoseconds per dependent load of a random walk over 64 MiB.
    pub rand_mem_ns: f64,
}

/// Logical processors available to this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run both probes (about 0.2 s).
pub fn probe() -> Probe {
    let t = clock::now();
    let mut x = 1u64;
    for i in 0..50_000_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i) ^ (x >> 29);
    }
    black_box(x);
    let int_loop_ms = clock::ns_since(t) as f64 / 1e6;

    // A single random cycle through 8 Mi slots (64 MiB): every load
    // depends on the previous one, so prefetching cannot hide misses.
    const SLOTS: usize = 8 << 20;
    let mut order: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = Stream::new(0x5EED, 0);
    for i in (1..SLOTS).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next = vec![0u32; SLOTS];
    for w in 0..SLOTS {
        next[order[w] as usize] = order[(w + 1) % SLOTS];
    }
    const STEPS: usize = 2_000_000;
    let t = clock::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    black_box(at);
    let rand_mem_ns = clock::ns_since(t) as f64 / STEPS as f64;
    Probe {
        int_loop_ms,
        rand_mem_ns,
    }
}

fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Current resident set size in bytes (Linux `VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:").map_or(0, |kb| kb * 1024)
}

/// Highest resident set size seen by [`RssPeak::sample`], in MB.
///
/// The kernel's own high-water mark (`VmHWM`) would also count the
/// host probe's 64 MiB buffer, so workloads sample `VmRSS` at the points
/// where their working set is largest instead.
#[derive(Debug, Default, Clone, Copy)]
pub struct RssPeak(u64);

impl RssPeak {
    /// Record the current resident set size.
    pub fn sample(&mut self) {
        self.0 = self.0.max(rss_bytes());
    }

    /// The peak in MB.
    pub fn mb(&self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}
