//! The benchmark's only wall-clock read.

use std::time::Instant;

/// The current instant. Every timing in the benchmark starts here.
pub fn now() -> Instant {
    Instant::now() // aq-lint: allow(no-wall-clock)
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
