//! Order statistics over timing samples.

/// The `q` quantile (0..=1) of `v` by linear interpolation between the
/// closest ranks. `NaN` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Largest value of `v` (`NaN` when empty).
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

/// The fast-passes quantile `q` of per-pass times (lower is better).
/// Other processes on the host only ever slow a pass down, and they do
/// so in phases of seconds to minutes, so the fast passes of a run
/// measure the code and the slow ones mostly measure the neighbours.
pub fn fast_time(per_pass: &[f64], q: f64) -> f64 {
    quantile(per_pass, q)
}

/// The fast-passes quantile `q` of per-pass rates (higher is better).
pub fn fast_rate(per_pass: &[f64], q: f64) -> f64 {
    quantile(per_pass, 1.0 - q)
}
