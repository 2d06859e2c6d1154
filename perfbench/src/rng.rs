//! Seeded input generation: a SplitMix64 stream, so every input the
//! benchmark feeds the program is a pure function of `--seed`.

/// SplitMix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `salt`.
    pub fn new(seed: u64, salt: u64) -> Stream {
        Stream(mix(seed ^ mix(salt)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}
