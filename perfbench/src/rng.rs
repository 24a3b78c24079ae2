//! Seeded, random-access randomness.
//!
//! Every op a workload sends is a pure function of `(seed, stream, index)`
//! ([`mix`]), so the sender, the receiver that checks the reply, and the
//! traced replay all derive the same op without sharing state.

/// One SplitMix64 step: a bijective 64-bit mixer.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(seed, stream, index)` to one 64-bit value.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream) ^ index)
}

/// A sequential generator over [`splitmix`].
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator for `(seed, stream, index)`.
    pub fn at(seed: u64, stream: u64, index: u64) -> Rng {
        Rng {
            state: mix(seed, stream, index),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.state)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: u64, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.quantile(rng.unit())
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> u64 {
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}
