//! The benchmark's own random numbers.
//!
//! The request schedule must be a function of `--seed` alone, so the
//! generator does not borrow the repository's `rand` shim or
//! `lambda_retwis::Zipf`: a later change to either would silently change
//! every workload.

/// SplitMix64: a 64-bit generator with a one-word state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`. The modulo bias is below 2^-40 for the domain
    /// sizes used here (at most a few thousand).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// An exponentially distributed gap with the given mean: the time to
    /// the next arrival of a Poisson process.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() * mean
    }
}

/// Zipf(θ) over `0..n` from a precomputed cumulative distribution; index 0
/// is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&p| p <= u).min(self.cdf.len() - 1)
    }

    /// Probability of index `i`.
    #[cfg(test)]
    pub fn share(&self, i: usize) -> f64 {
        self.cdf[i] - if i == 0 { 0.0 } else { self.cdf[i - 1] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..100).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut rng = SplitMix64::new(1);
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exp(0.002)).sum::<f64>() / n as f64;
        assert!((mean - 0.002).abs() < 0.002 * 0.02, "mean {mean}");
    }

    #[test]
    fn hottest_object_share_of_zipf_099() {
        // follow-hot claims its hottest object takes about 13 % of the
        // traffic; the claim is a property of Zipf(0.99) over 1,000.
        let z = Zipf::new(1000, 0.99);
        assert!((z.share(0) - 0.13).abs() < 0.005, "analytic share {}", z.share(0));
        let mut rng = SplitMix64::new(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
        let sampled = hits as f64 / n as f64;
        assert!((sampled - z.share(0)).abs() < 0.01, "sampled share {sampled}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.share(i) - 0.1).abs() < 1e-12);
        }
    }
}
