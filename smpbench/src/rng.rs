//! The benchmark's only source of randomness: a seeded stream, a shuffle,
//! and the Zipf-shaped query schedule of `served_mix`.

use smp_pipeline::transport::splitmix64;

/// The pipeline's SplitMix64 step iterated on its own output: tiny,
/// seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below 2⁻⁵⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How often each of `keys` ranks occurs among `total` draws from a Zipf law
/// with exponent `exponent`: the expected counts, rounded by largest
/// remainder so they sum to `total` exactly.
pub fn zipf_counts(keys: usize, exponent: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-exponent)).collect();
    let norm: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor())
            .total_cmp(&(shares[a] - shares[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(short) {
        counts[rank] += 1;
    }
    counts
}

/// The warm-phase schedule: rank `r` appears `zipf_counts(..)[r]` times, in
/// an order shuffled by `seed`.  The *multiset* of ranks is the same for
/// every seed, so the latency percentiles of two runs are taken over the
/// same mix of queries; the seed decides arrival order, and with it which
/// queries meet in the server and what the caches hold when each arrives.
pub fn zipf_schedule(keys: usize, exponent: f64, total: usize, seed: u64) -> Vec<usize> {
    let mut schedule = Vec::with_capacity(total);
    for (rank, &count) in zipf_counts(keys, exponent, total).iter().enumerate() {
        schedule.extend(std::iter::repeat_n(rank, count));
    }
    SplitMix::new(seed).shuffle(&mut schedule);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedule_is_a_pure_function_of_the_seed() {
        let a = zipf_schedule(60, 1.1, 3000, 7);
        assert_eq!(a, zipf_schedule(60, 1.1, 3000, 7));
        assert_ne!(a, zipf_schedule(60, 1.1, 3000, 8));
        assert_eq!(a.len(), 3000);
    }

    #[test]
    fn zipf_counts_sum_and_decrease() {
        let counts = zipf_counts(60, 1.1, 3000);
        assert_eq!(counts.iter().sum::<usize>(), 3000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        // Every seed sends the same multiset.
        let mut a = zipf_schedule(60, 1.1, 3000, 1);
        let mut b = zipf_schedule(60, 1.1, 3000, 2);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(counts[59] >= 1, "every key is queried warm at least once");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        SplitMix::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
