//! Seeded draws and the order statistics the benchmark reports.
//!
//! Everything random in a run comes from [`Rng`] streams derived from the
//! `--seed` argument, so the same seed replays the same method order and
//! request keys; the programs under test never see the seed.

/// SplitMix64: small, fast, and fully specified, so a recorded seed (the
/// `shuffle-seed` header of `workloads/methods.txt`) reproduces an order
/// on any platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (a pass, a phase, a
    /// connection) of one seed.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular), sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty rank set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn top_share(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` samples, linearly
/// interpolated between the two closest ranks; 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts samples ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so `--reps` spreads read the same as any external check of them.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let ld = data.len();
    match ld {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_distinct_across_seeds() {
        let draw = |seed, stream| {
            let mut r = Rng::stream(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Rng::new(7));
        shuffle(&mut b, &mut Rng::new(7));
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_ranks_follow_the_cdf() {
        let z = Zipf::new(82, 1.1);
        // The top 10 ranks carry ~64% of the mass.
        let share = z.top_share(10);
        assert!((0.6..0.7).contains(&share), "top-10 share {share}");
        assert_eq!(z.rank_at(0.0), 0);
        assert_eq!(z.rank_at(share - 1e-9), 9);
        assert_eq!(z.rank_at(share + 1e-9), 10);
        assert_eq!(z.rank_at(0.999_999_999), 81);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
