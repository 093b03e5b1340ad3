//! Zipf-distributed sampling over flow ranks.
//!
//! Flow popularity in real traffic is heavy-tailed; the paper's motivation
//! (§2.1) calls out that "flow distributions ... could result in different
//! working set sizes, which in turn cause different memory access patterns
//! and cache behaviors". We implement Zipf from scratch (inverse-CDF over a
//! precomputed cumulative table) rather than pulling in `rand_distr`.
//!
//! Uniform popularity (α = 0) needs no table: every rank weighs exactly
//! `1.0`, so the running sums are exact integers and table entry `k` is
//! the correctly rounded quotient `(k+1)/n`. The uniform case computes
//! those entries on demand and is bit-identical to building the table.

use rand::Rng;

/// A Zipf(α) distribution over ranks `0..n`.
///
/// Rank `k` (0-based) has probability proportional to `1 / (k+1)^alpha`.
/// `alpha = 0` degenerates to the uniform distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    /// Cumulative mass per rank; empty when α = 0, whose entries are the
    /// closed form [`Zipf::cdf`] computes.
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build the distribution for `n` ranks with exponent `alpha`.
    ///
    /// O(1) for `alpha == 0`; otherwise O(n) time and 8 bytes per rank.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid Zipf exponent");
        if alpha == 0.0 {
            return Zipf { n, cumulative: Vec::new() };
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        *cumulative.last_mut().expect("n > 0") = 1.0;
        Zipf { n, cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the distribution is over zero ranks (never true).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cumulative mass of ranks `0..=k`, for `k < n`.
    fn cdf(&self, k: usize) -> f64 {
        if self.cumulative.is_empty() {
            assert!(k < self.n, "rank {k} out of range for {} ranks", self.n);
            (k + 1) as f64 / self.n as f64
        } else {
            self.cumulative[k]
        }
    }

    /// The probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf(0)
        } else {
            self.cdf(k) - self.cdf(k - 1)
        }
    }

    /// The total probability mass of the `top` most popular ranks.
    ///
    /// This is the quantity the predictor's cache model uses: if a cache
    /// holds the state of the `top` hottest flows, `mass(top)` is the
    /// expected hit ratio.
    pub fn mass(&self, top: usize) -> f64 {
        if top == 0 {
            0.0
        } else {
            self.cdf(top.min(self.n) - 1)
        }
    }

    /// Sample a rank.
    ///
    /// One uniform draw `u`, inverted through the cumulative table: the
    /// result is the number of entries `<= u`, capped at the last rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        if self.cumulative.is_empty() {
            return self.uniform_rank(u);
        }
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in table"))
        {
            Ok(i) => (i + 1).min(self.n - 1),
            Err(i) => i.min(self.n - 1),
        }
    }

    /// The table search of [`Self::sample`] for α = 0, without the
    /// table: the count of entries `j/n` (`j = 1..=n`) that are `<= u`.
    ///
    /// Division rounds monotonically, so every `j <= u·n` counts, and for
    /// `n <= 2^52` no `j >= ⌊u·n⌋ + 2` does (`j/n` then exceeds `u` by
    /// more than `1/n`, which no rounding closes). The count is therefore
    /// `⌊u·n⌋` or one more, the rounded product floors to one of the same
    /// two, and a single step settles it. (No table of more than 2^52
    /// ranks fits in memory; past that the result is still a valid rank.)
    /// The step is a branch, not a loop: the compiler vectorizes a
    /// stepping loop and pays for sixteen divisions on every draw.
    fn uniform_rank(&self, u: f64) -> usize {
        let n = self.n;
        let entry = |j: usize| j as f64 / n as f64;
        let mut j = ((u * n as f64) as usize).min(n);
        if j < n && entry(j + 1) <= u {
            j += 1;
        } else if j > 0 && entry(j) > u {
            j -= 1;
        }
        j.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9, "pmf({k}) = {}", z.pmf(k));
        }
    }

    #[test]
    fn mass_is_monotone_and_bounded() {
        let z = Zipf::new(100, 1.0);
        let mut prev = 0.0;
        for top in 0..=100 {
            let m = z.mass(top);
            assert!(m >= prev);
            assert!(m <= 1.0 + 1e-12);
            prev = m;
        }
        assert!((z.mass(100) - 1.0).abs() < 1e-9);
        assert_eq!(z.mass(0), 0.0);
    }

    #[test]
    fn skew_concentrates_mass() {
        // With alpha=1.2 over 1000 ranks, the top 10 ranks should carry far
        // more than 1% of the mass.
        let z = Zipf::new(1000, 1.2);
        assert!(z.mass(10) > 0.4, "mass(10) = {}", z.mass(10));
        let uniform = Zipf::new(1000, 0.0);
        assert!((uniform.mass(10) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let observed = count as f64 / n as f64;
            assert!(
                (observed - z.pmf(k)).abs() < 0.01,
                "rank {k}: observed {observed}, expected {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn sample_always_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    /// The α = 0 table exactly as the general path builds it, searched
    /// exactly as [`Zipf::sample`] searches it: the oracle the closed form
    /// must match bit for bit.
    struct TableOracle {
        cumulative: Vec<f64>,
    }

    impl TableOracle {
        fn new(n: usize) -> Self {
            let mut cumulative = Vec::with_capacity(n);
            let mut acc = 0.0;
            for k in 0..n {
                acc += 1.0 / ((k + 1) as f64).powf(0.0);
                cumulative.push(acc);
            }
            let total = acc;
            for c in &mut cumulative {
                *c /= total;
            }
            *cumulative.last_mut().expect("n > 0") = 1.0;
            TableOracle { cumulative }
        }

        fn rank(&self, u: f64) -> usize {
            let last = self.cumulative.len() - 1;
            match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
                Ok(i) => (i + 1).min(last),
                Err(i) => i.min(last),
            }
        }

        fn mass(&self, top: usize) -> f64 {
            if top == 0 {
                0.0
            } else {
                self.cumulative[top.min(self.cumulative.len()) - 1]
            }
        }

        fn pmf(&self, k: usize) -> f64 {
            if k == 0 {
                self.cumulative[0]
            } else {
                self.cumulative[k] - self.cumulative[k - 1]
            }
        }
    }

    /// Draws per unit interval of `rng.gen::<f64>()`: every draw is a
    /// multiple of `1 / DRAW_STEPS`.
    const DRAW_STEPS: u64 = 1 << 53;

    /// An RNG whose every `gen::<f64>()` draw is `raw / 2^53`.
    struct RawDraw(u64);

    impl rand::RngCore for RawDraw {
        fn next_u64(&mut self) -> u64 {
            self.0 << 11
        }
    }

    /// Compares the closed form against the oracle on every `mass` and
    /// `pmf` argument, `draws` seeded samples, and the raw draws at and
    /// one step either side of every `stride`-th table entry.
    fn assert_uniform_matches_table(n: usize, draws: usize, stride: usize) -> usize {
        let z = Zipf::new(n, 0.0);
        let oracle = TableOracle::new(n);
        assert_eq!(z.len(), n);
        for top in (0..=n).chain([n + 1, n + 7, 2 * n, usize::MAX]) {
            assert_eq!(z.mass(top).to_bits(), oracle.mass(top).to_bits(), "n={n} mass({top})");
        }
        for k in 0..n {
            assert_eq!(z.pmf(k).to_bits(), oracle.pmf(k).to_bits(), "n={n} pmf({k})");
        }

        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut shadow = rng.clone();
        for _ in 0..draws {
            let u: f64 = shadow.gen();
            assert_eq!(z.sample(&mut rng), oracle.rank(u), "n={n} u={u:e}");
        }

        let mut checked = draws;
        for &entry in oracle.cumulative.iter().step_by(stride) {
            let raw = (entry * DRAW_STEPS as f64) as u64;
            for r in [raw.wrapping_sub(1), raw, raw + 1] {
                if r >= DRAW_STEPS {
                    continue;
                }
                let u = r as f64 / DRAW_STEPS as f64;
                assert_eq!(z.sample(&mut RawDraw(r)), oracle.rank(u), "n={n} raw={r}");
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn uniform_closed_form_matches_table_small_n() {
        let mut checked = 0;
        for n in 1..2000 {
            checked += assert_uniform_matches_table(n, 64, 1);
        }
        assert!(checked > 100_000, "only {checked} draws compared");
    }

    #[test]
    fn uniform_closed_form_matches_table_large_n() {
        for n in [4096, 65_536, 100_000, 524_288, 1_000_000] {
            assert_uniform_matches_table(n, 20_000, 7);
        }
    }

    #[test]
    fn uniform_draws_on_a_power_of_two_entry_step_past_it() {
        // For n = 2^m every entry j/n is itself a possible draw; the
        // table search's exact-match rule then returns rank j, not j-1.
        for m in [0u32, 1, 5, 12, 16, 19] {
            let n = 1usize << m;
            let z = Zipf::new(n, 0.0);
            let oracle = TableOracle::new(n);
            for j in 1..n {
                let raw = (j as u64) << (53 - m);
                assert_eq!(z.sample(&mut RawDraw(raw)), j, "n={n} exactly on entry {j}");
                for r in [raw - 1, raw, raw + 1] {
                    let u = r as f64 / DRAW_STEPS as f64;
                    assert_eq!(z.sample(&mut RawDraw(r)), oracle.rank(u), "n={n} raw={r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn uniform_pmf_past_the_last_rank_panics() {
        Zipf::new(4, 0.0).pmf(4);
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid Zipf exponent")]
    fn negative_alpha_panics() {
        Zipf::new(5, -1.0);
    }
}
