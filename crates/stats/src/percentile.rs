//! Sample distributions with quantile queries and CDF export: exact at
//! figure scale, spilling into a streaming sketch at production scale.
//!
//! The paper reports 99.99th percentiles of flow completion time; with the
//! original run sizes (10^4–10^6 flows) an exact sorted store is cheap and
//! avoids any tail distortion, so every figure golden stays bit-exact.
//! Production-scale topologies (k=32/64 fat-trees, three-tier Clos) push
//! sample counts past the point where O(flows) memory is acceptable, so a
//! [`Distribution`] silently converts itself into a deterministic
//! [`QuantileSketch`] once it crosses [`EXACT_SPILL_LIMIT`] samples. The
//! query API is identical in both modes; `count`, `mean`, `min` and `max`
//! stay exact forever, quantiles/CDF become rank-bounded estimates after
//! the spill (see [`Distribution::rank_error_bound`]).

use crate::exact_sum::ExactSum;
use crate::sketch::QuantileSketch;

/// Samples kept exactly before a [`Distribution`] spills into the sketch.
/// 2^20 doubles (8 MiB) comfortably covers every figure-scale run — all
/// existing goldens stay in exact mode — while capping the worst case for
/// multi-million-flow scale runs.
pub const EXACT_SPILL_LIMIT: usize = 1 << 20;

#[derive(Clone, Debug)]
enum Store {
    /// Exact mode: samples kept verbatim, sorted lazily at query time.
    Exact { samples: Vec<f64>, sorted: bool },
    /// Spilled mode: bounded-memory streaming sketch.
    Sketch(QuantileSketch),
}

/// A store of `f64` samples with quantile queries: exact until
/// `spill_limit` samples, a deterministic mergeable quantile sketch after.
///
/// Samples in exact mode are kept unsorted until a query, then sorted
/// lazily and the sorted state is cached until the next insertion —
/// bit-compatible with the pre-sketch implementation, so small-scale
/// goldens are unaffected by the spill machinery.
#[derive(Clone, Debug)]
pub struct Distribution {
    store: Store,
    /// Exact running sum (both modes): merge order never changes `mean`.
    sum: ExactSum,
    /// Exact-mode capacity before converting to the sketch.
    spill_limit: usize,
}

impl Default for Distribution {
    fn default() -> Distribution {
        Distribution::new()
    }
}

impl Distribution {
    /// An empty distribution with the default spill threshold
    /// ([`EXACT_SPILL_LIMIT`]).
    pub fn new() -> Distribution {
        Distribution::with_spill_limit(EXACT_SPILL_LIMIT)
    }

    /// An empty distribution that stays exact for at most `limit` samples
    /// before spilling into the sketch. `limit = 0` starts in sketch mode
    /// immediately (see [`Distribution::sketched`]).
    pub fn with_spill_limit(limit: usize) -> Distribution {
        let store = if limit == 0 {
            Store::Sketch(QuantileSketch::new())
        } else {
            Store::Exact {
                samples: Vec::new(),
                sorted: true,
            }
        };
        Distribution {
            store,
            sum: ExactSum::default(),
            spill_limit: limit,
        }
    }

    /// An empty distribution in sketch mode from the first sample — the
    /// differential goldens use this to compare sketch estimates against
    /// the exact store on identical input.
    pub fn sketched() -> Distribution {
        Distribution::with_spill_limit(0)
    }

    /// Pre-allocate space for `n` samples (exact mode).
    pub fn with_capacity(n: usize) -> Distribution {
        Distribution {
            store: Store::Exact {
                samples: Vec::with_capacity(n),
                sorted: true,
            },
            sum: ExactSum::default(),
            spill_limit: EXACT_SPILL_LIMIT,
        }
    }

    /// Whether the store is still exact (quantiles are order statistics,
    /// not estimates).
    pub fn is_exact(&self) -> bool {
        matches!(self.store, Store::Exact { .. })
    }

    /// The exact samples, while in exact mode.
    pub fn exact_samples(&self) -> Option<&[f64]> {
        match &self.store {
            Store::Exact { samples, .. } => Some(samples),
            Store::Sketch(_) => None,
        }
    }

    /// Samples (exact mode) or sketch items (spilled mode) currently held
    /// in memory. After a spill this is O(k log n), not O(n).
    pub fn retained(&self) -> usize {
        match &self.store {
            Store::Exact { samples, .. } => samples.len(),
            Store::Sketch(s) => s.retained(),
        }
    }

    /// Rank-error envelope of quantile queries: `None` in exact mode,
    /// `Some(eps)` after spilling (estimates land within `eps * count`
    /// ranks of the exact order statistic; see
    /// [`QuantileSketch::rank_error_bound`]).
    pub fn rank_error_bound(&self) -> Option<f64> {
        match &self.store {
            Store::Exact { .. } => None,
            Store::Sketch(s) => Some(s.rank_error_bound()),
        }
    }

    /// FNV-1a digest of the full store state; bit-identical stores give
    /// equal digests. The sweep determinism goldens compare these across
    /// thread counts.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        match &self.store {
            Store::Exact { samples, .. } => {
                let mut h = FNV_OFFSET;
                for &v in samples {
                    for b in v.to_bits().to_le_bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(FNV_PRIME);
                    }
                }
                h
            }
            Store::Sketch(s) => s.digest(),
        }
    }

    fn spill(&mut self) {
        if let Store::Exact { samples, .. } = &mut self.store {
            let mut sk = QuantileSketch::new();
            for &x in samples.iter() {
                sk.add(x);
            }
            self.store = Store::Sketch(sk);
        }
    }

    /// Observe one value. Non-finite values are a caller bug and panic in
    /// debug builds.
    #[inline]
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.sum.add(x);
        match &mut self.store {
            Store::Exact { samples, sorted } => {
                samples.push(x);
                *sorted = false;
                if samples.len() > self.spill_limit {
                    self.spill();
                }
            }
            Store::Sketch(s) => s.add(x),
        }
    }

    /// Merge all mass of `other` into `self`.
    ///
    /// Exact + exact under the spill threshold concatenates samples
    /// (quantiles over the merged store stay exact, bit-identical to the
    /// pre-sketch behaviour). Any other combination — either side already
    /// spilled, or the union crossing the threshold — produces a sketch.
    /// The result is a pure function of the operand states, so a fixed
    /// merge order reproduces identical stores on any thread count.
    pub fn merge(&mut self, other: &Distribution) {
        if other.is_empty() {
            // Merging in an empty store (whatever its mode) is a no-op —
            // in particular it must not spill an exact store.
            return;
        }
        self.sum.merge(&other.sum);
        match (&mut self.store, &other.store) {
            (Store::Exact { samples, sorted }, Store::Exact { samples: os, .. }) => {
                if samples.len() + os.len() <= self.spill_limit {
                    samples.extend_from_slice(os);
                    *sorted = samples.len() <= 1;
                } else {
                    self.spill();
                    if let (Store::Sketch(sk), Store::Exact { samples: os, .. }) =
                        (&mut self.store, &other.store)
                    {
                        for &x in os.iter() {
                            sk.add(x);
                        }
                    }
                }
            }
            (Store::Exact { .. }, Store::Sketch(osk)) => {
                self.spill();
                if let Store::Sketch(sk) = &mut self.store {
                    sk.merge(osk);
                }
            }
            (Store::Sketch(sk), Store::Exact { samples: os, .. }) => {
                for &x in os.iter() {
                    sk.add(x);
                }
            }
            (Store::Sketch(sk), Store::Sketch(osk)) => sk.merge(osk),
        }
    }

    /// Number of samples (exact in both modes).
    #[inline]
    pub fn count(&self) -> usize {
        match &self.store {
            Store::Exact { samples, .. } => samples.len(),
            Store::Sketch(s) => s.count() as usize,
        }
    }

    /// Whether no samples have been observed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean, or 0 if empty (exact in both modes).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum.value() / self.count() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if let Store::Exact { samples, sorted } = &mut self.store {
            if !*sorted {
                samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                *sorted = true;
            }
        }
    }

    /// The `q`-quantile (`q` in `[0,1]`); 0 if empty. Exact mode
    /// interpolates linearly between order statistics; sketch mode
    /// returns a rank-bounded estimate (extrema stay exact).
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => {
                let n = samples.len();
                if n == 0 {
                    return 0.0;
                }
                if n == 1 {
                    return samples[0];
                }
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                samples[lo] * (1.0 - frac) + samples[hi] * frac
            }
            Store::Sketch(s) => s.quantile(q),
        }
    }

    /// Convenience: the `p`-th percentile (`p` in `[0,100]`).
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Maximum sample, or 0 if empty (exact in both modes).
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => samples.last().copied().unwrap_or(0.0),
            Store::Sketch(s) => s.max(),
        }
    }

    /// Minimum sample, or 0 if empty (exact in both modes).
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => samples.first().copied().unwrap_or(0.0),
            Store::Sketch(s) => s.min(),
        }
    }

    /// Export up to `points` evenly spaced `(value, cumulative fraction)`
    /// pairs describing the empirical CDF — the series the paper's CDF
    /// figures plot. Exact order statistics before the spill, rank-bounded
    /// estimates after.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => {
                let n = samples.len();
                if n == 0 || points == 0 {
                    return Vec::new();
                }
                let points = points.min(n);
                let mut out = Vec::with_capacity(points);
                for k in 1..=points {
                    // Index of the k-th of `points` evenly spaced order
                    // statistics.
                    let i = (k * n).div_ceil(points) - 1;
                    out.push((samples[i], (i + 1) as f64 / n as f64));
                }
                out
            }
            Store::Sketch(s) => s.cdf(points),
        }
    }

    /// Fraction of samples strictly greater than `x` (exact before the
    /// spill, estimated after).
    pub fn frac_above(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => {
                if samples.is_empty() {
                    return 0.0;
                }
                let idx = samples.partition_point(|&v| v <= x);
                (samples.len() - idx) as f64 / samples.len() as f64
            }
            Store::Sketch(s) => s.frac_above(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(xs: &[f64]) -> Distribution {
        let mut d = Distribution::new();
        for &x in xs {
            d.add(x);
        }
        d
    }

    #[test]
    fn empty_queries() {
        let mut d = Distribution::new();
        assert_eq!(d.quantile(0.5), 0.0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.max(), 0.0);
        assert!(d.cdf(10).is_empty());
        assert!(d.is_exact());
        assert_eq!(d.rank_error_bound(), None);
    }

    #[test]
    fn single_sample() {
        let mut d = dist(&[7.0]);
        assert_eq!(d.quantile(0.0), 7.0);
        assert_eq!(d.quantile(0.5), 7.0);
        assert_eq!(d.quantile(1.0), 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut d = dist(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(1.0), 40.0);
        assert!((d.quantile(0.5) - 25.0).abs() < 1e-12);
        assert!((d.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut d = dist(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 5.0);
        assert_eq!(d.quantile(0.5), 3.0);
    }

    #[test]
    fn add_after_query_resorts() {
        let mut d = dist(&[1.0, 2.0, 3.0]);
        assert_eq!(d.max(), 3.0);
        d.add(0.5);
        assert_eq!(d.min(), 0.5);
        assert_eq!(d.count(), 4);
    }

    #[test]
    fn mean_and_merge() {
        let mut a = dist(&[1.0, 2.0]);
        let b = dist(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        assert_eq!(a.max(), 4.0);
        assert!(a.is_exact(), "small merges stay exact");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut d = dist(
            &(0..1000)
                .map(|i| (i as f64 * 7919.0) % 100.0)
                .collect::<Vec<_>>(),
        );
        let cdf = d.cdf(50);
        assert_eq!(cdf.len(), 50);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values monotone");
            assert!(w[0].1 <= w[1].1, "fractions monotone");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_with_fewer_samples_than_points() {
        let mut d = dist(&[1.0, 2.0, 3.0]);
        let cdf = d.cdf(10);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[2], (3.0, 1.0));
    }

    #[test]
    fn frac_above() {
        let mut d = dist(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.frac_above(2.0), 0.5);
        assert_eq!(d.frac_above(0.0), 1.0);
        assert_eq!(d.frac_above(4.0), 0.0);
    }

    #[test]
    fn quantile_boundaries_are_exact_order_statistics() {
        let mut d = dist(&[30.0, 10.0, 20.0]);
        // p=0 and p=100 are the extreme order statistics, no interpolation
        // and no out-of-bounds `hi` index at pos = n-1.
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(1.0), 30.0);
        assert_eq!(d.percentile(0.0), 10.0);
        assert_eq!(d.percentile(100.0), 30.0);
        // An exact order-statistic position (frac == 0) returns the sample
        // verbatim, not a float-drifted interpolation.
        assert_eq!(d.quantile(0.5), 20.0);
    }

    #[test]
    fn single_sample_all_queries_agree() {
        let mut d = dist(&[7.5]);
        assert_eq!(d.min(), 7.5);
        assert_eq!(d.max(), 7.5);
        assert_eq!(d.mean(), 7.5);
        assert_eq!(d.percentile(0.0), 7.5);
        assert_eq!(d.percentile(50.0), 7.5);
        assert_eq!(d.percentile(100.0), 7.5);
        assert_eq!(d.cdf(5), vec![(7.5, 1.0)]);
        assert_eq!(d.frac_above(7.5), 0.0);
        assert_eq!(d.frac_above(7.4), 1.0);
    }

    #[test]
    fn empty_min_is_zero() {
        assert_eq!(Distribution::new().min(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_out_of_range() {
        dist(&[1.0]).quantile(1.0001);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_nan() {
        dist(&[1.0]).quantile(f64::NAN);
    }

    #[test]
    fn tail_percentile_hits_extreme_sample() {
        // Two outliers among 9998 small samples: the interpolated p99.99
        // (position 9998.0001 of 0..=9999) lands on the first outlier.
        let mut d = Distribution::with_capacity(10_000);
        for _ in 0..9_998 {
            d.add(1.0);
        }
        d.add(1000.0);
        d.add(1000.0);
        assert!(d.percentile(99.99) > 500.0);
        assert!(d.percentile(99.0) < 2.0);
    }

    // ---- spill / sketch-mode behaviour --------------------------------

    #[test]
    fn spills_past_the_limit_and_keeps_exact_fields_exact() {
        let mut d = Distribution::with_spill_limit(100);
        for i in 0..100 {
            d.add(i as f64);
        }
        assert!(d.is_exact());
        d.add(100.0);
        assert!(!d.is_exact(), "sample 101 crosses the limit");
        for i in 101..1000 {
            d.add(i as f64);
        }
        // Count, mean, extrema stay exact across the spill.
        assert_eq!(d.count(), 1000);
        assert!((d.mean() - 499.5).abs() < 1e-9);
        assert_eq!(d.min(), 0.0);
        assert_eq!(d.max(), 999.0);
        assert!(d.retained() < 1000);
        // Quantiles are estimates within the configured rank error.
        let eps = d.rank_error_bound().expect("sketch mode");
        let p50 = d.percentile(50.0);
        assert!((p50 - 499.5).abs() <= eps * 1000.0 + 1.0, "p50 = {p50}");
    }

    #[test]
    fn sketched_starts_in_sketch_mode() {
        let mut d = Distribution::sketched();
        assert!(!d.is_exact());
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), 0.0);
        d.add(3.0);
        assert_eq!(d.quantile(0.5), 3.0);
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn merge_with_empty_preserves_state_in_both_modes() {
        for mut d in [dist(&[1.0, 2.0, 3.0]), {
            let mut s = Distribution::sketched();
            for i in 0..50 {
                s.add(i as f64);
            }
            s
        }] {
            let count = d.count();
            let digest = d.digest();
            d.merge(&Distribution::new());
            d.merge(&Distribution::sketched());
            assert_eq!(d.count(), count);
            assert_eq!(d.digest(), digest, "empty merge changed the store");
        }
    }

    #[test]
    fn merge_spills_when_union_crosses_the_limit() {
        let mut a = Distribution::with_spill_limit(150);
        let mut b = Distribution::with_spill_limit(150);
        for i in 0..100 {
            a.add(i as f64);
            b.add((i + 100) as f64);
        }
        assert!(a.is_exact() && b.is_exact());
        a.merge(&b);
        assert!(!a.is_exact(), "200 samples exceed the 150 limit");
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 199.0);
    }

    #[test]
    fn mixed_mode_merges_cover_all_pairings() {
        let exact = dist(&[1.0, 2.0, 3.0]);
        let mut sk = Distribution::sketched();
        for i in 0..10 {
            sk.add(i as f64 + 10.0);
        }
        // exact <- sketch
        let mut a = exact.clone();
        a.merge(&sk);
        assert!(!a.is_exact());
        assert_eq!(a.count(), 13);
        assert_eq!(a.max(), 19.0);
        // sketch <- exact
        let mut b = sk.clone();
        b.merge(&exact);
        assert_eq!(b.count(), 13);
        assert_eq!(b.min(), 1.0);
        // sketch <- sketch
        let mut c = sk.clone();
        c.merge(&sk);
        assert_eq!(c.count(), 20);
    }

    #[test]
    fn sketch_digest_is_replay_stable() {
        let build = || {
            let mut d = Distribution::with_spill_limit(64);
            for i in 0..5_000 {
                d.add((i as f64 * 97.0) % 1013.0);
            }
            d
        };
        assert_eq!(build().digest(), build().digest());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite sample")]
    fn nan_add_is_rejected_in_debug() {
        Distribution::new().add(f64::NAN);
    }
}
