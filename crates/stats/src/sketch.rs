//! A deterministic, mergeable, KLL-style streaming quantile sketch.
//!
//! [`Distribution`](crate::Distribution) stores exact samples while runs
//! stay figure-scale, but a production-scale sweep observes millions of
//! flow completion times and an O(flows) sample store dies first on
//! memory, then on sort time. This sketch bounds memory at O(k log(n/k))
//! items while answering any rank query within a configured rank-error
//! bound.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** The classical KLL compactor flips a coin per
//!    compaction to decide whether the odd or even positions survive.
//!    That would break the repo-wide bit-replay contract (DESIGN.md §7),
//!    so this sketch replaces the coin with a per-level alternation bit
//!    that toggles on every compaction: the sketch state is a pure
//!    function of the insertion sequence, and `merge` is a pure function
//!    of the two operand states. Same stream (or same merge tree) in,
//!    bit-identical sketch out — on any machine, thread count, or shard
//!    count.
//! 2. **Mergeable.** `merge` concatenates levels and re-compacts, so
//!    cross-replication aggregation in the sweep executor keeps working
//!    through the same [`RunStats::merge`](../../drill-runtime) path.
//! 3. **std-only.** No allocator tricks, no external crates.
//!
//! # Structure
//!
//! Level `l` holds items that each represent `2^l` original samples
//! ("weight"). New samples enter level 0 with weight 1. When the sketch
//! exceeds its item budget, the lowest over-capacity level is sorted and
//! every other survivor is promoted to level `l+1` (weight doubles),
//! alternating between odd and even positions across compactions so
//! successive rank errors cancel instead of accumulating. Level
//! capacities decay geometrically (ratio 2/3, floor [`MIN_LEVEL_CAP`])
//! from `k` at the top level, giving the total budget
//! `sum_l cap(l) <= 3k + MIN_LEVEL_CAP * levels = O(k log(n/k))`.
//!
//! # Error bound
//!
//! [`rank_error_bound`](QuantileSketch::rank_error_bound) reports the
//! *configured* bound `1.5 * levels / k`: a deliberately conservative
//! envelope over the alternating compactor's observed error (the
//! random-coin KLL analysis gives O(1/k) w.h.p.; alternation behaves the
//! same in practice but trades the probabilistic worst case for
//! determinism). The differential goldens and seeded sweeps in `tests/`
//! hold every p50/p90/p99 estimate to this bound against exact
//! order-statistics, so a regression in compaction quality fails loudly.

/// Default `k` (top-level capacity). 512 keeps the whole sketch around a
/// dozen kilobytes while holding observed rank error well under 1% at
/// 10M samples.
pub const DEFAULT_SKETCH_K: usize = 512;

/// Smallest per-level capacity: levels far from the top keep at least
/// this many items so promotion cascades cannot thrash.
pub const MIN_LEVEL_CAP: usize = 8;

/// A deterministic KLL-style quantile sketch over finite `f64` samples.
///
/// Non-finite samples are a caller bug (same contract as
/// [`Distribution`](crate::Distribution)) and panic in debug builds.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// `compactors[l]` holds items of weight `2^l`, unsorted between
    /// compactions.
    compactors: Vec<Vec<f64>>,
    /// Top-level capacity knob.
    k: usize,
    /// Bit `l` chooses whether the next compaction of level `l` keeps the
    /// odd or even sorted positions; toggled each compaction so errors
    /// alternate in sign and cancel.
    alternate: u64,
    /// Exact number of samples observed.
    count: u64,
    /// Exact extrema (quantile 0/1 never suffer sketch error).
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// An empty sketch with the default accuracy knob.
    pub fn new() -> QuantileSketch {
        QuantileSketch::with_k(DEFAULT_SKETCH_K)
    }

    /// An empty sketch with top-level capacity `k` (higher = more
    /// accurate, more memory). `k` is clamped to at least
    /// [`MIN_LEVEL_CAP`].
    pub fn with_k(k: usize) -> QuantileSketch {
        QuantileSketch {
            compactors: vec![Vec::new()],
            k: k.max(MIN_LEVEL_CAP),
            alternate: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The accuracy knob this sketch was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Exact number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Observe one value.
    #[inline]
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.compactors[0].push(x);
        if self.retained() > self.budget() {
            self.compress();
        }
    }

    /// Merge all of `other`'s mass into `self`. Deterministic: the result
    /// is a pure function of the two operand states, so any fixed merge
    /// order (e.g. the sweep executor's slot order) reproduces bit-
    /// identical sketches regardless of thread or shard count.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.is_empty() {
            return;
        }
        while self.compactors.len() < other.compactors.len() {
            self.compactors.push(Vec::new());
        }
        for (l, items) in other.compactors.iter().enumerate() {
            self.compactors[l].extend_from_slice(items);
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // Mix the alternation phases so the merged state keeps varying
        // its survivor parity; XOR keeps this a pure function of inputs.
        self.alternate ^= other.alternate;
        if self.retained() > self.budget() {
            self.compress();
        }
    }

    /// Number of items currently retained across all levels — the
    /// sketch's memory footprint in samples. Bounded by
    /// [`budget`](QuantileSketch::budget) (plus the one item being
    /// inserted), i.e. O(k log(n/k)), never O(n).
    pub fn retained(&self) -> usize {
        self.compactors.iter().map(|c| c.len()).sum()
    }

    /// Total item budget at the current level count:
    /// `sum_l cap(l) <= 3k + MIN_LEVEL_CAP * levels`.
    pub fn budget(&self) -> usize {
        (0..self.compactors.len()).map(|l| self.cap(l)).sum()
    }

    /// Number of levels currently in use.
    pub fn levels(&self) -> usize {
        self.compactors.len()
    }

    /// The configured rank-error envelope for quantile queries: an
    /// estimate for the `q`-quantile lands within `bound * count` ranks
    /// of the exact order statistic. Conservative by design (observed
    /// error runs an order of magnitude lower); pinned against exact
    /// quantiles by the differential goldens.
    pub fn rank_error_bound(&self) -> f64 {
        1.5 * self.compactors.len() as f64 / self.k as f64
    }

    /// Capacity of level `l`: decays by 2/3 per level below the top,
    /// floored at [`MIN_LEVEL_CAP`]. Integer arithmetic only, so the
    /// schedule is identical on every platform.
    fn cap(&self, l: usize) -> usize {
        let depth = self.compactors.len() - 1 - l;
        let mut cap = self.k;
        for _ in 0..depth {
            cap = (cap * 2).div_ceil(3);
            if cap <= MIN_LEVEL_CAP {
                return MIN_LEVEL_CAP;
            }
        }
        cap.max(MIN_LEVEL_CAP)
    }

    /// Compact until back under budget: sort the lowest over-capacity
    /// level and promote alternating survivors (weight doubles).
    fn compress(&mut self) {
        while self.retained() > self.budget() {
            let Some(l) = (0..self.compactors.len())
                .find(|&l| self.compactors[l].len() > self.cap(l))
                .or_else(|| (0..self.compactors.len()).find(|&l| self.compactors[l].len() >= 2))
            else {
                return;
            };
            if self.compactors[l].len() < 2 {
                return;
            }
            self.compact_level(l);
        }
    }

    fn compact_level(&mut self, l: usize) {
        if l + 1 == self.compactors.len() {
            self.compactors.push(Vec::new());
        }
        let mut items = std::mem::take(&mut self.compactors[l]);
        items.sort_unstable_by(|a, b| a.total_cmp(b));
        let keep_odd = (self.alternate >> (l % 64)) & 1 == 1;
        self.alternate ^= 1 << (l % 64);
        // An odd-length level cannot halve cleanly: one boundary item
        // stays behind at its current weight (which end alternates with
        // the same phase bit, so neither tail is systematically favored).
        if items.len() % 2 == 1 {
            let held = if keep_odd {
                items.remove(0)
            } else {
                items.pop().expect("nonempty")
            };
            self.compactors[l].push(held);
        }
        let start = usize::from(keep_odd);
        let promoted: Vec<f64> = items.iter().copied().skip(start).step_by(2).collect();
        self.compactors[l + 1].extend_from_slice(&promoted);
    }

    /// All retained `(value, weight)` pairs, sorted by value.
    fn weighted_items(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (l, items) in self.compactors.iter().enumerate() {
            let w = 1u64 << l;
            out.extend(items.iter().map(|&v| (v, w)));
        }
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Total retained weight (drifts from `count` only via odd-length
    /// compactions; queries normalize by this, keeping ranks
    /// self-consistent).
    fn total_weight(&self) -> u64 {
        self.compactors
            .iter()
            .enumerate()
            .map(|(l, c)| (c.len() as u64) << l)
            .sum()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`); 0 if empty. `q = 0`
    /// and `q = 1` return the exact extrema.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.is_empty() {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let items = self.weighted_items();
        let total = self.total_weight();
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum += w;
            if cum >= target {
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Estimated fraction of samples strictly greater than `x`; exact at
    /// and beyond the extrema.
    pub fn frac_above(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        if x >= self.max {
            return 0.0;
        }
        if x < self.min {
            return 1.0;
        }
        let total = self.total_weight();
        let above: u64 = self
            .weighted_items()
            .iter()
            .filter(|&&(v, _)| v > x)
            .map(|&(_, w)| w)
            .sum();
        above as f64 / total as f64
    }

    /// Export up to `points` `(value, cumulative fraction)` pairs evenly
    /// spaced in rank — the approximate counterpart of
    /// [`Distribution::cdf`](crate::Distribution::cdf). The final point
    /// is always `(max, 1.0)`.
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        if self.is_empty() || points == 0 {
            return Vec::new();
        }
        let items = self.weighted_items();
        let total = self.total_weight();
        let points = points.min(items.len()).max(1);
        let mut out = Vec::with_capacity(points);
        let mut cum = 0u64;
        let mut next = 1usize;
        for &(v, w) in &items {
            cum += w;
            // Emit when cumulative weight crosses the next of `points`
            // evenly spaced rank targets.
            while next <= points && cum as u128 * points as u128 >= next as u128 * total as u128 {
                out.push((v.clamp(self.min, self.max), cum as f64 / total as f64));
                next += 1;
            }
        }
        if let Some(last) = out.last_mut() {
            *last = (self.max, 1.0);
        }
        out
    }

    /// FNV-1a digest of the full sketch state (structure, item bits,
    /// alternation phase). Two sketches with equal digests answer every
    /// query identically; the determinism goldens compare digests across
    /// thread counts.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.k as u64);
        mix(self.count);
        mix(self.alternate);
        mix(self.min.to_bits());
        mix(self.max.to_bits());
        for c in &self.compactors {
            mix(c.len() as u64);
            for &v in c {
                mix(v.to_bits());
            }
        }
        h
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64) for test inputs.
    fn stream(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut s = seed;
        (0..n).map(move |_| {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 1e6
        })
    }

    /// Exact rank (number of samples <= v) in a sorted slice.
    fn rank_of(sorted: &[f64], v: f64) -> usize {
        sorted.partition_point(|&x| x <= v)
    }

    #[test]
    fn empty_sketch_queries() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.frac_above(1.0), 0.0);
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut s = QuantileSketch::new();
        s.add(7.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 7.5);
        }
        assert_eq!(s.cdf(4), vec![(7.5, 1.0)]);
        assert_eq!(s.frac_above(7.5), 0.0);
        assert_eq!(s.frac_above(7.4), 1.0);
    }

    #[test]
    fn extremes_are_exact_after_heavy_compaction() {
        let mut s = QuantileSketch::with_k(32);
        for x in stream(1, 100_000) {
            s.add(x);
        }
        let mut all: Vec<f64> = stream(1, 100_000).collect();
        all.sort_unstable_by(|a, b| a.total_cmp(b));
        assert_eq!(s.quantile(0.0), all[0]);
        assert_eq!(s.quantile(1.0), *all.last().unwrap());
        assert_eq!(s.count(), 100_000);
    }

    #[test]
    fn quantiles_within_configured_rank_error() {
        for &n in &[100usize, 5_000, 200_000] {
            let mut s = QuantileSketch::new();
            for x in stream(42, n) {
                s.add(x);
            }
            let mut all: Vec<f64> = stream(42, n).collect();
            all.sort_unstable_by(|a, b| a.total_cmp(b));
            let eps = s.rank_error_bound();
            for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
                let est = s.quantile(q);
                let rank = rank_of(&all, est) as f64 / n as f64;
                assert!(
                    (rank - q).abs() <= eps,
                    "n={n} q={q}: estimated rank {rank:.5} off by more than eps={eps:.5}"
                );
            }
        }
    }

    #[test]
    fn merge_within_error_of_single_stream() {
        let n = 60_000;
        let mut whole = QuantileSketch::new();
        for x in stream(7, n) {
            whole.add(x);
        }
        // Same stream split into 4 uneven shards, merged in order.
        let all: Vec<f64> = stream(7, n).collect();
        let mut merged = QuantileSketch::new();
        for chunk in all.chunks(17_000) {
            let mut part = QuantileSketch::new();
            for &x in chunk {
                part.add(x);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        let mut sorted = all.clone();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        let eps = merged.rank_error_bound().max(whole.rank_error_bound());
        for q in [0.05, 0.5, 0.9, 0.99] {
            let rm = rank_of(&sorted, merged.quantile(q)) as f64 / n as f64;
            let rw = rank_of(&sorted, whole.quantile(q)) as f64 / n as f64;
            assert!((rm - q).abs() <= eps, "merged q={q} rank {rm}");
            assert!((rw - q).abs() <= eps, "single-stream q={q} rank {rw}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = QuantileSketch::new();
        for x in stream(3, 10_000) {
            s.add(x);
        }
        let before = s.digest();
        s.merge(&QuantileSketch::new());
        assert_eq!(s.digest(), before, "merging an empty sketch changed state");
        let mut empty = QuantileSketch::new();
        empty.merge(&s);
        assert_eq!(empty.count(), s.count());
        assert_eq!(empty.quantile(0.5).to_bits(), s.quantile(0.5).to_bits());
    }

    #[test]
    fn identical_streams_give_bit_identical_sketches() {
        let build = || {
            let mut s = QuantileSketch::new();
            for x in stream(99, 50_000) {
                s.add(x);
            }
            s
        };
        assert_eq!(build().digest(), build().digest());
        // Merge determinism: same merge tree, same bits.
        let merge_tree = || {
            let mut acc = QuantileSketch::new();
            for seed in [1u64, 2, 3] {
                let mut part = QuantileSketch::new();
                for x in stream(seed, 20_000) {
                    part.add(x);
                }
                acc.merge(&part);
            }
            acc
        };
        assert_eq!(merge_tree().digest(), merge_tree().digest());
    }

    #[test]
    fn memory_stays_sublinear_at_ten_million_samples() {
        let mut s = QuantileSketch::new();
        let n = 10_000_000usize;
        for x in stream(5, n) {
            s.add(x);
        }
        assert_eq!(s.count(), n as u64);
        // O(k log(n/k)): budget is 3k plus the floor per level; with
        // k=512 and ~15 levels that is under 2k items — versus 10M
        // stored exactly. One extra item of slack for the in-flight push.
        let levels = s.levels();
        assert!(
            s.retained() <= 3 * DEFAULT_SKETCH_K + MIN_LEVEL_CAP * levels + 1,
            "retained {} items at n={n} (levels={levels})",
            s.retained()
        );
        assert!(levels <= 16 + DEFAULT_SKETCH_K.ilog2() as usize);
        // The tail is still usable: p99.99 of a uniform stream lands in
        // the top percent of the value range.
        assert!(s.quantile(0.9999) > 0.99e6 * 0.98);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite sample")]
    fn nan_samples_are_rejected() {
        QuantileSketch::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_out_of_range() {
        let mut s = QuantileSketch::new();
        s.add(1.0);
        s.quantile(1.5);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut s = QuantileSketch::with_k(64);
        for x in stream(11, 30_000) {
            s.add(x);
        }
        let cdf = s.cdf(50);
        assert!(!cdf.is_empty() && cdf.len() <= 50);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values monotone");
            assert!(w[0].1 <= w[1].1, "fractions monotone");
        }
        let last = cdf.last().unwrap();
        assert_eq!(last.0, s.max());
        assert!((last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frac_above_tracks_exact_within_bound() {
        let n = 40_000;
        let mut s = QuantileSketch::new();
        for x in stream(13, n) {
            s.add(x);
        }
        let mut all: Vec<f64> = stream(13, n).collect();
        all.sort_unstable_by(|a, b| a.total_cmp(b));
        let eps = s.rank_error_bound();
        for x in [1e5, 5e5, 9e5] {
            let exact = (n - rank_of(&all, x)) as f64 / n as f64;
            assert!(
                (s.frac_above(x) - exact).abs() <= eps,
                "frac_above({x}) = {} vs exact {exact}",
                s.frac_above(x)
            );
        }
    }
}
