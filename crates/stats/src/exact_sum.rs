//! Exact summation of `f64`s.
//!
//! A running `sum += x` rounds at every step, so the total depends on
//! the order of the additions: merging two partial sums gives different
//! low bits than one pass over the concatenated stream. [`ExactSum`]
//! keeps the sum exact as a short list of non-overlapping partials
//! (Shewchuk 1997, the algorithm behind Python's `math.fsum`) and rounds
//! only when read, so [`ExactSum::value`] is the correctly rounded total
//! of the multiset of values added — whatever their order or merge tree.

/// An exact sum of finite `f64`s (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct ExactSum {
    /// Non-overlapping, nonzero, in increasing magnitude; their exact
    /// (unrounded) sum is the represented total.
    partials: Vec<f64>,
}

impl ExactSum {
    /// Add `x` exactly.
    #[inline]
    pub(crate) fn add(&mut self, mut x: f64) {
        let mut kept = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Two-sum: hi + lo == x + y exactly.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        if x != 0.0 {
            self.partials.push(x);
        }
    }

    /// Add every value `other` holds, exactly.
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
    }

    /// The total, correctly rounded to nearest (ties to even).
    pub(crate) fn value(&self) -> f64 {
        let p = &self.partials;
        let Some(&top) = p.last() else {
            return 0.0;
        };
        // Sum from the largest partial down until the running total
        // absorbs a partial inexactly; `lo` is that rounding error.
        let mut hi = top;
        let mut lo = 0.0;
        let mut i = p.len() - 1;
        while i > 0 {
            i -= 1;
            let x = hi;
            let y = p[i];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // `hi` rounded `lo` away at an exact halfway point when `lo` is
        // half an ulp; the partials below `lo` break the tie, so round
        // toward them if they share `lo`'s sign.
        if i > 0 && ((lo < 0.0 && p[i - 1] < 0.0) || (lo > 0.0 && p[i - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if x - hi == y {
                hi = x;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    #[test]
    fn cancellation_is_exact() {
        assert_eq!(sum_of(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(sum_of(&[1e100, 1.0, -1e100, 1e-100]), 1.0);
        assert_eq!(sum_of(&[0.1; 10]), 1.0);
        assert_eq!(sum_of(&[]), 0.0);
    }

    #[test]
    fn halfway_ties_round_to_even_past_the_tie() {
        // 1 + 2^-53 is a tie between 1 and 1 + 2^-52; the tiny third term
        // breaks it upward, which a naive top-down sum would miss.
        let tiny = f64::EPSILON * f64::EPSILON;
        assert_eq!(sum_of(&[1.0, f64::EPSILON / 2.0, tiny]), 1.0 + f64::EPSILON);
        assert_eq!(sum_of(&[1.0, f64::EPSILON / 2.0]), 1.0);
    }

    #[test]
    fn order_and_merge_tree_do_not_change_the_bits() {
        // Mixed signs across 12 decades, from a fixed xorshift stream.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xs: Vec<f64> = (0..500)
            .map(|_| {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                (unit - 0.3) * 10f64.powi((next() % 12) as i32 - 4)
            })
            .collect();
        let whole = sum_of(&xs);
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(sum_of(&rev).to_bits(), whole.to_bits());
        for cut in [0, 1, 137, 499, 500] {
            let (mut a, mut b) = (ExactSum::default(), ExactSum::default());
            xs[..cut].iter().for_each(|&x| a.add(x));
            xs[cut..].iter().for_each(|&x| b.add(x));
            a.merge(&b);
            assert_eq!(a.value().to_bits(), whole.to_bits(), "cut at {cut}");
        }
    }
}
