//! Exact, order-invariant `f64` summation.
//!
//! Parallel aggregation sums per-block partials whose boundaries depend on
//! upstream blocking (block size, row width, UoT, degree of parallelism).
//! Naive `f64` accumulation rounds after every add, so the same multiset of
//! inputs can produce different low-order bits under different groupings —
//! which would make query results depend on physical plan shape. [`ExactF64Sum`]
//! removes that dependence: it accumulates into a wide fixed-point register
//! (a Kulisch-style superaccumulator) covering the entire `f64` exponent
//! range, so every intermediate add is exact and [`ExactF64Sum::value`]
//! returns the *correctly rounded* sum of the inputs — a pure function of the
//! input multiset, independent of add order, partial boundaries, and merge
//! shape.
//!
//! Layout: the register holds bit positions for weights `2^-1074 ..= 2^1021`
//! (the full double range) plus 64 bits of carry headroom, as 68 limbs of 32
//! value bits each stored in `i64`. Each add splits the 53-bit significand
//! across at most three limbs; limbs absorb signed contributions and are
//! carry-normalized lazily, so the hot path is three integer adds.

/// Number of 32-bit limbs: ceil(2098 value bits / 32) = 66, plus 2 for carry
/// headroom when many maximal values accumulate before normalization.
const LIMBS: usize = 68;
/// Value bits per limb.
const LIMB_BITS: u32 = 32;
const LIMB_MASK: u64 = (1 << LIMB_BITS) - 1;
/// Normalize after this many unnormalized adds. Each add contributes less
/// than `2^32` per limb, so limb magnitude stays below `2^(32+28) = 2^60`,
/// and merging two accumulators stays below `i64::MAX`.
const NORM_INTERVAL: u32 = 1 << 28;

/// An exact accumulator for `f64` addition.
///
/// `add` and `merge` are associative and commutative over the represented
/// value; `value()` rounds once (to nearest, ties to even). Non-finite
/// inputs short-circuit to IEEE semantics: any NaN poisons the sum, infinities
/// of one sign saturate, and opposing infinities yield NaN.
#[derive(Debug, Clone)]
pub struct ExactF64Sum {
    limbs: [i64; LIMBS],
    /// IEEE-propagated combination of non-finite inputs, if any.
    non_finite: Option<f64>,
    /// Adds since the last carry normalization.
    pending: u32,
}

impl Default for ExactF64Sum {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for ExactF64Sum {
    fn eq(&self, other: &Self) -> bool {
        // Compare the represented value, not the (normalization-dependent)
        // limb contents.
        let mut a = self.clone();
        let mut b = other.clone();
        a.normalize();
        b.normalize();
        a.limbs == b.limbs
            && match (a.non_finite, b.non_finite) {
                (None, None) => true,
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            }
    }
}

impl ExactF64Sum {
    /// The empty sum (value `0.0`).
    pub fn new() -> Self {
        ExactF64Sum {
            limbs: [0; LIMBS],
            non_finite: None,
            pending: 0,
        }
    }

    /// Add one value. Exact for all finite inputs.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite = Some(match self.non_finite {
                None => v,
                Some(prev) => prev + v,
            });
            return;
        }
        if v == 0.0 {
            return;
        }
        let bits = v.to_bits();
        let negative = (bits >> 63) != 0;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Significand and the register bit position of its least bit
        // (position 0 carries weight 2^-1074).
        let (sig, pos) = if biased == 0 {
            (frac, 0i64)
        } else {
            (frac | (1 << 52), biased - 1)
        };
        let limb = (pos >> 5) as usize;
        let shift = (pos & 31) as u32;
        let wide = (sig as u128) << shift; // at most 53 + 31 = 84 bits
        let c0 = (wide as u64 & LIMB_MASK) as i64;
        let c1 = ((wide >> LIMB_BITS) as u64 & LIMB_MASK) as i64;
        let c2 = ((wide >> (2 * LIMB_BITS)) as u64 & LIMB_MASK) as i64;
        if negative {
            self.limbs[limb] -= c0;
            self.limbs[limb + 1] -= c1;
            self.limbs[limb + 2] -= c2;
        } else {
            self.limbs[limb] += c0;
            self.limbs[limb + 1] += c1;
            self.limbs[limb + 2] += c2;
        }
        self.pending += 1;
        if self.pending >= NORM_INTERVAL {
            self.normalize();
        }
    }

    /// Fold another accumulator in. Exact; order-invariant.
    pub fn merge(&mut self, other: &ExactF64Sum) {
        if let Some(nf) = other.non_finite {
            self.non_finite = Some(match self.non_finite {
                None => nf,
                Some(prev) => prev + nf,
            });
        }
        if self.pending.saturating_add(other.pending) >= NORM_INTERVAL {
            self.normalize();
        }
        if other.pending >= NORM_INTERVAL / 2 {
            let mut o = other.clone();
            o.normalize();
            for (a, b) in self.limbs.iter_mut().zip(&o.limbs) {
                *a += b;
            }
            self.pending += 1;
        } else {
            for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
                *a += b;
            }
            self.pending += other.pending.max(1);
        }
    }

    /// Carry-propagate so every limb is in `[0, 2^32)` (two's-complement at
    /// the top for negative totals).
    fn normalize(&mut self) {
        let mut carry: i64 = 0;
        for l in &mut self.limbs {
            let t = *l + carry;
            let lo = t & LIMB_MASK as i64; // t mod 2^32, non-negative
            carry = (t - lo) >> LIMB_BITS;
            *l = lo;
        }
        // A leftover carry of -1 marks a negative total (two's complement
        // wrap); fold it back so the sign check in `value` sees it.
        if carry == -1 {
            self.limbs[LIMBS - 1] += -1i64 << LIMB_BITS;
        } else {
            debug_assert!(carry == 0, "superaccumulator overflow");
        }
        self.pending = 0;
    }

    /// The correctly rounded (nearest, ties to even) value of the sum.
    pub fn value(&self) -> f64 {
        self.clone().finish()
    }

    /// [`value`](Self::value) without the copy: carry-normalizes the register
    /// in place (the represented sum is unchanged, so the accumulator stays
    /// usable) and rounds once.
    pub fn finish(&mut self) -> f64 {
        if let Some(nf) = self.non_finite {
            return nf;
        }
        self.normalize();
        // Detect sign: after normalization all limbs are in [0, 2^32) except
        // a possible negative top limb marking a negative total.
        let negative = self.limbs[LIMBS - 1] < 0;
        let mut mag: [u64; LIMBS] = [0; LIMBS];
        if negative {
            // Two's-complement negate to get the magnitude.
            let mut carry: u64 = 1;
            for (m, &l) in mag.iter_mut().zip(&self.limbs) {
                let t = (!(l as u64) & LIMB_MASK) + carry;
                *m = t & LIMB_MASK;
                carry = t >> LIMB_BITS;
            }
        } else {
            for (m, &l) in mag.iter_mut().zip(&self.limbs) {
                *m = l as u64;
            }
        }
        // Most significant set bit position (register coordinates).
        let top = match (0..LIMBS).rev().find(|&i| mag[i] != 0) {
            None => return 0.0,
            Some(i) => i as i64 * 32 + (63 - mag[i].leading_zeros() as i64),
        };
        // Take the 53-bit window [lsb, top]; positions below 0 don't exist
        // (the register's unit is exactly the smallest subnormal).
        let lsb = (top - 52).max(0);
        let mut mantissa = bits(&mag, lsb, top - lsb + 1);
        // Round to nearest, ties to even.
        if lsb > 0 && bits(&mag, lsb - 1, 1) == 1 {
            let sticky = any_below(&mag, lsb - 1);
            if sticky || (mantissa & 1) == 1 {
                mantissa += 1;
            }
        }
        let mut exp = lsb - 1074; // weight of the mantissa's LSB
        if mantissa == (1 << 53) {
            mantissa >>= 1;
            exp += 1;
        }
        if exp > 971 {
            // Beyond f64 range: the true sum overflows.
            return if negative {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        // mantissa * 2^exp, assembled exactly (both factors and the result
        // are representable; split the scale to stay in normal range).
        let m = mantissa as f64;
        let v = if exp >= -1022 {
            m * pow2(exp as i32)
        } else {
            (m * pow2((exp + 1022) as i32)) * pow2(-1022)
        };
        if negative {
            -v
        } else {
            v
        }
    }
}

/// The `len` (1..=53) register bits starting at position `p`, read from the
/// at most three limbs they span.
#[inline]
fn bits(mag: &[u64; LIMBS], p: i64, len: i64) -> u64 {
    let limb = (p >> 5) as usize;
    let mut window: u128 = 0;
    for (k, &m) in mag[limb..].iter().take(3).enumerate() {
        window |= (m as u128) << (32 * k);
    }
    (window >> (p & 31)) as u64 & ((1u64 << len) - 1)
}

/// Whether any register bit below position `p` is set.
#[inline]
fn any_below(mag: &[u64; LIMBS], p: i64) -> bool {
    let limb = (p >> 5) as usize;
    mag[..limb].iter().any(|&m| m != 0) || mag[limb] & ((1u64 << (p & 31)) - 1) != 0
}

/// `2^e` for `e` in the normal exponent range, constructed exactly.
#[inline]
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(vals: &[f64]) -> f64 {
        let mut s = ExactF64Sum::new();
        for &v in vals {
            s.add(v);
        }
        s.value()
    }

    #[test]
    fn empty_and_zero() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[0.0, -0.0]), 0.0);
    }

    #[test]
    fn exact_small_integers() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum(&[-1.0, -2.0, 3.0]), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive summation loses the 1.0 entirely.
        assert_eq!(sum(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum(&[1.0, 1e100, -1e100]), 1.0);
        assert_eq!(
            sum(&[f64::MAX, f64::MIN_POSITIVE, -f64::MAX]),
            f64::MIN_POSITIVE
        );
    }

    #[test]
    fn order_and_blocking_invariant() {
        let vals: Vec<f64> = (0..1000)
            .map(|i| {
                ((i * 2654435761u64 as i64) as f64) * 1.0e-3 * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .chain((0..100).map(|i| (i as f64) * 1e15))
            .chain((0..100).map(|i| (i as f64) * 1e-15))
            .collect();
        let forward = sum(&vals);
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(forward.to_bits(), sum(&rev).to_bits());

        // Arbitrary partial boundaries + merge must not change the bits.
        for chunk in [1, 3, 7, 64, 999] {
            let mut total = ExactF64Sum::new();
            for part in vals.chunks(chunk) {
                let mut p = ExactF64Sum::new();
                for &v in part {
                    p.add(v);
                }
                total.merge(&p);
            }
            assert_eq!(forward.to_bits(), total.value().to_bits(), "chunk {chunk}");
        }
    }

    #[test]
    fn correctly_rounded_where_naive_drifts() {
        // ulp(1e16) = 2, so naive accumulation absorbs each lone 1.0
        // (1e16 + 1 ties back down to 1e16); the true sum 1e16 + 2 is
        // representable and the exact sum must return it.
        let vals = [1e16, 1.0, 1.0];
        let naive: f64 = vals.iter().sum();
        assert_eq!(naive, 1e16, "test premise: naive summation drifts");
        assert_eq!(sum(&vals), 1e16 + 2.0);
    }

    #[test]
    fn negative_totals() {
        assert_eq!(sum(&[1.0, -3.5]), -2.5);
        assert_eq!(sum(&[-1e-300, -1e300, 1e300]), -1e-300);
    }

    #[test]
    fn subnormals() {
        let tiny = f64::from_bits(1); // smallest subnormal
        assert_eq!(sum(&[tiny, tiny]).to_bits(), f64::from_bits(2).to_bits());
        assert_eq!(sum(&[tiny, -tiny]), 0.0);
        assert_eq!(
            sum(&[f64::MIN_POSITIVE, -tiny]).to_bits(),
            f64::MIN_POSITIVE.to_bits() - 1
        );
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // ...but cancelling back down recovers the exact finite value.
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    fn non_finite_inputs_follow_ieee() {
        assert_eq!(sum(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(sum(&[f64::NEG_INFINITY, 5.0]), f64::NEG_INFINITY);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn many_adds_trigger_normalization_safely() {
        let mut s = ExactF64Sum::new();
        // Keep this fast but force several normalize cycles via merge.
        let mut part = ExactF64Sum::new();
        for i in 0..10_000 {
            part.add(i as f64 * 1e10);
        }
        for _ in 0..4 {
            s.merge(&part);
        }
        let expect: f64 = 4.0 * (0..10_000u64).map(|i| i as f64 * 1e10).sum::<f64>();
        // The naive reference is exact here (sums of multiples of 1e10 stay
        // well under 2^53 * ulp scale)... verify against the accumulator's own
        // order-invariance instead of bit-asserting the naive fold.
        assert!((s.value() - expect).abs() <= expect * 1e-15);
        let mut rev = ExactF64Sum::new();
        for i in (0..10_000).rev() {
            for _ in 0..4 {
                rev.add(i as f64 * 1e10);
            }
        }
        assert_eq!(s.value().to_bits(), rev.value().to_bits());
    }

    #[test]
    fn finish_in_place_matches_value_and_keeps_the_sum() {
        let mut s = ExactF64Sum::new();
        for v in [1e16, 1.0, -3.25, 1.0, 7e-300] {
            s.add(v);
        }
        let expect = s.value();
        assert_eq!(s.finish().to_bits(), expect.to_bits());
        // Still a valid accumulator of the same sum afterwards.
        assert_eq!(s.finish().to_bits(), expect.to_bits());
        s.add(2.0);
        assert_eq!(s.value(), sum(&[1e16, 1.0, -3.25, 1.0, 7e-300, 2.0]));
        let mut nf = ExactF64Sum::new();
        nf.add(f64::INFINITY);
        assert_eq!(nf.finish(), f64::INFINITY);
    }

    /// IEEE addition of two doubles is correctly rounded, so it is an
    /// independent oracle for the register's rounding: every exponent gap,
    /// guard/sticky pattern and subnormal boundary a pair can produce.
    #[test]
    fn pairs_round_like_ieee_addition() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let make = |sign: u64, exp: u64, frac: u64| {
            f64::from_bits(sign << 63 | exp << 52 | frac & ((1 << 52) - 1))
        };
        for _ in 0..200_000 {
            let (a, b, c, d) = (next(), next(), next(), next());
            // Any finite x (subnormals included), and y up to 63 binades
            // below it with either sign, so rounding — not just absorption —
            // happens.
            let ex = a % 2047;
            let x = make(a >> 63, ex, b);
            let y = make(c >> 63, ex.saturating_sub(c % 64), d);
            if !(x + y).is_finite() {
                continue;
            }
            assert_eq!(sum(&[x, y]).to_bits(), (x + y).to_bits(), "{x:e} + {y:e}");
            assert_eq!(sum(&[x]).to_bits(), (x + 0.0).to_bits(), "{x:e}");
        }
    }

    #[test]
    fn equality_is_value_equality() {
        let mut a = ExactF64Sum::new();
        a.add(1.5);
        a.add(2.5);
        let mut b = ExactF64Sum::new();
        b.add(4.0);
        assert_eq!(a, b);
        b.add(1e-30);
        assert_ne!(a, b);
    }
}
