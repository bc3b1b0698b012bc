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
//!
//! Most sums touch only a few of those limbs: a column of prices or
//! quantities stays within a few binades. An accumulator therefore starts as
//! a *window* of six limbs beginning at register limb `base`, placed by its
//! first value, and keeps the 544-byte full register out of line until it
//! needs it. It widens — exactly, by copying the window's limbs into the full
//! register at `base` — when a value's three limbs fall outside the window's
//! lower five, when carry normalization leaves a total that the window's
//! top limb cannot hold as its sign, or when it merges with a window at
//! another `base`. Both forms round with the same code, so the result does
//! not depend on which form an accumulator ends in.

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
/// Limbs in the compact window. Values land in the lower `WIN - 1`; the top
/// limb only receives carries, so after normalization it carries the sign.
const WIN: usize = 6;
/// `base` of an accumulator that has seen no finite nonzero value. Like
/// [`FULL`] it is far above every register limb, so the add fast path's one
/// subtract-and-compare sends the value to the slow path.
const UNSET: u32 = u32::MAX / 2;
/// `base` of an accumulator that has widened to the full register.
const FULL: u32 = UNSET + 1;

/// An exact accumulator for `f64` addition.
///
/// `add` and `merge` are associative and commutative over the represented
/// value; `value()` rounds once (to nearest, ties to even). Non-finite
/// inputs short-circuit to IEEE semantics: any NaN poisons the sum, infinities
/// of one sign saturate, and opposing infinities yield NaN.
#[derive(Debug, Clone)]
pub struct ExactF64Sum {
    /// The window: `win[i]` is register limb `base + i`.
    win: [i64; WIN],
    /// Register limb of `win[0]`, or [`UNSET`] / [`FULL`].
    base: u32,
    /// Adds since the last carry normalization.
    pending: u32,
    /// The full register, present once widened (`base == FULL`).
    full: Option<Box<[i64; LIMBS]>>,
    /// IEEE-propagated combination of non-finite inputs, if any.
    non_finite: Option<f64>,
}

impl Default for ExactF64Sum {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for ExactF64Sum {
    fn eq(&self, other: &Self) -> bool {
        // Compare the represented value, not the (form- and
        // normalization-dependent) limb contents.
        self.register() == other.register()
            && match (self.non_finite, other.non_finite) {
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
            win: [0; WIN],
            base: UNSET,
            pending: 0,
            full: None,
            non_finite: None,
        }
    }

    /// Add one value. Exact for all finite inputs.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let bits = v.to_bits();
        let biased = (bits >> 52) & 0x7ff;
        // One test sends zeros, subnormals and non-finite values aside;
        // zeros add nothing.
        if biased.wrapping_sub(1) >= 0x7fe {
            if v != 0.0 {
                self.add_special(v);
            }
            return;
        }
        // A normal value: its significand with the implicit bit, whose
        // least bit sits at register position `biased - 1` (position 0
        // carries weight 2^-1074).
        self.add_significand(
            bits & ((1 << 52) - 1) | (1 << 52),
            biased - 1,
            bits >> 63 != 0,
        );
    }

    /// Add `sig` (at most 53 bits) with its least bit at register position
    /// `pos`, negated when `negative`.
    #[inline(always)]
    fn add_significand(&mut self, sig: u64, pos: u64, negative: bool) {
        let limb = (pos >> 5) as usize;
        let wide = (sig as u128) << (pos & 31); // at most 53 + 31 = 84 bits
        let c0 = (wide as u64 & LIMB_MASK) as i64;
        let c1 = ((wide >> LIMB_BITS) as u64 & LIMB_MASK) as i64;
        let c2 = ((wide >> (2 * LIMB_BITS)) as u64 & LIMB_MASK) as i64;
        let off = (limb as u32).wrapping_sub(self.base) as usize;
        if off < WIN - 3 {
            if negative {
                self.win[off] -= c0;
                self.win[off + 1] -= c1;
                self.win[off + 2] -= c2;
            } else {
                self.win[off] += c0;
                self.win[off + 1] += c1;
                self.win[off + 2] += c2;
            }
        } else if negative {
            self.add_slow(limb, [-c0, -c1, -c2]);
        } else {
            self.add_slow(limb, [c0, c1, c2]);
        }
        self.pending += 1;
        if self.pending >= NORM_INTERVAL {
            self.normalize();
        }
    }

    /// [`add`](Self::add) for subnormals and for non-finite values, which
    /// short-circuit to IEEE semantics.
    #[cold]
    #[inline(never)]
    fn add_special(&mut self, v: f64) {
        if v.is_finite() {
            // Subnormal: no implicit bit, least bit at position 0.
            self.add_significand(v.to_bits() & ((1 << 52) - 1), 0, v.is_sign_negative());
        } else {
            self.non_finite = Some(match self.non_finite {
                None => v,
                Some(prev) => prev + v,
            });
        }
    }

    /// Add the three limb contributions `c` at register limb `limb` when the
    /// window cannot take them: place the window on a first value, otherwise
    /// add into the full register, widening first.
    #[cold]
    #[inline(never)]
    fn add_slow(&mut self, limb: usize, c: [i64; 3]) {
        let (limbs, at) = if self.base == UNSET {
            // One limb of room below the first value, for smaller ones.
            let base = limb.saturating_sub(1).min(LIMBS - WIN);
            self.base = base as u32;
            (&mut self.win[..], limb - base)
        } else {
            (&mut self.widen()[..], limb)
        };
        for (l, x) in limbs[at..at + 3].iter_mut().zip(c) {
            *l += x;
        }
    }

    /// The full register, widening the window into it first if needed. Exact
    /// in any state: the window's limbs move to their register positions
    /// unnormalized, and `pending` still bounds their magnitude.
    fn widen(&mut self) -> &mut [i64; LIMBS] {
        if self.base != FULL {
            let mut full = Box::new([0i64; LIMBS]);
            if self.base != UNSET {
                let b = self.base as usize;
                full[b..b + WIN].copy_from_slice(&self.win);
            }
            self.win = [0; WIN];
            self.base = FULL;
            self.full = Some(full);
        }
        self.full
            .as_mut()
            .expect("a full accumulator holds its register")
    }

    /// Fold another accumulator in. Exact; order-invariant. Two windows at
    /// the same `base` add limb by limb; any other pair widens.
    pub fn merge(&mut self, other: &ExactF64Sum) {
        if let Some(nf) = other.non_finite {
            self.non_finite = Some(match self.non_finite {
                None => nf,
                Some(prev) => prev + nf,
            });
        }
        if other.base == UNSET {
            return;
        }
        if self.pending.saturating_add(other.pending) >= NORM_INTERVAL {
            self.normalize();
        }
        let normalized;
        let (o, pending) = if other.pending >= NORM_INTERVAL / 2 {
            let mut n = other.clone();
            n.normalize();
            normalized = n;
            (&normalized, 1)
        } else {
            (other, other.pending.max(1))
        };
        if self.base == UNSET {
            self.win = o.win;
            self.base = o.base;
            self.full.clone_from(&o.full);
        } else if self.base == o.base && o.base != FULL {
            for (a, b) in self.win.iter_mut().zip(&o.win) {
                *a += b;
            }
        } else {
            let full = self.widen();
            let (at, limbs) = match &o.full {
                Some(f) => (0, &f[..]),
                None => (o.base as usize, &o.win[..]),
            };
            for (a, b) in full[at..].iter_mut().zip(limbs) {
                *a += b;
            }
        }
        self.pending += pending;
    }

    /// Carry-propagate so every limb is in `[0, 2^32)` (two's-complement at
    /// the top for negative totals). A window whose total no longer fits it
    /// as a signed number widens. Out of line: `add` calls it once per
    /// [`NORM_INTERVAL`] adds, and inlined there it crowds the registers of
    /// the aggregate scatter loops.
    #[inline(never)]
    fn normalize(&mut self) {
        self.pending = 0;
        match self.base {
            UNSET => {}
            FULL => {
                let full = self.widen();
                let carry = carry_limbs(&mut full[..]);
                // A leftover carry of -1 marks a negative total (two's
                // complement wrap); fold it back so the sign check in
                // `finish` sees it.
                if carry == -1 {
                    full[LIMBS - 1] += -1i64 << LIMB_BITS;
                } else {
                    debug_assert!(carry == 0, "superaccumulator overflow");
                }
            }
            _ => match normalized_window(self.win) {
                Some(w) => self.win = w,
                None => {
                    self.widen();
                    self.normalize();
                }
            },
        }
    }

    /// The represented total as a carry-normalized full register (value
    /// comparison).
    fn register(&self) -> [i64; LIMBS] {
        let mut s = self.clone();
        s.widen();
        s.normalize();
        *s.widen()
    }

    /// The correctly rounded (nearest, ties to even) value of the sum. A
    /// window is normalized in a copy of its limbs, so nothing but a widened
    /// register (or a window whose total outgrew it) is cloned.
    pub fn value(&self) -> f64 {
        if let Some(nf) = self.non_finite {
            return nf;
        }
        match self.base {
            UNSET => 0.0,
            FULL => self.clone().finish(),
            base => match normalized_window(self.win) {
                Some(w) => round_window(&w, base),
                None => self.clone().finish(),
            },
        }
    }

    /// [`value`](Self::value), carry-normalizing the register in place (the
    /// represented sum is unchanged, so the accumulator stays usable).
    pub fn finish(&mut self) -> f64 {
        if let Some(nf) = self.non_finite {
            return nf;
        }
        self.normalize();
        match self.base {
            UNSET => 0.0,
            FULL => round(&self.widen()[..], 0),
            base => round_window(&self.win, base),
        }
    }

    /// An empty accumulator that starts in the full register (the reference
    /// form the window is tested against).
    #[cfg(test)]
    fn new_full() -> Self {
        let mut s = Self::new();
        s.widen();
        s
    }
}

/// The window `w` carry-normalized, or `None` when the total no longer fits
/// it as a signed number: the window keeps the total only when the final
/// carry is the sign extension of its top limb.
fn normalized_window(mut w: [i64; WIN]) -> Option<[i64; WIN]> {
    let carry = carry_limbs(&mut w);
    let top = w[WIN - 1];
    match carry {
        0 if top < 1 << (LIMB_BITS - 1) => Some(w),
        -1 if top >= 1 << (LIMB_BITS - 1) => {
            w[WIN - 1] = top - (1i64 << LIMB_BITS);
            Some(w)
        }
        _ => None,
    }
}

/// Round a normalized window whose first limb is register limb `base`.
fn round_window(win: &[i64; WIN], base: u32) -> f64 {
    // Two zero limbs below the window keep every bit the rounding reads
    // inside the slice: a nonzero window's top bit is then at least 64 bits
    // above the slice's start, so the mantissa's least bit is at least 12
    // above it. With fewer, the slice starts at register limb 0, as the full
    // register does.
    let pad = (base as usize).min(2);
    let mut limbs = [0i64; WIN + 2];
    limbs[pad..pad + WIN].copy_from_slice(win);
    round(&limbs[..pad + WIN], base as usize - pad)
}

/// Carry-propagate `limbs` so each is in `[0, 2^32)`; returns the carry out
/// of the top limb.
fn carry_limbs(limbs: &mut [i64]) -> i64 {
    let mut carry: i64 = 0;
    for l in limbs {
        let t = *l + carry;
        let lo = t & LIMB_MASK as i64; // t mod 2^32, non-negative
        carry = (t - lo) >> LIMB_BITS;
        *l = lo;
    }
    carry
}

/// Round the normalized limbs `limbs`, whose first is register limb `base`,
/// to the nearest double (ties to even). All limbs are in `[0, 2^32)` except
/// a negative top limb, which marks a negative total.
fn round(limbs: &[i64], base: usize) -> f64 {
    let n = limbs.len();
    let negative = limbs[n - 1] < 0;
    let mut buf = [0u64; LIMBS];
    let mag = &mut buf[..n];
    if negative {
        // Two's-complement negate to get the magnitude.
        let mut carry: u64 = 1;
        for (m, &l) in mag.iter_mut().zip(limbs) {
            let t = (!(l as u64) & LIMB_MASK) + carry;
            *m = t & LIMB_MASK;
            carry = t >> LIMB_BITS;
        }
    } else {
        for (m, &l) in mag.iter_mut().zip(limbs) {
            *m = l as u64;
        }
    }
    let mag = &*mag;
    // Most significant set bit position (coordinates of `limbs`).
    let top = match (0..n).rev().find(|&i| mag[i] != 0) {
        None => return 0.0,
        Some(i) => i as i64 * 32 + (63 - mag[i].leading_zeros() as i64),
    };
    // Take the 53-bit window [lsb, top]; positions below 0 don't exist
    // (at `base` 0 the unit is exactly the smallest subnormal; otherwise
    // the caller's padding keeps `top - 52` above 0).
    let lsb = (top - 52).max(0);
    let mut mantissa = bits(mag, lsb, top - lsb + 1);
    // Round to nearest, ties to even.
    if lsb > 0 && bits(mag, lsb - 1, 1) == 1 {
        let sticky = any_below(mag, lsb - 1);
        if sticky || (mantissa & 1) == 1 {
            mantissa += 1;
        }
    }
    let mut exp = lsb + 32 * base as i64 - 1074; // weight of the mantissa's LSB
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

/// The `len` (1..=53) bits of `mag` starting at position `p`, read from the
/// at most three limbs they span.
#[inline]
fn bits(mag: &[u64], p: i64, len: i64) -> u64 {
    let limb = (p >> 5) as usize;
    let mut window: u128 = 0;
    for (k, &m) in mag[limb..].iter().take(3).enumerate() {
        window |= (m as u128) << (32 * k);
    }
    (window >> (p & 31)) as u64 & ((1u64 << len) - 1)
}

/// Whether any bit of `mag` below position `p` is set.
#[inline]
fn any_below(mag: &[u64], p: i64) -> bool {
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

    /// `vals` summed by a fresh accumulator and by one that starts in the
    /// full register.
    fn both(vals: &[f64]) -> (ExactF64Sum, ExactF64Sum) {
        let (mut w, mut f) = (ExactF64Sum::new(), ExactF64Sum::new_full());
        for &v in vals {
            w.add(v);
            f.add(v);
        }
        (w, f)
    }

    /// Assert both forms round `vals` to `expect` and report whether the
    /// compact accumulator widened.
    fn widened_summing(vals: &[f64], expect: f64) -> bool {
        let (mut w, mut f) = both(vals);
        assert_eq!(w, f);
        assert_eq!(
            w.value().to_bits(),
            expect.to_bits(),
            "window value {vals:?}"
        );
        assert_eq!(w.finish().to_bits(), expect.to_bits(), "window {vals:?}");
        assert_eq!(f.finish().to_bits(), expect.to_bits(), "full {vals:?}");
        w.base == FULL
    }

    #[test]
    fn nearby_binades_stay_in_the_window() {
        assert!(!widened_summing(&[1.0, 2.5, 1e6, 0.125, -3.0], 1e6 + 0.625));
        assert!(!widened_summing(&[], 0.0));
    }

    #[test]
    fn a_value_below_or_above_the_window_widens() {
        assert!(widened_summing(&[1.0, 1e-300], 1.0));
        assert!(widened_summing(&[1e-300, 1.0, -1.0], 1e-300));
        assert!(widened_summing(&[1.0, 1e300], 1e300));
        assert!(widened_summing(&[1.0, 1e300, -1e300, 2.0], 3.0));
    }

    #[test]
    fn a_carry_out_of_the_top_limb_widens() {
        // The window tops out about 2^60 above its largest value's limbs;
        // doubling by self-merge (same base, limb-wise) carries past it.
        let mut s = ExactF64Sum::new();
        s.add(3.0);
        s.add(1.0);
        s.add(1.5e9); // limb above the first value's: still in the window
        assert_ne!(s.base, FULL);
        let mut f = ExactF64Sum::new_full();
        f.merge(&s);
        for _ in 0..100 {
            s.merge(&s.clone());
            f.merge(&f.clone());
        }
        assert_eq!(s.base, FULL, "the doubled total left the window");
        let expect = (4.0 + 1.5e9) * 2f64.powi(100);
        assert_eq!(s.value().to_bits(), expect.to_bits());
        assert_eq!(f.value().to_bits(), expect.to_bits());
        // Negative totals carry out the same way.
        let mut n = ExactF64Sum::new();
        n.add(-7.25);
        for _ in 0..200 {
            n.merge(&n.clone());
        }
        assert_eq!(n.base, FULL);
        assert_eq!(n.value(), -7.25 * 2f64.powi(200));
    }

    #[test]
    fn negative_total_inside_the_window() {
        let big = 2f64.powi(40);
        // Borrows run through every limb the values touch.
        assert!(!widened_summing(&[big, -(big + 0.5)], -0.5));
        let mid = 2f64.powi(20);
        assert!(!widened_summing(&[0.25, -mid, 1.0, -3.0], -mid - 1.75));
        let (mut w, _) = both(&[-1.0, -2.0]);
        assert_eq!(w.finish(), -3.0);
        assert!(w.win[WIN - 1] < 0, "sign held in the top limb");
    }

    #[test]
    fn windows_at_different_bases_merge_by_widening() {
        let (a, _) = both(&[1.0, 2.0]);
        let (b, _) = both(&[1e-20, -3e-20]);
        let (c, _) = both(&[3.0]);
        assert_ne!(a.base, b.base);
        assert_eq!(a.base, c.base);
        let mut same = a.clone();
        same.merge(&c);
        assert_ne!(same.base, FULL, "equal bases add limb-wise");
        assert_eq!(same.value(), 6.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.base, FULL);
        assert_eq!(ab, ba);
        let (_, f) = both(&[1.0, 2.0, 1e-20, -3e-20]);
        assert_eq!(ab.value().to_bits(), f.value().to_bits());
        assert_eq!(ba.value().to_bits(), f.value().to_bits());
        // Into and out of an empty accumulator.
        let mut e = ExactF64Sum::new();
        e.merge(&ab);
        e.merge(&ExactF64Sum::new());
        assert_eq!(e.value().to_bits(), f.value().to_bits());
    }

    #[test]
    fn extreme_magnitudes_match_the_full_register() {
        let tiny = f64::from_bits(1);
        let sub = f64::from_bits(0x000f_ffff_ffff_ffff); // largest subnormal
        assert!(!widened_summing(
            &[f64::MAX, -f64::MAX / 2.0],
            f64::MAX / 2.0
        ));
        widened_summing(&[f64::MAX, f64::MAX], f64::INFINITY);
        widened_summing(&[-f64::MAX, -f64::MAX, f64::MAX], -f64::MAX);
        assert!(!widened_summing(&[tiny, sub, -tiny], sub));
        assert!(!widened_summing(&[sub, sub], 2.0 * sub));
        widened_summing(&[tiny, f64::MAX, -f64::MAX], tiny);
        widened_summing(
            &[f64::MIN_POSITIVE, -tiny, 1e-310],
            f64::MIN_POSITIVE - tiny + 1e-310,
        );
    }

    #[test]
    fn accumulator_stays_small() {
        assert!(std::mem::size_of::<ExactF64Sum>() <= 80);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Values clustered within a few binades of `center`, with rare
        /// outliers anywhere in the finite range (subnormals included).
        fn clustered() -> impl Strategy<Value = Vec<f64>> {
            (-1000i32..1000).prop_flat_map(|center| {
                let near =
                    (any::<bool>(), 0u64..1 << 52, -6i32..6).prop_map(move |(neg, frac, d)| {
                        let e = (center + d).clamp(-1074, 1023);
                        let m = 1.0 + frac as f64 / (1u64 << 52) as f64;
                        let v = m * 2f64.powi(e.max(-1022)) * 2f64.powi((e + 1022).min(0));
                        if neg {
                            -v
                        } else {
                            v
                        }
                    });
                let outlier = any::<u64>()
                    .prop_map(|b| f64::from_bits(b & !(0x7ffu64 << 52) | (b % 2047) << 52));
                // One value in 40 is an outlier, one a zero.
                let pick = (0u8..42, near, outlier).prop_map(|(k, n, o)| match k {
                    0 => o,
                    1 => 0.0,
                    _ => n,
                });
                proptest::collection::vec(pick, 0..300)
            })
        }

        proptest! {
            #[test]
            fn window_matches_the_full_register(
                vals in clustered(),
                chunks in proptest::collection::vec(1usize..40, 1..20),
                fold_order in any::<u64>(),
            ) {
                let mut reference = ExactF64Sum::new_full();
                for &v in &vals {
                    reference.add(v);
                }
                let expect = reference.value().to_bits();
                // One accumulator over everything.
                let (mut whole, _) = both(&vals);
                prop_assert_eq!(whole.value().to_bits(), expect);
                prop_assert_eq!(whole.finish().to_bits(), expect);
                // Partials over random chunk shapes, merged in a random order
                // into a random partial.
                let mut parts = Vec::new();
                let (mut i, mut c) = (0, 0);
                while i < vals.len() {
                    let n = chunks[c % chunks.len()].min(vals.len() - i);
                    let mut p = ExactF64Sum::new();
                    for &v in &vals[i..i + n] {
                        p.add(v);
                    }
                    parts.push(p);
                    i += n;
                    c += 1;
                }
                let mut seed = fold_order | 1;
                let mut total = ExactF64Sum::new();
                while !parts.is_empty() {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let p = parts.swap_remove(seed as usize % parts.len());
                    if seed & 2 == 0 {
                        total.merge(&p);
                    } else {
                        let mut p = p;
                        p.merge(&total);
                        total = p;
                    }
                }
                prop_assert_eq!(total.value().to_bits(), expect);
                prop_assert!(total == reference);
            }
        }
    }
}
