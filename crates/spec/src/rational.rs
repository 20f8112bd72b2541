//! Exact rational arithmetic for account balances and interest posting.
//!
//! The paper's appendix implements `Account` over C++ `float`s, with each
//! transaction's intention an affine transformation `b ↦ mul·b + add`.
//! Floating point makes affine composition non-associative, which would
//! force approximate comparisons in our differential tests (runtime versus
//! formal specification). We therefore use exact rationals: `i128`
//! numerator/denominator kept in lowest terms with a positive denominator.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
///
/// Arithmetic on the `i128` intermediates is unchecked: an overflow panics
/// in debug builds and **wraps silently in release builds** — roughly 19
/// successive `post(3)`s are enough, after which the balance is garbage
/// (and a wrapped zero denominator panics later). The bounded workloads in
/// this repository stay clear of it (balances far below 2^64, few interest
/// postings); making the arithmetic checked is ROADMAP item 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    if a < 0 {
        a = -a;
    }
    if b < 0 {
        b = -b;
    }
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct `num / den` in lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// Construct an integer rational.
    pub fn from_int(n: i64) -> Rational {
        Rational { num: n as i128, den: 1 }
    }

    /// The multiplier `1 + pct/100` used by `Account::post(pct)`.
    pub fn percent_multiplier(pct: Rational) -> Rational {
        Rational::ONE + pct / Rational::from_int(100)
    }

    /// Numerator (lowest terms, sign-carrying).
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// Denominator (lowest terms, always positive).
    pub fn denominator(&self) -> i128 {
        self.den
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True iff the value is negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Approximate conversion for display and metrics only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

// `+`, `-`, `*` and `cmp` take an integer fast path when both
// denominators are 1 (integer money, the common case): the general form
// would reach `Rational::new(n, 1)`, whose gcd is 1, so the numerator
// alone is the exact result and the gcd and both divisions are skipped.

impl Add for Rational {
    type Output = Rational;
    fn add(self, o: Rational) -> Rational {
        if self.den == 1 && o.den == 1 {
            return Rational { num: self.num + o.num, den: 1 };
        }
        Rational::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, o: Rational) -> Rational {
        if self.den == 1 && o.den == 1 {
            return Rational { num: self.num - o.num, den: 1 };
        }
        Rational::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, o: Rational) -> Rational {
        if self.den == 1 && o.den == 1 {
            return Rational { num: self.num * o.num, den: 1 };
        }
        Rational::new(self.num * o.num, self.den * o.den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, o: Rational) -> Rational {
        assert!(o.num != 0, "division by zero rational");
        Rational::new(self.num * o.den, self.den * o.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, o: Rational) {
        *self = *self + o;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, o: Rational) {
        *self = *self - o;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, o: Rational) {
        *self = *self * o;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalizes_to_lowest_terms() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::ZERO);
    }

    #[test]
    fn arithmetic_is_exact() {
        assert_eq!(r(1, 3) + r(1, 6), r(1, 2));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering_uses_cross_multiplication() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < Rational::ZERO);
        assert!(r(7, 2) > r(3, 1));
    }

    #[test]
    fn percent_multiplier_matches_paper_example() {
        // [Post(5), Ok] multiplies the balance by 1.05 = 21/20.
        assert_eq!(Rational::percent_multiplier(Rational::from_int(5)), r(21, 20));
    }

    #[test]
    fn affine_composition_is_exact() {
        // Applying (m1,a1) then (m2,a2) equals applying (m2*m1, m2*a1+a2).
        let b = r(10, 1);
        let (m1, a1) = (r(21, 20), r(5, 1));
        let (m2, a2) = (r(11, 10), r(-3, 1));
        let seq = (b * m1 + a1) * m2 + a2;
        let composed = b * (m2 * m1) + (m2 * a1 + a2);
        assert_eq!(seq, composed);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn assign_ops() {
        let mut x = r(1, 2);
        x += r(1, 2);
        assert_eq!(x, Rational::ONE);
        x -= r(1, 4);
        assert_eq!(x, r(3, 4));
        x *= r(4, 3);
        assert_eq!(x, Rational::ONE);
    }

    /// The general path, spelled out: the cross-multiplied form fed
    /// through `Rational::new`. The integer fast path must agree with it.
    fn general_add(a: Rational, b: Rational) -> Rational {
        Rational::new(a.num * b.den + b.num * a.den, a.den * b.den)
    }
    fn general_sub(a: Rational, b: Rational) -> Rational {
        Rational::new(a.num * b.den - b.num * a.den, a.den * b.den)
    }
    fn general_mul(a: Rational, b: Rational) -> Rational {
        Rational::new(a.num * b.num, a.den * b.den)
    }
    fn general_cmp(a: Rational, b: Rational) -> Ordering {
        (a.num * b.den).cmp(&(b.num * a.den))
    }

    fn assert_matches_general_path(a: Rational, b: Rational) {
        assert_eq!(a + b, general_add(a, b), "{a} + {b}");
        assert_eq!(a - b, general_sub(a, b), "{a} - {b}");
        assert_eq!(a * b, general_mul(a, b), "{a} * {b}");
        assert_eq!(a.cmp(&b), general_cmp(a, b), "{a} cmp {b}");
    }

    #[test]
    fn integer_fast_path_matches_the_general_path_at_the_edges() {
        let max = i64::MAX as i128;
        let edges = [0, 1, -1, max, -max];
        for &a in &edges {
            for &b in &edges {
                assert_matches_general_path(r(a, 1), r(b, 1));
            }
        }
    }

    #[test]
    fn non_integer_operands_take_the_general_path() {
        assert_eq!(r(1, 3) + r(1, 6), r(1, 2));
        assert_eq!(r(3, 1) - r(1, 2), r(5, 2));
        assert_eq!(r(4, 1) * r(3, 4), r(3, 1));
        assert!(r(7, 2) > r(3, 1) && r(3, 1) < r(7, 2));
        for (a, b) in [(r(1, 3), r(2, 1)), (r(5, 1), r(-7, 4)), (r(-9, 10), r(21, 20))] {
            assert_matches_general_path(a, b);
            assert_matches_general_path(b, a);
        }
    }

    use proptest::prelude::*;

    /// Integers in ±2^62, so every general-path product fits an `i128`.
    fn int_operand() -> impl Strategy<Value = Rational> {
        let bound = 1i128 << 62;
        prop_oneof![
            8 => (-bound..bound + 1).prop_map(|n| Rational::new(n, 1)),
            1 => (-2i128..3).prop_map(|n| Rational::new(n, 1)),
            1 => (0i128..2).prop_map(|s| Rational::from_int(if s == 0 { i64::MAX } else { -i64::MAX })),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn integer_fast_path_matches_the_general_path(a in int_operand(), b in int_operand()) {
            prop_assert!(a.is_integer() && b.is_integer());
            assert_matches_general_path(a, b);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", r(3, 1)), "3");
        assert_eq!(format!("{}", r(1, 2)), "1/2");
    }
}
