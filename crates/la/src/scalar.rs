//! The [`Scalar`] and [`RealScalar`] traits.
//!
//! Every algorithm in the workspace is generic over a field element `T:
//! Scalar`.  Real fields (`f32`, `f64`) and complex fields
//! ([`Complex<f32>`](crate::Complex), [`Complex<f64>`](crate::Complex)) are
//! supported.  The design mirrors what LAPACK calls `S`/`D`/`C`/`Z` types.

use crate::complex::Complex;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar: `f32` or `f64`.
///
/// This is the type of norms, singular values, tolerances and absolute
/// values.  It is itself a [`Scalar`] whose `Real` associated type is itself.
pub trait RealScalar: Scalar<Real = Self> + PartialOrd + Into<f64> + From<f32> {
    /// Machine epsilon of the floating-point format.
    const EPSILON: Self;
    /// The largest finite value.
    const MAX: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Archimedes' constant.
    const PI: Self;

    /// Convert from `f64`, rounding to the nearest representable value.
    fn from_f64_real(x: f64) -> Self;
    /// Convert to `f64` exactly (both supported formats embed in f64).
    fn to_f64(self) -> f64;
    /// `self^exp` for integer exponents.
    fn powi(self, exp: i32) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Square root (must be non-negative).
    fn sqrt_real(self) -> Self;
    /// Maximum of two values.
    fn max_real(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min_real(self, other: Self) -> Self;
    /// Absolute value.
    fn abs_real(self) -> Self;
    /// `hypot(self, other)`: `sqrt(self^2 + other^2)` without overflow.
    fn hypot(self, other: Self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Arc tangent of `self / other` using signs to find the quadrant.
    fn atan2(self, other: Self) -> Self;
}

macro_rules! impl_real_scalar {
    ($t:ty) => {
        impl RealScalar for $t {
            const EPSILON: Self = <$t>::EPSILON;
            const MAX: Self = <$t>::MAX;
            const INFINITY: Self = <$t>::INFINITY;
            const PI: Self = std::f64::consts::PI as $t;

            #[inline]
            fn from_f64_real(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn powi(self, exp: i32) -> Self {
                <$t>::powi(self, exp)
            }
            #[inline]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn sqrt_real(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn max_real(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn min_real(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn abs_real(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline]
            fn atan2(self, other: Self) -> Self {
                <$t>::atan2(self, other)
            }
        }
    };
}

impl_real_scalar!(f32);
impl_real_scalar!(f64);

/// A field element: real or complex floating point.
///
/// The trait collects the arithmetic, conversion and conjugation operations
/// the dense and hierarchical solvers need.  All methods are total; numeric
/// failure modes (overflow, NaN) follow IEEE-754 semantics of the underlying
/// primitive type.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
{
    /// The associated real type (`f32` or `f64`).
    type Real: RealScalar;

    /// `true` for complex fields, `false` for real fields.
    const IS_COMPLEX: bool;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embed a real value into the field.
    fn from_real(re: Self::Real) -> Self;
    /// Build from real and imaginary parts (imaginary part is ignored for
    /// real fields).
    fn from_parts(re: Self::Real, im: Self::Real) -> Self;
    /// Embed an `f64` into the field (lossy for `f32`-based fields).
    fn from_f64(x: f64) -> Self;
    /// Real part.
    fn real(self) -> Self::Real;
    /// Imaginary part (zero for real fields).
    fn imag(self) -> Self::Real;
    /// Complex conjugate (identity for real fields).
    fn conj(self) -> Self;
    /// Modulus |x|.
    fn abs(self) -> Self::Real;
    /// Squared modulus |x|^2, cheaper than `abs` for complex numbers.
    fn abs_sqr(self) -> Self::Real;
    /// Principal square root.
    fn sqrt(self) -> Self;
    /// Multiplicative inverse.
    fn recip(self) -> Self;
    /// Multiply-add `self * a + b`: one correctly rounded fused operation
    /// for real fields, the unfused complex product and sum for complex
    /// fields.  Every product and solve kernel in [`crate::blas`],
    /// [`crate::triangular`] and [`crate::cholesky`] accumulates with it
    /// (the per-entry recipe of [`crate::blas`]).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` when both parts are finite.
    fn is_finite(self) -> bool;
    /// Scale by a real factor.
    fn scale(self, factor: Self::Real) -> Self;
    /// Machine epsilon of the underlying real format.
    fn epsilon() -> Self::Real {
        Self::Real::EPSILON
    }
}

impl Scalar for f64 {
    type Real = f64;
    const IS_COMPLEX: bool = false;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_real(re: f64) -> Self {
        re
    }
    #[inline]
    fn from_parts(re: f64, _im: f64) -> Self {
        re
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn real(self) -> f64 {
        self
    }
    #[inline]
    fn imag(self) -> f64 {
        0.0
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn abs_sqr(self) -> f64 {
        self * self
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Self {
        1.0 / self
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn scale(self, factor: f64) -> Self {
        self * factor
    }
}

impl Scalar for f32 {
    type Real = f32;
    const IS_COMPLEX: bool = false;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_real(re: f32) -> Self {
        re
    }
    #[inline]
    fn from_parts(re: f32, _im: f32) -> Self {
        re
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn real(self) -> f32 {
        self
    }
    #[inline]
    fn imag(self) -> f32 {
        0.0
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f32 {
        f32::abs(self)
    }
    #[inline]
    fn abs_sqr(self) -> f32 {
        self * self
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Self {
        1.0 / self
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn scale(self, factor: f32) -> Self {
        self * factor
    }
}

impl<R: RealScalar> Scalar for Complex<R> {
    type Real = R;
    const IS_COMPLEX: bool = true;

    #[inline]
    fn zero() -> Self {
        Complex::new(R::zero(), R::zero())
    }
    #[inline]
    fn one() -> Self {
        Complex::new(R::one(), R::zero())
    }
    #[inline]
    fn from_real(re: R) -> Self {
        Complex::new(re, R::zero())
    }
    #[inline]
    fn from_parts(re: R, im: R) -> Self {
        Complex::new(re, im)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex::new(R::from_f64_real(x), R::zero())
    }
    #[inline]
    fn real(self) -> R {
        self.re
    }
    #[inline]
    fn imag(self) -> R {
        self.im
    }
    #[inline]
    fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }
    #[inline]
    fn abs(self) -> R {
        self.re.hypot(self.im)
    }
    #[inline]
    fn abs_sqr(self) -> R {
        self.re * self.re + self.im * self.im
    }
    #[inline]
    fn sqrt(self) -> Self {
        Complex::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Self {
        Complex::recip(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    #[inline]
    fn is_finite(self) -> bool {
        RealScalar::abs_real(self.re) < R::INFINITY && RealScalar::abs_real(self.im) < R::INFINITY
    }
    #[inline]
    fn scale(self, factor: R) -> Self {
        Complex::new(self.re * factor, self.im * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn real_scalar_basics() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(2.0_f64.conj(), 2.0);
        assert_eq!((-3.0_f64).abs(), 3.0);
        assert_eq!(4.0_f64.abs_sqr(), 16.0);
        let is_complex = f64::IS_COMPLEX;
        assert!(!is_complex);
        assert!(<f32 as RealScalar>::EPSILON.to_f64() > <f64 as RealScalar>::EPSILON);
    }

    #[test]
    fn f32_scalar_basics() {
        assert_eq!(<f32 as Scalar>::from_f64(1.5), 1.5_f32);
        assert_eq!(3.0_f32.recip(), 1.0 / 3.0);
        assert_eq!(2.0_f32.scale(0.5), 1.0);
        assert!(2.0_f32.is_finite());
        assert!(!Scalar::is_finite(<f32 as RealScalar>::INFINITY));
    }

    #[test]
    fn complex_scalar_basics() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sqr(), 25.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(z.real(), 3.0);
        assert_eq!(z.imag(), 4.0);
        const { assert!(Complex64::IS_COMPLEX) };
        let w = z * z.recip();
        assert!((w - Complex64::new(1.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn real_scalar_trig_and_transcendental() {
        assert!((f64::PI.sin()).abs() < 1e-15);
        assert!((f64::PI.cos() + 1.0).abs() < 1e-15);
        assert!((1.0_f64.exp().ln() - 1.0).abs() < 1e-15);
        assert_eq!(2.0_f64.powi(10), 1024.0);
        assert_eq!(3.0_f64.hypot(4.0), 5.0);
        assert!((1.0_f64.atan2(1.0) - f64::PI / 4.0).abs() < 1e-15);
    }

    #[test]
    fn from_parts_real_ignores_imag() {
        assert_eq!(<f64 as Scalar>::from_parts(2.0, 5.0), 2.0);
        let z = <Complex64 as Scalar>::from_parts(2.0, 5.0);
        assert_eq!(z, Complex64::new(2.0, 5.0));
    }
}
