//! Bessel functions of the first and second kind and Hankel functions of
//! the first kind, for real positive arguments.
//!
//! The Helmholtz fundamental solution in 2-D is
//! `phi_kappa(x) = (i/4) H0^(1)(kappa |x|)` (Section IV-C), and the
//! double-layer kernel needs `H1^(1)` as well.  Below the branch point the
//! ascending power series are used (machine precision); above it the
//! classical Hankel asymptotic expansions (Abramowitz & Stegun 9.2) with
//! absolute error around `1e-8`.  The achievable boundary-integral-equation
//! residual is therefore capped near `1e-8`.

use hodlr_la::Complex64;

const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
/// Number of terms of the ascending series used below the branch point;
/// the series has converged to machine precision well before this for
/// arguments up to 8.
const SERIES_TERMS: usize = 40;

/// Ascending power series for `J_0`, used for `|x| < 8` (absolute error
/// below `1e-14` on that range).
fn j0_series(x: f64) -> f64 {
    let q = x * x / 4.0;
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..SERIES_TERMS {
        term *= -q / ((k * k) as f64);
        sum += term;
    }
    sum
}

fn j1_series(x: f64) -> f64 {
    let q = x * x / 4.0;
    let mut term = x / 2.0;
    let mut sum = term;
    for k in 1..SERIES_TERMS {
        term *= -q / ((k * (k + 1)) as f64);
        sum += term;
    }
    sum
}

fn y0_series(x: f64) -> f64 {
    let q = x * x / 4.0;
    let mut term = 1.0;
    let mut harmonic = 0.0;
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..SERIES_TERMS {
        term *= q / ((k * k) as f64);
        harmonic += 1.0 / k as f64;
        sum += sign * harmonic * term;
        sign = -sign;
    }
    let two_over_pi = 2.0 / std::f64::consts::PI;
    two_over_pi * (((x / 2.0).ln() + EULER_GAMMA) * j0_series(x) + sum)
}

fn y1_series(x: f64) -> f64 {
    let pi = std::f64::consts::PI;
    let q = x * x / 4.0;
    let mut term = 1.0; // (-q)^k / (k! (k+1)!) at k = 0
    let mut psi1 = -EULER_GAMMA; // psi(k + 1)
    let mut psi2 = -EULER_GAMMA + 1.0; // psi(k + 2)
    let mut sum = 0.0;
    for k in 0..SERIES_TERMS {
        sum += (psi1 + psi2) * term;
        term *= -q / (((k + 1) * (k + 2)) as f64);
        psi1 += 1.0 / (k + 1) as f64;
        psi2 += 1.0 / (k + 2) as f64;
    }
    2.0 / pi * (x / 2.0).ln() * j1_series(x) - 2.0 / (pi * x) - x / (2.0 * pi) * sum
}

/// Bessel function of the first kind, order zero, `J_0(x)`.
pub fn bessel_j0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 8.0 {
        j0_series(ax)
    } else {
        let z = 8.0 / ax;
        let y = z * z;
        let xx = ax - 0.785398164;
        let p1 = 1.0
            + y * (-0.1098628627e-2
                + y * (0.2734510407e-4 + y * (-0.2073370639e-5 + y * 0.2093887211e-6)));
        let p2 = -0.1562499995e-1
            + y * (0.1430488765e-3
                + y * (-0.6911147651e-5 + y * (0.7621095161e-6 + y * (-0.934935152e-7))));
        (std::f64::consts::FRAC_2_PI / ax).sqrt() * (xx.cos() * p1 - z * xx.sin() * p2)
    }
}

/// Bessel function of the first kind, order one, `J_1(x)`.
pub fn bessel_j1(x: f64) -> f64 {
    let ax = x.abs();
    let ans = if ax < 8.0 {
        j1_series(ax)
    } else {
        let z = 8.0 / ax;
        let y = z * z;
        let xx = ax - 2.356194491;
        let p1 = 1.0
            + y * (0.183105e-2
                + y * (-0.3516396496e-4 + y * (0.2457520174e-5 + y * (-0.240337019e-6))));
        let p2 = 0.04687499995
            + y * (-0.2002690873e-3
                + y * (0.8449199096e-5 + y * (-0.88228987e-6 + y * 0.105787412e-6)));
        (std::f64::consts::FRAC_2_PI / ax).sqrt() * (xx.cos() * p1 - z * xx.sin() * p2)
    };
    if x < 0.0 {
        -ans
    } else {
        ans
    }
}

/// Bessel function of the second kind, order zero, `Y_0(x)` for `x > 0`.
pub fn bessel_y0(x: f64) -> f64 {
    assert!(x > 0.0, "Y_0 is only defined for positive arguments");
    if x < 8.0 {
        y0_series(x)
    } else {
        let z = 8.0 / x;
        let y = z * z;
        let xx = x - 0.785398164;
        let p1 = 1.0
            + y * (-0.1098628627e-2
                + y * (0.2734510407e-4 + y * (-0.2073370639e-5 + y * 0.2093887211e-6)));
        let p2 = -0.1562499995e-1
            + y * (0.1430488765e-3
                + y * (-0.6911147651e-5 + y * (0.7621095161e-6 + y * (-0.934935152e-7))));
        (std::f64::consts::FRAC_2_PI / x).sqrt() * (xx.sin() * p1 + z * xx.cos() * p2)
    }
}

/// Bessel function of the second kind, order one, `Y_1(x)` for `x > 0`.
pub fn bessel_y1(x: f64) -> f64 {
    assert!(x > 0.0, "Y_1 is only defined for positive arguments");
    if x < 8.0 {
        y1_series(x)
    } else {
        let z = 8.0 / x;
        let y = z * z;
        let xx = x - 2.356194491;
        let p1 = 1.0
            + y * (0.183105e-2
                + y * (-0.3516396496e-4 + y * (0.2457520174e-5 + y * (-0.240337019e-6))));
        let p2 = 0.04687499995
            + y * (-0.2002690873e-3
                + y * (0.8449199096e-5 + y * (-0.88228987e-6 + y * 0.105787412e-6)));
        (std::f64::consts::FRAC_2_PI / x).sqrt() * (xx.sin() * p1 + z * xx.cos() * p2)
    }
}

/// Hankel function of the first kind, order zero:
/// `H_0^(1)(x) = J_0(x) + i Y_0(x)`.
pub fn hankel1_0(x: f64) -> Complex64 {
    Complex64::new(bessel_j0(x), bessel_y0(x))
}

/// Hankel function of the first kind, order one:
/// `H_1^(1)(x) = J_1(x) + i Y_1(x)`.
pub fn hankel1_1(x: f64) -> Complex64 {
    Complex64::new(bessel_j1(x), bessel_y1(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Abramowitz & Stegun tables.
    #[test]
    fn matches_tabulated_values() {
        let cases = [
            (bessel_j0(1.0), 0.765197686557967),
            (bessel_j0(5.0), -0.177596771314338),
            (bessel_j0(10.0), -0.245935764451348),
            (bessel_j1(1.0), 0.440050585744934),
            (bessel_j1(5.0), -0.327579137591465),
            (bessel_y0(1.0), 0.088256964215677),
            (bessel_y0(10.0), 0.055671167283599),
            (bessel_y1(1.0), -0.781212821300289),
            (bessel_y1(5.0), 0.147863143391227),
        ];
        for (got, expect) in cases {
            assert!((got - expect).abs() < 1e-7, "got {got}, expected {expect}");
        }
    }

    #[test]
    fn hankel_combines_real_and_imaginary_parts() {
        let h0 = hankel1_0(2.5);
        assert!((h0.re - bessel_j0(2.5)).abs() < 1e-15);
        assert!((h0.im - bessel_y0(2.5)).abs() < 1e-15);
        let h1 = hankel1_1(0.3);
        assert!((h1.re - bessel_j1(0.3)).abs() < 1e-15);
        assert!((h1.im - bessel_y1(0.3)).abs() < 1e-15);
    }

    #[test]
    fn small_argument_limits() {
        // J0 -> 1, J1 -> x/2, Y0 -> (2/pi)(ln(x/2) + gamma) as x -> 0.
        assert!((bessel_j0(1e-6) - 1.0).abs() < 1e-12);
        assert!((bessel_j1(1e-6) - 5e-7).abs() < 1e-15);
        let x = 1e-4_f64;
        let euler_gamma = 0.5772156649015329;
        let y0_limit = 2.0 / std::f64::consts::PI * ((x / 2.0).ln() + euler_gamma);
        assert!((bessel_y0(x) - y0_limit).abs() < 1e-7);
    }

    /// The Wronskian identity J1(x) Y0(x) - J0(x) Y1(x) = 2 / (pi x)
    /// ties all four functions together; swept over a dense grid of the
    /// argument range instead of proptest's random sampling (no crates.io
    /// access in the build container).
    #[test]
    fn wronskian_identity() {
        for k in 0..1200 {
            let x = 0.05 + (60.0 - 0.05) * k as f64 / 1199.0;
            let lhs = bessel_j1(x) * bessel_y0(x) - bessel_j0(x) * bessel_y1(x);
            let rhs = 2.0 / (std::f64::consts::PI * x);
            assert!(
                (lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()),
                "x = {x}: {lhs} vs {rhs}"
            );
        }
    }

    /// |H0^(1)| decays roughly like sqrt(2/(pi x)) for large arguments.
    #[test]
    fn hankel_magnitude_decays() {
        for k in 0..400 {
            let x = 10.0 + (200.0 - 10.0) * k as f64 / 399.0;
            let h = hankel1_0(x);
            let expected = (2.0 / (std::f64::consts::PI * x)).sqrt();
            assert!(
                (h.modulus() - expected).abs() < 0.05 * expected,
                "x = {x}: |H0| = {}, expected about {expected}",
                h.modulus()
            );
        }
    }
}
