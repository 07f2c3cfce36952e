//! # hodlr-compress — low-rank compression of matrix blocks
//!
//! The construction of a HODLR approximation amounts to compressing every
//! sibling off-diagonal block `A(I_alpha, I_beta)` into a product `U V^*`
//! (Eq. 5 of the paper).  This crate provides the compression machinery:
//!
//! * [`MatrixEntrySource`] — lazy access to the entries of the block being
//!   compressed, so kernel matrices and discretized integral operators never
//!   have to be formed densely;
//! * [`aca`] — adaptive cross approximation with partial pivoting and with
//!   rook pivoting (the `LowRank::rookPiv()` scheme HODLRlib uses in the
//!   paper's Table III benchmark);
//! * [`randomized`] — a Gaussian range finder with SVD recompression,
//!   following the randomized methods the paper cites for HODLR
//!   construction;
//! * [`truncated`] — dense truncated-SVD compression, the (expensive)
//!   optimal reference used in tests and for small blocks;
//! * [`LowRank`] — the `U V^*` pair itself, with recompression and error
//!   estimation helpers.

pub mod aca;
pub mod lowrank;
pub mod randomized;
pub mod source;
pub mod truncated;

pub use aca::{aca_compress, aca_compress_metered, AcaPivoting};
pub use lowrank::LowRank;
pub use randomized::{randomized_compress, randomized_compress_metered};
pub use source::{symmetric_tile, ClosureSource, DenseSource, MatrixEntrySource, ShiftedSource};
pub use truncated::{truncated_svd_compress, truncated_svd_compress_metered};

use hodlr_la::{AllocMeter, HodlrError, RealScalar, Scalar};

/// How an off-diagonal block should be compressed into `U V^*`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CompressionConfig<R> {
    /// Relative tolerance of the approximation (Frobenius-norm sense).
    pub tol: R,
    /// Hard cap on the rank (`None` = limited only by the block size).
    pub max_rank: Option<usize>,
    /// The algorithm used to build the factors.
    pub method: CompressionMethod,
    /// When `true`, hitting `max_rank` before the tolerance is certified is
    /// reported as [`HodlrError::CompressionRankOverflow`] instead of
    /// silently returning the capped factors.
    pub strict_rank: bool,
}

/// The compression algorithm.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompressionMethod {
    /// Adaptive cross approximation with partial (row) pivoting.
    AcaPartial,
    /// Adaptive cross approximation with rook pivoting.
    AcaRook,
    /// Gaussian range finder + SVD recompression.
    RandomizedSvd,
    /// Dense truncated SVD (optimal, O(mn min(m,n)) cost).
    TruncatedSvd,
}

impl<R: hodlr_la::RealScalar> CompressionConfig<R> {
    /// A configuration with the given tolerance, no rank cap, and rook-pivoted
    /// ACA (the scheme used for the paper's kernel benchmarks).
    pub fn with_tol(tol: R) -> Self {
        CompressionConfig {
            tol,
            max_rank: None,
            method: CompressionMethod::AcaRook,
            strict_rank: false,
        }
    }

    /// Override the compression method.
    pub fn method(mut self, method: CompressionMethod) -> Self {
        self.method = method;
        self
    }

    /// Override the rank cap.
    pub fn max_rank(mut self, max_rank: usize) -> Self {
        self.max_rank = Some(max_rank);
        self
    }

    /// Make the rank cap strict: hitting it before the tolerance is
    /// certified becomes a [`HodlrError::CompressionRankOverflow`].
    pub fn strict_rank(mut self) -> Self {
        self.strict_rank = true;
        self
    }

    /// Validate the configuration (positive finite tolerance, non-zero rank
    /// cap).
    pub fn validate(&self) -> Result<(), HodlrError> {
        let tol = self.tol.to_f64();
        if tol <= 0.0 || !tol.is_finite() {
            return Err(HodlrError::config(format!(
                "compression tolerance must be positive and finite, got {tol:e}"
            )));
        }
        if self.max_rank == Some(0) {
            return Err(HodlrError::config(
                "compression rank cap must be at least 1 (use tolerance-only \
                 compression by leaving the cap unset)",
            ));
        }
        Ok(())
    }
}

/// Compress a block with the requested configuration.
///
/// # Errors
/// Returns [`HodlrError::InvalidConfig`] for a non-positive or non-finite
/// tolerance or a zero rank cap, and — when the configuration marks the cap
/// as strict — [`HodlrError::CompressionRankOverflow`] when the compressor
/// stops at `max_rank` without having certified the tolerance first.
pub fn compress<T: Scalar, S: MatrixEntrySource<T> + ?Sized>(
    source: &S,
    config: &CompressionConfig<T::Real>,
) -> Result<LowRank<T>, HodlrError> {
    compress_metered(source, config, None)
}

/// [`compress`] with live/peak scratch accounting on `meter`.
///
/// Every method streams the block through bounded scratch — the peak the
/// meter sees is `O((m + n) k)` plus a fixed tile, never the `O(mn)` dense
/// block.  Compression is metered net-zero: scratch retires before the call
/// returns, and the caller records the bytes of the factors it retains.
///
/// # Errors
/// As [`compress`].
pub fn compress_metered<T: Scalar, S: MatrixEntrySource<T> + ?Sized>(
    source: &S,
    config: &CompressionConfig<T::Real>,
    meter: Option<&AllocMeter>,
) -> Result<LowRank<T>, HodlrError> {
    config.validate()?;
    let lr = match config.method {
        CompressionMethod::AcaPartial => aca_compress_metered(
            source,
            config.tol,
            config.max_rank,
            AcaPivoting::Partial,
            meter,
        ),
        CompressionMethod::AcaRook => aca_compress_metered(
            source,
            config.tol,
            config.max_rank,
            AcaPivoting::Rook,
            meter,
        ),
        CompressionMethod::RandomizedSvd => {
            randomized_compress_metered(source, config.tol, config.max_rank, meter)
        }
        CompressionMethod::TruncatedSvd => {
            truncated_svd_compress_metered(source, config.tol, config.max_rank, meter)
        }
    };
    if config.strict_rank {
        if let Some(cap) = config.max_rank {
            // Every compressor certifies the tolerance *before* testing the
            // cap, so a result at exactly the cap means the cap bound the
            // rank (or coincided with the tolerance rank — conservatively
            // reported as overflow; raise the cap by one to disambiguate).
            // A cap at or above full rank can never overflow.
            if lr.rank() == cap && cap < source.nrows().min(source.ncols()) {
                return Err(HodlrError::CompressionRankOverflow {
                    max_rank: cap,
                    tol: config.tol.to_f64(),
                    context: format!("{} x {} block", source.nrows(), source.ncols()),
                });
            }
        }
    }
    Ok(lr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aca::ROOK_ITERATIONS;
    use hodlr_la::random::random_low_rank;
    use hodlr_la::{DenseMatrix, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_method_compresses_an_exactly_low_rank_block() {
        let mut rng = StdRng::seed_from_u64(1);
        let a: DenseMatrix<f64> = random_low_rank(&mut rng, 60, 45, 6);
        let src = DenseSource::new(&a);
        for method in [
            CompressionMethod::AcaPartial,
            CompressionMethod::AcaRook,
            CompressionMethod::RandomizedSvd,
            CompressionMethod::TruncatedSvd,
        ] {
            let cfg = CompressionConfig::with_tol(1e-10).method(method);
            let lr = compress(&src, &cfg).unwrap();
            assert!(
                lr.rank() >= 6 && lr.rank() <= 12,
                "{method:?}: rank {}",
                lr.rank()
            );
            let err = lr.reconstruction_error(&a);
            assert!(
                err.to_f64() < 1e-8 * a.norm_fro(),
                "{method:?}: error {err}"
            );
        }
    }

    #[test]
    fn max_rank_cap_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let a: DenseMatrix<f64> = random_low_rank(&mut rng, 40, 40, 10);
        let src = DenseSource::new(&a);
        for method in [
            CompressionMethod::AcaPartial,
            CompressionMethod::AcaRook,
            CompressionMethod::RandomizedSvd,
            CompressionMethod::TruncatedSvd,
        ] {
            let cfg = CompressionConfig::with_tol(1e-14)
                .method(method)
                .max_rank(3);
            let lr = compress(&src, &cfg).unwrap();
            assert!(lr.rank() <= 3, "{method:?}: rank {}", lr.rank());
        }
    }

    #[test]
    fn strict_rank_cap_reports_overflow() {
        let mut rng = StdRng::seed_from_u64(3);
        let a: DenseMatrix<f64> = random_low_rank(&mut rng, 40, 40, 10);
        let src = DenseSource::new(&a);
        for method in [
            CompressionMethod::AcaPartial,
            CompressionMethod::AcaRook,
            CompressionMethod::RandomizedSvd,
            CompressionMethod::TruncatedSvd,
        ] {
            let cfg = CompressionConfig::with_tol(1e-14)
                .method(method)
                .max_rank(3)
                .strict_rank();
            let err = compress(&src, &cfg).unwrap_err();
            assert!(
                matches!(err, HodlrError::CompressionRankOverflow { max_rank: 3, .. }),
                "{method:?}: {err}"
            );
            // A cap the tolerance rank fits under passes strict mode.
            let cfg = CompressionConfig::with_tol(1e-10)
                .method(method)
                .max_rank(25)
                .strict_rank();
            assert!(compress(&src, &cfg).is_ok(), "{method:?}");
        }
    }

    #[test]
    fn no_method_materialises_the_dense_block() {
        // A smooth far-field kernel block, well above one streaming tile in
        // both directions.  Every method must compress it through bounded
        // scratch: the metered peak stays a small multiple of (m + n) * k
        // plus a fixed tile — far below the m * n dense block it replaced.
        let m = 400;
        let n = 300;
        let src = ClosureSource::new(m, n, |i, j| {
            let x = i as f64 / m as f64;
            let y = 3.0 + j as f64 / n as f64;
            1.0 / (1.0 + (x - y).abs())
        });
        let dense_bytes = (m * n * std::mem::size_of::<f64>()) as u64;
        for method in [
            CompressionMethod::AcaPartial,
            CompressionMethod::AcaRook,
            CompressionMethod::RandomizedSvd,
            CompressionMethod::TruncatedSvd,
        ] {
            let meter = hodlr_la::AllocMeter::new();
            let cfg = CompressionConfig::with_tol(1e-8).method(method);
            let lr = compress_metered(&src, &cfg, Some(&meter)).unwrap();
            assert!(
                lr.rank() > 0 && lr.rank() < 30,
                "{method:?}: rank {}",
                lr.rank()
            );
            assert!(meter.peak_bytes() > 0, "{method:?}: nothing metered");
            assert!(
                meter.peak_bytes() < dense_bytes / 2,
                "{method:?}: peak {} vs dense {}",
                meter.peak_bytes(),
                dense_bytes
            );
            // Net-zero convention: all compression scratch retired.
            assert_eq!(meter.live_bytes(), 0, "{method:?}");
        }
    }

    #[test]
    fn aca_touches_only_the_crosses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let m = 300;
        let n = 260;
        let evals = AtomicUsize::new(0);
        let src = ClosureSource::new(m, n, |i, j| {
            evals.fetch_add(1, Ordering::Relaxed);
            let x = i as f64 / m as f64;
            let y = 2.0 + j as f64 / n as f64;
            1.0 / (1.0 + (x - y).abs())
        });
        let cfg = CompressionConfig::with_tol(1e-8);
        let lr = compress(&src, &cfg).unwrap();
        let r = lr.rank();
        assert!(r > 0);
        // Rook pivoting evaluates a handful of rows and columns per cross;
        // the budget is a small constant times (m + n) per rank, a far cry
        // from the m * n entries of the block.
        let budget = 2 * (1 + ROOK_ITERATIONS) * (m + n) * (r + 1);
        let used = evals.load(Ordering::Relaxed);
        assert!(used <= budget, "{used} evaluations for rank {r}");
        assert!(used < m * n / 4, "{used} evaluations approaches dense");
    }

    #[test]
    fn invalid_tolerances_are_rejected() {
        let a: DenseMatrix<f64> = DenseMatrix::zeros(4, 4);
        let src = DenseSource::new(&a);
        for bad in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
            let cfg = CompressionConfig::with_tol(bad);
            let err = compress(&src, &cfg).unwrap_err();
            assert!(matches!(err, HodlrError::InvalidConfig { .. }), "tol {bad}");
        }
        let cfg = CompressionConfig::with_tol(1e-8).max_rank(0);
        assert!(compress(&src, &cfg).is_err());
    }
}
