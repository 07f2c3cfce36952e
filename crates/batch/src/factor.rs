//! Batched in-place factorization, solve and band gather over a dense
//! kernel the caller supplies (`getrfBatched` / `getrsBatched`, or
//! `potrfBatched` / `potrsBatched`).
//!
//! Each launch takes its dense kernel as an argument, together with the
//! label the launch log records:
//!
//! * [`factor_batched_varied`] factorizes every block in place, exactly as
//!   cuBLAS overwrites its input, and returns the host-side metadata the
//!   kernel yields per block (LU pivots, or a symmetric factor's ladder
//!   rung);
//! * [`solve_batched_varied`] overwrites right-hand sides with the
//!   solutions;
//! * [`gather_bands_batched`] reads the diagonals a determinant needs back
//!   to the host.
//!
//! The factor kinds (LU, symmetric) and the kernels, labels and flops that
//! make them live with the HODLR sweep in `hodlr-core`.  All three launches
//! take per-problem descriptors, so one launch covers blocks of different
//! orders (the pointer-array path).

use crate::buffer::DeviceBuffer;
use crate::device::{scalar_flop_factor, Device, TransferDirection};
use crate::fault::LaunchFault;
use crate::stream::Stream;
use crate::windows::{launch_on_windows, poison_windows, process_windows_mut, MatWindow};
use hodlr_la::{MatMut, MatRef, Scalar};
use parking_lot::Mutex;
use std::fmt;

/// Descriptor of one square block to factorize in place.
#[derive(Copy, Clone, Debug)]
pub struct FactorDesc {
    /// Order of the block.
    pub n: usize,
    /// Element offset of the block in the buffer.
    pub offset: usize,
    /// Leading dimension of the block as stored.
    pub ld: usize,
}

impl FactorDesc {
    fn window(&self) -> MatWindow {
        MatWindow {
            offset: self.offset,
            rows: self.n,
            cols: self.n,
            ld: self.ld,
        }
    }
}

/// Descriptor of one solve `A X = B` with a factor from
/// [`factor_batched_varied`].
#[derive(Copy, Clone, Debug)]
pub struct SolveDesc {
    /// Order of the factorized block.
    pub n: usize,
    /// Number of right-hand sides.
    pub nrhs: usize,
    /// Element offset of the factor in the factor buffer.
    pub a_offset: usize,
    /// Leading dimension of the factor.
    pub lda: usize,
    /// Element offset of the right-hand sides in the RHS buffer.
    pub b_offset: usize,
    /// Leading dimension of the right-hand sides.
    pub ldb: usize,
}

impl SolveDesc {
    fn a_window(&self) -> MatWindow {
        FactorDesc {
            n: self.n,
            offset: self.a_offset,
            ld: self.lda,
        }
        .window()
    }

    fn b_window(&self) -> MatWindow {
        MatWindow {
            offset: self.b_offset,
            rows: self.n,
            cols: self.nrhs,
            ld: self.ldb,
        }
    }
}

/// How a batched factor launch can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FactorError<E> {
    /// The dense kernel's error for the first batch entry it rejected.
    Entry {
        /// Which batch entry failed.
        entry: usize,
        /// The dense kernel's error.
        error: E,
    },
    /// An armed [`FaultPlan`](crate::FaultPlan) failed the launch itself.
    Fault(LaunchFault),
}

impl<E: fmt::Display> fmt::Display for FactorError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::Entry { entry, error } => write!(f, "batch entry {entry}: {error}"),
            FactorError::Fault(fault) => fault.fmt(f),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for FactorError<E> {}

/// Factorize every block of `descs` in place with `factor`, in one launch
/// of `label` that meters `flops(n)` per block of order `n`, and return
/// the metadata `factor` yields for every block, in order.
///
/// # Errors
/// The [`LaunchFault`] when an armed fault plan fails the launch, before
/// any block is touched; otherwise the error of the first batch entry
/// `factor` rejected.  A launch the plan poisons writes NaN over every
/// block only once every entry has succeeded.
///
/// # Panics
/// Panics if blocks overlap or reach past the end of the buffer.
pub fn factor_batched_varied<T, M, E>(
    device: &Device,
    stream: Stream,
    label: &'static str,
    descs: &[FactorDesc],
    a: &mut DeviceBuffer<T>,
    flops: impl Fn(usize) -> u64,
    factor: impl Fn(MatMut<'_, T>) -> Result<M, E> + Sync,
) -> Result<Vec<M>, FactorError<E>>
where
    T: Scalar,
    M: Send,
    E: Send,
{
    if descs.is_empty() {
        return Ok(Vec::new());
    }
    let windows: Vec<MatWindow> = descs.iter().map(FactorDesc::window).collect();
    for w in &windows {
        assert!(w.fits(a.len()), "{label}: block out of bounds");
    }
    let flops = descs.iter().map(|d| flops(d.n)).sum();
    let poison = device
        .launch(label, stream, descs.len(), flops)
        .map_err(FactorError::Fault)?;

    let results: Mutex<Vec<Option<Result<M, E>>>> =
        Mutex::new(descs.iter().map(|_| None).collect());
    process_windows_mut(a.data_mut(), &windows, device.is_parallel(), |i, block| {
        let r = factor(block);
        results.lock()[i] = Some(r);
    });
    let meta = (results.into_inner().into_iter().enumerate())
        .map(|(entry, r)| {
            r.expect("every batch entry factored")
                .map_err(|error| FactorError::Entry { entry, error })
        })
        .collect::<Result<Vec<M>, _>>()?;
    if poison {
        poison_windows(a.data_mut(), &windows);
    }
    Ok(meta)
}

/// Solve every system of `descs` in place in `b` with the factors in `a`,
/// in one launch of `label`: `solve(i, factor, rhs)` is batch entry `i`'s
/// dense solve, which reads the metadata its factor launch returned.
///
/// No error channel: a launch the fault plan fails or poisons writes NaN
/// over every right-hand-side window.
///
/// # Panics
/// Panics if right-hand-side windows overlap, or any window is out of
/// bounds.
pub fn solve_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    label: &'static str,
    descs: &[SolveDesc],
    a: &DeviceBuffer<T>,
    b: &mut DeviceBuffer<T>,
    solve: impl Fn(usize, MatRef<'_, T>, MatMut<'_, T>) + Sync,
) {
    if descs.is_empty() {
        return;
    }
    for d in descs {
        assert!(d.a_window().fits(a.len()), "{label}: factors out of bounds");
        assert!(d.b_window().fits(b.len()), "{label}: rhs out of bounds");
    }
    let flops = (descs.iter())
        .map(|d| scalar_flop_factor::<T>() * 2 * (d.n as u64) * (d.n as u64) * d.nrhs as u64)
        .sum();
    let windows: Vec<MatWindow> = descs.iter().map(SolveDesc::b_window).collect();
    let a_data = a.data();
    launch_on_windows(
        device,
        label,
        stream,
        flops,
        b.data_mut(),
        &windows,
        |i, rhs| solve(i, descs[i].a_window().view(a_data), rhs),
    );
}

/// Gather the first `bands` diagonals of every block of `descs` to the
/// host, in one launch of `label`: per block, the main diagonal, then the
/// first subdiagonal, and so on — what the determinant of a factor reads.
///
/// On a real device this is a tiny gather kernel followed by one
/// `cudaMemcpy` of the packed values; here the launch meters no flops and
/// the gathered values as a device-to-host transfer.  No error channel: a
/// launch the fault plan fails or poisons returns NaN bands.
///
/// # Panics
/// Panics if any block reaches past the end of the buffer.
pub fn gather_bands_batched<T: Scalar>(
    device: &Device,
    stream: Stream,
    label: &'static str,
    descs: &[FactorDesc],
    bands: usize,
    a: &DeviceBuffer<T>,
) -> Vec<Vec<Vec<T>>> {
    if descs.is_empty() {
        return Vec::new();
    }
    for d in descs {
        assert!(d.window().fits(a.len()), "{label}: block out of bounds");
    }
    let poison = device.launch(label, stream, descs.len(), 0).unwrap_or(true);
    let data = a.data();
    let mut out: Vec<Vec<Vec<T>>> = (descs.iter())
        .map(|d| {
            (0..bands)
                .map(|k| {
                    (0..d.n.saturating_sub(k))
                        .map(|i| data[d.offset + i * (d.ld + 1) + k])
                        .collect()
                })
                .collect()
        })
        .collect();
    if poison {
        let nan = T::from_f64(f64::NAN);
        out.iter_mut().flatten().for_each(|band| band.fill(nan));
    }
    let total: usize = out.iter().flatten().map(Vec::len).sum();
    device.record_transfer(
        TransferDirection::DeviceToHost,
        (total * std::mem::size_of::<T>()) as u64,
    );
    out
}
