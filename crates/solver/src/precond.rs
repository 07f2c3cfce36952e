//! Exact HODLR preconditioners for this crate's unit tests: the serial
//! (Algorithms 1–2) and batched (Algorithms 3–4) factorizations of
//! `hodlr-core` applied as `M^{-1}`.
//!
//! Library callers get the same operator from the `hodlr` façade's
//! `Factorization`; the façade depends on this crate, so the Krylov and
//! refinement unit tests use these fixtures instead.

use crate::operator::LinearOperator;
use hodlr_batch::Device;
use hodlr_core::{GpuSolver, HodlrMatrix, SerialFactorization};
use hodlr_la::Scalar;

/// `M^{-1}` by the serial factorization's solve.
pub(crate) struct SerialInverse<T: Scalar>(SerialFactorization<T>);

impl<T: Scalar> SerialInverse<T> {
    pub(crate) fn new(matrix: &HodlrMatrix<T>) -> Self {
        SerialInverse(
            matrix
                .factorize_serial()
                .expect("test matrices are nonsingular"),
        )
    }
}

impl<T: Scalar> LinearOperator<T> for SerialInverse<T> {
    fn dim(&self) -> usize {
        self.0.tree().n()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(&self.0.solve(x));
    }
}

/// `M^{-1}` by a factored batched solver on `device`.
pub(crate) struct BatchedInverse<T: Scalar>(GpuSolver<'static, T>);

impl<T: Scalar> BatchedInverse<T> {
    pub(crate) fn new(device: &Device, matrix: &HodlrMatrix<T>) -> Self {
        let mut solver = GpuSolver::new(device, matrix);
        solver.factorize().expect("test matrices are nonsingular");
        BatchedInverse(solver)
    }
}

impl<T: Scalar> LinearOperator<T> for BatchedInverse<T> {
    fn dim(&self) -> usize {
        self.0.n()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(&self.0.solve(x).expect("the solver is factored"));
    }
}

mod tests {
    use super::*;
    use crate::operator::IdentityPreconditioner;
    use hodlr_core::matrix::random_hodlr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preconditioners_invert_an_exact_hodlr_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = random_hodlr::<f64, _>(&mut rng, 64, 3, 2);
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).cos()).collect();
        let b = m.matvec(&x_true);

        let serial = SerialInverse::new(&m);
        let x = serial.apply_vec(&b);
        for (a, e) in x.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-9);
        }

        let device = Device::new();
        let batched = BatchedInverse::new(&device, &m);
        let x = batched.apply_vec(&b);
        for (a, e) in x.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_preconditioner_is_a_copy() {
        let id = IdentityPreconditioner(4);
        let x = vec![1.0, -2.0, 3.0, -4.0];
        assert_eq!(LinearOperator::<f64>::apply_vec(&id, &x), x);
    }
}
