//! Gaussian-process hyperparameter selection on a HODLR covariance: build
//! the covariance of a 1-D GP lazily, evaluate the log-marginal likelihood
//! via HODLR `solve` + product-form `log_det` on the batched backend, and
//! pick kernel hyperparameters by grid scan — the workload that needs both
//! halves of the factorization and runs in `O(N log^2 N)` per candidate
//! instead of the dense `O(N^3)`.

use hodlr::prelude::*;
use hodlr_examples::arg;
use hodlr_gp::{best_row, regular_grid_1d, GpConfig, GpModel, GridScan, KernelFamily};

fn main() {
    let n: usize = arg("--n", 1024);

    // Observations: a smooth signal with wiggle scale ~0.5 on [0, 4],
    // plus a deterministic pseudo-noise floor.
    let points = regular_grid_1d(n, 0.0, 4.0);
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let x = 4.0 * i as f64 / (n - 1) as f64;
            (2.0 * x).sin() + 0.01 * (997.0 * x).sin()
        })
        .collect();

    // Scan a 3 x 2 x 2 hyperparameter grid under a Matérn-5/2 prior.  Every
    // candidate compresses, factorizes and scores on the batched device.
    let scan = GridScan {
        family: KernelFamily::MaternFiveHalves,
        length_scales: vec![0.05, 0.5, 5.0],
        variances: vec![0.5, 1.0],
        noises: vec![1e-4, 1e-2],
    };
    let config = GpConfig {
        backend: Backend::Batched,
        tolerance: 1e-10,
        ..GpConfig::default()
    };
    let rows = scan.run(&points, &y, &config).expect("grid scan");

    println!(
        "{:<14} {:<10} {:<10} {:>16} {:>14} {:>14}",
        "length_scale", "variance", "noise", "log p(y)", "y'K^-1 y", "log|K|"
    );
    for row in &rows {
        println!(
            "{:<14} {:<10} {:<10.0e} {:>16.4} {:>14.4} {:>14.4}",
            row.length_scale,
            row.variance,
            row.noise,
            row.log_likelihood.value,
            row.log_likelihood.quadratic_form,
            row.log_likelihood.log_det
        );
    }

    let best = best_row(&rows).expect("non-empty scan");
    println!(
        "\nbest candidate: l = {}, sigma_f^2 = {}, sigma_n^2 = {:.0e} (log p(y) = {:.4})",
        best.length_scale, best.variance, best.noise, best.log_likelihood.value
    );
    assert_eq!(
        best.length_scale, 0.5,
        "the scan must recover the generating wiggle scale"
    );

    // Rebuild the winner and show the backend agreement: the serial and
    // batched log-determinants are bitwise identical.
    let kernel = scan.family.kernel(best.variance, best.length_scale);
    let batched = GpModel::build(&kernel, &points, best.noise, &config).expect("winner model");
    let serial_config = GpConfig {
        backend: Backend::Serial,
        ..config.clone()
    };
    let serial = GpModel::build(&kernel, &points, best.noise, &serial_config).expect("serial");
    let ll_b = batched.log_likelihood(&y).expect("batched likelihood");
    let ll_s = serial.log_likelihood(&y).expect("serial likelihood");
    assert_eq!(ll_b.log_det.to_bits(), ll_s.log_det.to_bits());
    println!(
        "serial and batched log|K| agree bitwise: {:.12e}",
        ll_b.log_det
    );
}
