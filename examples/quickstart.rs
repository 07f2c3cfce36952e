//! Quickstart: build a HODLR approximation of a kernel matrix with the
//! fluent builder, factorize it on both backends through the `Factorize` /
//! `Solve` traits, and check the residuals.  This is the 60-second tour of
//! the public API — everything comes from `hodlr::prelude`.

use hodlr::prelude::*;

/// `--n 4096`-style argument parsing: the value after `name`, or `default`
/// when the flag is absent; a missing or unparsable value is printed with
/// its flag and exits with status 2.  Local and std-only on purpose: this
/// example demonstrates that `hodlr::prelude` is the only library import an
/// application needs (the other examples share `hodlr_examples::arg`).
fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    match args.get(i + 1) {
        Some(value) => value.parse().unwrap_or_else(|_| {
            eprintln!("error: {name}: cannot parse {value:?}");
            std::process::exit(2)
        }),
        None => {
            eprintln!("error: {name}: missing value");
            std::process::exit(2)
        }
    }
}

fn main() {
    let n: usize = arg("--n", 4096);
    let tol: f64 = arg("--tol", 1e-8);

    // 1. A kernel matrix over random points in the unit cube, reordered by
    //    recursive bisection so off-diagonal blocks are low rank.
    let mut rng = StdRng::seed_from_u64(7);
    let cloud = uniform_cube_points(&mut rng, n, 3);
    let part = partition_points(&cloud, 64).expect("non-empty cloud");
    let source =
        ScalarKernelSource::with_shift(GaussianKernel { length_scale: 1.0 }, &part.points, 1.0);

    // 2. One fluent builder call: compression settings, tree, and backend.
    let hodlr = Hodlr::builder()
        .source(&source)
        .tree(part.tree.clone())
        .tolerance(tol)
        .method(CompressionMethod::AcaRook)
        .backend(Backend::Batched)
        .precision(Precision::Full)
        .build()
        .expect("HODLR construction");
    println!(
        "HODLR approximation: N = {}, levels = {}, max off-diagonal rank = {}, storage = {:.3} GiB",
        hodlr.n(),
        hodlr.levels(),
        hodlr.max_rank(),
        hodlr.memory_gib()
    );

    // 3. Factorize (Algorithm 3 on the virtual batched device) and solve
    //    (Algorithm 4) through the backend-agnostic traits.
    let factorization = hodlr.factorize().expect("factorization");
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let x = factorization.solve(&b).expect("solve");

    // 4. Verify, and compare against the serial backend (Algorithms 1-2):
    //    same matrix, same traits, different enum value.
    let residual = hodlr.relative_residual(&x, &b);
    println!("batched backend: relative residual ||b - A x|| / ||b|| = {residual:.3e}");
    assert!(residual < 1e-6, "batched residual {residual:.3e}");

    let serial = Hodlr::builder()
        .source(&source)
        .tree(part.tree.clone())
        .tolerance(tol)
        .backend(Backend::Serial)
        .build()
        .expect("HODLR construction (serial)");
    let x_serial = serial
        .factorize()
        .expect("serial factorization")
        .solve(&b)
        .expect("serial solve");
    let residual_serial = serial.relative_residual(&x_serial, &b);
    println!("serial backend:  relative residual ||b - A x|| / ||b|| = {residual_serial:.3e}");
    assert!(residual_serial < 1e-6);

    // 5. The batched work was metered on the handle's virtual device.
    let counters = hodlr.device().counters();
    println!(
        "device counters: {} kernel launches, {:.2} GFlop executed, {:.1} MiB transferred",
        counters.kernel_launches,
        counters.flops as f64 / 1e9,
        (counters.h2d_bytes + counters.d2h_bytes) as f64 / (1 << 20) as f64
    );
}
