//! # dtr-bench — criterion benches and the perf-regression gate
//!
//! Criterion benches (`cargo bench -p dtr-bench`): SPF throughput,
//! evaluator throughput, end-to-end search cost, τ and diversification
//! ablations, search-strategy comparison, slicing, simulator event rates,
//! and the tomography/robustness per-candidate costs. The `engine`,
//! `robust`, `portfolio`, `fluid` and `daemon` benches rewrite the
//! checked-in `BENCH_*.json` files, which the `bench_gate` binary checks
//! against `bench_baselines.json`:
//!
//! ```text
//! cargo run --release -p dtr-bench --bin bench_gate
//! ```
//!
//! The paper's figures and tables and the extension studies are
//! regenerated by the `dtr-experiments` runner, one name per artifact
//! (`--help` lists the names and flags):
//!
//! ```text
//! cargo run --release -p dtr-experiments -- fig2      # Fig. 2(a–f)
//! cargo run --release -p dtr-experiments -- table1    # Table 1
//! cargo run --release -p dtr-experiments -- all       # everything
//! cargo run --release -p dtr-experiments -- --quick convergence multiclass
//! ```
