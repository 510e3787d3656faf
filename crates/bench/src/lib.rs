//! # dtr-bench — benches and figure/table regeneration binaries
//!
//! Binaries (one per paper artifact):
//!
//! ```text
//! cargo run --release -p dtr-bench --bin fig2      # Fig. 2(a–f)
//! cargo run --release -p dtr-bench --bin fig3      # Fig. 3(a–c)
//! cargo run --release -p dtr-bench --bin fig4      # Fig. 4
//! cargo run --release -p dtr-bench --bin fig5      # Fig. 5(a,b)
//! cargo run --release -p dtr-bench --bin fig6      # Fig. 6
//! cargo run --release -p dtr-bench --bin fig7      # Fig. 7
//! cargo run --release -p dtr-bench --bin fig8      # Fig. 8(a,b)
//! cargo run --release -p dtr-bench --bin fig9      # Fig. 9(a–c)
//! cargo run --release -p dtr-bench --bin table1    # Table 1
//! cargo run --release -p dtr-bench --bin triangle  # §3.3.1 example
//! cargo run --release -p dtr-bench --bin all_figures
//!
//! # extensions beyond the paper:
//! cargo run --release -p dtr-bench --bin optimality
//! cargo run --release -p dtr-bench --bin robustness
//! cargo run --release -p dtr-bench --bin drift
//! cargo run --release -p dtr-bench --bin robust_opt
//! cargo run --release -p dtr-bench --bin reopt
//! cargo run --release -p dtr-bench --bin estimation
//! cargo run --release -p dtr-bench --bin overhead
//! cargo run --release -p dtr-bench --bin convergence
//! cargo run --release -p dtr-bench --bin multiclass
//! ```
//!
//! Each prints the paper's rows/series and writes CSV under `results/`
//! (`DTR_RESULTS` overrides). Flags: `--quick` (tiny smoke budget),
//! `--paper` (the full published iteration budget; hours of CPU).
//!
//! Criterion benches (`cargo bench -p dtr-bench`): SPF throughput,
//! evaluator throughput, end-to-end search cost, τ and diversification
//! ablations, search-strategy comparison, slicing, simulator event rates,
//! and the tomography/robustness per-candidate costs.

use dtr_core::SearchParams;
use dtr_experiments::ExperimentCtx;

/// Builds the experiment context from CLI args (`--quick`, `--paper`,
/// `--seed <n>`, `--points <n>`). A malformed value prints the usage
/// and exits with status 2.
pub fn ctx_from_args() -> ExperimentCtx {
    let args: Vec<String> = std::env::args().collect();
    parse_ctx(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: <figure> [--quick] [--paper] [--seed N] [--points N]");
        std::process::exit(2);
    })
}

/// [`ctx_from_args`] over an explicit argument list.
fn parse_ctx(args: &[String]) -> Result<ExperimentCtx, String> {
    let mut ctx = ExperimentCtx::default();
    if args.iter().any(|a| a == "--quick") {
        ctx = ExperimentCtx::smoke();
    }
    if args.iter().any(|a| a == "--paper") {
        ctx.params = SearchParams::paper();
    }
    if let Some(seed) = value_after(args, "--seed")? {
        ctx.seed = seed;
        ctx.params = ctx.params.with_seed(seed);
    }
    ctx.load_points = value_after(args, "--points")?.unwrap_or(ctx.load_points);
    Ok(ctx)
}

/// The integer following `flag`, if the flag is present.
fn value_after<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).and_then(|s| s.parse().ok());
    value
        .map(Some)
        .ok_or_else(|| format!("{flag} needs a non-negative integer"))
}

/// Prints a table and writes it as CSV, reporting the file path.
pub fn emit(name: &str, table: &dtr_experiments::Table) {
    println!("{}", table.render());
    let path = dtr_experiments::write_csv(name, table);
    println!("[csv] {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_ctx(&args(&["fig", "--seed", "x"])).is_err());
        assert!(parse_ctx(&args(&["fig", "--points"])).is_err());
        assert!(parse_ctx(&args(&["fig", "--seed", "-1"])).is_err());
        let ctx = parse_ctx(&args(&["fig", "--quick", "--seed", "5", "--points", "3"])).unwrap();
        assert_eq!((ctx.seed, ctx.load_points), (5, 3));
    }

    #[test]
    fn default_ctx_is_experiment_budget() {
        let ctx = ExperimentCtx::default();
        assert_eq!(ctx.params.n_iters, SearchParams::experiment().n_iters);
    }
}
