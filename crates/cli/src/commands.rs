//! The `dtrctl` subcommands.

use crate::args::{ArgError, Args};
use dtr_core::{
    parse_portfolio, AnnealSearch, DtrSearch, DualWeights, MemeticSearch, Objective, PortfolioMode,
    PortfolioParams, PortfolioResult, PortfolioSearch, ReoptSearch, RobustSearch, ScenarioCombine,
    Scheme, SearchParams, StrSearch, StrategyKind, UpgradeParams, UpgradeSearch,
};
use dtr_graph::datacenter::{
    fat_tree_topology, jellyfish_topology, vl2_topology, xpander_topology, FatTreeCfg,
    JellyfishCfg, Vl2Cfg, XpanderCfg,
};
use dtr_graph::families::{
    grid_topology, hierarchical_topology, waxman_topology, GridCfg, HierarchicalCfg, WaxmanCfg,
};
use dtr_graph::gen::{
    isp_topology, power_law_topology, random_topology, PowerLawTopologyCfg, RandomTopologyCfg,
};
use dtr_graph::{export, Topology};
use dtr_mtr::{MtrNetwork, TopologyId};
use dtr_routing::Evaluator;
use dtr_sim::{SimConfig, Simulation, TrafficClass};
use dtr_traffic::{DemandSet, HighPriModel, SinkPattern, TrafficCfg};
use std::fmt;
use std::path::Path;

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown enum-ish value for a flag.
    UnknownVariant {
        /// What was being selected.
        what: &'static str,
        /// The unrecognized value.
        value: String,
    },
    /// File I/O.
    Io(std::io::Error),
    /// JSON (de)serialization.
    Json(serde_json::Error),
    /// A differential-validation gate failed (`dtrctl validate`).
    Gate(String),
    /// A `--weights` file does not fit the topology or the scheme.
    Weights {
        /// Path the weights were loaded from.
        path: String,
        /// What does not fit.
        detail: String,
    },
    /// A churn trace failed structural validation (`dtrctl replay`).
    Trace {
        /// Path the trace was loaded from.
        path: String,
        /// The structural defect, naming the offending event index.
        detail: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `dtrctl help`)")
            }
            CliError::UnknownVariant { what, value } => write!(f, "unknown {what} {value:?}"),
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Json(e) => write!(f, "json: {e}"),
            CliError::Gate(msg) => write!(f, "validation gate failed: {msg}"),
            CliError::Weights { path, detail } => write!(f, "invalid weights {path}: {detail}"),
            CliError::Trace { path, detail } => {
                write!(f, "invalid churn trace {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

fn load<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let s = std::fs::read_to_string(Path::new(path))?;
    Ok(serde_json::from_str(&s)?)
}

/// Loads a `--weights` file and checks it fits `topo`: one weight per
/// link in both vectors and, under STR, replicated vectors.
fn load_weights(path: &str, topo: &Topology, scheme: Scheme) -> Result<DualWeights, CliError> {
    let w: DualWeights = load(path)?;
    let links = topo.link_count();
    let detail = if w.high.len() != links || w.low.len() != links {
        format!(
            "{} high and {} low weights for a topology with {links} links",
            w.high.len(),
            w.low.len()
        )
    } else if scheme == Scheme::Str && w.high != w.low {
        "--scheme str needs identical high and low vectors".to_string()
    } else {
        return Ok(w);
    };
    Err(CliError::Weights {
        path: path.to_string(),
        detail,
    })
}

fn save<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    std::fs::write(Path::new(path), serde_json::to_string_pretty(value)?)?;
    println!("[wrote] {path}");
    Ok(())
}

fn parse_budget(args: &Args) -> Result<SearchParams, CliError> {
    parse_budget_with(args, "experiment")
}

fn parse_budget_with(args: &Args, default: &str) -> Result<SearchParams, CliError> {
    let budget = args.get("budget").unwrap_or(default);
    let mut params = SearchParams::preset(budget).ok_or_else(|| CliError::UnknownVariant {
        what: "budget",
        value: budget.to_string(),
    })?;
    params.seed = args.get_or("seed", params.seed)?;
    params.backend = match args.get("backend").unwrap_or("incremental") {
        "incremental" | "incr" => dtr_engine::BackendKind::Incremental,
        "full" => dtr_engine::BackendKind::Full,
        other => {
            return Err(CliError::UnknownVariant {
                what: "backend",
                value: other.to_string(),
            })
        }
    };
    Ok(params)
}

/// Whether an optimize/robust invocation requests the parallel portfolio
/// orchestrator (any of its knobs present).
fn wants_portfolio(args: &Args) -> bool {
    args.get("workers").is_some()
        || args.get("portfolio").is_some()
        || args.get("restarts").is_some()
        || args.get("prune-margin").is_some()
}

fn parse_portfolio_cfg(args: &Args) -> Result<PortfolioParams, CliError> {
    let strategies = match args.get("portfolio") {
        Some(spec) => parse_portfolio(spec).map_err(|_| CliError::UnknownVariant {
            what: "portfolio spec (comma-separated descent|anneal|ga|memetic)",
            value: spec.to_string(),
        })?,
        None => StrategyKind::ALL.to_vec(),
    };
    let restarts = args.get_or("restarts", 1usize)?;
    if restarts == 0 {
        return Err(CliError::UnknownVariant {
            what: "restart count (need ≥ 1)",
            value: "0".to_string(),
        });
    }
    let prune_margin: f64 = args.get_or("prune-margin", f64::INFINITY)?;
    if prune_margin.is_nan() || prune_margin < 0.0 {
        return Err(CliError::UnknownVariant {
            what: "prune margin (need a non-negative fraction)",
            value: args.get("prune-margin").unwrap_or_default().to_string(),
        });
    }
    Ok(PortfolioParams {
        strategies,
        restarts,
        workers: args.get_or("workers", 0usize)?,
        prune_margin,
    })
}

/// Prints the per-arm summary of a finished portfolio run.
fn print_portfolio(res: &PortfolioResult, elapsed_s: f64) {
    for t in &res.tasks {
        println!(
            "  arm {:>2} wave {} {:<8} cost {} ({} evaluations)",
            t.task,
            t.wave,
            t.strategy.name(),
            t.cost,
            t.evaluations
        );
    }
    for (si, wave) in &res.pruned {
        println!("  pruned strategy #{si} after wave {wave}");
    }
    println!(
        "portfolio: best cost {} from {} arms on {} workers in {:.2}s",
        res.cost,
        res.tasks.len(),
        res.workers,
        elapsed_s
    );
}

/// The shared `--objective`/`--classes` flag pair, restricted to the
/// two-class commands (`optimize`, `evaluate`, `reopt`, `robust`,
/// `replay`): their inputs are two-class traffic matrices, so a `k ≥ 3`
/// spec is rejected with a pointer at the corpus pipelines that do
/// support it.
fn parse_objective(args: &Args) -> Result<Objective, CliError> {
    let spec = crate::args::parse_objective_spec(args)?;
    spec.as_two_class().ok_or_else(|| CliError::UnknownVariant {
        what: "objective for a two-class command (k-class objectives run \
               through the corpus pipelines: dtrctl suite/validate)",
        value: spec.summary(),
    })
}

/// Applies the `--objective`/`--classes` override to the selected corpus
/// manifests (`suite`/`validate`): when either flag is present, the
/// selection is narrowed first, every selected manifest's objective is
/// replaced, and the result re-validated — so objective sweeps never
/// need manifest edits, and an override a given instance cannot carry
/// (e.g. `k ≥ 3` on a non-gravity family) fails fast with the
/// instance's name.
fn apply_objective_override(
    args: &Args,
    specs: Vec<dtr_scenario::ScenarioSpec>,
    cfg: &dtr_scenario::SuiteCfg,
) -> Result<Vec<dtr_scenario::ScenarioSpec>, CliError> {
    if args.get("objective").is_none() && args.get("classes").is_none() {
        return Ok(specs);
    }
    let objective = crate::args::parse_objective_spec(args)?;
    let mut selected: Vec<dtr_scenario::ScenarioSpec> = dtr_scenario::select(&specs, cfg)
        .into_iter()
        .cloned()
        .collect();
    for spec in &mut selected {
        spec.objective = Some(objective.clone());
        spec.validate().map_err(|e| CliError::UnknownVariant {
            what: "objective override (incompatible instance; narrow with --only)",
            value: format!("{}: {e}", spec.name),
        })?;
    }
    Ok(selected)
}

/// Executes one parsed command line. Returns the text that `main` should
/// exit-0 with; errors bubble up for exit-1.
pub fn run(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "topo" => cmd_topo(args),
        "traffic" => cmd_traffic(args),
        "optimize" => cmd_optimize(args),
        "evaluate" => cmd_evaluate(args),
        "simulate" => cmd_simulate(args),
        "deploy" => cmd_deploy(args),
        "bound" => cmd_bound(args),
        "estimate" => cmd_estimate(args),
        "reopt" => cmd_reopt(args),
        "robust" => cmd_robust(args),
        "upgrade" => cmd_upgrade(args),
        "suite" => cmd_suite(args),
        "validate" => cmd_validate(args),
        "churn" => cmd_churn(args),
        "replay" => cmd_replay(args),
        "help" | "--help" | "-h" => {
            println!("{}", help_text());
            Ok(())
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The `help` text (also shown on argument errors).
pub fn help_text() -> &'static str {
    "dtrctl — dual-topology routing toolkit

USAGE:
  dtrctl topo <random|powerlaw|isp|waxman|hierarchical|grid
               |fattree|vl2|jellyfish|xpander>
         [--nodes N] [--links L] [--seed S] [--beta 0.6]
         [--core 6] [--chords 3] [--edge-per-core 4]
         [--rows 5] [--cols 6] [--torus true]
         [--pods 4] [--da 4] [--di 4]
         [--switches 20] [--degree 4] [--lifts 2]
         [--out topo.json] [--dot topo.dot]
  dtrctl traffic --topo topo.json [--f 0.3] [--k 0.1] [--seed S]
         [--model random|sink-uniform|sink-local] [--sinks 3] [--scale G]
         --out tm.json
  dtrctl optimize --topo topo.json --traffic tm.json
         [--scheme str|dtr|ga|memetic|anneal-str|anneal-dtr]
         [--objective load|sla[:BOUND_MS]] [--sla-bound-ms 25] [--classes 2]
         [--budget tiny|quick|experiment|paper] [--seed S]
         [--backend incremental|full]
         [--workers N] [--portfolio descent,anneal,ga,memetic]
         [--restarts R] [--prune-margin F]
         [--robust [--beta 0.5] [--cap N] [--weights warmstart.json]]
         --out weights.json       (--robust supports --objective load only)
         (--backend selects the candidate-evaluation engine for the
          dtr/str hot loops: incremental dynamic-SPF repair (default)
          or full per-candidate recomputation — identical results;
          --robust optimizes against all single duplex-pair failures,
          sweeping scenarios through the same engine; it supports
          --scheme str|dtr only.
          --workers/--portfolio/--restarts switch on the parallel
          portfolio orchestrator: restarts×|portfolio| independent arms
          with derived seeds fan out over N worker threads (0 = all
          cores), each arm owning its own engine state; arms share a
          live incumbent bound and reduce deterministically, so the
          result depends only on --seed and the spec, never on N.
          --prune-margin F drops arms worse than the incumbent by more
          than fraction F at restart barriers. With the orchestrator,
          --scheme selects the routing scheme (str|dtr) only; in
          --robust runs non-descent arms warm-start a failure-aware
          descent from their nominal optimum)
  dtrctl evaluate --topo topo.json --traffic tm.json --weights weights.json
         [--objective load|sla[:BOUND_MS]]
  dtrctl simulate --topo topo.json --traffic tm.json --weights weights.json
         [--duration 2.0] [--warmup 0.5] [--seed S]
  dtrctl deploy --topo topo.json --weights weights.json [--fail-link ID]
         [--print-config routers.cfg]
  dtrctl bound --topo topo.json --traffic tm.json
         (Frank–Wolfe optimal-routing reference and duality bracket)
  dtrctl estimate --topo topo.json --traffic truth.json
         [--weights measure-weights.json] --out estimated-tm.json
         (tomogravity: gravity prior + MART fit to per-class link loads)
  dtrctl reopt --topo topo.json --traffic new-tm.json --weights incumbent.json
         --changes H [--scheme str|dtr] [--budget ...] --out weights.json
         (change-limited reoptimization after traffic drift)
  dtrctl robust --topo topo.json --traffic tm.json [--weights warmstart.json]
         [--scheme str|dtr] [--beta 0.5] [--cap N] [--budget ...]
         [--backend incremental|full]
         [--workers N] [--portfolio ...] [--restarts R] --out weights.json
         (failure-aware optimization over all single duplex-pair cuts;
          alias of `optimize --robust`. --cap optimizes against only the
          N worst scenarios of the initial solution — an approximation;
          the dropped pairs are reported)
  dtrctl upgrade --budget N
         (--topo topo.json --traffic tm.json | --instance NAME [--corpus corpus])
         [--search tiny|quick|experiment|paper] [--probe tiny|...] [--seed S]
         [--swap-passes 1] [--backend incremental|full]
         [--portfolio descent,...] [--restarts R] [--workers W] [--out report.json]
         (upgrade-placement planning under partial deployment: which N
          routers should become MT-capable? Greedy + local-swap over
          node subsets, each placement scored by a deployment-aware
          weight search — cheap --probe searches steer the combinatorics,
          a cold portfolio at the --search budget scores each budget
          step definitively. Legacy (non-upgraded) routers forward both
          classes on the default high topology. Emits the monotone
          R_L-vs-budget curve with placements; byte-deterministic in
          --seed and the instance, whatever --workers is)
  dtrctl suite [--corpus corpus] [--out suite-out] [--smoke] [--only A,B]
         [--objective load|sla[:BOUND_MS]] [--classes K]
         (runs the scenario corpus end-to-end: per instance an STR
          baseline and a DTR search at identical budgets plus the
          manifest's failure-policy robustness evaluation; writes one
          JSON report per instance and summary.json into --out. --smoke
          restricts to the tiny smoke-tagged instances and asserts
          result shapes — the CI gate. --only takes a comma-separated
          list of name substrings; an instance runs if it matches any.
          --objective/--classes override the selected manifests'
          objective — k >= 3 needs gravity-family instances without
          failure policies, so narrow with --only when overriding)
  dtrctl validate [--corpus corpus] [--out validate-out] [--smoke]
         [--only A,B] [--des-packets N]
         [--objective load|sla[:BOUND_MS]] [--classes K]
         (corpus-scale sim-vs-analytic differential validation: per
          instance, reruns the suite searches and pushes both incumbents
          through (a) the analytic evaluator, (b) the deterministic
          fluid backend and (c) a budgeted packet DES seeded from the
          manifest seed; writes one agreement report per instance plus
          validation_summary.json. Fluid loads must match the analytic
          loads to 1e-9; DES loads/delays must sit inside the documented
          accuracy envelope; priority-isolation violations must be zero.
          Exits non-zero when any gate fails. --des-packets overrides
          the per-run packet budget; --smoke/--only select as in suite)

  dtrctl churn --topo topo.json --traffic tm.json [--events 100] [--seed S]
         [--flap-rate 0.3] [--repair-rate 1.0] [--demand-rate 1.0]
         [--whatif-rate 0.2] [--directed-flap-rate 0.0] [--burst-rate 0.0]
         [--burst-max 4] [--drift 0.08] [--name NAME] --out trace.json
         (seed-deterministic churn trace: Poisson link flaps under the
          single-failure regime, gravity-drift demand walks and what-if
          probes, self-contained with topology and base demands;
          --directed-flap-rate adds single-directed-link failures,
          --burst-rate adds same-timestamp bursts of 2..=--burst-max
          demand walks — the coalescing workload)
  dtrctl replay [--trace trace.json] [--out replay-out]
         [--budget tiny|quick|experiment|paper] [--seed S]
         [--backend incremental|full] [--changes H]
         [--min-gain-per-churn F] [--weights initial.json] [--smoke]
         [--coalesce N] [--idle-steps N] [--transport inproc|tcp]
         [--objective load|sla[:BOUND_MS]]   (sla needs a demand-only
          trace: the daemon's masked evaluation is load-only)
         (drives the dtrd reoptimization daemon through a churn trace
          end to end over the line protocol; writes events.jsonl (one
          reply per line, trace events plus injected flushes),
          report.json (deterministic summary incl. gain-vs-churn
          accounting and the final-incumbent-vs-cold-batch ratio) and
          timing.json (p50/p99 latency, events/sec, per-kind breakdown).
          --coalesce batches same-timestamp events (the driver injects
          Flush at every timestamp change), --idle-steps spends a
          background anytime budget at event boundaries, --transport tcp
          replays over a real loopback serve_tcp server. --smoke replays
          twice and asserts events.jsonl and report.json are
          byte-identical — timing.json is wall-clock and explicitly
          outside the gate — plus report shape and the batch ratio; the
          trace defaults to traces/smoke.json — the CI gate)

All artifacts are JSON; see the repository README for the full workflow."
}

fn cmd_topo(args: &Args) -> Result<(), CliError> {
    let kind = args
        .positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or("random");
    let seed = args.get_or("seed", 1u64)?;
    let topo = match kind {
        "random" => random_topology(&RandomTopologyCfg {
            nodes: args.get_or("nodes", 30usize)?,
            directed_links: args.get_or("links", 150usize)?,
            seed,
        }),
        "powerlaw" => power_law_topology(&PowerLawTopologyCfg {
            nodes: args.get_or("nodes", 30usize)?,
            attachments: args.get_or("attachments", 3usize)?,
            seed,
        }),
        "isp" => isp_topology(),
        "waxman" => waxman_topology(&WaxmanCfg {
            nodes: args.get_or("nodes", 30usize)?,
            directed_links: args.get_or("links", 150usize)?,
            beta: args.get_or("beta", 0.6)?,
            seed,
        }),
        "hierarchical" => hierarchical_topology(&HierarchicalCfg {
            core_nodes: args.get_or("core", 6usize)?,
            core_chords: args.get_or("chords", 3usize)?,
            edge_per_core: args.get_or("edge-per-core", 4usize)?,
            seed,
            ..Default::default()
        }),
        "grid" => grid_topology(&GridCfg {
            rows: args.get_or("rows", 5usize)?,
            cols: args.get_or("cols", 6usize)?,
            torus: args.get_or("torus", false)?,
            ..Default::default()
        }),
        "fattree" => fat_tree_topology(&FatTreeCfg {
            pods: args.get_or("pods", 4usize)?,
        }),
        "vl2" => vl2_topology(&Vl2Cfg {
            da: args.get_or("da", 4usize)?,
            di: args.get_or("di", 4usize)?,
        }),
        "jellyfish" => jellyfish_topology(&JellyfishCfg {
            switches: args.get_or("switches", 20usize)?,
            degree: args.get_or("degree", 4usize)?,
            seed,
        }),
        "xpander" => xpander_topology(&XpanderCfg {
            degree: args.get_or("degree", 4usize)?,
            lifts: args.get_or("lifts", 2usize)?,
            seed,
        }),
        other => {
            return Err(CliError::UnknownVariant {
                what: "topology kind",
                value: other.to_string(),
            })
        }
    };
    println!(
        "generated {kind} topology: {} nodes, {} directed links",
        topo.node_count(),
        topo.link_count()
    );
    if let Some(path) = args.get("dot") {
        std::fs::write(path, export::to_dot(&topo, None))?;
        println!("[wrote] {path}");
    }
    if let Some(path) = args.get("out") {
        save(path, &topo)?;
    }
    Ok(())
}

fn cmd_traffic(args: &Args) -> Result<(), CliError> {
    let topo: Topology = load(args.require("topo")?)?;
    let model = match args.get("model").unwrap_or("random") {
        "random" => HighPriModel::Random,
        "sink-uniform" => HighPriModel::Sink {
            sinks: args.get_or("sinks", 3usize)?,
            pattern: SinkPattern::Uniform,
        },
        "sink-local" => HighPriModel::Sink {
            sinks: args.get_or("sinks", 3usize)?,
            pattern: SinkPattern::Local,
        },
        other => {
            return Err(CliError::UnknownVariant {
                what: "traffic model",
                value: other.to_string(),
            })
        }
    };
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            f: args.get_or("f", 0.30)?,
            k: args.get_or("k", 0.10)?,
            model,
            seed: args.get_or("seed", 1u64)?,
        },
    )
    .scaled(args.get_or("scale", 1.0)?);
    println!(
        "generated traffic: {:.1} Mbit/s total ({:.0}% high priority, {} high-priority pairs)",
        demands.total_volume(),
        100.0 * demands.high_fraction(),
        demands.high_pair_count()
    );
    save(args.require("out")?, &demands)
}

fn cmd_optimize(args: &Args) -> Result<(), CliError> {
    if args.get_or("robust", false)? {
        // `optimize --robust` is the failure-aware search: same knobs as
        // the `robust` subcommand (`--beta`, `--cap`, `--backend`, str or
        // dtr `--scheme`), kept under `optimize` so backend selection and
        // budgets read uniformly across nominal and robust runs.
        return cmd_robust(args);
    }
    // Validate orchestrator flags before touching the filesystem so a
    // typo'd spec fails fast.
    let portfolio = if wants_portfolio(args) {
        // Portfolio arms cover the strategy axis themselves, so --scheme
        // only selects the routing scheme here.
        let routing = match args.get("scheme").unwrap_or("dtr") {
            "dtr" => Scheme::Dtr,
            "str" => Scheme::Str,
            other => {
                return Err(CliError::UnknownVariant {
                    what: "portfolio routing scheme (str|dtr)",
                    value: other.to_string(),
                })
            }
        };
        Some((routing, parse_portfolio_cfg(args)?))
    } else {
        None
    };

    let topo: Topology = load(args.require("topo")?)?;
    let demands: DemandSet = load(args.require("traffic")?)?;
    let params = parse_budget(args)?;
    let objective = parse_objective(args)?;
    let scheme = args.get("scheme").unwrap_or("dtr");

    if let Some((routing, cfg)) = portfolio {
        let start = std::time::Instant::now();
        let res = PortfolioSearch::new(
            &topo,
            &demands,
            objective,
            params,
            PortfolioMode::Nominal(routing),
            cfg,
        )
        .run();
        print_portfolio(&res, start.elapsed().as_secs_f64());
        return save(args.require("out")?, &res.weights);
    }

    let weights: DualWeights = match scheme {
        "dtr" => {
            let r = DtrSearch::new(&topo, &demands, objective, params).run();
            println!(
                "DTR: cost {} after {} evaluations ({} improvements)",
                r.best_cost,
                r.trace.evaluations,
                r.trace.improvements.len()
            );
            r.weights
        }
        "str" => {
            let r = StrSearch::new(&topo, &demands, objective, params).run();
            println!(
                "STR: cost {} after {} evaluations",
                r.best_cost, r.trace.evaluations
            );
            DualWeights::replicated(r.weights)
        }
        "ga" => {
            let r = MemeticSearch::ga(&topo, &demands, objective, params).run();
            println!(
                "GA: cost {} after {} generations / {} evaluations",
                r.best_cost, r.generations, r.trace.evaluations
            );
            DualWeights::replicated(r.weights)
        }
        "memetic" => {
            let r = MemeticSearch::new(&topo, &demands, objective, params).run();
            println!(
                "memetic: cost {} after {} generations / {} evaluations ({} local improvements)",
                r.best_cost, r.generations, r.trace.evaluations, r.local_improvements
            );
            DualWeights::replicated(r.weights)
        }
        "anneal-str" | "anneal-dtr" => {
            let mode = if scheme == "anneal-str" {
                Scheme::Str
            } else {
                Scheme::Dtr
            };
            let r = AnnealSearch::new(&topo, &demands, objective, params, mode).run();
            println!(
                "annealing ({}): cost {} after {} evaluations ({} uphill moves)",
                mode.name(),
                r.best_cost,
                r.trace.evaluations,
                r.uphill_accepted
            );
            r.weights
        }
        other => {
            return Err(CliError::UnknownVariant {
                what: "scheme",
                value: other.to_string(),
            })
        }
    };
    save(args.require("out")?, &weights)
}

fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    let topo: Topology = load(args.require("topo")?)?;
    let demands: DemandSet = load(args.require("traffic")?)?;
    let weights = load_weights(args.require("weights")?, &topo, Scheme::Dtr)?;
    let objective = parse_objective(args)?;
    let mut ev = Evaluator::new(&topo, &demands, objective);
    let e = ev.eval_dual(&weights);
    println!("objective         {}", e.cost);
    println!("phi_H             {:.2}", e.phi_h);
    println!("phi_L             {:.2}", e.phi_l);
    println!("avg utilization   {:.3}", e.avg_utilization(&topo));
    println!("max utilization   {:.3}", e.max_utilization(&topo));
    if let Some(sla) = &e.sla {
        println!("SLA violations    {}", sla.violations);
        println!("SLA penalty       {:.1}", sla.lambda);
    }
    let over: Vec<String> = topo
        .links()
        .filter(|(lid, l)| {
            (e.high_loads[lid.index()] + e.low_loads[lid.index()]) / l.capacity > 1.0
        })
        .map(|(lid, l)| {
            format!(
                "  {} {}→{} at {:.0}%",
                lid,
                topo.node_name(l.src),
                topo.node_name(l.dst),
                100.0 * (e.high_loads[lid.index()] + e.low_loads[lid.index()]) / l.capacity
            )
        })
        .collect();
    if !over.is_empty() {
        println!("overloaded links:");
        for line in over {
            println!("{line}");
        }
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let topo: Topology = load(args.require("topo")?)?;
    let demands: DemandSet = load(args.require("traffic")?)?;
    let weights = load_weights(args.require("weights")?, &topo, Scheme::Dtr)?;
    let cfg = SimConfig {
        warmup_s: args.get_or("warmup", 0.5)?,
        duration_s: args.get_or("duration", 2.0)?,
        seed: args.get_or("seed", 1u64)?,
        ..Default::default()
    };
    let report = Simulation::new(&topo, &demands, &weights, cfg).run();
    println!(
        "simulated {:.1}s: {} packets generated, {} delivered",
        cfg.warmup_s + cfg.duration_s,
        report.generated,
        report.delivered
    );
    let mean = |class: TrafficClass| {
        let (mut sum, mut n) = (0.0, 0u64);
        for (k, acc) in &report.pair_delays {
            if k.class == class && acc.count > 0 {
                sum += acc.sum;
                n += acc.count;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    println!(
        "mean end-to-end delay: high {:.2} ms, low {:.2} ms",
        mean(TrafficClass::High) * 1e3,
        mean(TrafficClass::Low) * 1e3
    );
    let max_util = topo
        .links()
        .map(|(lid, _)| report.utilization(lid))
        .fold(0.0f64, f64::max);
    println!("max measured link utilization: {max_util:.3}");
    Ok(())
}

fn cmd_deploy(args: &Args) -> Result<(), CliError> {
    let topo: Topology = load(args.require("topo")?)?;
    let weights = load_weights(args.require("weights")?, &topo, Scheme::Dtr)?;
    if let Some(path) = args.get("print-config") {
        std::fs::write(path, dtr_mtr::network_config(&topo, &weights))?;
        println!("[wrote] {path} (router configuration stanzas)");
    }
    let mut net = MtrNetwork::new(&topo, weights);
    let msgs = net.converge();
    println!(
        "converged: {msgs} LSA deliveries, {} SPF runs, databases synchronized: {}",
        net.stats.spf_runs,
        net.databases_synchronized()
    );
    if let Some(raw) = args.get("fail-link") {
        let id: u32 = raw.parse().map_err(|_| CliError::UnknownVariant {
            what: "link id",
            value: raw.to_string(),
        })?;
        let lid = dtr_graph::LinkId(id);
        let l = topo.link(lid);
        println!(
            "failing {} ↔ {} ...",
            topo.node_name(l.src),
            topo.node_name(l.dst)
        );
        net.fail_link(lid);
        let msgs = net.converge();
        println!(
            "reconverged: {msgs} LSA deliveries, total {} SPF runs",
            net.stats.spf_runs
        );
    }
    // A forwarding sample across the diameter.
    let src = dtr_graph::NodeId(0);
    let dst = dtr_graph::NodeId((topo.node_count() - 1) as u32);
    for (tid, label) in [(TopologyId::DEFAULT, "high"), (TopologyId::LOW, "low")] {
        match net.forward_path(tid, src, dst) {
            Ok(path) => {
                let names: Vec<&str> = std::iter::once(topo.node_name(src))
                    .chain(path.iter().map(|&l| topo.node_name(topo.link(l).dst)))
                    .collect();
                println!("{label:>4}: {}", names.join(" → "));
            }
            Err(e) => println!("{label:>4}: unroutable ({e:?})"),
        }
    }
    Ok(())
}

fn cmd_bound(args: &Args) -> Result<(), CliError> {
    use dtr_routing::lower_bound::{dual_lower_bound, FwParams};
    let topo: Topology = load(args.require("topo")?)?;
    let demands: DemandSet = load(args.require("traffic")?)?;
    let b = dual_lower_bound(&topo, &demands, &FwParams::default());
    println!("Frank–Wolfe optimal-routing reference (load-based objective):");
    println!(
        "  high class: flow cost {:.2}, duality LB {:.2} (bracket {:.2}×)",
        b.achieved.0,
        b.phi_h,
        b.achieved.0 / b.phi_h.max(1e-12)
    );
    println!(
        "  low class : flow cost {:.2}, duality LB {:.2} (conditional on the FW high placement)",
        b.achieved.1, b.phi_l
    );
    println!(
        "any SPF-realizable weight setting has Φ_H ≥ {:.2}; compare with `dtrctl evaluate`",
        b.phi_h
    );
    Ok(())
}

/// `estimate`: tomogravity estimation of both class matrices from the
/// link loads they would produce under the measurement weights.
fn cmd_estimate(args: &Args) -> Result<(), CliError> {
    use dtr_routing::{
        gravity_prior, l1_error, tomogravity, LoadCalculator, RoutingMatrix, TomoCfg,
    };
    let topo: Topology = load(args.require("topo")?)?;
    let truth: DemandSet = load(args.require("traffic")?)?;
    let measure_w = match args.get("weights") {
        Some(p) => load_weights(p, &topo, Scheme::Dtr)?.high,
        None => dtr_graph::WeightVector::uniform(&topo, 1),
    };
    let rm = RoutingMatrix::compute(&topo, &measure_w);

    let estimate_class = |m: &dtr_traffic::TrafficMatrix, label: &str| {
        let measured = LoadCalculator::new().class_loads(&topo, &measure_w, m);
        let out: Vec<f64> = (0..m.len()).map(|s| m.row_total(s)).collect();
        let in_: Vec<f64> = (0..m.len()).map(|t| m.col_total(t)).collect();
        let prior = gravity_prior(&out, &in_);
        let fit = tomogravity(&prior, &rm, &measured, &TomoCfg::default());
        println!(
            "{label}: prior L1 error {:.1}%, estimate {:.1}% ({} MART epochs, residual {:.1e})",
            100.0 * l1_error(&prior, m),
            100.0 * l1_error(&fit.matrix, m),
            fit.iterations,
            fit.residual
        );
        fit.matrix
    };
    let estimated = DemandSet {
        high: estimate_class(&truth.high, "high class"),
        low: estimate_class(&truth.low, "low class "),
    };
    save(args.require("out")?, &estimated)
}

fn parse_scheme(args: &Args) -> Result<Scheme, CliError> {
    match args.get("scheme").unwrap_or("dtr") {
        "dtr" => Ok(Scheme::Dtr),
        "str" => Ok(Scheme::Str),
        other => Err(CliError::UnknownVariant {
            what: "scheme",
            value: other.to_string(),
        }),
    }
}

/// `reopt`: change-limited reoptimization of an incumbent setting.
fn cmd_reopt(args: &Args) -> Result<(), CliError> {
    let topo: Topology = load(args.require("topo")?)?;
    let demands: DemandSet = load(args.require("traffic")?)?;
    let params = parse_budget(args)?;
    let objective = parse_objective(args)?;
    let scheme = parse_scheme(args)?;
    let incumbent = load_weights(args.require("weights")?, &topo, scheme)?;
    let h: usize = args
        .require("changes")?
        .parse()
        .map_err(|_| CliError::UnknownVariant {
            what: "change budget",
            value: args.get("changes").unwrap_or("").to_string(),
        })?;
    let res = ReoptSearch::new(&topo, &demands, objective, params, scheme, incumbent, h).run();
    println!(
        "reopt ({}, h={h}): cost {} using {} changes",
        scheme.name(),
        res.best_cost,
        res.changes_used
    );
    save(args.require("out")?, &res.weights)
}

/// `robust`: failure-aware optimization over all single duplex-pair cuts.
fn cmd_robust(args: &Args) -> Result<(), CliError> {
    // Only the load-based objective is supported: a post-failure SLA
    // evaluation would need per-scenario delay DAGs (see the robust
    // module docs). Reject rather than silently ignore the flag.
    if let Objective::SlaBased(_) = parse_objective(args)? {
        return Err(CliError::UnknownVariant {
            what: "objective for robust optimization (only \"load\" is supported)",
            value: "sla".to_string(),
        });
    }
    let topo: Topology = load(args.require("topo")?)?;
    let demands: DemandSet = load(args.require("traffic")?)?;
    let params = parse_budget(args)?;
    let scheme = parse_scheme(args)?;
    let beta: f64 = args.get_or("beta", 0.5)?;
    let cap: Option<usize> =
        match args.get("cap") {
            None => None,
            Some(cap) => Some(cap.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                CliError::UnknownVariant {
                    what: "scenario cap (need a positive count)",
                    value: cap.to_string(),
                }
            })?),
        };

    if wants_portfolio(args) {
        let cfg = parse_portfolio_cfg(args)?;
        let mut search = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            params,
            PortfolioMode::Robust {
                combine: ScenarioCombine::Blend { beta },
                cap,
                scheme,
            },
            cfg,
        );
        if let Some(p) = args.get("weights") {
            search = search.with_initial(load_weights(p, &topo, scheme)?);
        }
        let start = std::time::Instant::now();
        let res = search.run();
        print_portfolio(&res, start.elapsed().as_secs_f64());
        let rc = res.robust.expect("robust portfolio reports a robust cost");
        println!(
            "robust portfolio ({}, β={beta}): intact {}, worst {}, combined {}",
            scheme.name(),
            rc.intact,
            rc.worst,
            rc.combined
        );
        return save(args.require("out")?, &res.weights);
    }

    let mut search = RobustSearch::new(
        &topo,
        &demands,
        ScenarioCombine::Blend { beta },
        params,
        scheme,
    );
    if let Some(n) = cap {
        search = search.with_scenario_cap(n);
    }
    if let Some(p) = args.get("weights") {
        search = search.with_initial(load_weights(p, &topo, scheme)?);
    }
    let res = search.run();
    println!(
        "robust ({}, β={beta}, {} scenarios, {} backend): intact {}, worst {}, combined {}",
        scheme.name(),
        res.scenarios_used,
        match params.backend {
            dtr_engine::BackendKind::Full => "full",
            dtr_engine::BackendKind::Incremental => "incremental",
        },
        res.cost.intact,
        res.cost.worst,
        res.cost.combined
    );
    if !res.trace.dropped_scenarios.is_empty() {
        println!(
            "  scenario cap dropped {} pairs from the optimization set: {:?}",
            res.trace.dropped_scenarios.len(),
            res.trace.dropped_scenarios
        );
    }
    save(args.require("out")?, &res.weights)
}

/// Rejects `--only` needles that match no corpus instance. Without this
/// check `--only alpha,zzz` ran `alpha` and silently dropped `zzz` —
/// and a lone typo produced an empty summary with exit 0. Every
/// unmatched needle is now a hard argument error listing the available
/// instance names.
fn ensure_only_matches(
    specs: &[dtr_scenario::ScenarioSpec],
    cfg: &dtr_scenario::SuiteCfg,
) -> Result<(), CliError> {
    let unmatched = cfg.unmatched_needles(specs.iter().map(|s| s.name.as_str()));
    if unmatched.is_empty() {
        return Ok(());
    }
    let available: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    Err(CliError::Args(ArgError::Invalid {
        flag: "--only".to_string(),
        reason: format!(
            "no corpus instance matches {:?} (available: {})",
            unmatched.join(","),
            available.join(", ")
        ),
    }))
}

/// `suite`: the scenario-corpus runner (see `dtr-scenario`).
/// `dtrctl upgrade`: the migration-planning question — given a budget
/// of `N` upgradeable routers, which placement maximizes `R_L`?
fn cmd_upgrade(args: &Args) -> Result<(), CliError> {
    // The instance: either explicit artifact files, or a corpus
    // manifest by name (its topology/traffic/seed, with any declared
    // deployment ignored — the planner explores placements itself).
    let (topo, demands): (Topology, DemandSet) =
        match args.get("instance") {
            Some(name) => {
                let corpus_dir = args.get("corpus").unwrap_or("corpus");
                let specs = dtr_scenario::load_corpus(Path::new(corpus_dir)).map_err(|e| {
                    CliError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
                })?;
                let spec = specs.iter().find(|s| s.name == name).ok_or_else(|| {
                    CliError::UnknownVariant {
                        what: "corpus instance (--instance)",
                        value: name.to_string(),
                    }
                })?;
                let topo = spec.topology.build();
                let demands = spec.traffic.build(&topo);
                (topo, demands)
            }
            None => (
                load(args.require("topo")?)?,
                load(args.require("traffic")?)?,
            ),
        };

    let budget_str = args.require("budget")?;
    let budget: usize = budget_str.parse().map_err(|_| CliError::UnknownVariant {
        what: "upgrade budget (a node count ≥ 1)",
        value: budget_str.to_string(),
    })?;

    // `--search` is the definitive per-budget weight-search preset;
    // `--probe` the cheap greedy/swap scoring preset.
    let preset = |flag: &'static str, default: &str| -> Result<SearchParams, CliError> {
        let name = args.get(flag).unwrap_or(default).to_string();
        SearchParams::preset(&name).ok_or(CliError::UnknownVariant {
            what: "search preset (tiny|quick|experiment|paper)",
            value: name,
        })
    };
    let mut params = preset("search", "quick")?;
    params.seed = args.get_or("seed", params.seed)?;
    params.backend = match args.get("backend").unwrap_or("incremental") {
        "incremental" | "incr" => dtr_engine::BackendKind::Incremental,
        "full" => dtr_engine::BackendKind::Full,
        other => {
            return Err(CliError::UnknownVariant {
                what: "backend",
                value: other.to_string(),
            })
        }
    };
    let mut probe = preset("probe", "tiny")?;
    probe.seed = params.seed;
    probe.backend = params.backend;

    let up = UpgradeParams {
        budget,
        swap_passes: args.get_or("swap-passes", 1usize)?,
        probe,
    };
    let cfg = parse_portfolio_cfg(args)?;

    let outcome = UpgradeSearch::new(&topo, &demands, params, cfg, up).run();

    println!(
        "upgrade: {} nodes, budget {budget}, baseline Φ_L {:.6} ({} probe searches)",
        topo.node_count(),
        outcome.baseline_phi_l,
        outcome.probes
    );
    println!("  budget  Φ_L           R_L      best R_L  placement");
    for s in &outcome.steps {
        println!(
            "  {:>6}  {:<12.6}  {:>7.3}  {:>8.3}  {:?}",
            s.budget, s.phi_l, s.r_l, s.best_r_l, s.upgraded
        );
    }
    let last = outcome.last();
    println!(
        "  best: R_L {:.3} with {} upgraded {:?}",
        last.best_r_l,
        last.best_upgraded.len(),
        last.best_upgraded
    );
    if let Some(out) = args.get("out") {
        save(out, &outcome)?;
    }
    Ok(())
}

fn cmd_suite(args: &Args) -> Result<(), CliError> {
    use dtr_scenario::{load_corpus, run_suite, select, SuiteCfg};

    let corpus_dir = args.get("corpus").unwrap_or("corpus");
    let out_dir = Path::new(args.get("out").unwrap_or("suite-out"));
    let cfg = SuiteCfg {
        smoke: args.get_or("smoke", false)?,
        only: args.get("only").map(str::to_string),
    };
    let specs = load_corpus(Path::new(corpus_dir))
        .map_err(|e| CliError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    let specs = apply_objective_override(args, specs, &cfg)?;
    ensure_only_matches(&specs, &cfg)?;
    if select(&specs, &cfg).is_empty() {
        return Err(CliError::UnknownVariant {
            what: "suite selection (no corpus instance matches --smoke/--only)",
            value: cfg.only.unwrap_or_else(|| "--smoke".to_string()),
        });
    }
    println!(
        "suite: {} manifests in {corpus_dir}{}",
        specs.len(),
        if cfg.smoke { " (smoke mode)" } else { "" }
    );
    let (reports, summary) = run_suite(&specs, &cfg);
    std::fs::create_dir_all(out_dir)?;
    for r in &reports {
        let path = out_dir.join(format!("{}.json", r.name));
        std::fs::write(&path, serde_json::to_string_pretty(r)?)?;
        let robust = match &r.robust {
            Some(rb) => format!(
                ", robust over {} scenarios: R_H^worst {:.2}",
                rb.scenarios, rb.r_h_worst
            ),
            None => String::new(),
        };
        println!(
            "  {:<24} {:>3}n/{:<4}l  R_H {:>7.2}  R_L {:>7.2}  {}{robust}",
            r.name,
            r.nodes,
            r.links,
            r.r_h,
            r.r_l,
            if r.dtr_high_win {
                "dtr-high-ok"
            } else {
                "DTR HIGH LOSS"
            },
        );
    }
    let summary_path = out_dir.join("summary.json");
    std::fs::write(&summary_path, serde_json::to_string_pretty(&summary)?)?;
    println!(
        "suite: {} instances in {:.1}s — geomean R_H {:.2}, R_L {:.2}, dtr high-class wins on all: {} [wrote {}]",
        summary.names.len(),
        summary.elapsed_s,
        summary.geomean_r_h,
        summary.geomean_r_l,
        summary.all_dtr_high_wins,
        summary_path.display()
    );
    Ok(())
}

/// `validate`: corpus-scale sim-vs-analytic differential validation
/// (see `dtr-scenario::validate`).
fn cmd_validate(args: &Args) -> Result<(), CliError> {
    use dtr_scenario::{assert_validation_shape, load_corpus, run_validation, select, ValidateCfg};

    let corpus_dir = args.get("corpus").unwrap_or("corpus");
    let out_dir = Path::new(args.get("out").unwrap_or("validate-out"));
    let cfg = ValidateCfg {
        smoke: args.get_or("smoke", false)?,
        only: args.get("only").map(str::to_string),
        des_packets: args.get_or("des-packets", 0u64)?,
    };
    let specs = load_corpus(Path::new(corpus_dir))
        .map_err(|e| CliError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    let specs = apply_objective_override(args, specs, &cfg.suite_cfg())?;
    ensure_only_matches(&specs, &cfg.suite_cfg())?;
    if select(&specs, &cfg.suite_cfg()).is_empty() {
        return Err(CliError::UnknownVariant {
            what: "validate selection (no corpus instance matches --smoke/--only)",
            value: cfg.only.clone().unwrap_or_else(|| "--smoke".to_string()),
        });
    }
    println!(
        "validate: {} manifests in {corpus_dir}{} (DES budget {} packets/run)",
        specs.len(),
        if cfg.smoke { " (smoke mode)" } else { "" },
        cfg.packets()
    );
    let start = std::time::Instant::now();
    let (reports, summary) = run_validation(&specs, &cfg);
    std::fs::create_dir_all(out_dir)?;
    for r in &reports {
        if cfg.smoke {
            assert_validation_shape(r);
        }
        let path = out_dir.join(format!("{}.json", r.name));
        std::fs::write(&path, serde_json::to_string_pretty(r)?)?;
        for s in r.schemes() {
            let delay_err = [s.high.mean_delay_rel_err, s.low.mean_delay_rel_err]
                .iter()
                .flatten()
                .cloned()
                .fold(0.0f64, f64::max);
            println!(
                "  {:<24} {:<8} fluid {:>8.1e}  des-load {:>6.3}  des-delay {:>6.3}  \
                 iso {}  util {:.2}{}",
                r.name,
                s.scheme,
                s.high.fluid_load_rel_err.max(s.low.fluid_load_rel_err),
                s.high.des_load_rel_err.max(s.low.des_load_rel_err),
                delay_err,
                s.isolation_violations,
                s.max_util,
                if s.saturated_links > 0 {
                    format!(" ({} saturated)", s.saturated_links)
                } else {
                    String::new()
                },
            );
        }
    }
    let summary_path = out_dir.join("validation_summary.json");
    std::fs::write(&summary_path, serde_json::to_string_pretty(&summary)?)?;
    println!(
        "validate: {} instances in {:.1}s — fluid err {:.1e} (tol {:.0e}), des load err {:.3} \
         on {} stable schemes (≤ {}; {:.3} incl. saturated, telemetry), des delay err {:.3} \
         stable (≤ {}) / {:.3} all (≤ {}), isolation violations {} [wrote {}]",
        summary.names.len(),
        start.elapsed().as_secs_f64(),
        summary.max_fluid_load_rel_err,
        summary.envelope.fluid_load_tol,
        summary.max_stable_des_load_rel_err,
        summary.stable_schemes,
        summary.envelope.des_load,
        summary.max_des_load_rel_err,
        summary.max_stable_mean_delay_rel_err,
        summary.envelope.des_delay,
        summary.max_mean_delay_rel_err,
        summary.envelope.des_delay_saturated,
        summary.isolation_violations,
        summary_path.display()
    );
    if !summary.all_ok() {
        let mut failed = Vec::new();
        if !summary.fluid_ok {
            failed.push("fluid-vs-analytic load tolerance");
        }
        if !summary.des_ok {
            failed.push("DES accuracy envelope");
        }
        if !summary.isolation_ok {
            failed.push("priority isolation");
        }
        return Err(CliError::Gate(failed.join(", ")));
    }
    println!("validate: all gates green");
    Ok(())
}

/// `churn`: seed-deterministic churn-trace generation (Poisson link
/// flaps, gravity-drift demand walks, what-if probes; see
/// `dtr-scenario::churn`).
fn cmd_churn(args: &Args) -> Result<(), CliError> {
    use dtr_scenario::{generate_churn, ChurnAction, ChurnCfg};

    let topo: Topology = load(args.require("topo")?)?;
    let base: DemandSet = load(args.require("traffic")?)?;
    let defaults = ChurnCfg::default();
    let cfg = ChurnCfg {
        events: args.get_or("events", 100usize)?,
        seed: args.get_or("seed", 1u64)?,
        flap_rate: args.get_or("flap-rate", defaults.flap_rate)?,
        repair_rate: args.get_or("repair-rate", defaults.repair_rate)?,
        demand_rate: args.get_or("demand-rate", defaults.demand_rate)?,
        whatif_rate: args.get_or("whatif-rate", defaults.whatif_rate)?,
        directed_flap_rate: args.get_or("directed-flap-rate", defaults.directed_flap_rate)?,
        burst_rate: args.get_or("burst-rate", defaults.burst_rate)?,
        burst_max: args.get_or("burst-max", defaults.burst_max)?,
        drift_sigma: args.get_or("drift", defaults.drift_sigma)?,
    };
    let name = args.get("name").unwrap_or("churn");
    let trace = generate_churn(name, &topo, &base, &cfg);
    let count =
        |pred: fn(&ChurnAction) -> bool| trace.events.iter().filter(|e| pred(&e.action)).count();
    println!(
        "churn {name}: {} events on {}n/{}l (seed {}) — {} flaps, {} repairs, {} demand walks, \
         {} what-ifs, {} directed flaps, {} directed repairs",
        trace.events.len(),
        trace.topo.node_count(),
        trace.topo.link_count(),
        cfg.seed,
        count(|a| matches!(a, ChurnAction::LinkDown { .. })),
        count(|a| matches!(a, ChurnAction::LinkUp { .. })),
        count(|a| matches!(a, ChurnAction::Demand { .. })),
        count(|a| matches!(a, ChurnAction::WhatIfLinkDown { .. })),
        count(|a| matches!(a, ChurnAction::DirectedLinkDown { .. })),
        count(|a| matches!(a, ChurnAction::DirectedLinkUp { .. })),
    );
    save(args.require("out")?, &trace)
}

/// Smoke-mode shape asserts over a replay report. Violations are gate
/// failures (exit non-zero), not panics, so CI surfaces them cleanly.
fn assert_replay_shape(r: &dtr_daemon::ReplayReport, events: usize) -> Result<(), CliError> {
    let mut failed = Vec::new();
    if r.events != events {
        failed.push(format!("report covers {} of {events} events", r.events));
    }
    // Every protocol line — trace event or driver-injected flush — lands
    // in exactly one action bucket, so the counts sum to events+flushes.
    let handled =
        r.accepted + r.declined + r.refused + r.no_improvement + r.noop + r.coalesced + r.whatif;
    let lines = events as u64 + r.flushes;
    if handled != lines {
        failed.push(format!(
            "action counts sum to {handled}, not {lines} ({events} events + {} flushes)",
            r.flushes
        ));
    }
    for (label, v) in [
        ("final Φ_H", r.final_cost.phi_h),
        ("final Φ_L", r.final_cost.phi_l),
        ("batch Φ_H", r.batch_cost.phi_h),
        ("batch Φ_L", r.batch_cost.phi_l),
    ] {
        if !v.is_finite() || v < 0.0 {
            failed.push(format!("{label} is {v}"));
        }
    }
    if r.accepted > 0 && r.total_churn_messages == 0 {
        failed.push("accepted reconfigurations with zero churn messages".to_string());
    }
    if !r.batch_ok {
        failed.push(format!(
            "final incumbent is {:.4}× the cold batch solution (bar 1.05)",
            r.batch_ratio
        ));
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Gate(failed.join("; ")))
    }
}

/// The replay artifacts covered by the `--smoke` double-replay
/// byte-identity gate. `timing.json` is deliberately NOT in this list:
/// it records wall-clock latencies (p50/p99, events/sec) that
/// legitimately differ between two runs of the same trace, so gating on
/// it would make the determinism check flaky by construction.
const REPLAY_GATED_FILES: [&str; 2] = ["events.jsonl", "report.json"];

/// Serializes the gated replay artifacts, in [`REPLAY_GATED_FILES`]
/// order. The written files and the determinism gate both come from
/// this one serialization, so what the gate compares is byte-for-byte
/// what lands on disk.
fn replay_gated_artifacts(
    out: &dtr_daemon::ReplayOutcome,
) -> Result<Vec<(&'static str, String)>, CliError> {
    let mut events_jsonl = out.lines.join("\n");
    events_jsonl.push('\n');
    Ok(vec![
        (REPLAY_GATED_FILES[0], events_jsonl),
        (
            REPLAY_GATED_FILES[1],
            serde_json::to_string_pretty(&out.report)?,
        ),
    ])
}

/// The double-replay determinism gate: every gated artifact must be
/// byte-identical between two replays of the same trace. Timing data
/// never enters the comparison (see [`REPLAY_GATED_FILES`]).
fn check_replay_determinism(
    first: &dtr_daemon::ReplayOutcome,
    second: &dtr_daemon::ReplayOutcome,
) -> Result<(), CliError> {
    for ((name, a), (_, b)) in replay_gated_artifacts(first)?
        .into_iter()
        .zip(replay_gated_artifacts(second)?)
    {
        if a != b {
            let detail = if name == "events.jsonl" {
                let at = first
                    .lines
                    .iter()
                    .zip(&second.lines)
                    .position(|(x, y)| x != y)
                    .unwrap_or(first.lines.len());
                format!("replies diverge at event {at}")
            } else {
                "summary reports differ".to_string()
            };
            return Err(CliError::Gate(format!(
                "replay is not deterministic: {name}: {detail}"
            )));
        }
    }
    Ok(())
}

/// `replay`: drive the `dtrd` daemon through a churn trace end to end
/// (see `dtr-daemon`).
fn cmd_replay(args: &Args) -> Result<(), CliError> {
    use dtr_daemon::{replay_trace, DaemonCfg, TimingSummary};
    use dtr_scenario::ChurnTrace;

    let smoke = args.get_or("smoke", false)?;
    let trace_path = match args.get("trace") {
        Some(p) => p,
        // The checked-in CI smoke trace.
        None if smoke => "traces/smoke.json",
        None => return Err(CliError::Args(ArgError::MissingFlag("--trace".into()))),
    };
    let trace: ChurnTrace = load(trace_path)?;
    // A hand-edited or corrupted trace must fail with a diagnostic, not
    // a panic deep inside the daemon.
    let trace_error = |e: dtr_scenario::ChurnTraceError| CliError::Trace {
        path: trace_path.to_string(),
        detail: e.to_string(),
    };
    trace.validate().map_err(trace_error)?;
    let objective = parse_objective(args)?;
    if matches!(objective, Objective::SlaBased(_)) {
        // Masked evaluation is load-only, so an SLA replay of a trace
        // with link-failure events would only collect per-event protocol
        // errors — reject the combination up front instead.
        use dtr_scenario::ChurnAction;
        let link_events = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ChurnAction::LinkDown { .. }
                        | ChurnAction::LinkUp { .. }
                        | ChurnAction::DirectedLinkDown { .. }
                        | ChurnAction::DirectedLinkUp { .. }
                        | ChurnAction::WhatIfLinkDown { .. }
                )
            })
            .count();
        if link_events > 0 {
            return Err(CliError::UnknownVariant {
                what: "objective for a trace with link-failure events \
                       (masked evaluation is load-only; regenerate the \
                       trace with --flap-rate 0 --whatif-rate 0)",
                value: format!("sla ({link_events} link events in {})", trace.name),
            });
        }
    }
    let defaults = DaemonCfg::default();
    let cfg = DaemonCfg {
        // Daemons answer per event, so the budget defaults to the
        // smallest preset rather than `optimize`'s batch default.
        params: parse_budget_with(args, "tiny")?,
        changes_per_event: args.get_or("changes", defaults.changes_per_event)?,
        min_gain_per_churn: args.get_or("min-gain-per-churn", defaults.min_gain_per_churn)?,
        objective,
        coalesce: args.get_or("coalesce", defaults.coalesce)?,
        idle_steps: args.get_or("idle-steps", defaults.idle_steps)?,
    };
    let transport = args.get("transport").unwrap_or("inproc");
    let run_replay = |initial: Option<DualWeights>| -> Result<dtr_daemon::ReplayOutcome, CliError> {
        match transport {
            "inproc" => replay_trace(&trace, cfg, initial).map_err(trace_error),
            "tcp" => Ok(dtr_daemon::replay_trace_tcp(&trace, cfg, initial)?),
            other => Err(CliError::UnknownVariant {
                what: "replay transport (inproc|tcp)",
                value: other.to_string(),
            }),
        }
    };
    let initial: Option<DualWeights> = match args.get("weights") {
        Some(p) => Some(load(p)?),
        None => None,
    };
    println!(
        "replay {}: {} events on {}n/{}l (budget {}, h={}, min-gain-per-churn {}, coalesce {}, \
         idle-steps {}, transport {transport})",
        trace.name,
        trace.events.len(),
        trace.topo.node_count(),
        trace.topo.link_count(),
        args.get("budget").unwrap_or("tiny"),
        cfg.changes_per_event,
        cfg.min_gain_per_churn,
        cfg.coalesce,
        cfg.idle_steps,
    );
    let out = run_replay(initial.clone())?;

    // Artifacts are written before any smoke gate runs so a failing
    // gate still leaves the per-event replies on disk for upload.
    let out_dir = Path::new(args.get("out").unwrap_or("replay-out"));
    std::fs::create_dir_all(out_dir)?;
    for (name, bytes) in replay_gated_artifacts(&out)? {
        std::fs::write(out_dir.join(name), bytes)?;
    }
    let timing = TimingSummary::from_labeled(&out.per_event_s, &out.per_event_kind);
    std::fs::write(
        out_dir.join("timing.json"),
        serde_json::to_string_pretty(&timing)?,
    )?;
    let r = &out.report;
    println!(
        "  actions: {} accepted, {} declined, {} refused, {} no-improvement, {} noop, \
         {} coalesced (+{} flushes), {} what-if",
        r.accepted,
        r.declined,
        r.refused,
        r.no_improvement,
        r.noop,
        r.coalesced,
        r.flushes,
        r.whatif
    );
    println!(
        "  gain {:.4} over {} LSA messages ({:.6}/msg); final (Φ_H {:.4}, Φ_L {:.4}) vs batch \
         (Φ_H {:.4}, Φ_L {:.4}) — ratio {:.4} ({})",
        r.total_gain,
        r.total_churn_messages,
        r.gain_per_churn,
        r.final_cost.phi_h,
        r.final_cost.phi_l,
        r.batch_cost.phi_h,
        r.batch_cost.phi_l,
        r.batch_ratio,
        if r.batch_ok { "ok" } else { "OVER 1.05 BAR" },
    );
    println!(
        "  timing: {:.0} events/sec, p50 {:.2} ms, p99 {:.2} ms [wrote {}]",
        timing.events_per_sec,
        timing.p50_event_s * 1e3,
        timing.p99_event_s * 1e3,
        out_dir.display()
    );
    if smoke {
        // Determinism gate: a second replay must reproduce the gated
        // artifacts byte for byte (timing.json is excluded — wall clock).
        let again = run_replay(initial)?;
        check_replay_determinism(&out, &again)?;
        assert_replay_shape(&out.report, trace.events.len())?;
        println!("replay: smoke gates green (byte-identical double run, shapes, batch ratio)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string)).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("dtrctl-test-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn full_workflow_roundtrip() {
        let topo_p = tmp("topo.json");
        let tm_p = tmp("tm.json");
        let w_p = tmp("w.json");

        run(&args(&format!(
            "topo random --nodes 10 --links 40 --seed 3 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --f 0.3 --k 0.2 --scale 3 --seed 3 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --scheme dtr --budget tiny --out {w_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "evaluate --topo {topo_p} --traffic {tm_p} --weights {w_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "simulate --topo {topo_p} --traffic {tm_p} --weights {w_p} --duration 0.1 --warmup 0.05"
        )))
        .unwrap();
        run(&args(&format!("deploy --topo {topo_p} --weights {w_p}"))).unwrap();
        run(&args(&format!("bound --topo {topo_p} --traffic {tm_p}"))).unwrap();

        for p in [topo_p, tm_p, w_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn upgrade_emits_a_deterministic_monotone_curve() {
        let topo_p = tmp("up-topo.json");
        let tm_p = tmp("up-tm.json");
        let out1 = tmp("up-out1.json");
        let out2 = tmp("up-out2.json");

        run(&args(&format!(
            "topo random --nodes 6 --links 22 --seed 21 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 21 --out {tm_p}"
        )))
        .unwrap();
        let upgrade = |out: &str| {
            run(&args(&format!(
                "upgrade --topo {topo_p} --traffic {tm_p} --budget 2 --search tiny \
                 --probe tiny --seed 9 --portfolio descent --restarts 1 --workers 1 \
                 --out {out}"
            )))
            .unwrap();
        };
        upgrade(&out1);
        upgrade(&out2);

        let b1 = std::fs::read(&out1).unwrap();
        let b2 = std::fs::read(&out2).unwrap();
        assert_eq!(b1, b2, "upgrade reports differ between identical runs");

        let outcome: dtr_core::UpgradeOutcome = load(&out1).unwrap();
        assert_eq!(outcome.steps.len(), 3, "expected budgets 0, 1, 2");
        let curve = outcome.curve();
        for pair in curve.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "best R_L regressed along the curve: {curve:?}"
            );
        }

        for p in [topo_p, tm_p, out1, out2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn estimate_reopt_robust_workflow() {
        let topo_p = tmp("t3.json");
        let tm_p = tmp("m3.json");
        let w_p = tmp("w3.json");
        let est_p = tmp("e3.json");
        let w2_p = tmp("w3b.json");

        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 6 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 6 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --scheme dtr --budget tiny --out {w_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "estimate --topo {topo_p} --traffic {tm_p} --out {est_p}"
        )))
        .unwrap();
        let est: DemandSet = load(&est_p).unwrap();
        assert!(est.total_volume() > 0.0);
        run(&args(&format!(
            "reopt --topo {topo_p} --traffic {est_p} --weights {w_p} --changes 3 \
             --budget tiny --out {w2_p}"
        )))
        .unwrap();
        let a: DualWeights = load(&w_p).unwrap();
        let b: DualWeights = load(&w2_p).unwrap();
        let changed = a.high.hamming(&b.high) + a.low.hamming(&b.low);
        assert!(changed <= 3, "reopt changed {changed} weights");
        run(&args(&format!(
            "robust --topo {topo_p} --traffic {tm_p} --weights {w_p} --budget tiny \
             --beta 0.5 --out {w2_p}"
        )))
        .unwrap();
        for p in [topo_p, tm_p, w_p, est_p, w2_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn optimize_robust_backends_agree() {
        let topo_p = tmp("t4.json");
        let tm_p = tmp("m4.json");
        let wi_p = tmp("w4i.json");
        let wf_p = tmp("w4f.json");

        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 9 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 9 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --robust --topo {topo_p} --traffic {tm_p} --scheme dtr \
             --budget tiny --seed 4 --backend incremental --out {wi_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --robust --topo {topo_p} --traffic {tm_p} --scheme dtr \
             --budget tiny --seed 4 --backend full --out {wf_p}"
        )))
        .unwrap();
        let a: DualWeights = load(&wi_p).unwrap();
        let b: DualWeights = load(&wf_p).unwrap();
        assert_eq!(a, b, "robust incumbents must not depend on the backend");

        for p in [topo_p, tm_p, wi_p, wf_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn portfolio_optimize_is_worker_count_invariant() {
        let topo_p = tmp("t5.json");
        let tm_p = tmp("m5.json");
        let w1_p = tmp("w5a.json");
        let w4_p = tmp("w5b.json");
        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 12 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 12 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --budget tiny --seed 5 \
             --workers 1 --portfolio descent,anneal,ga,memetic --out {w1_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "optimize --topo {topo_p} --traffic {tm_p} --budget tiny --seed 5 \
             --workers 4 --portfolio descent,anneal,ga,memetic --out {w4_p}"
        )))
        .unwrap();
        let a = std::fs::read(&w1_p).unwrap();
        let b = std::fs::read(&w4_p).unwrap();
        assert_eq!(a, b, "worker count changed the saved incumbent");

        // Robust portfolio mode also runs end to end.
        run(&args(&format!(
            "optimize --robust --topo {topo_p} --traffic {tm_p} --budget tiny \
             --seed 5 --workers 2 --restarts 1 --out {w4_p}"
        )))
        .unwrap();
        let w: DualWeights = load(&w4_p).unwrap();
        assert_eq!(w.high.len(), 32);

        for p in [topo_p, tm_p, w1_p, w4_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn portfolio_rejects_bad_specs() {
        let e = run(&args(
            "optimize --topo t.json --traffic m.json --workers 2 --portfolio tabu --out w.json",
        ))
        .unwrap_err();
        assert!(matches!(
            e,
            CliError::UnknownVariant {
                what: "portfolio spec (comma-separated descent|anneal|ga|memetic)",
                ..
            }
        ));
        let e = run(&args(
            "optimize --topo t.json --traffic m.json --workers 2 --scheme ga --out w.json",
        ))
        .unwrap_err();
        assert!(matches!(
            e,
            CliError::UnknownVariant {
                what: "portfolio routing scheme (str|dtr)",
                ..
            }
        ));
        let e = run(&args(
            "optimize --topo t.json --traffic m.json --restarts 0 --out w.json",
        ))
        .unwrap_err();
        assert!(matches!(
            e,
            CliError::UnknownVariant {
                what: "restart count (need ≥ 1)",
                ..
            }
        ));
        for bad in ["-0.5", "nan"] {
            let e = run(&args(&format!(
                "optimize --topo t.json --traffic m.json --workers 2 \
                 --prune-margin {bad} --out w.json"
            )))
            .unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::UnknownVariant {
                        what: "prune margin (need a non-negative fraction)",
                        ..
                    }
                ),
                "prune-margin {bad}: {e:?}"
            );
        }
    }

    #[test]
    fn churn_replay_workflow_and_smoke_gate() {
        let topo_p = tmp("t6.json");
        let tm_p = tmp("m6.json");
        let trace_p = tmp("trace6.json");
        let out_d = tmp("replay6");

        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 6 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --scale 3 --seed 6 --out {tm_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "churn --topo {topo_p} --traffic {tm_p} --events 16 --seed 9 \
             --name wf --out {trace_p}"
        )))
        .unwrap();
        let trace: dtr_scenario::ChurnTrace = load(&trace_p).unwrap();
        assert_eq!(trace.events.len(), 16);

        // --smoke replays twice and gates on byte-identity + shapes.
        run(&args(&format!(
            "replay --trace {trace_p} --smoke --budget tiny --out {out_d}"
        )))
        .unwrap();
        let report: dtr_daemon::ReplayReport = load(&format!("{out_d}/report.json")).unwrap();
        assert_eq!(report.events, 16);
        assert!(report.batch_ok, "ratio {}", report.batch_ratio);
        let events = std::fs::read_to_string(format!("{out_d}/events.jsonl")).unwrap();
        assert_eq!(events.lines().count(), 16);
        let timing: dtr_daemon::TimingSummary = load(&format!("{out_d}/timing.json")).unwrap();
        assert_eq!(timing.events, 16);
        assert!(timing.p99_event_s >= timing.p50_event_s);
        // timing.json carries the per-kind breakdown and it tiles the
        // events exactly.
        assert!(!timing.per_kind.is_empty());
        assert_eq!(timing.per_kind.iter().map(|k| k.events).sum::<usize>(), 16);

        // A second replay of the same trace writes identical deterministic
        // artifacts (reports and reply lines, not timings).
        let out2_d = tmp("replay6b");
        run(&args(&format!(
            "replay --trace {trace_p} --budget tiny --out {out2_d}"
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(format!("{out_d}/events.jsonl")).unwrap(),
            std::fs::read(format!("{out2_d}/events.jsonl")).unwrap()
        );
        assert_eq!(
            std::fs::read(format!("{out_d}/report.json")).unwrap(),
            std::fs::read(format!("{out2_d}/report.json")).unwrap()
        );

        // Without --trace and --smoke the flag is required.
        assert!(matches!(
            run(&args("replay --budget tiny")).unwrap_err(),
            CliError::Args(ArgError::MissingFlag(_))
        ));

        // A bursty trace replayed with coalescing over TCP: the smoke
        // gate (double replay over the same transport) must still hold,
        // events.jsonl must carry trace events + injected flushes, and
        // the report must balance coalesced acknowledgements against
        // flush batches.
        let btrace_p = tmp("trace6b.json");
        let out3_d = tmp("replay6c");
        run(&args(&format!(
            "churn --topo {topo_p} --traffic {tm_p} --events 16 --seed 11 \
             --flap-rate 0 --whatif-rate 0 --burst-rate 2.0 --burst-max 4 \
             --name wf-bursty --out {btrace_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "replay --trace {btrace_p} --smoke --budget tiny --coalesce 8 \
             --idle-steps 1 --transport tcp --out {out3_d}"
        )))
        .unwrap();
        let breport: dtr_daemon::ReplayReport = load(&format!("{out3_d}/report.json")).unwrap();
        assert_eq!(breport.events, 16);
        assert!(breport.coalesced > 0, "bursty trace never coalesced");
        assert!(breport.flushes > 0, "coalescing without flushes");
        let bevents = std::fs::read_to_string(format!("{out3_d}/events.jsonl")).unwrap();
        assert_eq!(
            bevents.lines().count() as u64,
            16 + breport.flushes,
            "one reply line per trace event plus per injected flush"
        );

        // An unknown transport is rejected up front.
        assert!(matches!(
            run(&args(&format!(
                "replay --trace {btrace_p} --transport carrier-pigeon --out {out3_d}"
            )))
            .unwrap_err(),
            CliError::UnknownVariant {
                what: "replay transport (inproc|tcp)",
                ..
            }
        ));

        for p in [topo_p, tm_p, trace_p, btrace_p] {
            let _ = std::fs::remove_file(p);
        }
        for d in [out_d, out2_d, out3_d] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn replay_determinism_gate_excludes_timing() {
        use dtr_daemon::{replay_trace, DaemonCfg};
        let trace_p = format!("{}/../../traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
        let trace: dtr_scenario::ChurnTrace = load(&trace_p).unwrap();
        let cfg = DaemonCfg {
            params: dtr_core::SearchParams::preset("tiny").unwrap(),
            ..Default::default()
        };
        let out = replay_trace(&trace, cfg, None).unwrap();

        // Inject a timing difference an order of magnitude beyond run-to-
        // run noise — and scramble the per-kind labels that feed the
        // timing.json breakdown: the gate must not care, because
        // timing.json is wall-clock and outside REPLAY_GATED_FILES.
        let twin = dtr_daemon::ReplayOutcome {
            lines: out.lines.clone(),
            per_event_s: out.per_event_s.iter().map(|s| s * 100.0 + 1.0).collect(),
            per_event_kind: out.per_event_kind.iter().rev().cloned().collect(),
            report: out.report.clone(),
        };
        check_replay_determinism(&out, &twin).unwrap();

        // A report difference trips the gate and names report.json.
        let mut bad_report = dtr_daemon::ReplayOutcome {
            lines: out.lines.clone(),
            per_event_s: out.per_event_s.clone(),
            per_event_kind: out.per_event_kind.clone(),
            report: out.report.clone(),
        };
        bad_report.report.accepted += 1;
        let err = check_replay_determinism(&out, &bad_report).unwrap_err();
        assert!(
            matches!(&err, CliError::Gate(m) if m.contains("report.json")),
            "{err:?}"
        );

        // A reply difference trips the gate with the diverging event.
        let mut bad_lines = dtr_daemon::ReplayOutcome {
            lines: out.lines.clone(),
            per_event_s: out.per_event_s.clone(),
            per_event_kind: out.per_event_kind.clone(),
            report: out.report.clone(),
        };
        bad_lines.lines[1].push('x');
        let err = check_replay_determinism(&out, &bad_lines).unwrap_err();
        assert!(
            matches!(&err, CliError::Gate(m) if m.contains("events.jsonl") && m.contains("event 1")),
            "{err:?}"
        );
    }

    #[test]
    fn replay_smoke_runs_the_checked_in_trace() {
        // CI runs `dtrctl replay --smoke` from the repo root; tests run
        // with cwd = crates/cli, so point at the same file explicitly.
        let trace_p = format!("{}/../../traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
        let out_d = tmp("replay-smoke");
        run(&args(&format!(
            "replay --trace {trace_p} --smoke --out {out_d}"
        )))
        .unwrap();
        let report: dtr_daemon::ReplayReport = load(&format!("{out_d}/report.json")).unwrap();
        assert_eq!(report.name, "smoke");
        assert!(report.batch_ok);
        let _ = std::fs::remove_dir_all(out_d);
    }

    #[test]
    fn new_topology_kinds_generate() {
        for spec in [
            "topo waxman --nodes 12 --links 48 --seed 2",
            "topo hierarchical --core 4 --chords 1 --edge-per-core 2",
            "topo grid --rows 3 --cols 4",
            "topo grid --rows 3 --cols 4 --torus true",
            "topo fattree --pods 4",
            "topo vl2 --da 4 --di 6",
            "topo jellyfish --switches 12 --degree 3 --seed 2",
            "topo xpander --degree 3 --lifts 2 --seed 2",
        ] {
            run(&args(spec)).unwrap();
        }
    }

    #[test]
    fn new_optimize_schemes_run() {
        let topo_p = tmp("t4.json");
        let tm_p = tmp("m4.json");
        let w_p = tmp("w4.json");
        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 5 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --seed 5 --out {tm_p}"
        )))
        .unwrap();
        for scheme in ["memetic", "anneal-str", "anneal-dtr"] {
            run(&args(&format!(
                "optimize --topo {topo_p} --traffic {tm_p} --scheme {scheme} --budget tiny --out {w_p}"
            )))
            .unwrap();
        }
        let w: DualWeights = load(&w_p).unwrap();
        assert_eq!(w.high.len(), 32);
        for p in [topo_p, tm_p, w_p] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn suite_smoke_runs_a_corpus_directory() {
        let dir = std::path::PathBuf::from(tmp("corpus"));
        let out = std::path::PathBuf::from(tmp("suite-out"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("mini.json"),
            r#"{
                "name": "mini",
                "smoke": true,
                "topology": { "Random": { "nodes": 8, "links": 32, "seed": 3 } },
                "traffic": { "family": "Gravity", "scale": 3.0, "seed": 3 },
                "failures": "AllSingleDuplex",
                "search": { "budget": "tiny", "seed": 5 }
            }"#,
        )
        .unwrap();
        run(&args(&format!(
            "suite --corpus {} --out {} --smoke",
            dir.display(),
            out.display()
        )))
        .unwrap();
        // A filter matching nothing is a clean error, not a panic.
        let e = run(&args(&format!(
            "suite --corpus {} --out {} --only zzz",
            dir.display(),
            out.display()
        )))
        .unwrap_err();
        assert!(matches!(e, CliError::Args(ArgError::Invalid { .. })));
        assert!(out.join("mini.json").is_file());
        let summary = std::fs::read_to_string(out.join("summary.json")).unwrap();
        assert!(summary.contains("\"mini\""), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn suite_rejects_missing_corpus() {
        let e = run(&args("suite --corpus /nonexistent-dtr-corpus")).unwrap_err();
        assert!(matches!(e, CliError::Io(_)));
    }

    /// Writes a two-instance corpus into a fresh temp directory.
    fn tiny_corpus(tag: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(tmp(tag));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, seed) in [("alpha-one", 3), ("beta-two", 4)] {
            std::fs::write(
                dir.join(format!("{name}.json")),
                format!(
                    r#"{{
                        "name": "{name}",
                        "smoke": true,
                        "topology": {{ "Random": {{ "nodes": 8, "links": 32, "seed": {seed} }} }},
                        "traffic": {{ "family": "Gravity", "scale": 3.0, "seed": {seed} }},
                        "search": {{ "budget": "tiny", "seed": {seed} }}
                    }}"#
                ),
            )
            .unwrap();
        }
        dir
    }

    #[test]
    fn suite_only_accepts_a_comma_separated_list() {
        let dir = tiny_corpus("corpus-only");
        let out = std::path::PathBuf::from(tmp("suite-only-out"));
        let _ = std::fs::remove_dir_all(&out);
        // Both names listed → both instances run.
        run(&args(&format!(
            "suite --corpus {} --out {} --only alpha-one,beta-two",
            dir.display(),
            out.display()
        )))
        .unwrap();
        assert!(out.join("alpha-one.json").is_file());
        assert!(out.join("beta-two.json").is_file());
        // One name (with a harmless trailing comma) → one instance.
        let _ = std::fs::remove_dir_all(&out);
        run(&args(&format!(
            "suite --corpus {} --out {} --only beta,",
            dir.display(),
            out.display()
        )))
        .unwrap();
        assert!(!out.join("alpha-one.json").exists());
        assert!(out.join("beta-two.json").is_file());
        // A list matching nothing is a clean error.
        let e = run(&args(&format!(
            "suite --corpus {} --out {} --only zzz,yyy",
            dir.display(),
            out.display()
        )))
        .unwrap_err();
        assert!(matches!(e, CliError::Args(ArgError::Invalid { .. })));
        // A list that matches only partially is a hard error too: the
        // unmatched needle used to be dropped silently. The diagnostic
        // names the bad needle and lists what is available.
        let _ = std::fs::remove_dir_all(&out);
        let e = run(&args(&format!(
            "suite --corpus {} --out {} --only alpha-one,zzz",
            dir.display(),
            out.display()
        )))
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("zzz"), "{msg}");
        assert!(
            msg.contains("alpha-one") && msg.contains("beta-two"),
            "{msg}"
        );
        assert!(
            !out.join("alpha-one.json").exists(),
            "a rejected selection must not run anything"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn validate_smoke_runs_and_writes_summary() {
        let dir = tiny_corpus("corpus-validate");
        let out = std::path::PathBuf::from(tmp("validate-out"));
        let _ = std::fs::remove_dir_all(&out);
        // The validate command reuses the suite's comma-list filter.
        run(&args(&format!(
            "validate --corpus {} --out {} --smoke --only alpha --des-packets 30000",
            dir.display(),
            out.display()
        )))
        .unwrap();
        assert!(out.join("alpha-one.json").is_file());
        assert!(!out.join("beta-two.json").exists());
        let summary = std::fs::read_to_string(out.join("validation_summary.json")).unwrap();
        assert!(summary.contains("\"fluid_ok\": true"), "{summary}");
        assert!(summary.contains("\"isolation_ok\": true"), "{summary}");
        // A filter matching nothing is a clean error, not a panic —
        // even when another needle in the same list does match.
        for only in ["zzz", "alpha,zzz"] {
            let e = run(&args(&format!(
                "validate --corpus {} --out {} --only {only}",
                dir.display(),
                out.display()
            )))
            .unwrap_err();
            assert!(matches!(e, CliError::Args(ArgError::Invalid { .. })));
            assert!(e.to_string().contains("zzz"), "{e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn unknown_command_and_variant_errors() {
        assert!(matches!(
            run(&args("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
        let e = run(&args("topo hypercube")).unwrap_err();
        assert!(matches!(
            e,
            CliError::UnknownVariant {
                what: "topology kind",
                ..
            }
        ));
    }

    #[test]
    fn missing_required_flag_error() {
        let e = run(&args("traffic --f 0.3")).unwrap_err();
        assert!(matches!(e, CliError::Args(ArgError::MissingFlag(_))));
    }

    #[test]
    fn help_runs() {
        run(&args("help")).unwrap();
        assert!(help_text().contains("optimize"));
    }

    #[test]
    fn two_class_commands_reject_k_class_objectives_with_a_pointer() {
        // The parser accepts --classes 3, but optimize/evaluate/reopt
        // read two-class matrices: the error must name the corpus
        // pipelines that do support k-class specs.
        let e = parse_objective(&args("optimize --objective sla --classes 3")).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("suite/validate"), "{msg}");
        assert!(msg.contains("sla:25ms,sla:25ms,load"), "{msg}");
        // Contradictory flag pairs surface the args-layer conflicts.
        assert!(matches!(
            parse_objective(&args("optimize --objective load --sla-bound-ms 10")),
            Err(CliError::Args(ArgError::Conflict { .. }))
        ));
        // The inline-bound spelling reaches the legacy enum unchanged.
        match parse_objective(&args("optimize --objective sla:40")).unwrap() {
            Objective::SlaBased(p) => assert!((p.bound_s - 0.040).abs() < 1e-12),
            other => panic!("expected SlaBased, got {other:?}"),
        }
    }

    #[test]
    fn objective_override_rejects_incompatible_instances_by_name() {
        // vl2-hotspot is not gravity-family, so a 3-class override must
        // fail fast and name the instance.
        let corpus = format!("{}/../../corpus", env!("CARGO_MANIFEST_DIR"));
        let out = tmp("suite-override-err");
        let e = run(&args(&format!(
            "suite --corpus {corpus} --smoke --only vl2 --classes 3 --out {out}"
        )))
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("vl2-hotspot"), "{msg}");
        assert!(msg.contains("--only"), "{msg}");
    }

    #[test]
    fn replay_rejects_doctored_traces_with_the_event_index() {
        use dtr_scenario::{generate_churn, ChurnAction, ChurnCfg};
        let topo = dtr_graph::gen::random_topology(&dtr_graph::gen::RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 6,
        });
        let base = dtr_traffic::DemandSet::generate(
            &topo,
            &dtr_traffic::TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        );
        let mut trace = generate_churn(
            "doctored",
            &topo,
            &base,
            &ChurnCfg {
                events: 8,
                seed: 2,
                ..Default::default()
            },
        );
        // Hand-edit event 5 to name a link the topology does not have —
        // this used to panic inside the daemon; now it is a clean error
        // naming the event.
        trace.events[5].action = ChurnAction::WhatIfLinkDown { link: 9999 };
        let trace_p = tmp("doctored-trace.json");
        std::fs::write(&trace_p, serde_json::to_string(&trace).unwrap()).unwrap();
        let e = run(&args(&format!(
            "replay --trace {trace_p} --budget tiny --out /tmp/replay-doctored"
        )))
        .unwrap_err();
        assert!(matches!(e, CliError::Trace { .. }), "{e:?}");
        let msg = e.to_string();
        assert!(msg.contains("event 5"), "{msg}");
        assert!(msg.contains("9999"), "{msg}");
        let _ = std::fs::remove_file(&trace_p);
    }

    #[test]
    fn replay_rejects_sla_on_traces_with_link_events() {
        // The checked-in smoke trace contains link flaps; an SLA replay
        // would only collect protocol errors, so the combo is rejected
        // with the regeneration hint.
        let trace_p = format!("{}/../../traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
        let e = run(&args(&format!(
            "replay --trace {trace_p} --objective sla --out /tmp/replay-sla-err"
        )))
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("link-failure events"), "{msg}");
        assert!(msg.contains("--flap-rate 0"), "{msg}");
    }

    #[test]
    fn str_and_ga_schemes_produce_replicated_weights() {
        let topo_p = tmp("t2.json");
        let tm_p = tmp("m2.json");
        let w_p = tmp("w2.json");
        run(&args(&format!(
            "topo random --nodes 8 --links 32 --seed 4 --out {topo_p}"
        )))
        .unwrap();
        run(&args(&format!(
            "traffic --topo {topo_p} --seed 4 --out {tm_p}"
        )))
        .unwrap();
        for scheme in ["str", "ga"] {
            run(&args(&format!(
                "optimize --topo {topo_p} --traffic {tm_p} --scheme {scheme} --budget tiny --out {w_p}"
            )))
            .unwrap();
            let w: DualWeights = load(&w_p).unwrap();
            assert_eq!(w.high, w.low, "{scheme} must replicate");
        }
        for p in [topo_p, tm_p, w_p] {
            let _ = std::fs::remove_file(p);
        }
    }
}
