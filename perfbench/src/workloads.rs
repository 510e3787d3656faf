//! The four operator workloads. Each builds its inputs from the seed in
//! `setup` (timed, repeated) and runs its fixed work in `round` (timed),
//! checking every output. A failed check is counted, never fatal.

use crate::churn::{run_session, score_end_state, ChurnInput, Session};
use crate::inputs::{
    checked_in, manifest, mid_size, small_seed, smoke, specs_text, waxman50_triclass,
};
use crate::probes::ProbeTarget;
use crate::stats::{fnv, geomean, median};
use crate::trace::Tracer;
use dtr_core::{
    DtrSearch, Objective, PortfolioParams, SearchParams, StrategyKind, UpgradeParams, UpgradeSearch,
};
use dtr_routing::Evaluator;
use dtr_scenario::{ScenarioSpec, ValidateCfg};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One named result with its unit: a row of the ledger's workload table
/// or a per-layer metric.
pub struct Named {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn named(name: &'static str, value: f64, unit: &'static str) -> Named {
    Named { name, value, unit }
}

/// What one round produced.
#[derive(Default)]
pub struct Round {
    /// Seconds of the fixed work (excluding output checks).
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Hash of every deterministic output.
    pub fingerprint: u64,
    pub report: Vec<Named>,
    /// The churn session, kept for the traced run's daemon probes.
    pub session: Option<Session>,
}

impl Round {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

pub trait Workload {
    /// Builds inputs and engine state from the seed.
    fn setup(&mut self, tr: &Tracer);
    /// Hash of the generated inputs (after `setup`).
    fn inputs_hash(&self) -> u64;
    /// Runs the fixed work once, with every output check.
    fn round(&mut self, tr: &Tracer) -> Round;
    /// Where the small-instance layer probes run.
    fn probe_target(&self) -> ProbeTarget;
    /// The workload's own churn inputs, if it has any.
    fn churn_inputs(&self) -> Option<&[ChurnInput]> {
        None
    }
}

pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "corpus" => Box::new(Corpus {
            seed,
            specs: Vec::new(),
        }),
        "upgrade" => Box::new(Upgrade {
            seed,
            instances: Vec::new(),
        }),
        "churn" => Box::new(Churn {
            seed,
            inputs: Vec::new(),
        }),
        "validate" => Box::new(Validate {
            seed,
            specs: Vec::new(),
        }),
        _ => return None,
    })
}

pub const NAMES: [&str; 4] = ["corpus", "upgrade", "churn", "validate"];

/// Builds each spec's topology and demands and evaluates uniform
/// weights once: the inputs exist and route before any search starts.
fn build_specs(specs: &[ScenarioSpec], tr: &Tracer) {
    for spec in specs {
        let _s = tr.span("setup.instance");
        let topo = tr.time("graph.build", || spec.topology.build());
        if spec.class_count() > 2 {
            let md = tr.time("traffic.build", || {
                spec.traffic.build_multi(&topo, spec.class_count())
            });
            assert!(md.total_volume() > 0.0, "{}: no demand", spec.name);
        } else {
            let d = tr.time("traffic.build", || spec.traffic.build(&topo));
            let w = dtr_core::DualWeights::replicated(dtr_graph::WeightVector::uniform(&topo, 1));
            let eval = tr.time("routing.eval_dual", || {
                Evaluator::new(&topo, &d, Objective::LoadBased).eval_dual(&w)
            });
            assert!(eval.phi_l.is_finite(), "{}: non-finite cost", spec.name);
        }
    }
}

/// The seed of variant `v` of a workload's inputs (variant 0 is the
/// workload seed itself).
fn variant_seed(seed: u64, v: u64) -> u64 {
    if v == 0 {
        seed
    } else {
        small_seed(seed, 0x7a0 + v)
    }
}

fn target_of(spec: &ScenarioSpec) -> ProbeTarget {
    let topo = spec.topology.build();
    let demands = spec.traffic.build(&topo);
    ProbeTarget {
        deployment: spec.deployment_set(topo.node_count()),
        params: spec.search().params(false),
        topo,
        demands,
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

// ---------------------------------------------------------------- corpus

/// The suite path over the 16 mid-size manifests, `waxman50-gravity` at
/// three load classes, and `fattree16-gravity`.
struct Corpus {
    seed: u64,
    specs: Vec<ScenarioSpec>,
}

impl Workload for Corpus {
    fn setup(&mut self, tr: &Tracer) {
        let mut specs: Vec<ScenarioSpec> = mid_size().map(|n| manifest(n, self.seed)).collect();
        specs.push(waxman50_triclass(self.seed));
        specs.push(manifest("fattree16-gravity", self.seed));
        build_specs(&specs, tr);
        self.specs = specs;
    }

    fn inputs_hash(&self) -> u64 {
        fnv(specs_text(&self.specs).as_bytes())
    }

    fn round(&mut self, tr: &Tracer) -> Round {
        let mut r = Round::default();
        let mut reports = Vec::new();
        let t0 = Instant::now();
        for spec in &self.specs {
            r.attempted += 1;
            tr.next_request();
            let res = tr.time("scenario.run_instance", || {
                catch_unwind(AssertUnwindSafe(|| dtr_scenario::run_instance(spec, false)))
            });
            match res {
                Ok(rep) => reports.push(rep),
                Err(e) => r.fail(format!("{}: {}", spec.name, panic_text(&*e))),
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        let (mut evals, mut search_s) = (0usize, 0.0f64);
        let mut fp = String::new();
        for rep in &reports {
            let shape = catch_unwind(AssertUnwindSafe(|| {
                dtr_scenario::suite::assert_report_shape(rep)
            }));
            if let Err(e) = shape {
                r.fail(format!("{}: report shape: {}", rep.name, panic_text(&*e)));
            } else if !rep.dtr_high_win {
                r.fail(format!("{}: DTR lost the high class", rep.name));
            }
            evals += rep.baseline.evaluations + rep.dtr.evaluations;
            search_s += rep.baseline.elapsed_s + rep.dtr.elapsed_s;
            fp.push_str(&format!(
                "{} {} {} {} {} {} {}\n",
                rep.name,
                rep.r_h.to_bits(),
                rep.r_l.to_bits(),
                rep.baseline.evaluations,
                rep.dtr.evaluations,
                rep.dtr.phi_h.to_bits(),
                rep.dtr.phi_l.to_bits()
            ));
        }
        r.fingerprint = fnv(fp.as_bytes());
        let rh: Vec<f64> = reports.iter().map(|x| x.r_h).collect();
        let rl: Vec<f64> = reports.iter().map(|x| x.r_l).collect();
        r.report = vec![
            named("evals_per_s", evals as f64 / search_s.max(1e-9), "1/s"),
            named("r_h_geomean", geomean(&rh), "ratio"),
            named("r_l_geomean", geomean(&rl), "ratio"),
            named("core.evals", evals as f64, "count"),
            named("core.search_s", search_s, "s"),
            named("instances", reports.len() as f64, "count"),
        ];
        r
    }

    fn probe_target(&self) -> ProbeTarget {
        target_of(&manifest("waxman50-gravity", self.seed))
    }
}

// --------------------------------------------------------------- upgrade

/// Router budget of the `upgrade` workload, and how many seeded
/// variants of `isp-partial-upgrade` one round plans.
const UPGRADE_BUDGET: usize = 1;
const UPGRADE_VARIANTS: u64 = 4;

/// `UpgradeSearch::run` on seeded variants of `isp-partial-upgrade`,
/// portfolio on all cores.
struct Upgrade {
    seed: u64,
    instances: Vec<(ScenarioSpec, dtr_graph::Topology, dtr_traffic::DemandSet)>,
}

impl Workload for Upgrade {
    fn setup(&mut self, tr: &Tracer) {
        self.instances = (0..UPGRADE_VARIANTS)
            .map(|v| {
                let spec = manifest("isp-partial-upgrade", variant_seed(self.seed, v));
                build_specs(std::slice::from_ref(&spec), tr);
                let topo = spec.topology.build();
                let demands = spec.traffic.build(&topo);
                (spec, topo, demands)
            })
            .collect();
    }

    fn inputs_hash(&self) -> u64 {
        let specs: Vec<ScenarioSpec> = self.instances.iter().map(|i| i.0.clone()).collect();
        fnv(specs_text(&specs).as_bytes())
    }

    fn round(&mut self, tr: &Tracer) -> Round {
        let mut r = Round::default();
        let mut fp = String::new();
        let (mut best, mut rh, mut rl, mut probes) = (Vec::new(), Vec::new(), Vec::new(), 0);
        let t0 = Instant::now();
        for (spec, topo, demands) in &self.instances {
            // As `dtrctl upgrade --instance isp-partial-upgrade --budget 1`:
            // `quick` definitive searches, `tiny` probes, one swap pass.
            let params = SearchParams::quick().with_seed(spec.search().seed.unwrap_or(1));
            let probe = SearchParams {
                seed: params.seed,
                ..SearchParams::tiny()
            };
            let up = UpgradeParams {
                budget: UPGRADE_BUDGET,
                swap_passes: 1,
                probe,
            };
            let cfg = PortfolioParams {
                strategies: StrategyKind::ALL.to_vec(),
                restarts: 1,
                workers: 0,
                prune_margin: f64::INFINITY,
            };
            tr.next_request();
            let out = tr.time("core.upgrade_run", || {
                catch_unwind(AssertUnwindSafe(|| {
                    UpgradeSearch::new(topo, demands, params, cfg, up).run()
                }))
            });
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    r.attempted += UPGRADE_BUDGET as u64 + 1;
                    r.fail(format!("upgrade: {}", panic_text(&*e)));
                    continue;
                }
            };
            let curve = out.curve();
            r.attempted += out.steps.len() as u64;
            for (i, s) in out.steps.iter().enumerate() {
                if i > 0 && curve[i] < curve[i - 1] {
                    r.fail(format!("budget {}: curve fell", s.budget));
                } else if s.upgraded.len() > s.budget || s.best_upgraded.len() > s.budget {
                    r.fail(format!("budget {}: placement over budget", s.budget));
                }
            }
            fp.push_str(&out.fingerprint());
            let last = out.last();
            best.push(last.best_r_l);
            rh.push(dtr_core::cost_ratio(
                out.baseline_cost.primary,
                last.cost.primary,
            ));
            rl.push(last.r_l);
            probes += out.probes;
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        r.fingerprint = fnv(fp.as_bytes());
        r.report = vec![
            named("best_r_l", geomean(&best), "ratio"),
            named("r_h_geomean", geomean(&rh), "ratio"),
            named("r_l_geomean", geomean(&rl), "ratio"),
            named("probes", probes as f64, "count"),
            named("probes_per_s", probes as f64 / r.wall_s, "1/s"),
        ];
        r
    }

    fn probe_target(&self) -> ProbeTarget {
        target_of(&self.instances[0].0)
    }
}

// ----------------------------------------------------------------- churn

/// Shape of the `churn` workload: `CHURN_NETWORKS` networks of
/// `CHURN_NODES` routers, each replaying its own `CHURN_EVENTS`-event
/// bursty trace while `CHURN_PROBES` probes arrive at `CHURN_PROBE_HZ`.
const CHURN_NETWORKS: u64 = 6;
const CHURN_NODES: usize = 20;
const CHURN_EVENTS: usize = 30;
const CHURN_PROBES: usize = 20;
const CHURN_PROBE_HZ: f64 = 12.0;
/// Demand scale of the churn instances. At 3.0 the daemon's end state
/// misses the `batch_ok` envelope on some seeds (see README.md).
const CHURN_SCALE: f64 = 1.5;

/// `dtrd` over loopback TCP, one network after another: a closed-loop
/// writer replaying a bursty churn trace, and an open-loop probe
/// connection.
struct Churn {
    seed: u64,
    inputs: Vec<ChurnInput>,
}

/// Churn network `net` of the seed: topology, demands, trace, and the
/// daemon's boot incumbent.
pub fn churn_input(seed: u64, net: u64, tr: &Tracer) -> ChurnInput {
    let tag = 10 * (net + 1);
    let topo = tr.time("graph.build", || {
        dtr_graph::gen::random_topology(&dtr_graph::gen::RandomTopologyCfg {
            nodes: CHURN_NODES,
            directed_links: 4 * CHURN_NODES,
            seed: small_seed(seed, tag + 1),
        })
    });
    let base = tr.time("traffic.build", || {
        dtr_traffic::DemandSet::generate(
            &topo,
            &dtr_traffic::TrafficCfg {
                seed: small_seed(seed, tag + 2),
                ..Default::default()
            },
        )
        .scaled(CHURN_SCALE)
    });
    let trace = tr.time("scenario.generate_churn", || {
        dtr_scenario::generate_churn(
            "bursty",
            &topo,
            &base,
            &dtr_scenario::ChurnCfg {
                events: CHURN_EVENTS,
                seed: small_seed(seed, tag + 3),
                flap_rate: 0.05,
                demand_rate: 0.2,
                whatif_rate: 0.05,
                directed_flap_rate: 0.05,
                burst_rate: 2.0,
                burst_max: 8,
                ..Default::default()
            },
        )
    });
    let cfg = dtr_daemon::DaemonCfg {
        params: SearchParams::tiny().with_seed(small_seed(seed, tag + 4)),
        coalesce: 6,
        ..Default::default()
    };
    // The daemon's boot: its cold batch search.
    let boot = tr.time("core.dtr_boot", || {
        DtrSearch::new(&topo, &base, Objective::LoadBased, cfg.params)
            .run()
            .weights
    });
    ChurnInput {
        trace,
        cfg,
        boot,
        probes: CHURN_PROBES,
        probe_hz: CHURN_PROBE_HZ,
        seed: small_seed(seed, tag + 5),
    }
}

impl Workload for Churn {
    fn setup(&mut self, tr: &Tracer) {
        self.inputs = (0..CHURN_NETWORKS)
            .map(|n| churn_input(self.seed, n, tr))
            .collect();
    }

    fn inputs_hash(&self) -> u64 {
        let text: Vec<String> = self
            .inputs
            .iter()
            .map(|i| serde_json::to_string(&i.trace).expect("trace serializes"))
            .collect();
        fnv(text.join("\n").as_bytes())
    }

    fn round(&mut self, tr: &Tracer) -> Round {
        let mut r = Round::default();
        let (mut parts, mut scores) = (Vec::new(), Vec::new());
        for input in &self.inputs {
            match tr.time("churn.session", || run_session(input, tr)) {
                Ok(s) => {
                    scores.push(tr.time("churn.score", || score_end_state(&s.snapshot, input.cfg)));
                    parts.push(s);
                }
                Err(e) => {
                    r.attempted += 1;
                    r.fail(format!("session: {e}"));
                }
            }
        }
        let s = Session::merge(parts);
        r.wall_s = s.wall_s;
        r.attempted += (s.lines + s.probes_sent) as u64;
        let t = &s.tally;
        if t.unparsed > 0 {
            r.failed += t.unparsed;
            r.failures
                .push(format!("{} unparsable replies", t.unparsed));
        }
        if t.errors > 0 {
            r.failed += t.errors;
            r.failures.push(format!("{} Error replies", t.errors));
        }
        if s.probes_ok < s.probes_sent {
            r.failed += (s.probes_sent - s.probes_ok) as u64;
            r.failures
                .push(format!("{} probes unanswered", s.probes_sent - s.probes_ok));
        }
        for f in &s.failures {
            r.fail(f.clone());
        }
        let (mut worst, mut rh, mut rl) = (0.0f64, Vec::new(), Vec::new());
        let (mut evals, mut search_s) = (0usize, 0.0f64);
        for score in scores {
            match score {
                Some((ratio, h, l, e, secs)) => {
                    if ratio > 1.05 {
                        r.fail(format!("batch_ok: batch_ratio {ratio} > 1.05"));
                    }
                    worst = worst.max(ratio);
                    rh.push(h);
                    rl.push(l);
                    evals += e;
                    search_s += secs;
                }
                None => r.fail("end state not scorable".into()),
            }
        }
        r.fingerprint = s.reply_hash ^ fnv(s.snapshot.as_bytes()).rotate_left(1);
        r.report = vec![
            named("events_per_s", s.lines as f64 / s.wall_s, "1/s"),
            named("reopt_p50_ms", s.reopt_p50_ms(), "ms"),
            named("ack_p50_ms", s.ack_p(50.0), "ms"),
            named("ack_p90_ms", s.ack_p(90.0), "ms"),
            named("probe_p50_ms", s.probe_p(50.0), "ms"),
            named("probe_p90_ms", s.probe_p(90.0), "ms"),
            named("gain_per_churn", t.gain_per_churn(), "ratio"),
            named("batch_ratio", worst, "ratio"),
            named("r_h_geomean", geomean(&rh), "ratio"),
            named("r_l_geomean", geomean(&rl), "ratio"),
            named(
                "batch_evals_per_s",
                evals as f64 / search_s.max(1e-9),
                "1/s",
            ),
            named("lines", s.lines as f64, "count"),
            named("acks", s.ack_s.len() as f64, "count"),
            named("reopts", s.reopt_s.len() as f64, "count"),
            named("probes", s.probes_sent as f64, "count"),
            named("probe_late_p50_ms", median(&s.probe_late_s) * 1e3, "ms"),
        ];
        r.session = Some(s);
        r
    }

    fn probe_target(&self) -> ProbeTarget {
        let input = &self.inputs[0];
        ProbeTarget {
            topo: input.trace.topo.clone(),
            demands: input.trace.base.clone(),
            deployment: None,
            params: input.cfg.params,
        }
    }

    fn churn_inputs(&self) -> Option<&[ChurnInput]> {
        Some(&self.inputs)
    }
}

// -------------------------------------------------------------- validate

/// Seeded variants of the smoke set one `validate` round checks.
const VALIDATE_VARIANTS: u64 = 2;

/// `validate_instance` over seeded variants of the smoke-tagged
/// manifests at the default 250k-packet DES budget.
struct Validate {
    seed: u64,
    specs: Vec<ScenarioSpec>,
}

impl Workload for Validate {
    fn setup(&mut self, tr: &Tracer) {
        // Partial-deployment manifests keep their checked-in seeds and run
        // once: with derived seeds the DTR incumbent sometimes traps flow
        // and `validate_instance` panics (README.md, "Findings").
        let mut specs = Vec::new();
        for v in 0..VALIDATE_VARIANTS {
            for name in smoke() {
                let pinned = checked_in(name);
                if pinned.deployment.is_none() {
                    specs.push(manifest(name, variant_seed(self.seed, v)));
                } else if v == 0 {
                    specs.push(pinned);
                }
            }
        }
        build_specs(&specs, tr);
        self.specs = specs;
    }

    fn inputs_hash(&self) -> u64 {
        fnv(specs_text(&self.specs).as_bytes())
    }

    fn round(&mut self, tr: &Tracer) -> Round {
        let cfg = ValidateCfg::default();
        let mut r = Round::default();
        let mut reports = Vec::new();
        let t0 = Instant::now();
        for spec in &self.specs {
            r.attempted += 1;
            tr.next_request();
            let res = tr.time("scenario.validate_instance", || {
                catch_unwind(AssertUnwindSafe(|| {
                    dtr_scenario::validate_instance(spec, &cfg)
                }))
            });
            match res {
                Ok(rep) => reports.push(rep),
                Err(e) => r.fail(format!("{}: {}", spec.name, panic_text(&*e))),
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        for rep in &reports {
            if let Err(e) = catch_unwind(AssertUnwindSafe(|| {
                dtr_scenario::assert_validation_shape(rep)
            })) {
                r.fail(format!(
                    "{}: validation shape: {}",
                    rep.name,
                    panic_text(&*e)
                ));
            }
        }
        let summary = dtr_scenario::summarize(&reports, &cfg);
        if !summary.all_ok() {
            r.fail(format!(
                "summary gates: fluid {} des {} isolation {}",
                summary.fluid_ok, summary.des_ok, summary.isolation_ok
            ));
        }
        let text = serde_json::to_string(&(&reports, &summary)).expect("reports serialize");
        r.fingerprint = fnv(text.as_bytes());
        let packets: u64 = reports
            .iter()
            .flat_map(|x| x.schemes())
            .map(|s| s.des_packets)
            .sum();
        r.report = vec![
            named(
                "max_fluid_load_rel_err",
                summary.max_fluid_load_rel_err,
                "ratio",
            ),
            named(
                "max_des_load_rel_err",
                summary.max_des_load_rel_err,
                "ratio",
            ),
            named(
                "max_mean_delay_rel_err",
                summary.max_mean_delay_rel_err,
                "ratio",
            ),
            named("des_packets", packets as f64, "count"),
            named("instances", reports.len() as f64, "count"),
        ];
        r
    }

    fn probe_target(&self) -> ProbeTarget {
        target_of(&manifest("random12-smoke", self.seed))
    }
}
