//! Layer probes: the traced run's calls into each layer's public
//! functions, one span per call, on inputs taken from the workload.
//!
//! Every traced run executes the whole probe set, so every per-layer
//! metric is measured on every workload: the small-instance probes run
//! on the workload's own probe instance, the `.large` engine probes on
//! `fattree16-gravity`, the k-class probes on the three-class
//! `waxman50-gravity`, and the daemon probes on churn traces: the
//! `churn` workload's own networks and traced sessions, or for the other
//! workloads the first network `churn` would generate from the seed.

use crate::churn::{
    drive_writer, run_session, score_end_state, ChurnInput, LineKind, Session, Tally,
};
use crate::inputs::{manifest, small_seed, waxman50_triclass};
use crate::stats::{derive, mean, median};
use crate::trace::Tracer;
use crate::workloads::{named, Named};
use dtr_core::{DtrSearch, DualWeights, Objective, SearchParams, StrSearch};
use dtr_engine::{
    apply_weight_delta, delta_affects_dag, dynspf::fast_rebranch, BackendKind, BatchEvaluator,
    DynSpfScratch, FlatDag, FlatSpfWorkspace, FlatTopo, KClassBatchEvaluator,
};
use dtr_graph::{LinkId, ShortestPathDag, SpfWorkspace, Topology, WeightVector};
use dtr_routing::{
    cascade_classes, hybrid_low_dag, push_demand_down_dag, DeploymentSet, Evaluator,
};
use dtr_traffic::DemandSet;
use std::hint::black_box;

/// Candidates per engine batch (a search neighbourhood's order).
const BATCH: usize = 8;

/// What the small-instance probes run on.
pub struct ProbeTarget {
    pub topo: Topology,
    pub demands: DemandSet,
    pub deployment: Option<DeploymentSet>,
    pub params: SearchParams,
}

/// Small deterministic generator for probe inputs.
struct Rng(u64, u64);

impl Rng {
    fn new(seed: u64, tag: u64) -> Self {
        Rng(seed, tag << 20)
    }
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        (derive(self.0, self.1) % n as u64) as usize
    }
}

/// `BATCH` single-weight changes of `base`.
fn single_changes(base: &WeightVector, rng: &mut Rng) -> Vec<WeightVector> {
    (0..BATCH)
        .map(|_| {
            let mut w = base.clone();
            let l = rng.below(w.len());
            let old = w.get(LinkId(l as u32));
            let mut new = 1 + rng.below(20) as u32;
            if new == old {
                new = if old < 20 { old + 1 } else { old - 1 };
            }
            w.set(LinkId(l as u32), new);
            w
        })
        .collect()
}

/// Seeded single-change batches through `eval_high_batch` /
/// `eval_low_batch`. Every fourth batch repeats an earlier one, as a
/// search revisiting a neighbour does, so the caches see hits.
fn engine_steps(
    tr: &Tracer,
    topo: &Topology,
    demands: &DemandSet,
    base: &DualWeights,
    label: &str,
    batches: usize,
    rng: &mut Rng,
) -> (u64, u64) {
    let mut be = tr.time(&format!("engine.setup.{label}"), || {
        let mut be = BatchEvaluator::new(
            topo,
            demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        be.rebase_high(&base.high);
        be.rebase_low(&base.low);
        black_box(be.eval_high(&base.high));
        black_box(be.eval_low(&base.low));
        be
    });
    let mut seen_high: Vec<Vec<WeightVector>> = Vec::new();
    let mut seen_low: Vec<Vec<WeightVector>> = Vec::new();
    for b in 0..batches {
        let repeat = b % 4 == 3;
        let ch = if repeat {
            seen_high[b / 4 % seen_high.len()].clone()
        } else {
            single_changes(&base.high, rng)
        };
        tr.time(&format!("engine.high_batch.{label}"), || {
            black_box(be.eval_high_batch(&ch))
        });
        let cl = if repeat {
            seen_low[b / 4 % seen_low.len()].clone()
        } else {
            single_changes(&base.low, rng)
        };
        tr.time(&format!("engine.low_batch.{label}"), || {
            black_box(be.eval_low_batch(&cl))
        });
        if !repeat {
            seen_high.push(ch);
            seen_low.push(cl);
        }
    }
    be.cache_stats()
}

/// Failure sweep and deployed low evaluation on the small instance.
fn engine_sweep_and_deployed(
    tr: &Tracer,
    t: &ProbeTarget,
    base: &DualWeights,
    rng: &mut Rng,
) -> usize {
    let mut be = BatchEvaluator::new(
        &t.topo,
        &t.demands,
        Objective::LoadBased,
        BackendKind::Incremental,
    );
    be.rebase_high(&base.high);
    be.rebase_low(&base.low);
    let mut scenarios = dtr_routing::survivable_duplex_failures(&t.topo);
    scenarios.truncate(12);
    for _ in 0..4 {
        tr.time("engine.sweep", || {
            black_box(be.sweep_high(&base.high, &scenarios))
        });
    }
    let dep = deployment_of(t);
    be.set_deployment(Some(dep))
        .expect("load objective admits a deployment");
    for _ in 0..6 {
        let cands = single_changes(&base.low, rng);
        tr.time("engine.deployed_low_batch", || {
            black_box(be.eval_deployed_low_batch(&base.high, &cands))
        });
    }
    scenarios.len()
}

/// The target's partial deployment, or every other router upgraded.
fn deployment_of(t: &ProbeTarget) -> DeploymentSet {
    t.deployment.clone().unwrap_or_else(|| {
        let n = t.topo.node_count();
        let up: Vec<u32> = (0..n as u32).filter(|v| v % 2 == 0).collect();
        DeploymentSet::from_upgraded(n, &up)
    })
}

/// Per-destination flat SPF, then the affectedness filter and the DAG
/// repairs for seeded single-link deltas.
fn dynamic_spf(tr: &Tracer, topo: &Topology, w: &WeightVector, rng: &mut Rng) {
    let ft = FlatTopo::new(topo);
    let mut ws = FlatSpfWorkspace::new();
    let mut dags: Vec<FlatDag> = Vec::with_capacity(topo.node_count());
    for t in 0..topo.node_count() as u32 {
        let mut dag = FlatDag::empty(&ft);
        tr.time("graph.spf", || {
            dag.compute_into(&ft, w.as_slice(), t, None, &mut ws)
        });
        dags.push(dag);
    }
    let old_w: Vec<u32> = w.as_slice().to_vec();
    let mut scratch = DynSpfScratch::new();
    let mut branches = Vec::new();
    let (mut scanned, mut affected, mut hits, mut full) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..16 {
        let l = rng.below(old_w.len()) as u32;
        let old = old_w[l as usize];
        let new = if rng.below(2) == 0 {
            old + 1 + rng.below(5) as u32
        } else {
            1
        };
        if new == old {
            continue;
        }
        let mut new_w = old_w.clone();
        new_w[l as usize] = new;
        let hit: Vec<bool> = tr.time("engine.filter", || {
            dags.iter()
                .map(|d| delta_affects_dag(&ft, d, l, old, new))
                .collect()
        });
        scanned += dags.len() as u64;
        for (dag, _) in dags.iter_mut().zip(&hit).filter(|(_, h)| **h) {
            affected += 1;
            let rebranched = tr.time("engine.repair", || {
                fast_rebranch(&ft, dag, &new_w, l, old, new, &mut branches).is_some() || {
                    apply_weight_delta(&ft, dag, &new_w, l, old, new, &mut scratch);
                    false
                }
            });
            if rebranched {
                hits += 1;
            } else {
                full += 1;
                // Undo the repair so the next delta starts from the base.
                apply_weight_delta(&ft, dag, &old_w, l, new, old, &mut scratch);
            }
        }
    }
    tr.count("engine.dests_scanned", scanned as f64);
    tr.count("engine.dests_affected", affected as f64);
    tr.count("engine.rebranch_hits", hits as f64);
    tr.count("engine.full_repairs", full as f64);
}

/// Evaluator, load push, hybrid DAG and Φ fold on the small instance.
fn routing_and_cost(tr: &Tracer, t: &ProbeTarget, w: &DualWeights) {
    let mut ev = Evaluator::new(&t.topo, &t.demands, Objective::LoadBased);
    let mut total = Vec::new();
    for _ in 0..8 {
        total = tr
            .time("routing.eval_dual", || ev.eval_dual(w))
            .total_loads();
    }
    let caps: Vec<f64> = t.topo.links().map(|(_, l)| l.capacity).collect();
    for _ in 0..32 {
        tr.time("cost.fold", || {
            black_box(
                total
                    .iter()
                    .zip(&caps)
                    .map(|(&x, &c)| dtr_cost::phi(x, c))
                    .sum::<f64>(),
            )
        });
    }
    let dep = deployment_of(t);
    let mut sws = SpfWorkspace::new();
    let mut flow = Vec::new();
    let mut out = vec![0.0; t.topo.link_count()];
    for v in t.topo.nodes() {
        if t.demands.low.demands_to(v.index()).next().is_none() {
            continue;
        }
        let dl = ShortestPathDag::compute_with(&t.topo, &w.low, v, None, &mut sws);
        let dh = ShortestPathDag::compute_with(&t.topo, &w.high, v, None, &mut sws);
        tr.time("routing.push", || {
            push_demand_down_dag(&t.topo, &dl, &t.demands.low, v, &mut flow, &mut out)
        });
        tr.time("routing.hybrid_dag", || {
            black_box(hybrid_low_dag(&t.topo, &dep, &dh, &dl))
        });
    }
}

/// k-class probes on the three-class `waxman50-gravity`.
fn kclass(tr: &Tracer, seed: u64, rng: &mut Rng) {
    let spec = waxman50_triclass(seed);
    let topo = spec.topology.build();
    let md = spec.traffic.build_multi(&topo, 3);
    let objective = spec.objective();
    let base = vec![WeightVector::uniform(&topo, 10); 3];
    let mut mev = dtr_multi::MultiEvaluator::with_spec(&topo, &md, &objective)
        .expect("three-class load objective");
    for _ in 0..BATCH {
        let mut ws = base.clone();
        ws[0] = single_changes(&base[0], rng).swap_remove(0);
        tr.time("multi.eval", || black_box(mev.eval(&ws)));
    }
    let loads: Vec<Vec<f64>> = (0..3).map(|c| mev.class_loads(c, &base[c])).collect();
    for _ in 0..16 {
        tr.time("routing.cascade", || {
            black_box(cascade_classes(&topo, &loads))
        });
    }
    let mut kev = KClassBatchEvaluator::new(
        &topo,
        md.classes.iter().collect(),
        &objective,
        BackendKind::Incremental,
    )
    .expect("three-class load objective");
    black_box(kev.eval(&base));
    for b in 0..6 {
        let class = b % 3;
        let cands = single_changes(&base[class], rng);
        tr.time("engine.kclass_batch", || {
            black_box(kev.eval_class_batch(class, &cands, &base))
        });
    }
    let params = SearchParams::tiny().with_seed(small_seed(seed, 77));
    tr.time("multi.search", || {
        black_box(
            dtr_multi::MultiSearch::with_spec(&topo, &md, &objective, params)
                .expect("three-class load objective")
                .run(),
        )
    });
}

/// The daemon probes: in-process `Daemon::handle` over the trace (with
/// a view clone after each line, as the TCP transport publishes one,
/// and a read-only probe), plus the TCP session numbers.
fn daemon(tr: &Tracer, inputs: &[ChurnInput], session: &Session) -> Vec<Named> {
    let status = dtr_daemon::Request::Status;
    let mut inproc_ack = Vec::new();
    for input in inputs {
        let mut d = dtr_daemon::Daemon::new(
            input.trace.topo.clone(),
            input.trace.base.clone(),
            Some(input.boot.clone()),
            input.cfg,
        );
        let mut tally = Tally::default();
        let mut send = |line: &str| {
            let r = d.handle_line(line);
            tr.time("daemon.view_clone", || black_box(d.clone()));
            tr.time("daemon.handle.probe", || {
                black_box(d.handle_readonly(&status))
            });
            r
        };
        let (_, lat, kinds, _) =
            drive_writer(&input.trace, &mut send, &mut tally, tr, "daemon.handle");
        inproc_ack.extend(
            lat.iter()
                .zip(&kinds)
                .filter(|(_, k)| **k == LineKind::Ack)
                .map(|(s, _)| *s),
        );
    }
    let late_ms: Vec<f64> = session.probe_late_s.iter().map(|s| s * 1e3).collect();
    let m = named;
    vec![
        m(
            "daemon.transport_ms",
            median(&session.ack_s) * 1e3 - median(&inproc_ack) * 1e3,
            "ms",
        ),
        m("daemon.accept_ratio", session.tally.accept_ratio(), "ratio"),
        m(
            "daemon.batch_mean",
            mean(&session.tally.batch_sizes),
            "events",
        ),
        m("daemon.ack_p50_ms", session.ack_p(50.0), "ms"),
        m("daemon.ack_p90_ms", session.ack_p(90.0), "ms"),
        m("daemon.probe_p50_ms", session.probe_p(50.0), "ms"),
        m("daemon.probe_p90_ms", session.probe_p(90.0), "ms"),
        m("daemon.reopt_p50_ms", session.reopt_p50_ms(), "ms"),
        m(
            "daemon.events_per_s",
            session.lines as f64 / session.wall_s,
            "1/s",
        ),
        m(
            "daemon.gain_per_churn",
            session.tally.gain_per_churn(),
            "ratio",
        ),
        m(
            "loadgen.late_p90_ms",
            crate::stats::percentile(&late_ms, 90.0),
            "ms",
        ),
    ]
}

/// Runs every probe and returns the per-layer metrics. `churn` holds
/// the churn inputs and, for the `churn` workload, its traced session;
/// without one, a session on the first input runs here.
pub fn run(
    tr: &Tracer,
    t: &ProbeTarget,
    seed: u64,
    churn: (&[ChurnInput], Option<&Session>),
) -> Vec<Named> {
    let mut rng = Rng::new(seed, 1);
    let _probe = tr.span("probes");

    // traffic: demand generation for the small and large instances.
    let large_spec = manifest("fattree16-gravity", seed);
    let large_topo = large_spec.topology.build();
    let large_demands = tr.time("traffic.demand", || large_spec.traffic.build(&large_topo));
    let small_spec = manifest("waxman50-gravity", seed);
    let small_topo = small_spec.topology.build();
    for _ in 0..4 {
        tr.time("traffic.demand", || {
            black_box(small_spec.traffic.build(&small_topo))
        });
    }

    // core: one STR and one (warm-started) DTR search on the target.
    let str_res = tr.time("core.str", || {
        StrSearch::new(&t.topo, &t.demands, Objective::LoadBased, t.params).run()
    });
    let str_w = DualWeights::replicated(str_res.weights.clone());
    let dtr_res = tr.time("core.dtr", || {
        let mut s = DtrSearch::new(&t.topo, &t.demands, Objective::LoadBased, t.params)
            .with_initial(str_w.clone());
        if let Some(dep) = &t.deployment {
            s = s.with_deployment(dep.clone());
        }
        s.run()
    });
    let evals = (str_res.trace.evaluations + dtr_res.trace.evaluations) as f64;

    // engine: single-change batches, small and large.
    let (h1, m1) = engine_steps(
        tr,
        &t.topo,
        &t.demands,
        &dtr_res.weights,
        "small",
        24,
        &mut rng,
    );
    let large_base = DualWeights::replicated(WeightVector::uniform(&large_topo, 10));
    let (h2, m2) = engine_steps(
        tr,
        &large_topo,
        &large_demands,
        &large_base,
        "large",
        8,
        &mut rng,
    );
    tr.count("engine.cache_hits", (h1 + h2) as f64);
    tr.count("engine.cache_misses", (m1 + m2) as f64);
    let scenarios = engine_sweep_and_deployed(tr, t, &dtr_res.weights, &mut rng);
    dynamic_spf(tr, &t.topo, &dtr_res.weights.high, &mut rng);

    routing_and_cost(tr, t, &dtr_res.weights);
    kclass(tr, seed, &mut rng);

    // scenario: one suite instance with a failure policy.
    let robust_spec = manifest("random12-smoke", seed);
    let run = tr.time("scenario.run_instance", || {
        dtr_scenario::run_instance_full(&robust_spec, false)
    });
    let searches_s = run.report.baseline.elapsed_s + run.report.dtr.elapsed_s;

    // sim: fluid and DES on the STR incumbent, which forwards both classes
    // alike and so can never trap flow under a partial deployment.
    let fwd = dtr_sim::ForwardingState::new(&t.topo, &str_w);
    let mats = [&t.demands.high, &t.demands.low];
    for _ in 0..4 {
        tr.time("sim.fluid", || {
            black_box(dtr_sim::FluidSim::new().run_classes_on(&t.topo, &mats, &fwd))
        });
    }
    let des = tr.time("sim.des", || {
        dtr_sim::DesBackend::budgeted(&t.demands, 60_000, small_seed(seed, 93))
            .run_classes_on(&t.topo, &mats, &fwd)
            .into_two_class()
    });

    // mtr: pricing the STR → DTR migration.
    for _ in 0..3 {
        tr.time("mtr.deployment_cost", || {
            black_box(dtr_mtr::deployment_cost(&t.topo, &str_w, &dtr_res.weights))
        });
    }

    // daemon: the workload's own sessions, or one churn network's.
    let own;
    let (inputs, session) = match churn {
        (inputs, Some(session)) => (inputs, session),
        (inputs, None) => {
            let inputs = &inputs[..1];
            own = tr
                .time("churn.session", || run_session(&inputs[0], tr))
                .expect("loopback session");
            (inputs, &own)
        }
    };
    let mut out = daemon(tr, inputs, session);
    let worst = session
        .snapshot
        .lines()
        .zip(inputs)
        .filter_map(|(snap, input)| score_end_state(snap, input.cfg))
        .map(|r| r.0)
        .fold(0.0, f64::max);
    out.push(named("daemon.batch_ratio", worst, "ratio"));
    drop(_probe);

    // Fold spans and counts into the per-layer table.
    let sum = tr.summary();
    let med = |name: &str| sum.get(name).map_or(0.0, |s| median(&s.durations_s));
    let counts = tr.counts();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let per = BATCH as f64;
    let step_small = (med("engine.high_batch.small") + med("engine.low_batch.small")) / (2.0 * per);
    let core_s = med("core.str") + med("core.dtr");
    let m = named;
    let (hits, misses) = (count("engine.cache_hits"), count("engine.cache_misses"));
    out.extend([
        m("graph.spf_us", med("graph.spf") * 1e6, "us"),
        m("traffic.demand_ms", med("traffic.demand") * 1e3, "ms"),
        m("cost.fold_us", med("cost.fold") * 1e6, "us"),
        m("routing.eval_dual_us", med("routing.eval_dual") * 1e6, "us"),
        m("routing.push_us", med("routing.push") * 1e6, "us"),
        m(
            "routing.hybrid_dag_us",
            med("routing.hybrid_dag") * 1e6,
            "us",
        ),
        m("routing.cascade_us", med("routing.cascade") * 1e6, "us"),
        m("engine.setup_ms", med("engine.setup.large") * 1e3, "ms"),
        m(
            "engine.high_step_us.small",
            med("engine.high_batch.small") / per * 1e6,
            "us",
        ),
        m(
            "engine.high_step_us.large",
            med("engine.high_batch.large") / per * 1e6,
            "us",
        ),
        m(
            "engine.low_step_us.small",
            med("engine.low_batch.small") / per * 1e6,
            "us",
        ),
        m(
            "engine.low_step_us.large",
            med("engine.low_batch.large") / per * 1e6,
            "us",
        ),
        m(
            "engine.sweep_us",
            med("engine.sweep") / scenarios.max(1) as f64 * 1e6,
            "us",
        ),
        m(
            "engine.deployed_low_us",
            med("engine.deployed_low_batch") / per * 1e6,
            "us",
        ),
        m(
            "engine.kclass_step_us",
            med("engine.kclass_batch") / per * 1e6,
            "us",
        ),
        m(
            "engine.filter_us",
            med("engine.filter") / t.topo.node_count() as f64 * 1e6,
            "us",
        ),
        m("engine.repair_us", med("engine.repair") * 1e6, "us"),
        m(
            "engine.dests_scanned",
            count("engine.dests_scanned"),
            "count",
        ),
        m(
            "engine.dests_affected",
            count("engine.dests_affected"),
            "count",
        ),
        m(
            "engine.affected_ratio",
            count("engine.dests_affected") / count("engine.dests_scanned").max(1.0),
            "ratio",
        ),
        m(
            "engine.rebranch_hits",
            count("engine.rebranch_hits"),
            "count",
        ),
        m("engine.full_repairs", count("engine.full_repairs"), "count"),
        m("engine.cache_hits", hits, "count"),
        m("engine.cache_misses", misses, "count"),
        m(
            "engine.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        m("core.str_s", med("core.str"), "s"),
        m("core.dtr_s", med("core.dtr"), "s"),
        m("core.evals", evals, "count"),
        m("core.evals_per_s", evals / core_s, "1/s"),
        m(
            "core.overhead_share",
            1.0 - evals * step_small / core_s,
            "ratio",
        ),
        m("multi.eval_us", med("multi.eval") * 1e6, "us"),
        m("multi.search_s", med("multi.search"), "s"),
        m(
            "scenario.robust_s",
            med("scenario.run_instance") - searches_s,
            "s",
        ),
        m("sim.fluid_ms", med("sim.fluid") * 1e3, "ms"),
        m("sim.des_s", med("sim.des"), "s"),
        m(
            "sim.des_pkts_per_s",
            des.packets as f64 / med("sim.des"),
            "1/s",
        ),
        m(
            "mtr.deployment_cost_us",
            med("mtr.deployment_cost") * 1e6,
            "us",
        ),
        m("daemon.handle_ms.ack", med("daemon.handle.ack") * 1e3, "ms"),
        m(
            "daemon.handle_ms.reopt",
            med("daemon.handle.reopt") * 1e3,
            "ms",
        ),
        m(
            "daemon.handle_ms.probe",
            med("daemon.handle.probe") * 1e3,
            "ms",
        ),
        m("daemon.view_clone_us", med("daemon.view_clone") * 1e6, "us"),
    ]);
    out
}
