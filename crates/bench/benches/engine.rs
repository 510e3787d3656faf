//! Evaluation-engine benchmark: `Full` vs `Incremental` backends on the
//! weight-search hot path (single-weight-change neighbor batches), the
//! three-class SLA stepping path through `KClassBatchEvaluator`, plus
//! an end-to-end seeded `DtrSearch` comparison.
//!
//! Backends are driven directly (not through `BatchEvaluator`) so the
//! LRU cache cannot absorb the repeated iterations the harness runs —
//! the numbers below are pure backend cost per candidate.
//!
//! Emits `BENCH_engine.json` at the repository root so the perf
//! trajectory is tracked from this PR on. Schema:
//! `{ "benches": [ { id, mean_s } … ],
//!    "speedups": [ { topology, *_s_per_candidate, speedup } … ],
//!    "search": { full_s, incremental_s, speedup, same_incumbent } }`

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_core::{DtrSearch, Objective, SearchParams};
use dtr_cost::{ObjectiveSpec, SlaParams};
use dtr_engine::{make_backend, BackendKind, KClassBatchEvaluator};
use dtr_graph::datacenter::{fat_tree_topology, FatTreeCfg};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::rocketfuel::{rocketfuel_topology, RocketfuelCfg};
use dtr_graph::{waxman_topology, LinkId, Topology, WaxmanCfg, WeightVector};
use dtr_traffic::{DemandSet, MultiDemand, MultiTrafficCfg, TrafficCfg};
use std::time::Instant;

/// Paper-scale and larger generated topologies (the acceptance gate is
/// the ≥ 50-node instance), plus the large regime the flat-memory
/// engine targets. The `bool` is whether the `Full` backend is timed
/// too: at 1200 nodes a full re-evaluation costs |V| Dijkstras per
/// candidate, which would dominate the CI bench job for a number nobody
/// gates on — the large rows exist to pin the *incremental* cost.
fn topologies() -> Vec<(&'static str, Topology, bool)> {
    vec![
        (
            "random_50n_200l",
            random_topology(&RandomTopologyCfg {
                nodes: 50,
                directed_links: 200,
                seed: 7,
            }),
            true,
        ),
        (
            "waxman_100n_400l",
            waxman_topology(&WaxmanCfg {
                nodes: 100,
                directed_links: 400,
                beta: 0.6,
                seed: 7,
            }),
            true,
        ),
        (
            "fattree_320n_4096l",
            fat_tree_topology(&FatTreeCfg { pods: 16 }),
            true,
        ),
        (
            "rocketfuel_1200n_4600l",
            rocketfuel_topology(&RocketfuelCfg::default()),
            false,
        ),
    ]
}

/// Single-weight-change neighbor models, matching the two searches:
/// `step` nudges one link by ±1..=3 (Algorithm 2's `max_step`, the
/// DTR `FindH`/`FindL` shape per changed link), `redraw` re-assigns one
/// link a uniform weight in 1..=30 (the `StrSearch` move). Redraws make
/// larger jumps and affect more destinations, so they are the engine's
/// worst case.
fn neighbors(topo: &Topology, base: &WeightVector, count: usize, model: &str) -> Vec<WeightVector> {
    neighbors_seeded(topo, base, count, model, 0)
}

/// Like [`neighbors`] but salted, for benches that must produce a fresh
/// candidate stream on every harness iteration (to defeat LRU caches).
fn neighbors_seeded(
    topo: &Topology,
    base: &WeightVector,
    count: usize,
    model: &str,
    salt: u64,
) -> Vec<WeightVector> {
    let mut out = Vec::with_capacity(count);
    let mut lcg: u64 = 0x2545_f491_4f6c_dd1d ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..count {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lid = LinkId(((lcg >> 33) % topo.link_count() as u64) as u32);
        let mut cand = base.clone();
        match model {
            "step" => {
                let step = 1 + ((lcg >> 17) % 3) as i64;
                let sign = if (lcg >> 5) & 1 == 0 { 1 } else { -1 };
                cand.nudge(lid, sign * step, 1, 30);
                if cand.get(lid) == base.get(lid) {
                    // Clamped into a no-op at a weight bound; flip it.
                    cand.nudge(lid, -sign * step, 1, 30);
                }
            }
            _ => {
                let w = 1 + ((lcg >> 17) % 30) as u32;
                // Guarantee a real delta.
                cand.set(lid, if w == base.get(lid) { (w % 30) + 1 } else { w });
            }
        }
        out.push(cand);
    }
    out
}

#[derive(Clone)]
struct Speedup {
    topology: String,
    model: String,
    full_s: f64,
    incremental_s: f64,
}

fn bench_backends(c: &mut Criterion, speedups: &mut Vec<Speedup>) {
    for (name, topo, bench_full) in topologies() {
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 7,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let base = WeightVector::delay_proportional(&topo, 30);
        for model in ["step", "redraw"] {
            let cands = neighbors(&topo, &base, 32, model);
            let per_iter_cands = cands.len() as f64;

            let mut pair = [0.0f64; 2];
            for (slot, kind) in [(0usize, BackendKind::Full), (1, BackendKind::Incremental)] {
                if kind == BackendKind::Full && !bench_full {
                    continue;
                }
                let mut backend =
                    make_backend(kind, &topo, vec![&demands.high, &demands.low], base.clone());
                let label = match kind {
                    BackendKind::Full => "full",
                    BackendKind::Incremental => "incremental",
                };
                c.bench_function(format!("engine/{label}/{model}/{name}"), |b| {
                    b.iter(|| backend.eval_batch(&cands, false))
                });
                let m = c
                    .measurements
                    .last()
                    .expect("bench_function records a measurement");
                pair[slot] = m.mean_s / per_iter_cands;
            }
            if bench_full {
                speedups.push(Speedup {
                    topology: name.to_string(),
                    model: model.to_string(),
                    full_s: pair[0],
                    incremental_s: pair[1],
                });
            }
        }
    }
}

/// k-class stepping cost: a three-class SLA spec (two delay-bounded
/// tiers over a load base, the `--objective sla --classes 3` shape) on
/// the 50-node instance, batch-evaluating step candidates for the
/// middle class with the other classes held fixed — the
/// `KClassBatchEvaluator` search hot path. Candidates are regenerated
/// from an advancing LCG on every iteration, as a search would draw
/// them; the fixed classes stay cached, which is exactly what the
/// stepping pattern amortizes.
fn bench_kclass(c: &mut Criterion) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 50,
        directed_links: 200,
        seed: 7,
    });
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.2, 0.15],
            densities: vec![0.35, 0.3],
            seed: 7,
        },
    )
    .scaled(3.0);
    let matrices = demands.classes.iter().collect::<Vec<_>>();
    let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
    let base = WeightVector::delay_proportional(&topo, 30);
    let weights = vec![base.clone(); 3];
    for kind in [BackendKind::Full, BackendKind::Incremental] {
        let mut kc = KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, kind)
            .expect("three matrices match the three-class spec");
        let label = match kind {
            BackendKind::Full => "full",
            BackendKind::Incremental => "incremental",
        };
        let mut round: u64 = 0;
        c.bench_function(
            format!("engine/{label}/kclass3_step/random_50n_200l"),
            |b| {
                b.iter(|| {
                    // A fresh LCG stream per iteration: new candidates.
                    round += 1;
                    let cands = neighbors_seeded(&topo, &base, 8, "step", round);
                    kc.eval_class_batch(1, &cands, &weights)
                })
            },
        );
    }
}

/// Deployment-aware low-class stepping cost: the 50-node instance with
/// half the routers upgraded (every even index), batch-evaluating low
/// weight candidates through `BatchEvaluator::eval_deployed_low_batch`
/// — the `FindL` hot path of a partial-deployment search, where every
/// candidate rebuilds the hybrid (legacy + upgraded) per-destination
/// DAGs. Candidates are regenerated per iteration so caching cannot
/// absorb the harness's repeats.
fn bench_deployed(c: &mut Criterion) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 50,
        directed_links: 200,
        seed: 7,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 7,
            ..Default::default()
        },
    )
    .scaled(3.0);
    let upgraded: Vec<u32> = (0..topo.node_count() as u32).step_by(2).collect();
    let dep = dtr_routing::DeploymentSet::from_upgraded(topo.node_count(), &upgraded);
    let mut ev = dtr_engine::BatchEvaluator::new(
        &topo,
        &demands,
        Objective::LoadBased,
        BackendKind::Incremental,
    );
    ev.set_deployment(Some(dep))
        .expect("load-based two-class evaluator accepts a deployment");
    let base = WeightVector::delay_proportional(&topo, 30);
    let mut round: u64 = 0;
    c.bench_function("engine/deployed/low_step/random_50n_200l", |b| {
        b.iter(|| {
            round += 1;
            let cands = neighbors_seeded(&topo, &base, 8, "step", round);
            ev.eval_deployed_low_batch(&base, &cands)
        })
    });
}

/// End-to-end seeded search under both backends: wall-clock and
/// incumbent equality (the engine's correctness contract).
fn search_comparison() -> (f64, f64, bool) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 50,
        directed_links: 200,
        seed: 3,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 3,
            ..Default::default()
        },
    )
    .scaled(3.0);
    let run = |kind: BackendKind| {
        let start = Instant::now();
        let res = DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(5).with_backend(kind),
        )
        .run();
        (start.elapsed().as_secs_f64(), res)
    };
    let (full_s, full_res) = run(BackendKind::Full);
    let (incr_s, incr_res) = run(BackendKind::Incremental);
    let same = full_res.best_cost == incr_res.best_cost && full_res.weights == incr_res.weights;
    println!(
        "dtr_search_50n: full {full_s:.2}s, incremental {incr_s:.2}s ({:.1}x), same incumbent: {same}",
        full_s / incr_s.max(1e-12)
    );
    (full_s, incr_s, same)
}

fn write_json(
    measurements: &[criterion::Measurement],
    speedups: &[Speedup],
    search: (f64, f64, bool),
) {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"mean_s\": {:?} }}{}\n",
            m.id,
            m.mean_s,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    for (i, s) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"move_model\": \"{}\", \"full_s_per_candidate\": {:?}, \"incremental_s_per_candidate\": {:?}, \"speedup\": {:.2} }}{}\n",
            s.topology,
            s.model,
            s.full_s,
            s.incremental_s,
            s.full_s / s.incremental_s.max(1e-12),
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    let (full_s, incr_s, same) = search;
    out.push_str(&format!(
        "  ],\n  \"search\": {{ \"scenario\": \"dtr_quick_50n_seed5\", \"full_s\": {full_s:.3}, \"incremental_s\": {incr_s:.3}, \"speedup\": {:.2}, \"same_incumbent\": {same} }}\n}}\n",
        full_s / incr_s.max(1e-12)
    ));
    // benches/ lives two levels below the repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, out).expect("write BENCH_engine.json");
    println!("[wrote] BENCH_engine.json");
}

fn bench_engine(c: &mut Criterion) {
    let mut speedups = Vec::new();
    bench_backends(c, &mut speedups);
    bench_kclass(c);
    bench_deployed(c);
    for s in &speedups {
        println!(
            "speedup {} [{}]: {:.1}x (full {:.1} µs/cand, incremental {:.1} µs/cand)",
            s.topology,
            s.model,
            s.full_s / s.incremental_s.max(1e-12),
            s.full_s * 1e6,
            s.incremental_s * 1e6
        );
    }
    let search = search_comparison();
    assert!(search.2, "backends must agree on the seeded incumbent");
    write_json(&c.measurements, &speedups, search);
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
