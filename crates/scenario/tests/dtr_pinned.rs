//! Pins the two-class DTR search output bit for bit.
//!
//! `search_incumbents` at the smoke budget must reproduce these recorded
//! incumbents exactly on one fully deployed and two partially deployed
//! smoke manifests: a fingerprint of both schemes' weight vectors, the
//! bits of every cost component of the DTR incumbent and both searches'
//! evaluation counts. Any change to the Algorithm 1 loop, its RNG draws,
//! its acceptance order, the deployed (hybrid-DAG) evaluation or the
//! evaluator arithmetic shows up here.
//!
//! The checked-in `random12-smoke` objective is load-based, so a tight
//! SLA override of it pins a non-zero `Λ` as well, and a DTR-mode
//! annealing run pins the annealer's deployed low-side path.

use dtr_core::{AnnealMode, AnnealSearch, SearchParams};
use dtr_cost::{ClassMode, ObjectiveSpec, SlaParams};
use dtr_graph::weights::DualWeights;
use dtr_routing::{Evaluation, Evaluator};
use dtr_scenario::{load_spec, search_incumbents, ScenarioSpec};
use std::path::Path;

/// FNV-1a over both weight vectors, with a separator per vector.
fn fingerprint(w: &DualWeights) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for v in [&w.high, &w.low] {
        for &x in v.as_slice() {
            x.to_le_bytes().into_iter().for_each(&mut mix);
        }
        mix(0xff);
    }
    h
}

/// `to_bits()` of `⟨cost.primary, cost.secondary, Φ_H, Φ_L, Λ⟩`
/// (`Λ` is `0` without an SLA walk).
fn components(ev: &Evaluation) -> Vec<u64> {
    let lambda = ev.sla.as_ref().map_or(0.0, |s| s.lambda);
    [
        ev.cost.primary,
        ev.cost.secondary,
        ev.phi_h,
        ev.phi_l,
        lambda,
    ]
    .iter()
    .map(|c| c.to_bits())
    .collect()
}

#[derive(Debug, PartialEq)]
struct Pin {
    str_weights: u64,
    dtr_weights: u64,
    components: Vec<u64>,
    /// `(STR, DTR)` evaluation counts.
    evaluations: (usize, usize),
}

fn manifest(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(format!("{name}.json"));
    load_spec(&path).expect("corpus manifest loads")
}

fn pin(spec: &ScenarioSpec) -> Pin {
    let run = search_incumbents(spec, true);
    let objective = spec.objective().as_two_class().expect("two-class spec");
    let mut ev = Evaluator::new(&run.topo, &run.demands, objective);
    ev.set_deployment(run.deployment.clone())
        .expect("manifest deployment is load-based");
    Pin {
        str_weights: fingerprint(&run.str_weights),
        dtr_weights: fingerprint(&run.dtr_weights),
        components: components(&ev.eval_dual(&run.dtr_weights)),
        evaluations: (run.baseline.evaluations, run.dtr.evaluations),
    }
}

#[test]
fn random12_smoke_incumbent_is_pinned() {
    assert_eq!(
        pin(&manifest("random12-smoke")),
        Pin {
            str_weights: 9891836698719173109,
            dtr_weights: 17184646158640667148,
            components: vec![
                4661597980574873529,
                4690546358351805027,
                4661597980574873529,
                4690546358351805027,
                0
            ],
            evaluations: (1012, 1000),
        }
    );
}

#[test]
fn isp_partial_upgrade_incumbent_is_pinned() {
    assert_eq!(
        pin(&manifest("isp-partial-upgrade")),
        Pin {
            str_weights: 10672712138796963501,
            dtr_weights: 6476536112170345330,
            components: vec![
                4662157095813945857,
                4684124179416143515,
                4662157095813945857,
                4684124179416143515,
                0
            ],
            evaluations: (1007, 999),
        }
    );
}

#[test]
fn random10_partial_sparse_incumbent_is_pinned() {
    assert_eq!(
        pin(&manifest("random10-partial-sparse")),
        Pin {
            str_weights: 6351303637092268311,
            dtr_weights: 11528318885519188079,
            components: vec![
                4655932659839086054,
                4662087196189027153,
                4655932659839086054,
                4662087196189027153,
                0
            ],
            evaluations: (1013, 997),
        }
    );
}

#[test]
fn random12_smoke_tight_sla_override_is_pinned() {
    let mut spec = manifest("random12-smoke");
    spec.objective = Some(ObjectiveSpec {
        classes: vec![
            ClassMode::Sla(SlaParams {
                bound_s: 0.002,
                ..SlaParams::default()
            }),
            ClassMode::Load,
        ],
    });
    let got = pin(&spec);
    assert_ne!(got.components[4], 0, "the override must leave Λ > 0");
    assert_eq!(
        got,
        Pin {
            str_weights: 133926667440245613,
            dtr_weights: 16477761295012594675,
            components: vec![
                4658364988266892821,
                4691180511747554120,
                4667437128752427184,
                4691180511747554120,
                4658364988266892821
            ],
            evaluations: (1008, 982),
        }
    );
}

#[test]
fn isp_partial_upgrade_dtr_anneal_is_pinned() {
    let spec = manifest("isp-partial-upgrade");
    let topo = spec.topology.build();
    let demands = spec.traffic.build(&topo);
    let dep = spec
        .deployment_set(topo.node_count())
        .expect("a partial deployment");
    let objective = spec.objective().as_two_class().expect("two-class spec");
    let res = AnnealSearch::new(
        &topo,
        &demands,
        objective,
        SearchParams::tiny().with_seed(1),
        AnnealMode::Dtr,
    )
    .with_deployment(dep)
    .run();
    assert_eq!(
        (
            fingerprint(&res.weights),
            components(&res.eval),
            res.trace.evaluations,
            res.uphill_accepted,
        ),
        (
            775136631678409725,
            vec![
                4662308774366428731,
                4685351028782348392,
                4662308774366428731,
                4685351028782348392,
                0
            ],
            1000,
            32
        )
    );
}
