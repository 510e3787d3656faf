//! Pins the k ≥ 3 suite search output bit for bit.
//!
//! `search_incumbents_k` at the smoke budget on the two k-class smoke
//! manifests must reproduce these recorded incumbents exactly: a
//! fingerprint of both schemes' weight vectors, the bits of every cost
//! component of the DTR incumbent, and the DTR search's evaluation
//! count. Any change to the k-class search loop, its RNG draws, its
//! acceptance order or the evaluator arithmetic shows up here.
//!
//! The checked-in SLA bounds are loose enough that every `Λ` is zero at
//! the smoke budget, so two objective overrides of the three-class
//! instance pin non-zero components as well: the all-load spec and a
//! 2 ms SLA bound on the two upper classes.

use dtr_cost::{ClassMode, ObjectiveSpec, SlaParams};
use dtr_engine::{BackendKind, KClassBatchEvaluator};
use dtr_graph::WeightVector;
use dtr_scenario::{load_spec, search_incumbents_k, ScenarioSpec};
use std::path::Path;

/// FNV-1a over every class's weights, with a separator per class.
fn fingerprint(weights: &[WeightVector]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for w in weights {
        for &x in w.as_slice() {
            x.to_le_bytes().into_iter().for_each(&mut mix);
        }
        mix(0xff);
    }
    h
}

#[derive(Debug, PartialEq)]
struct Pin {
    str_weights: u64,
    dtr_weights: u64,
    /// `to_bits()` of each cost component of the DTR incumbent.
    components: Vec<u64>,
    /// `to_bits()` of the DTR report's `phi_h` / `phi_l` projection.
    report: (u64, u64),
    evaluations: usize,
}

fn manifest(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(format!("{name}.json"));
    load_spec(&path).expect("corpus manifest loads")
}

fn pin(spec: &ScenarioSpec) -> Pin {
    let run = search_incumbents_k(spec, true);
    let mut ev = KClassBatchEvaluator::new(
        &run.topo,
        run.demands.classes.iter().collect(),
        &run.objective,
        BackendKind::Full,
    )
    .expect("manifest objective is valid");
    let cost = ev.eval(&run.dtr_weights).cost;
    Pin {
        str_weights: fingerprint(&run.str_weights),
        dtr_weights: fingerprint(&run.dtr_weights),
        components: cost.as_slice().iter().map(|c| c.to_bits()).collect(),
        report: (run.dtr.phi_h.to_bits(), run.dtr.phi_l.to_bits()),
        evaluations: run.dtr.evaluations,
    }
}

#[test]
fn random10_triclass_sla_incumbent_is_pinned() {
    assert_eq!(
        pin(&manifest("random10-triclass-sla")),
        Pin {
            str_weights: 2965426476138964676,
            dtr_weights: 10296334703725745466,
            components: vec![0, 0, 4660133474392301058],
            report: (0, 4660133474392301058),
            evaluations: 900,
        }
    );
}

#[test]
fn grid9_quadclass_sla_incumbent_is_pinned() {
    assert_eq!(
        pin(&manifest("grid9-quadclass-sla")),
        Pin {
            str_weights: 5977370715971715281,
            dtr_weights: 5977370715971715281,
            components: vec![0, 0, 0, 4658094952146913201],
            report: (0, 4658094952146913201),
            evaluations: 1092,
        }
    );
}

#[test]
fn random10_triclass_load_override_is_pinned() {
    let mut spec = manifest("random10-triclass-sla");
    spec.objective = Some(ObjectiveSpec::load(3));
    assert_eq!(
        pin(&spec),
        Pin {
            str_weights: 2965426476138964676,
            dtr_weights: 5719291000657725794,
            components: vec![
                4651424740316977581,
                4649616711503685781,
                4660471890704047775
            ],
            report: (4651424740316977581, 4661649439476843618),
            evaluations: 895,
        }
    );
}

#[test]
fn random10_triclass_tight_sla_override_is_pinned() {
    let mut spec = manifest("random10-triclass-sla");
    let tight = ClassMode::Sla(SlaParams {
        bound_s: 0.002,
        ..SlaParams::default()
    });
    spec.objective = Some(ObjectiveSpec {
        classes: vec![tight, tight, ClassMode::Load],
    });
    assert_eq!(
        pin(&spec),
        Pin {
            str_weights: 2965426476138964676,
            dtr_weights: 14516308774201593419,
            components: vec![
                4659097606054906458,
                4658126669235573307,
                4660402176170433638
            ],
            report: (4659097606054906458, 4663768022330373968),
            evaluations: 892,
        }
    );
}
