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

// ---------------------------------------------------------------------
// The single-weight-change searches and the generational loop, each on
// `random12-smoke`'s topology and demands at `SearchParams::tiny()`.
// These pin every RNG draw, evaluation order and acceptance decision of
// the shared descent and generational loops and their callers.
// ---------------------------------------------------------------------

use dtr_core::{
    MemeticSearch, ReoptSearch, ReoptSession, RobustCost, RobustMode, RobustSearch,
    ScenarioCombine, Scheme, StrSearch,
};
use dtr_routing::survivable_duplex_failures;
use dtr_scenario::SearchedInstance;

fn random12() -> SearchedInstance {
    search_incumbents(&manifest("random12-smoke"), true)
}

fn load_objective() -> dtr_cost::Objective {
    manifest("random12-smoke")
        .objective()
        .as_two_class()
        .expect("two-class spec")
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn robust_bits(c: &RobustCost) -> Vec<u64> {
    [c.intact, c.worst, c.average, c.combined]
        .iter()
        .flat_map(|l| [l.primary.to_bits(), l.secondary.to_bits()])
        .collect()
}

#[test]
fn str_search_with_relaxations_is_pinned() {
    let run = random12();
    let res = StrSearch::new(
        &run.topo,
        &run.demands,
        load_objective(),
        SearchParams::tiny(),
    )
    .with_relaxations(&[0.05, 0.30])
    .run();
    let relaxed: Vec<(u64, Vec<u64>)> = res
        .relaxed
        .iter()
        .map(|r| {
            let w = r.weights.clone().expect("every ε has an answer");
            (
                fingerprint(&DualWeights::replicated(w)),
                bits(&[r.phi_h, r.phi_l]),
            )
        })
        .collect();
    assert_eq!(
        (
            fingerprint(&DualWeights::replicated(res.weights.clone())),
            components(&res.eval),
            relaxed,
            res.trace.evaluations,
        ),
        (
            1966764041706949987,
            vec![
                4661655882235462153,
                4671650206281448605,
                4661655882235462153,
                4671650206281448605,
                0
            ],
            vec![
                (
                    9321555690941765907,
                    vec![4661694141810642234, 4671195002202244344]
                ),
                (
                    9321555690941765907,
                    vec![4661694141810642234, 4671195002202244344]
                ),
            ],
            1013,
        )
    );
}

#[test]
fn ga_and_memetic_are_pinned() {
    let run = random12();
    let ga = MemeticSearch::ga(
        &run.topo,
        &run.demands,
        load_objective(),
        SearchParams::tiny(),
    )
    .run();
    let memetic = MemeticSearch::new(
        &run.topo,
        &run.demands,
        load_objective(),
        SearchParams::tiny(),
    )
    .run();
    assert_eq!(
        (
            fingerprint(&DualWeights::replicated(ga.weights.clone())),
            components(&ga.eval),
            ga.trace.evaluations,
            ga.generations,
        ),
        (
            14193130187024643693,
            vec![
                4661597980574873529,
                4700819293987915776,
                4661597980574873529,
                4700819293987915776,
                0
            ],
            1000,
            24
        )
    );
    assert_eq!(
        (
            fingerprint(&DualWeights::replicated(memetic.weights.clone())),
            components(&memetic.eval),
            memetic.trace.evaluations,
            memetic.generations,
            memetic.local_improvements,
        ),
        (
            13496332607598246643,
            vec![
                4661658562734847112,
                4689677513689041288,
                4661658562734847112,
                4689677513689041288,
                0
            ],
            1000,
            6,
            211
        )
    );
}

#[test]
fn str_anneal_is_pinned() {
    let run = random12();
    let res = AnnealSearch::new(
        &run.topo,
        &run.demands,
        load_objective(),
        SearchParams::tiny(),
        AnnealMode::Str,
    )
    .run();
    assert_eq!(
        (
            fingerprint(&res.weights),
            components(&res.eval),
            res.trace.evaluations,
            res.uphill_accepted,
        ),
        (
            12449588531490505869,
            vec![
                4661658562734847112,
                4689677513689041288,
                4661658562734847112,
                4689677513689041288,
                0
            ],
            1000,
            119
        )
    );
}

#[test]
fn robust_search_is_pinned_in_both_modes() {
    let run = random12();
    let pins: Vec<(u64, Vec<u64>, usize, usize)> = [RobustMode::Str, RobustMode::Dtr]
        .into_iter()
        .map(|mode| {
            let res = RobustSearch::new(
                &run.topo,
                &run.demands,
                ScenarioCombine::Blend { beta: 0.5 },
                SearchParams::tiny(),
                mode,
            )
            .with_scenario_cap(4)
            .run();
            (
                fingerprint(&res.weights),
                robust_bits(&res.cost),
                res.trace.evaluations,
                res.trace.dropped_scenarios.len(),
            )
        })
        .collect();
    assert_eq!(
        pins,
        vec![
            (
                15622636884977995173,
                vec![
                    4661668809807897577,
                    4677099857390416371,
                    4662066800682149134,
                    4696848999477687381,
                    4661968249629461830,
                    4694512860221618160,
                    4661867805245023356,
                    4692762700904162234
                ],
                1013,
                20
            ),
            (
                7109907735801207450,
                vec![
                    4661638518727910785,
                    4676680538213929308,
                    4662036509602162342,
                    4685898213901359002,
                    4661941106237201150,
                    4682697113084445499,
                    4661837514165036564,
                    4683006545431669745
                ],
                1007,
                20
            ),
        ]
    );
}

#[test]
fn reopt_search_is_pinned_for_both_schemes() {
    let run = random12();
    let drifted = run.demands.scaled(1.3);
    let pins: Vec<(u64, Vec<u64>, usize, usize)> = [
        (Scheme::Str, run.str_weights.clone(), 2),
        (Scheme::Dtr, run.dtr_weights.clone(), 4),
    ]
    .into_iter()
    .map(|(scheme, incumbent, h)| {
        let res = ReoptSearch::new(
            &run.topo,
            &drifted,
            load_objective(),
            SearchParams::tiny(),
            scheme,
            incumbent,
            h,
        )
        .run();
        (
            fingerprint(&res.weights),
            components(&res.eval),
            res.trace.evaluations,
            res.changes_used,
        )
    })
    .collect();
    assert_eq!(
        pins,
        vec![
            (
                2138040915090597107,
                vec![
                    4664014427533501675,
                    4709014012932251977,
                    4664014427533501675,
                    4709014012932251977,
                    0
                ],
                1012,
                2
            ),
            (
                10445449513409726194,
                vec![
                    4664014427533501675,
                    4707712669693558784,
                    4664014427533501675,
                    4707712669693558784,
                    0
                ],
                1011,
                4
            ),
        ]
    );
}

#[test]
fn masked_reopt_session_is_pinned() {
    let run = random12();
    let drifted = run.demands.scaled(1.3);
    let mask = survivable_duplex_failures(&run.topo)[0].link_up.clone();
    let mut session = ReoptSession::new(
        run.dtr_weights.clone(),
        load_objective(),
        SearchParams::tiny(),
        Scheme::Dtr,
    );
    let stepped = session.step_masked(&run.topo, &drifted, &mask, 4);
    let idle = session.idle_step(&run.topo, &drifted, &mask, 4, 5);
    let pins: Vec<(u64, Vec<u64>, usize, usize)> = [stepped, idle]
        .iter()
        .map(|res| {
            (
                fingerprint(&res.weights),
                components(&res.eval),
                res.trace.evaluations,
                res.changes_used,
            )
        })
        .collect();
    assert_eq!(
        pins,
        vec![
            (
                3600684325584445124,
                vec![
                    4664674338198156867,
                    4710574295790404502,
                    4664674338198156867,
                    4710574295790404502,
                    0
                ],
                1011,
                4
            ),
            (
                17184646158640667148,
                vec![
                    4664711278693654699,
                    4712008579870381220,
                    4664711278693654699,
                    4712008579870381220,
                    0
                ],
                26,
                0
            ),
        ]
    );
}
