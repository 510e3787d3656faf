//! Corpus-scale sim-vs-analytic differential validation.
//!
//! Every optimizer result the suite reports rests on two modeling
//! assumptions the paper never simulates: the **even-split ECMP load
//! model** behind Φ and the **priority-queueing delay model** behind
//! Eq. 3. This module checks both on every corpus instance, against the
//! instance's *own incumbents* (the weight settings the suite's STR and
//! DTR searches actually produce), through three independent pipelines:
//!
//! - **analytic** — `dtr_routing::Evaluator::eval_dual`: the objective
//!   the searches optimized;
//! - **fluid** — [`dtr_sim::FluidSim`]: the same DAG routing executed by
//!   the shared pushing primitive, plus closed-form priority-queue
//!   delays. Loads must agree with the analytic evaluator to
//!   [`FLUID_LOAD_TOL`] — same DAGs, same arithmetic, so disagreement
//!   means a routing bug, not a modeling gap;
//! - **DES** — a budgeted [`dtr_sim::DesBackend`] packet run, seeded
//!   deterministically from the manifest's search seed via
//!   `derive_stream_seed`, gated by the documented accuracy envelope
//!   ([`DES_LOAD_ENVELOPE`], [`DES_DELAY_ENVELOPE`]): the stochastic
//!   packet world must reproduce the fluid predictions within sampling
//!   and independence-approximation error.
//!
//! On top of the agreement checks, the DES run is scanned for
//! **priority-isolation violations** — links where the high class
//! measurably waits longer than the low class, which the §3 strict
//! non-preemptive discipline forbids in steady state.
//!
//! Reports carry no wall-clock fields and every aggregation iterates
//! sorted structures, so a validation run is **byte-identical** given
//! the same corpus — `tests/validation.rs` asserts it.

use crate::spec::ScenarioSpec;
use crate::suite::{search_incumbents, search_incumbents_k, SuiteCfg};
use dtr_core::{derive_stream_seed, Objective};
use dtr_cost::ObjectiveSpec;
use dtr_engine::KClassBatchEvaluator;
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::{DeploymentSet, Evaluator};
use dtr_sim::{BackendReport, DesBackend, FluidSim, ForwardingState, KClassReport, TrafficClass};
use dtr_traffic::{DemandSet, MultiDemand, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// Fluid loads must match the analytic evaluator's to this relative
/// tolerance. They are computed by the same primitive over the same
/// DAGs, so the expected error is exactly zero; the tolerance only
/// absorbs hypothetical future refactors that reorder float sums.
pub const FLUID_LOAD_TOL: f64 = 1e-9;

/// DES per-link class loads must match the analytic loads within this
/// relative envelope **on globally stable schemes** (no link at or
/// beyond [`HOT_UTIL`]): when any link saturates, carried load differs
/// from offered load *everywhere downstream* — the queueing model being
/// right, not the load model being wrong — so saturated schemes report
/// the error as telemetry without gating it. On stable schemes the gap
/// is Poisson sampling noise at the packet budget (measured ≤ ~0.09 at
/// 250k packets, gated with margin).
pub const DES_LOAD_ENVELOPE: f64 = 0.25;

/// DES flow-weighted mean per-class delay must match the fluid
/// closed-form prediction within this relative envelope, over pairs
/// whose expected path stays below [`HOT_UTIL`] (steady-state delays at
/// a near-saturated link diverge while any finite measurement window
/// stays finite — incomparable by construction). The residual gap is
/// the Kleinrock-independence approximation (packets keep their size
/// across hops; downstream arrivals are not Poisson) plus sampling
/// noise — measured ≤ ~0.09 across the 12-instance corpus at 250k
/// packets, gated with margin. Applies to **globally stable** schemes;
/// saturated schemes are gated at [`DES_DELAY_ENVELOPE_SATURATED`].
pub const DES_DELAY_ENVELOPE: f64 = 0.25;

/// The delay envelope for schemes with saturated links. The hot-pair
/// exclusion removes pairs *crossing* a near-saturated link, but pairs
/// that merely *share* downstream links with throttled traffic see less
/// competition in the DES than the fluid model's offered-load
/// predictions assume — a bounded, systematic undershoot that is the
/// saturation policy working, not a model error. Every scheme stays
/// gated corpus-wide; saturated ones just get the headroom the
/// starvation bias needs.
pub const DES_DELAY_ENVELOPE_SATURATED: f64 = 0.5;

/// Total-utilization threshold above which a link (for the load check)
/// or a pair's path (for the delay check) leaves the comparable region.
/// Matches the fluid backend's default `hot_util`.
pub const HOT_UTIL: f64 = 0.95;

/// Links whose analytic class load is below this fraction of the
/// instance's largest class-link load are excluded from the DES load
/// comparison: a link carrying 0.1% of the traffic sees too few packets
/// for a relative error to mean anything.
pub fn load_floor(max_load: f64) -> f64 {
    0.02 * max_load
}

/// Isolation scan: both classes need at least this many wait samples on
/// a link before an inversion there counts.
const ISOLATION_MIN_SAMPLES: u64 = 500;

/// Minimum DES wait samples a (class, link) needs before its relative
/// load error enters the k-class comparison. The two-class check gets
/// significance for free — its load floor tracks the aggregate volume —
/// but a thin class's links can clear the 2% floor on a handful of
/// packets, where a relative error is pure sampling noise.
const DES_LOAD_MIN_SAMPLES: u64 = 500;

/// How the validation harness should run.
#[derive(Debug, Clone, Default)]
pub struct ValidateCfg {
    /// CI mode: only smoke-tagged instances at the tiny search budget.
    pub smoke: bool,
    /// Comma-separated instance-name filter (same semantics as
    /// `dtrctl suite --only`).
    pub only: Option<String>,
    /// DES packet budget per run; 0 (the default) picks 60k packets in
    /// smoke mode, 250k otherwise.
    pub des_packets: u64,
}

impl ValidateCfg {
    /// The effective DES packet budget.
    pub fn packets(&self) -> u64 {
        match self.des_packets {
            0 if self.smoke => 60_000,
            0 => 250_000,
            n => n,
        }
    }

    /// The equivalent suite selection config.
    pub fn suite_cfg(&self) -> SuiteCfg {
        SuiteCfg {
            smoke: self.smoke,
            only: self.only.clone(),
        }
    }
}

/// Three-way agreement numbers for one traffic class of one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassAgreement {
    /// Max relative per-link load error, fluid vs analytic.
    pub fluid_load_rel_err: f64,
    /// Max relative per-link load error, DES vs analytic, over links
    /// above the load floor.
    pub des_load_rel_err: f64,
    /// Fluid flow-weighted mean end-to-end delay (seconds) over the
    /// compared pair set; `None` when no pair qualifies.
    pub fluid_mean_delay_s: Option<f64>,
    /// DES flow-weighted mean end-to-end delay over the same pairs.
    pub des_mean_delay_s: Option<f64>,
    /// `|des − fluid| / fluid` of the mean delays.
    pub mean_delay_rel_err: Option<f64>,
    /// Pairs entering the delay comparison (finite fluid prediction,
    /// path below [`HOT_UTIL`], AND measured by the DES).
    pub pairs_compared: usize,
    /// Pairs excluded from the delay comparison because their expected
    /// path crosses a saturated or near-saturated link (fluid delay
    /// infinite or flagged hot).
    pub pairs_saturated: usize,
}

/// One scheme's (STR baseline or DTR) validation outcome on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeValidation {
    /// `"baseline"` or `"dtr"`.
    pub scheme: String,
    /// Max link utilization under the analytic load model.
    pub max_util: f64,
    /// Links at or beyond [`HOT_UTIL`] total utilization under the
    /// analytic loads (excluded from the DES comparisons).
    pub saturated_links: usize,
    /// The derived DES seed (deterministic in the manifest seed).
    pub des_seed: u64,
    /// Packets the DES actually generated.
    pub des_packets: u64,
    /// Links where the DES measured the high class waiting longer than
    /// the low class (beyond noise slack) — must be zero.
    pub isolation_violations: usize,
    /// High-class agreement.
    pub high: ClassAgreement,
    /// Low-class agreement.
    pub low: ClassAgreement,
}

/// One corpus instance's validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Instance name (the manifest's).
    pub name: String,
    /// Topology family.
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Directed link count.
    pub links: usize,
    /// Search budget the incumbents were produced at.
    pub budget: String,
    /// STR baseline incumbent's validation.
    pub baseline: SchemeValidation,
    /// DTR incumbent's validation.
    pub dtr: SchemeValidation,
}

impl ValidationReport {
    /// Both schemes, labeled.
    pub fn schemes(&self) -> [&SchemeValidation; 2] {
        [&self.baseline, &self.dtr]
    }
}

/// Aggregate over one validation run, plus the gate verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationSummary {
    /// Instances validated, in corpus order.
    pub names: Vec<String>,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// The DES packet budget used.
    pub des_packets: u64,
    /// Worst fluid-vs-analytic load error across the corpus.
    pub max_fluid_load_rel_err: f64,
    /// Worst DES-vs-analytic load error across the corpus (stable links
    /// of every scheme — telemetry; saturated schemes undershoot
    /// offered loads by construction).
    pub max_des_load_rel_err: f64,
    /// Worst DES-vs-analytic load error over **globally stable**
    /// schemes only — the gated number.
    pub max_stable_des_load_rel_err: f64,
    /// Schemes with no saturated link (the load-gate population).
    pub stable_schemes: usize,
    /// Worst DES-vs-fluid mean-delay error across the corpus (every
    /// scheme; saturated ones gated at the looser envelope).
    pub max_mean_delay_rel_err: f64,
    /// Worst DES-vs-fluid mean-delay error over globally stable
    /// schemes — gated at the tight [`DES_DELAY_ENVELOPE`].
    pub max_stable_mean_delay_rel_err: f64,
    /// Total isolation violations (must be 0).
    pub isolation_violations: usize,
    /// `max_fluid_load_rel_err ≤` [`FLUID_LOAD_TOL`].
    pub fluid_ok: bool,
    /// Load and delay envelopes both hold corpus-wide.
    pub des_ok: bool,
    /// No isolation violations anywhere.
    pub isolation_ok: bool,
    /// The envelopes the verdicts were gated against.
    pub envelope: EnvelopeSpec,
}

impl ValidationSummary {
    /// All three gates green.
    pub fn all_ok(&self) -> bool {
        self.fluid_ok && self.des_ok && self.isolation_ok
    }
}

/// The gate tolerances, embedded in the summary so an archived artifact
/// is self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvelopeSpec {
    /// [`FLUID_LOAD_TOL`].
    pub fluid_load_tol: f64,
    /// [`DES_LOAD_ENVELOPE`].
    pub des_load: f64,
    /// [`DES_DELAY_ENVELOPE`].
    pub des_delay: f64,
    /// [`DES_DELAY_ENVELOPE_SATURATED`].
    pub des_delay_saturated: f64,
}

impl Default for EnvelopeSpec {
    fn default() -> Self {
        EnvelopeSpec {
            fluid_load_tol: FLUID_LOAD_TOL,
            des_load: DES_LOAD_ENVELOPE,
            des_delay: DES_DELAY_ENVELOPE,
            des_delay_saturated: DES_DELAY_ENVELOPE_SATURATED,
        }
    }
}

/// Compares one class's loads and delays across the three pipelines.
/// `link_stable[l]` marks links below [`HOT_UTIL`] total utilization —
/// the region where the DES can be expected to reproduce the offered
/// loads and steady-state delays.
fn class_agreement(
    class: TrafficClass,
    analytic_loads: &[f64],
    link_stable: &[bool],
    fluid: &BackendReport,
    des: &BackendReport,
    demands: &DemandSet,
) -> ClassAgreement {
    let c = class.idx();
    // Fluid vs analytic: every link, relative to the analytic load
    // (zero-load links must be zero in both).
    let mut fluid_err = 0.0f64;
    for (a, f) in analytic_loads.iter().zip(&fluid.class_loads[c]) {
        let err = if *a == 0.0 && *f == 0.0 {
            0.0
        } else {
            (f - a).abs() / a.abs().max(1e-12)
        };
        fluid_err = fluid_err.max(err);
    }
    // DES vs analytic: stable links above the floor only.
    let max_load = analytic_loads.iter().cloned().fold(0.0, f64::max);
    let floor = load_floor(max_load);
    let mut des_err = 0.0f64;
    for (i, (a, d)) in analytic_loads.iter().zip(&des.class_loads[c]).enumerate() {
        if *a >= floor && floor > 0.0 && link_stable[i] {
            des_err = des_err.max((d - a).abs() / a);
        }
    }
    // Delays: flow-weighted means over the common pair set (finite,
    // non-hot fluid prediction AND DES measured). Iterates the fluid
    // report's sorted map, so the accumulation order is deterministic.
    let m = match class {
        TrafficClass::High => &demands.high,
        TrafficClass::Low => &demands.low,
    };
    let (mut fluid_sum, mut des_sum, mut vol) = (0.0, 0.0, 0.0);
    let (mut compared, mut saturated) = (0usize, 0usize);
    for (key, &fd) in &fluid.pair_delays {
        if key.class != class {
            continue;
        }
        if !fd.is_finite() || fluid.hot_pairs.contains(key) {
            saturated += 1;
            continue;
        }
        let Some(&dd) = des.pair_delays.get(key) else {
            continue;
        };
        let v = m.get(key.src as usize, key.dst as usize);
        if v <= 0.0 {
            continue;
        }
        fluid_sum += fd * v;
        des_sum += dd * v;
        vol += v;
        compared += 1;
    }
    let (fluid_mean, des_mean, rel) = if vol > 0.0 {
        let fm = fluid_sum / vol;
        let dm = des_sum / vol;
        (Some(fm), Some(dm), Some((dm - fm).abs() / fm))
    } else {
        (None, None, None)
    };
    ClassAgreement {
        fluid_load_rel_err: fluid_err,
        des_load_rel_err: des_err,
        fluid_mean_delay_s: fluid_mean,
        des_mean_delay_s: des_mean,
        mean_delay_rel_err: rel,
        pairs_compared: compared,
        pairs_saturated: saturated,
    }
}

/// Scans a DES report for priority inversions: links where, with enough
/// samples of both classes, the high class's mean wait exceeds the low
/// class's by more than noise slack.
fn isolation_violations(des: &BackendReport) -> usize {
    let n = des.class_loads[0].len();
    let mut violations = 0;
    for i in 0..n {
        let (nh, nl) = (des.link_wait_samples[0][i], des.link_wait_samples[1][i]);
        if nh < ISOLATION_MIN_SAMPLES || nl < ISOLATION_MIN_SAMPLES {
            continue;
        }
        let (wh, wl) = (des.link_wait_s[0][i], des.link_wait_s[1][i]);
        if wh > 1.25 * wl + 2e-5 {
            violations += 1;
        }
    }
    violations
}

/// Validates one incumbent weight setting on one instance.
///
/// Under a partial `deployment` the analytic evaluation and both
/// simulation backends all route the low class on the **hybrid** DAGs
/// (legacy routers forward on the high table); the incumbent must be
/// loop-free — trapped demand has no steady state to validate, so the
/// harness refuses it up front with the undeliverable volume.
fn validate_scheme(
    scheme: &str,
    topo: &Topology,
    demands: &DemandSet,
    weights: &DualWeights,
    deployment: Option<&DeploymentSet>,
    des_seed: u64,
    packets: u64,
) -> SchemeValidation {
    let mut evaluator = Evaluator::new(topo, demands, Objective::LoadBased);
    evaluator
        .set_deployment(deployment.cloned())
        .expect("validated manifest fences deployment to load-based two-class");
    if let Some(dep) = deployment {
        let (_, undeliverable) = evaluator.low_loads_deployed(dep, &weights.high, &weights.low);
        assert!(
            undeliverable <= 0.0,
            "{scheme}: incumbent traps {undeliverable} Mbit/s under the partial \
             deployment (cross-topology forwarding loop); nothing to simulate"
        );
    }
    let analytic = evaluator.eval_dual(weights);
    let fwd = match deployment {
        Some(dep) => ForwardingState::with_deployment(topo, weights, dep),
        None => ForwardingState::new(topo, weights),
    };
    let mats = [&demands.high, &demands.low];
    // The same threshold classifies links here (load gate) and pairs
    // inside the fluid backend (delay gate) — passing it explicitly
    // keeps the two exclusion sets from drifting apart.
    let fluid_backend = FluidSim {
        cfg: dtr_sim::FluidCfg {
            hot_util: HOT_UTIL,
            ..Default::default()
        },
    };
    let fluid = fluid_backend
        .run_classes_on(topo, &mats, &fwd)
        .into_two_class();
    let des = DesBackend::budgeted(demands, packets, des_seed)
        .run_classes_on(topo, &mats, &fwd)
        .into_two_class();

    let total = analytic.total_loads();
    let link_stable: Vec<bool> = topo
        .links()
        .map(|(lid, l)| total[lid.index()] / l.capacity < HOT_UTIL)
        .collect();
    let saturated_links = link_stable.iter().filter(|ok| !**ok).count();
    SchemeValidation {
        scheme: scheme.to_string(),
        max_util: analytic.max_utilization(topo),
        saturated_links,
        des_seed,
        des_packets: des.packets,
        isolation_violations: isolation_violations(&des),
        high: class_agreement(
            TrafficClass::High,
            &analytic.high_loads,
            &link_stable,
            &fluid,
            &des,
            demands,
        ),
        low: class_agreement(
            TrafficClass::Low,
            &analytic.low_loads,
            &link_stable,
            &fluid,
            &des,
            demands,
        ),
    }
}

/// The k-class counterpart of [`class_agreement`]: one priority class
/// of one scheme, compared across the three k-class pipelines.
fn class_agreement_k(
    c: usize,
    analytic_loads: &[f64],
    link_stable: &[bool],
    fluid: &KClassReport,
    des: &KClassReport,
    matrix: &TrafficMatrix,
) -> ClassAgreement {
    let mut fluid_err = 0.0f64;
    for (a, f) in analytic_loads.iter().zip(&fluid.class_loads[c]) {
        let err = if *a == 0.0 && *f == 0.0 {
            0.0
        } else {
            (f - a).abs() / a.abs().max(1e-12)
        };
        fluid_err = fluid_err.max(err);
    }
    let max_load = analytic_loads.iter().cloned().fold(0.0, f64::max);
    let floor = load_floor(max_load);
    let mut des_err = 0.0f64;
    for (i, (a, d)) in analytic_loads.iter().zip(&des.class_loads[c]).enumerate() {
        if *a >= floor
            && floor > 0.0
            && link_stable[i]
            && des.link_wait_samples[c][i] >= DES_LOAD_MIN_SAMPLES
        {
            des_err = des_err.max((d - a).abs() / a);
        }
    }
    let (mut fluid_sum, mut des_sum, mut vol) = (0.0, 0.0, 0.0);
    let (mut compared, mut saturated) = (0usize, 0usize);
    for (key, &fd) in &fluid.pair_delays {
        if key.class as usize != c {
            continue;
        }
        if !fd.is_finite() || fluid.hot_pairs.contains(key) {
            saturated += 1;
            continue;
        }
        let Some(&dd) = des.pair_delays.get(key) else {
            continue;
        };
        let v = matrix.get(key.src as usize, key.dst as usize);
        if v <= 0.0 {
            continue;
        }
        fluid_sum += fd * v;
        des_sum += dd * v;
        vol += v;
        compared += 1;
    }
    let (fluid_mean, des_mean, rel) = if vol > 0.0 {
        let fm = fluid_sum / vol;
        let dm = des_sum / vol;
        (Some(fm), Some(dm), Some((dm - fm).abs() / fm))
    } else {
        (None, None, None)
    };
    ClassAgreement {
        fluid_load_rel_err: fluid_err,
        des_load_rel_err: des_err,
        fluid_mean_delay_s: fluid_mean,
        des_mean_delay_s: des_mean,
        mean_delay_rel_err: rel,
        pairs_compared: compared,
        pairs_saturated: saturated,
    }
}

/// Folds the agreements of classes `1..k` into the report's `low` slot:
/// worst-case load errors, summed pair counts, and the delay means of
/// the class with the worst delay error (so the reported means and the
/// reported error describe the same class).
fn fold_lower_classes(classes: &[ClassAgreement]) -> ClassAgreement {
    let mut out = ClassAgreement {
        fluid_load_rel_err: 0.0,
        des_load_rel_err: 0.0,
        fluid_mean_delay_s: None,
        des_mean_delay_s: None,
        mean_delay_rel_err: None,
        pairs_compared: 0,
        pairs_saturated: 0,
    };
    for c in classes {
        out.fluid_load_rel_err = out.fluid_load_rel_err.max(c.fluid_load_rel_err);
        out.des_load_rel_err = out.des_load_rel_err.max(c.des_load_rel_err);
        out.pairs_compared += c.pairs_compared;
        out.pairs_saturated += c.pairs_saturated;
        if let Some(e) = c.mean_delay_rel_err {
            if out.mean_delay_rel_err.is_none_or(|b| e > b) {
                out.mean_delay_rel_err = Some(e);
                out.fluid_mean_delay_s = c.fluid_mean_delay_s;
                out.des_mean_delay_s = c.des_mean_delay_s;
            }
        }
    }
    out
}

/// Scans a k-class DES report for priority inversions across every
/// adjacent class pair — strict priority forbids a higher class waiting
/// longer than the class right below it on the same link.
fn isolation_violations_k(des: &KClassReport) -> usize {
    let k = des.classes();
    let n = des.class_loads[0].len();
    let mut violations = 0;
    for c in 0..k - 1 {
        for i in 0..n {
            let (nh, nl) = (des.link_wait_samples[c][i], des.link_wait_samples[c + 1][i]);
            if nh < ISOLATION_MIN_SAMPLES || nl < ISOLATION_MIN_SAMPLES {
                continue;
            }
            if des.link_wait_s[c][i] > 1.25 * des.link_wait_s[c + 1][i] + 2e-5 {
                violations += 1;
            }
        }
    }
    violations
}

/// Validates one k-class incumbent (one weight vector per class) on one
/// instance: analytic k-class evaluator vs fluid `run_classes` vs
/// budgeted k-class DES, with the same gates as the two-class path.
fn validate_scheme_k(
    scheme: &str,
    topo: &Topology,
    demands: &MultiDemand,
    weights: &[WeightVector],
    des_seed: u64,
    packets: u64,
) -> SchemeValidation {
    let k = demands.class_count();
    let analytic = KClassBatchEvaluator::with_spec(topo, demands, &ObjectiveSpec::load(k))
        .expect("k-class instances have k ≥ 3")
        .eval(weights);
    let matrices: Vec<&TrafficMatrix> = demands.classes.iter().collect();
    let fluid_backend = FluidSim {
        cfg: dtr_sim::FluidCfg {
            hot_util: HOT_UTIL,
            ..Default::default()
        },
    };
    let fluid = fluid_backend.run_classes(topo, &matrices, weights);
    // The DES envelopes are calibrated against the two-class corpus. The
    // binding statistic is the *per-class* load error and the thinnest
    // class in a k-class split carries a small fraction of the volume, so
    // scale the packet budget with the class count to keep that class's
    // sample size in the regime the envelopes were tuned for.
    let packets = packets * k as u64;
    let des = DesBackend::budgeted_classes(&matrices, packets, des_seed)
        .run_classes(topo, &matrices, weights);

    let total = analytic.total_loads();
    let link_stable: Vec<bool> = topo
        .links()
        .map(|(lid, l)| total[lid.index()] / l.capacity < HOT_UTIL)
        .collect();
    let saturated_links = link_stable.iter().filter(|ok| !**ok).count();
    let per_class: Vec<ClassAgreement> = (0..k)
        .map(|c| {
            class_agreement_k(
                c,
                &analytic.loads[c],
                &link_stable,
                &fluid,
                &des,
                &demands.classes[c],
            )
        })
        .collect();
    SchemeValidation {
        scheme: scheme.to_string(),
        max_util: dtr_routing::loads::max_utilization(topo, &total),
        saturated_links,
        des_seed,
        des_packets: des.packets,
        isolation_violations: isolation_violations_k(&des),
        high: per_class[0],
        low: fold_lower_classes(&per_class[1..]),
    }
}

/// Stream tags for the derived DES seeds, allocated in the central
/// registry ([`dtr_core::streams`]) inside the span-tagged DES window so
/// validation can never share an RNG stream with a search arm or a
/// reoptimization step.
const DES_STREAM_BASELINE: u64 = dtr_core::streams::DES_BASELINE;
/// See [`DES_STREAM_BASELINE`].
const DES_STREAM_DTR: u64 = dtr_core::streams::DES_DTR;

/// Validates one corpus instance end-to-end: reruns the suite searches
/// for the incumbents (without the failure-policy sweep, which
/// validation has no use for), then pushes both through the three
/// pipelines.
pub fn validate_instance(spec: &ScenarioSpec, cfg: &ValidateCfg) -> ValidationReport {
    if spec.class_count() > 2 {
        return validate_instance_k(spec, cfg);
    }
    let run = search_incumbents(spec, cfg.smoke);
    let base_seed = spec.search().seed.unwrap_or(1);
    let packets = cfg.packets();
    ValidationReport {
        name: spec.name.clone(),
        topology: spec.topology.family_name().to_string(),
        nodes: run.topo.node_count(),
        links: run.topo.link_count(),
        budget: run.budget.clone(),
        baseline: validate_scheme(
            "baseline",
            &run.topo,
            &run.demands,
            &run.str_weights,
            None,
            derive_stream_seed(base_seed, DES_STREAM_BASELINE),
            packets,
        ),
        dtr: validate_scheme(
            "dtr",
            &run.topo,
            &run.demands,
            &run.dtr_weights,
            run.deployment.as_ref(),
            derive_stream_seed(base_seed, DES_STREAM_DTR),
            packets,
        ),
    }
}

/// The k-class variant of [`validate_instance`]: reruns the k-class
/// suite searches for the incumbents, then pushes the replicated STR
/// baseline and the k-vector DTR incumbent through the analytic, fluid
/// and DES k-class pipelines. The report's `high` slot carries class 0,
/// `low` the fold of every lower class ([`fold_lower_classes`]), so
/// [`summarize`] gates k-class instances with the same envelopes.
fn validate_instance_k(spec: &ScenarioSpec, cfg: &ValidateCfg) -> ValidationReport {
    let run = search_incumbents_k(spec, cfg.smoke);
    let base_seed = spec.search().seed.unwrap_or(1);
    let packets = cfg.packets();
    ValidationReport {
        name: spec.name.clone(),
        topology: spec.topology.family_name().to_string(),
        nodes: run.topo.node_count(),
        links: run.topo.link_count(),
        budget: run.budget.clone(),
        baseline: validate_scheme_k(
            "baseline",
            &run.topo,
            &run.demands,
            &run.str_weights,
            derive_stream_seed(base_seed, DES_STREAM_BASELINE),
            packets,
        ),
        dtr: validate_scheme_k(
            "dtr",
            &run.topo,
            &run.demands,
            &run.dtr_weights,
            derive_stream_seed(base_seed, DES_STREAM_DTR),
            packets,
        ),
    }
}

/// Folds per-instance reports into the aggregate summary with gate
/// verdicts.
pub fn summarize(reports: &[ValidationReport], cfg: &ValidateCfg) -> ValidationSummary {
    let mut max_fluid = 0.0f64;
    let mut max_des_load = 0.0f64;
    let mut max_stable_load = 0.0f64;
    let mut stable_schemes = 0usize;
    let mut max_delay = 0.0f64;
    let mut max_stable_delay = 0.0f64;
    let mut violations = 0usize;
    for r in reports {
        for s in r.schemes() {
            violations += s.isolation_violations;
            let stable = s.saturated_links == 0;
            if stable {
                stable_schemes += 1;
            }
            for c in [&s.high, &s.low] {
                max_fluid = max_fluid.max(c.fluid_load_rel_err);
                max_des_load = max_des_load.max(c.des_load_rel_err);
                if stable {
                    max_stable_load = max_stable_load.max(c.des_load_rel_err);
                }
                if let Some(e) = c.mean_delay_rel_err {
                    max_delay = max_delay.max(e);
                    if stable {
                        max_stable_delay = max_stable_delay.max(e);
                    }
                }
            }
        }
    }
    let envelope = EnvelopeSpec::default();
    ValidationSummary {
        names: reports.iter().map(|r| r.name.clone()).collect(),
        smoke: cfg.smoke,
        des_packets: cfg.packets(),
        max_fluid_load_rel_err: max_fluid,
        max_des_load_rel_err: max_des_load,
        max_stable_des_load_rel_err: max_stable_load,
        stable_schemes,
        max_mean_delay_rel_err: max_delay,
        max_stable_mean_delay_rel_err: max_stable_delay,
        isolation_violations: violations,
        fluid_ok: max_fluid <= envelope.fluid_load_tol,
        des_ok: max_stable_load <= envelope.des_load
            && max_stable_delay <= envelope.des_delay
            && max_delay <= envelope.des_delay_saturated,
        isolation_ok: violations == 0,
        envelope,
    }
}

/// Runs differential validation over the corpus selection.
///
/// # Panics
/// If `cfg` selects no instances — check with [`crate::select`] first
/// when the selection comes from user input.
pub fn run_validation(
    specs: &[ScenarioSpec],
    cfg: &ValidateCfg,
) -> (Vec<ValidationReport>, ValidationSummary) {
    let selected = crate::select(specs, &cfg.suite_cfg());
    assert!(
        !selected.is_empty(),
        "no corpus instances selected (smoke = {}, only = {:?})",
        cfg.smoke,
        cfg.only
    );
    let reports: Vec<ValidationReport> = selected
        .iter()
        .map(|spec| validate_instance(spec, cfg))
        .collect();
    let summary = summarize(&reports, cfg);
    (reports, summary)
}

/// The result-shape invariants a smoke run asserts. Panics with the
/// violated invariant.
pub fn assert_validation_shape(r: &ValidationReport) {
    assert!(r.nodes >= 3 && r.links >= 6, "{}: degenerate", r.name);
    for s in r.schemes() {
        assert!(
            s.des_packets > 0,
            "{}/{}: DES generated nothing",
            r.name,
            s.scheme
        );
        assert!(
            s.max_util.is_finite() && s.max_util > 0.0,
            "{}/{}: bad max_util {}",
            r.name,
            s.scheme,
            s.max_util
        );
        for (label, c) in [("high", &s.high), ("low", &s.low)] {
            assert!(
                c.fluid_load_rel_err.is_finite(),
                "{}/{}/{label}: non-finite fluid load error",
                r.name,
                s.scheme
            );
            assert!(
                c.pairs_compared > 0 || c.pairs_saturated > 0,
                "{}/{}/{label}: no pair entered the delay comparison",
                r.name,
                s.scheme
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SearchSpec, TopologySpec, TrafficSpec};
    use dtr_traffic::TrafficFamily;

    fn spec(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            description: None,
            smoke: Some(true),
            topology: TopologySpec::Random {
                nodes: 8,
                links: 32,
                seed: 3,
            },
            traffic: TrafficSpec {
                family: TrafficFamily::Gravity,
                f: None,
                k: Some(0.2),
                model: None,
                scale: Some(3.0),
                seed: Some(3),
                fractions: None,
                densities: None,
            },
            failures: None,
            search: Some(SearchSpec {
                budget: Some("tiny".into()),
                seed: Some(5),
                beta: None,
                portfolio: None,
            }),
            objective: None,
            deployment: None,
        }
    }

    fn cfg() -> ValidateCfg {
        ValidateCfg {
            smoke: true,
            only: None,
            des_packets: 40_000,
        }
    }

    #[test]
    fn instance_validates_end_to_end() {
        let r = validate_instance(&spec("mini"), &cfg());
        assert_validation_shape(&r);
        // Structural agreement: fluid loads are the analytic loads.
        for s in r.schemes() {
            for c in [&s.high, &s.low] {
                assert!(
                    c.fluid_load_rel_err <= FLUID_LOAD_TOL,
                    "{}: fluid err {}",
                    s.scheme,
                    c.fluid_load_rel_err
                );
            }
            assert_eq!(s.isolation_violations, 0, "{}", s.scheme);
        }
        let summary = summarize(&[r], &cfg());
        assert!(summary.fluid_ok);
        assert!(summary.isolation_ok);
    }

    #[test]
    fn partial_deployment_instance_validates_end_to_end() {
        let mut s = spec("mini-partial");
        s.deployment = Some(crate::spec::DeploymentSpec {
            upgraded: vec![0, 3, 5],
        });
        s.validate().unwrap();
        let r = validate_instance(&s, &cfg());
        assert_validation_shape(&r);
        // The fluid backend routed on the same hybrid DAGs as the
        // deployment-aware analytic evaluation: exact agreement.
        for sv in r.schemes() {
            for c in [&sv.high, &sv.low] {
                assert!(
                    c.fluid_load_rel_err <= FLUID_LOAD_TOL,
                    "{}: fluid err {}",
                    sv.scheme,
                    c.fluid_load_rel_err
                );
            }
        }
    }

    #[test]
    fn summary_gates_trip_on_bad_numbers() {
        let mut r = validate_instance(&spec("gates"), &cfg());
        r.dtr.high.fluid_load_rel_err = 1e-3;
        r.dtr.low.mean_delay_rel_err = Some(10.0);
        r.baseline.isolation_violations = 2;
        let s = summarize(&[r], &cfg());
        assert!(!s.fluid_ok && !s.des_ok && !s.isolation_ok);
        assert!(!s.all_ok());
        assert_eq!(s.isolation_violations, 2);
    }

    #[test]
    fn reports_serialize_round_trip() {
        let r = validate_instance(&spec("json"), &cfg());
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: ValidationReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn k_class_instance_validates_end_to_end() {
        let mut s = spec("tri-val");
        s.objective = Some(dtr_cost::ObjectiveSpec::uniform_sla(
            3,
            dtr_cost::SlaParams::default(),
        ));
        s.validate().unwrap();
        let r = validate_instance(&s, &cfg());
        assert_validation_shape(&r);
        // Fluid loads reproduce the k-class analytic loads exactly, for
        // class 0 and for every lower class.
        for sv in r.schemes() {
            for c in [&sv.high, &sv.low] {
                assert!(
                    c.fluid_load_rel_err <= FLUID_LOAD_TOL,
                    "{}: fluid err {}",
                    sv.scheme,
                    c.fluid_load_rel_err
                );
            }
            assert_eq!(sv.isolation_violations, 0, "{}", sv.scheme);
        }
        let summary = summarize(&[r], &cfg());
        assert!(summary.fluid_ok);
        assert!(summary.isolation_ok);
    }

    #[test]
    fn fold_lower_classes_takes_worst_and_sums_pairs() {
        let a = ClassAgreement {
            fluid_load_rel_err: 1e-12,
            des_load_rel_err: 0.1,
            fluid_mean_delay_s: Some(0.010),
            des_mean_delay_s: Some(0.011),
            mean_delay_rel_err: Some(0.1),
            pairs_compared: 4,
            pairs_saturated: 1,
        };
        let b = ClassAgreement {
            fluid_load_rel_err: 1e-10,
            des_load_rel_err: 0.05,
            fluid_mean_delay_s: Some(0.020),
            des_mean_delay_s: Some(0.024),
            mean_delay_rel_err: Some(0.2),
            pairs_compared: 6,
            pairs_saturated: 0,
        };
        let f = fold_lower_classes(&[a, b]);
        assert_eq!(f.fluid_load_rel_err, 1e-10);
        assert_eq!(f.des_load_rel_err, 0.1);
        assert_eq!(f.mean_delay_rel_err, Some(0.2));
        assert_eq!(f.fluid_mean_delay_s, Some(0.020), "means track worst class");
        assert_eq!(f.pairs_compared, 10);
        assert_eq!(f.pairs_saturated, 1);
    }

    #[test]
    fn des_seeds_are_derived_not_raw() {
        let r = validate_instance(&spec("seeds"), &cfg());
        assert_ne!(r.baseline.des_seed, r.dtr.des_seed);
        assert_ne!(r.baseline.des_seed, 5);
    }
}
