//! Workload inputs, generated from the workload seed.
//!
//! The corpus manifests are compiled in; every seed a manifest carries
//! (topology generator, traffic, search) is replaced by one derived from
//! the workload seed, so the program only ever sees generated inputs and
//! a different seed gives different instances of the same shapes.

use crate::stats::derive;
use dtr_scenario::{ScenarioSpec, TopologySpec};

/// The corpus manifests the workloads draw from, by name.
const MANIFESTS: &[(&str, &str)] = &[
    (
        "fattree4-stride",
        include_str!("../../corpus/fattree4-stride.json"),
    ),
    (
        "grid-torus-stride",
        include_str!("../../corpus/grid-torus-stride.json"),
    ),
    (
        "grid9-quadclass-sla",
        include_str!("../../corpus/grid9-quadclass-sla.json"),
    ),
    (
        "hierarchical-hotspot",
        include_str!("../../corpus/hierarchical-hotspot.json"),
    ),
    ("isp-gravity", include_str!("../../corpus/isp-gravity.json")),
    (
        "isp-partial-upgrade",
        include_str!("../../corpus/isp-partial-upgrade.json"),
    ),
    (
        "isp-sink-local",
        include_str!("../../corpus/isp-sink-local.json"),
    ),
    (
        "jellyfish20-skewed",
        include_str!("../../corpus/jellyfish20-skewed.json"),
    ),
    (
        "powerlaw30-skewed",
        include_str!("../../corpus/powerlaw30-skewed.json"),
    ),
    (
        "random10-partial-sparse",
        include_str!("../../corpus/random10-partial-sparse.json"),
    ),
    (
        "random10-triclass-sla",
        include_str!("../../corpus/random10-triclass-sla.json"),
    ),
    (
        "random12-smoke",
        include_str!("../../corpus/random12-smoke.json"),
    ),
    (
        "random30-gravity",
        include_str!("../../corpus/random30-gravity.json"),
    ),
    ("vl2-hotspot", include_str!("../../corpus/vl2-hotspot.json")),
    (
        "waxman50-gravity",
        include_str!("../../corpus/waxman50-gravity.json"),
    ),
    (
        "xpander20-portfolio",
        include_str!("../../corpus/xpander20-portfolio.json"),
    ),
    (
        "fattree16-gravity",
        include_str!("../../corpus/fattree16-gravity.json"),
    ),
];

/// The 16 mid-size manifests (every corpus manifest except
/// `fattree16-gravity`, `jellyfish500-skewed` and
/// `rocketfuel1200-gravity`).
pub fn mid_size() -> impl Iterator<Item = &'static str> {
    MANIFESTS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| *n != "fattree16-gravity")
}

/// A small seed in `1..=999_983` derived from `(seed, tag)`.
pub fn small_seed(seed: u64, tag: u64) -> u64 {
    derive(seed, tag) % 999_983 + 1
}

fn index_of(name: &str) -> usize {
    MANIFESTS
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown manifest {name}"))
}

/// Manifest `name` exactly as checked in.
pub fn checked_in(name: &str) -> ScenarioSpec {
    serde_json::from_str(MANIFESTS[index_of(name)].1).expect("corpus manifest parses")
}

/// Manifest `name` with every seed derived from `seed`.
pub fn manifest(name: &str, seed: u64) -> ScenarioSpec {
    let mut spec = checked_in(name);
    let tag = 1000 * (index_of(name) as u64 + 1);
    let s = small_seed(seed, tag);
    match &mut spec.topology {
        TopologySpec::Random { seed, .. }
        | TopologySpec::PowerLaw { seed, .. }
        | TopologySpec::Waxman { seed, .. }
        | TopologySpec::Hierarchical { seed, .. }
        | TopologySpec::Jellyfish { seed, .. }
        | TopologySpec::Xpander { seed, .. }
        | TopologySpec::Rocketfuel { seed, .. } => *seed = s,
        TopologySpec::Isp
        | TopologySpec::Grid { .. }
        | TopologySpec::FatTree { .. }
        | TopologySpec::Vl2 { .. } => {}
    }
    spec.traffic.seed = Some(small_seed(seed, tag + 1));
    let mut search = spec.search();
    search.seed = Some(small_seed(seed, tag + 2));
    spec.search = Some(search);
    spec.validate()
        .unwrap_or_else(|e| panic!("generated manifest {name} is invalid: {e}"));
    spec
}

/// `waxman50-gravity` as a three-class instance under the load
/// objective (the k ≥ 3 `multi` path).
pub fn waxman50_triclass(seed: u64) -> ScenarioSpec {
    let mut spec = manifest("waxman50-gravity", seed);
    spec.name = "waxman50-gravity-3class".to_string();
    spec.traffic.fractions = Some(vec![0.2, 0.15]);
    spec.traffic.densities = Some(vec![0.1, 0.2]);
    spec.objective = Some(
        serde_json::from_str(r#"{"classes": ["Load", "Load", "Load"]}"#)
            .expect("three-class load objective parses"),
    );
    spec.validate()
        .unwrap_or_else(|e| panic!("three-class waxman50 is invalid: {e}"));
    spec
}

/// Names of the smoke-tagged manifests.
pub fn smoke() -> Vec<&'static str> {
    MANIFESTS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| checked_in(n).is_smoke())
        .collect()
}

/// Canonical text of a spec list, for input fingerprints.
pub fn specs_text(specs: &[ScenarioSpec]) -> String {
    specs
        .iter()
        .map(|s| serde_json::to_string(s).expect("spec serializes"))
        .collect::<Vec<_>>()
        .join("\n")
}
