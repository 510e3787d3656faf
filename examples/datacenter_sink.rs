//! Data-center backup traffic over a power-law topology: the sink model.
//!
//! The paper's second motivating workload (§1, §5.1.2): enterprises push
//! critical backup traffic to a few well-connected data centers ("sinks")
//! while ordinary traffic flows everywhere. This example contrasts the
//! two client placements of Fig. 8 — clients near the sinks ("Local")
//! versus spread across the network ("Uniform") — and shows how much of
//! DTR's advantage depends on that placement.
//!
//! ```sh
//! cargo run --release --example datacenter_sink
//! ```

use dtr::core::{DtrSearch, Objective, SearchParams, StrSearch};
use dtr::graph::gen::{power_law_topology, PowerLawTopologyCfg};
use dtr::traffic::{DemandSet, HighPriModel, SinkPattern, TrafficCfg};

fn main() {
    let topo = power_law_topology(&PowerLawTopologyCfg::default());
    let sinks = topo.nodes_by_degree_desc();
    println!(
        "power-law network: {} nodes / {} links; data centers at the 3 best-connected nodes (degrees {}, {}, {})",
        topo.node_count(),
        topo.link_count(),
        topo.degree(sinks[0]),
        topo.degree(sinks[1]),
        topo.degree(sinks[2]),
    );

    let params = SearchParams::experiment().with_seed(11);
    for pattern in [SinkPattern::Uniform, SinkPattern::Local] {
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                f: 0.20,
                k: 0.10,
                model: HighPriModel::Sink { sinks: 3, pattern },
                seed: 11,
            },
        )
        .scaled(8.0);

        let s = StrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        let d = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        println!(
            "\n{pattern:?} clients: backup Φ_H {:.1} (STR) vs {:.1} (DTR); \
             background Φ_L {:.1} (STR) vs {:.1} (DTR) → R_L = {:.2}",
            s.eval.phi_h,
            d.eval.phi_h,
            s.eval.phi_l,
            d.eval.phi_l,
            s.eval.phi_l / d.eval.phi_l
        );
    }

    println!(
        "\nPaper Fig. 8's reading: client placement changes how much DTR can help — \
         Uniform clients give DTR more low-priority pairs to reroute than Local ones. \
         Sweep load levels with `cargo run -p dtr-experiments -- fig8` for the full curves."
    );
}
