//! The generational STR baselines: the genetic algorithm (related work
//! \[3\]) and its memetic refinement (related work \[4\]).
//!
//! Ericsson, Resende & Pardalos solved the OSPF weight-setting problem
//! with a genetic algorithm; Buriol, Resende, Ribeiro & Thorup improved
//! on it by refining every offspring with a short hill-climb before it
//! joins the population. The paper's §2 cites both as descendants of
//! Fortz–Thorup \[2\]. Here they are one loop: the textbook generational
//! scheme with elitism (tournament selection, uniform per-link
//! crossover, per-link reset mutation) plus [`MemeticParams::local_steps`]
//! greedy single-weight-change probes per individual.
//! [`MemeticSearch::ga`] is the genetic algorithm, the same loop with no
//! hill-climb; it keeps its own RNG salt and population size, so the two
//! strategies explore independent candidate streams. Fitness is the
//! lexicographic objective, so comparisons are exact (no scalarization).
//!
//! Every evaluation (parents, offspring, and hill-climb probes) is
//! charged against [`SearchParams::dtr_eval_budget`], so the comparison
//! with [`crate::StrSearch`] and [`crate::AnnealSearch`] is effort-fair.

use crate::neighborhood::single_change;
use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::SharedBound;
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_routing::{Evaluation, Evaluator};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Population knobs; the evaluation budget still comes from
/// [`SearchParams`] so the generational and local searches are
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Individuals per generation.
    pub population: usize,
    /// Fraction of each generation copied unchanged (elitism).
    pub elite_frac: f64,
    /// Per-link probability of reset mutation after crossover.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 50,
            elite_frac: 0.2,
            mutation_rate: 0.02,
            tournament: 3,
        }
    }
}

/// Memetic knobs: the underlying GA plus the hill-climb length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemeticParams {
    /// Population / selection / crossover / mutation knobs.
    pub ga: GaParams,
    /// Greedy single-weight-change steps applied to each offspring (each
    /// step evaluates one probe; an accepted probe replaces the
    /// offspring). Zero is the plain genetic algorithm.
    pub local_steps: usize,
}

impl Default for MemeticParams {
    fn default() -> Self {
        MemeticParams {
            // A smaller population than the pure GA: part of the budget
            // goes to the hill-climbs.
            ga: GaParams {
                population: 20,
                ..GaParams::default()
            },
            local_steps: 8,
        }
    }
}

/// Outcome of a generational run.
#[derive(Debug, Clone)]
pub struct MemeticResult {
    /// Best weight setting found.
    pub weights: WeightVector,
    /// Its full evaluation.
    pub eval: Evaluation,
    /// Its objective value.
    pub best_cost: Lex2,
    /// Generations executed.
    pub generations: usize,
    /// Hill-climb probes that improved their offspring (0 for the GA).
    pub local_improvements: usize,
    /// Telemetry (evaluations, improvements).
    pub trace: SearchTrace,
}

/// The generational optimizer for single-topology weights.
pub struct MemeticSearch<'a> {
    evaluator: Evaluator<'a>,
    params: SearchParams,
    memetic: MemeticParams,
    /// XOR-ed into the seed so strategy ablations with a shared `seed`
    /// explore independent candidate streams.
    salt: u64,
    bound: Option<Arc<SharedBound>>,
}

impl<'a> MemeticSearch<'a> {
    /// Prepares a memetic search with default [`MemeticParams`].
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        MemeticSearch {
            evaluator: Evaluator::new(topo, demands, objective),
            params,
            memetic: MemeticParams::default(),
            salt: 0x6d65_6d65_7469_0001,
            bound: None,
        }
    }

    /// Prepares the genetic algorithm: the default [`GaParams`] and no
    /// hill-climb.
    pub fn ga(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        MemeticSearch {
            memetic: MemeticParams {
                ga: GaParams::default(),
                local_steps: 0,
            },
            salt: 0x6761_0000_0000_0001,
            ..Self::new(topo, demands, objective, params)
        }
    }

    /// Attaches a portfolio's shared incumbent bound (publish +
    /// telemetry only — never changes the trajectory or result; see
    /// [`crate::DtrSearch::with_shared_bound`]).
    pub fn with_shared_bound(mut self, bound: Arc<SharedBound>) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Overrides the memetic knobs.
    pub fn with_memetic_params(mut self, memetic: MemeticParams) -> Self {
        assert!(memetic.ga.population >= 2);
        assert!((0.0..1.0).contains(&memetic.ga.elite_frac));
        assert!((0.0..=1.0).contains(&memetic.ga.mutation_rate));
        assert!(memetic.ga.tournament >= 1);
        self.memetic = memetic;
        self
    }

    /// Evaluates a new individual and refines it with a greedy
    /// hill-climb: up to `local_steps` probes, each a single-weight
    /// change; an improving probe is adopted immediately and counted in
    /// `adopted`. With no steps it draws and evaluates nothing more.
    fn admit(
        &mut self,
        mut w: WeightVector,
        budget: usize,
        rng: &mut StdRng,
        trace: &mut SearchTrace,
        adopted: &mut usize,
    ) -> (Lex2, WeightVector) {
        let mut cost = self.evaluator.eval_str(&w).cost;
        trace.evaluations += 1;
        for _ in 0..self.memetic.local_steps {
            if trace.evaluations >= budget {
                break;
            }
            let probe = single_change(&w, &self.params, rng);
            let c = self.evaluator.eval_str(&probe).cost;
            trace.evaluations += 1;
            if c < cost {
                cost = c;
                w = probe;
                *adopted += 1;
            }
        }
        (cost, w)
    }

    /// Runs until the evaluation budget is spent.
    pub fn run(mut self) -> MemeticResult {
        let bound = self.bound.take();
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ self.salt);
        let n_links = self.evaluator.topo().link_count();
        let budget = self.params.dtr_eval_budget();
        let ga = self.memetic.ga;
        let (min_w, max_w) = (self.params.min_weight, self.params.max_weight);
        let mut trace = SearchTrace::default();
        let mut local_improvements = 0usize;

        // Initial population: the uniform operator default plus random
        // immigrants.
        let mut pop: Vec<(Lex2, WeightVector)> = Vec::with_capacity(ga.population);
        let mut w = WeightVector::uniform(self.evaluator.topo(), 1);
        loop {
            pop.push(self.admit(w, budget, &mut rng, &mut trace, &mut local_improvements));
            if pop.len() >= ga.population || trace.evaluations >= budget {
                break;
            }
            w = WeightVector::from_vec(
                (0..n_links)
                    .map(|_| rng.random_range(min_w..=max_w))
                    .collect(),
            );
        }
        pop.sort_by_key(|a| a.0);
        let mut best = pop[0].clone();
        trace.improved(0, Phase::Str, best.0);
        if let Some(b) = &bound {
            b.observe(best.0.primary);
        }

        let elite = ((ga.population as f64 * ga.elite_frac) as usize).max(1);
        let mut generations = 0;

        while trace.evaluations < budget {
            generations += 1;
            let mut next: Vec<(Lex2, WeightVector)> = pop[..elite.min(pop.len())].to_vec();
            while next.len() < ga.population && trace.evaluations < budget {
                let p1 = tournament_pick(&pop, ga.tournament, &mut rng);
                let p2 = tournament_pick(&pop, ga.tournament, &mut rng);
                let mut child: Vec<u32> = (0..n_links)
                    .map(|i| {
                        let lid = LinkId(i as u32);
                        if rng.random_bool(0.5) {
                            p1.get(lid)
                        } else {
                            p2.get(lid)
                        }
                    })
                    .collect();
                for w in child.iter_mut() {
                    if rng.random_bool(ga.mutation_rate) {
                        *w = rng.random_range(min_w..=max_w);
                    }
                }
                let child = WeightVector::from_vec(child);
                next.push(self.admit(child, budget, &mut rng, &mut trace, &mut local_improvements));
            }
            next.sort_by_key(|a| a.0);
            next.truncate(ga.population);
            pop = next;
            if pop[0].0 < best.0 {
                best = pop[0].clone();
                trace.improved(generations, Phase::Str, best.0);
                if let Some(b) = &bound {
                    b.observe(best.0.primary);
                }
            }
            if let Some(b) = &bound {
                if b.dominates(best.0.primary) {
                    trace.dominated_checkpoints += 1;
                }
            }
            trace.iterations += 1;
        }

        let eval = self.evaluator.eval_str(&best.1);
        MemeticResult {
            weights: best.1,
            best_cost: best.0,
            eval,
            generations,
            local_improvements,
            trace,
        }
    }
}

fn tournament_pick<'p>(
    pop: &'p [(Lex2, WeightVector)],
    tournament: usize,
    rng: &mut StdRng,
) -> &'p WeightVector {
    let mut best: Option<&(Lex2, WeightVector)> = None;
    for _ in 0..tournament {
        let cand = &pop[rng.random_range(0..pop.len())];
        if best.is_none_or(|b| cand.0 < b.0) {
            best = Some(cand);
        }
    }
    &best.expect("tournament size ≥ 1").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_traffic::{TrafficCfg, TrafficMatrix};

    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    #[test]
    fn memetic_finds_triangle_str_optimum() {
        let (topo, demands) = triangle_instance();
        let res = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        assert!((res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!((res.eval.phi_l - 64.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn ga_finds_triangle_str_optimum() {
        let (topo, demands) = triangle_instance();
        let res = MemeticSearch::ga(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        assert!((res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!((res.eval.phi_l - 64.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn ga_respects_eval_budget_and_improves() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 2,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 2,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let params = SearchParams::tiny().with_seed(2);
        let res = MemeticSearch::ga(&topo, &demands, Objective::LoadBased, params).run();
        assert!(res.trace.evaluations <= params.dtr_eval_budget());
        // The uniform-weight seed is in the initial population, so the
        // result can never be worse than it.
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let uniform_cost = ev.eval_str(&WeightVector::uniform(&topo, 1)).cost;
        assert!(res.best_cost <= uniform_cost);
        assert!(res.generations > 0);
        // No hill-climb: nothing to adopt.
        assert_eq!(res.local_improvements, 0);
    }

    #[test]
    fn ga_is_deterministic_in_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 3,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 3,
                ..Default::default()
            },
        );
        let run = || {
            MemeticSearch::ga(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(9),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn respects_eval_budget() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 5,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 5,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let params = SearchParams::tiny().with_seed(5);
        let res = MemeticSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        assert!(res.trace.evaluations <= params.dtr_eval_budget());
        assert!(res.generations > 0);
    }

    #[test]
    fn never_worse_than_uniform_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 6,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let uniform_cost = ev.eval_str(&WeightVector::uniform(&topo, 1)).cost;
        let res = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(6),
        )
        .run();
        assert!(res.best_cost <= uniform_cost);
    }

    #[test]
    fn deterministic_in_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 4,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 4,
                ..Default::default()
            },
        );
        let run = || {
            MemeticSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(21),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.local_improvements, b.local_improvements);
    }

    #[test]
    fn hill_climb_reverts_non_improving_probes() {
        // With zero local steps the memetic search degenerates to the GA;
        // with steps it must never return something worse.
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 9,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 9,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let base = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(2),
        )
        .with_memetic_params(MemeticParams {
            local_steps: 0,
            ..Default::default()
        })
        .run();
        let refined = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(2),
        )
        .run();
        // Same budget; both are valid searches, so just sanity-check both
        // produce finite costs and the refined run recorded hill-climb
        // activity.
        assert!(base.best_cost.primary.is_finite());
        assert!(refined.best_cost.primary.is_finite());
        assert!(refined.local_improvements > 0 || refined.trace.evaluations < 50);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_params() {
        let (topo, demands) = triangle_instance();
        let _ = MemeticSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_memetic_params(MemeticParams {
                ga: GaParams {
                    population: 1,
                    ..Default::default()
                },
                ..Default::default()
            });
    }
}
