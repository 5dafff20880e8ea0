//! S1: the exhaustive matcher (branch-and-bound, provably complete).
//!
//! Depth-first assignment of personal nodes in arena order with an
//! admissible lower bound: the partial cost so far plus the sum of each
//! unassigned node's *minimum possible* node cost (edge penalties are
//! non-negative, so ignoring them keeps the bound admissible). A branch
//! is pruned only when even this optimistic completion exceeds δ_max —
//! therefore every mapping with Δ ≤ δ_max is found, which is what
//! "exhaustive for threshold δ" means in the paper (§2.1).
//!
//! The walk is the shared search kernel's depth-first policy with the
//! fixed budget δ_max. Node costs and bounds come from the problem's
//! precomputed [`CostMatrix`](crate::CostMatrix); the
//! [`ExhaustiveMatcher::direct`] constructor keeps the old
//! recompute-per-run evaluation as a benchmark baseline and score-identity
//! reference.

use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use crate::search::{Policy, Search};
use smx_eval::AnswerSet;

/// How a matcher obtains node costs and final mapping scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Read from the problem's cached [`CostMatrix`](crate::CostMatrix)
    /// (the fast default).
    #[default]
    Precomputed,
    /// Recompute string similarity per run — the pre-engine behaviour,
    /// kept as the benchmark baseline and as an identity reference.
    Direct,
}

/// The exhaustive branch-and-bound matcher (the paper's S1).
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveMatcher {
    objective: ObjectiveFunction,
    mode: ScoringMode,
}

impl ExhaustiveMatcher {
    /// Build with a shared objective function (matrix-backed scoring).
    pub fn new(objective: ObjectiveFunction) -> Self {
        ExhaustiveMatcher {
            objective,
            mode: ScoringMode::Precomputed,
        }
    }

    /// Build a matcher that bypasses the precomputed engine and evaluates
    /// the objective directly, as the seed implementation did.
    pub fn direct(objective: ObjectiveFunction) -> Self {
        ExhaustiveMatcher {
            objective,
            mode: ScoringMode::Direct,
        }
    }
}

impl Matcher for ExhaustiveMatcher {
    fn name(&self) -> &str {
        "S1-exhaustive"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let matrix = match self.mode {
            ScoringMode::Precomputed => Some(problem.cost_matrix(&self.objective)),
            ScoringMode::Direct => None,
        };
        let search = Search::new(
            problem,
            &self.objective,
            matrix.as_deref(),
            delta_max,
            registry,
        );
        let mut found = Vec::new();
        for sid in problem.active_schema_ids() {
            search.schema(sid, Policy::DepthFirst, &mut found);
        }
        AnswerSet::new(found).expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForceMatcher;
    use crate::mapping::Mapping;
    use smx_repo::{Repository, SchemaId};
    use smx_synth::{Scenario, ScenarioConfig};
    use smx_xml::{NodeId, PrimitiveType, SchemaBuilder};

    fn small_problem() -> MatchProblem {
        let personal = SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .leaf("year", PrimitiveType::Integer)
            .build();
        let mut repo = Repository::new();
        repo.add(
            SchemaBuilder::new("bib")
                .root("bibliography")
                .child("book", |b| {
                    b.leaf("title", PrimitiveType::String)
                        .leaf("year", PrimitiveType::Integer)
                        .leaf("price", PrimitiveType::Decimal)
                })
                .build(),
        );
        repo.add(
            SchemaBuilder::new("shop")
                .root("store")
                .child("order", |o| {
                    o.leaf("date", PrimitiveType::Date)
                        .leaf("total", PrimitiveType::Decimal)
                })
                .build(),
        );
        MatchProblem::new(personal, repo).unwrap()
    }

    #[test]
    fn agrees_with_brute_force_at_every_threshold() {
        let problem = small_problem();
        for delta_max in [0.1, 0.25, 0.4, 0.6, 1.0] {
            let reg_a = MappingRegistry::new();
            let reg_b = MappingRegistry::new();
            let fast = ExhaustiveMatcher::default().run(&problem, delta_max, &reg_a);
            let slow = BruteForceMatcher::default().run(&problem, delta_max, &reg_b);
            assert_eq!(fast.len(), slow.len(), "δ={delta_max}");
            // Same mappings with same scores (ids differ across registries,
            // so compare resolved mappings + scores).
            let mut a: Vec<(Mapping, f64)> = fast
                .answers()
                .iter()
                .map(|s| (reg_a.resolve(s.id).unwrap(), s.score))
                .collect();
            let mut b: Vec<(Mapping, f64)> = slow
                .answers()
                .iter()
                .map(|s| (reg_b.resolve(s.id).unwrap(), s.score))
                .collect();
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(a, b, "δ={delta_max}");
        }
    }

    #[test]
    fn best_answer_is_the_planted_mapping() {
        let problem = small_problem();
        let registry = MappingRegistry::new();
        let answers = ExhaustiveMatcher::default().run(&problem, 1.0, &registry);
        let best = answers.answers().first().unwrap();
        let mapping = registry.resolve(best.id).unwrap();
        assert_eq!(mapping.schema, SchemaId(0));
        // book→book(n1), title→title(n2), year→year(n3).
        assert_eq!(mapping.targets, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn monotone_in_threshold() {
        let problem = small_problem();
        let registry = MappingRegistry::new();
        let matcher = ExhaustiveMatcher::default();
        let small = matcher.run(&problem, 0.3, &registry);
        let large = matcher.run(&problem, 0.6, &registry);
        assert!(small.is_subset_of(&large).is_ok());
        assert!(small.scores_consistent_with(&large));
    }

    #[test]
    fn works_on_generated_scenarios() {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 4,
            noise_schemas: 2,
            personal_nodes: 4,
            host_nodes: 8,
            ..Default::default()
        });
        let problem = MatchProblem::new(sc.personal.clone(), sc.repository.clone()).unwrap();
        let registry = MappingRegistry::new();
        let answers = ExhaustiveMatcher::default().run(&problem, 0.35, &registry);
        // The planted correct mappings score well: at least one correct
        // mapping appears among the answers.
        let correct_found = sc.correct.iter().any(|cm| {
            let mapping = Mapping {
                schema: cm.schema,
                targets: cm.targets.iter().map(|&(_, r)| r).collect(),
            };
            let id = registry.intern(mapping);
            answers.score_of(id).is_some()
        });
        assert!(correct_found, "no planted mapping retrieved at δ=0.35");
    }
}
