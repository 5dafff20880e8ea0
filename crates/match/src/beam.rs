//! S2 variant: per-schema beam search (the iMap-style improvement the
//! paper cites as a non-exhaustive system keeping the objective function).
//!
//! Assignment proceeds level-by-level over the personal nodes; at each
//! level only the `width` best partial assignments (by accumulated
//! partial cost) survive. Cheap answers are almost always found — partial
//! costs of good mappings stay at the front of the beam — while expensive
//! answers are lost with increasing probability: the **smoothly declining
//! answer-size-ratio curve** of Figure 10's S2-one.
//!
//! The frontier is the shared search kernel's beam policy: partials are
//! parent-pointer records, each level keeps its `width` cheapest by
//! partial selection, and a child is never pooled when its cost plus the
//! admissible completion bound (`suffix_min`, the row minima of the
//! levels still to assign) already exceeds the δ_max budget. Those
//! children are the costliest tail of their level, and every descendant
//! of one exceeds the budget too, so they could only take slots no
//! partial within budget wanted: the answers, their score bits and their
//! interning order are those of a textbook beam with no bound
//! (`tests/beam_reference.rs`), at a fraction of the expansions.

use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use crate::search::{Policy, Search};
use smx_eval::AnswerSet;

/// Beam-search matcher with a fixed beam width per schema.
#[derive(Debug, Clone)]
pub struct BeamMatcher {
    objective: ObjectiveFunction,
    width: usize,
}

impl BeamMatcher {
    /// Build with a shared objective function and beam `width ≥ 1`.
    pub fn new(objective: ObjectiveFunction, width: usize) -> Self {
        BeamMatcher {
            objective,
            width: width.max(1),
        }
    }

    /// The beam width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Matcher for BeamMatcher {
    fn name(&self) -> &str {
        "S2-beam"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let matrix = problem.cost_matrix(&self.objective);
        let search = Search::new(problem, &self.objective, Some(&matrix), delta_max, registry);
        let mut found = Vec::new();
        for sid in problem.active_schema_ids() {
            search.schema(sid, Policy::Beam(self.width), &mut found);
        }
        AnswerSet::new(found).expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveMatcher;
    use smx_synth::{Scenario, ScenarioConfig};

    fn scenario_problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 5,
            noise_schemas: 3,
            personal_nodes: 4,
            host_nodes: 8,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn beam_is_subset_of_exhaustive_with_same_scores() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        for width in [1, 4, 16, 64] {
            let s2 =
                BeamMatcher::new(ObjectiveFunction::default(), width).run(&problem, 0.5, &registry);
            s2.is_subset_of(&s1).expect("beam ⊆ exhaustive");
            assert!(s2.scores_consistent_with(&s1), "width {width}");
        }
    }

    #[test]
    fn wider_beams_find_no_fewer_answers() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let narrow =
            BeamMatcher::new(ObjectiveFunction::default(), 2).run(&problem, 0.5, &registry);
        let wide = BeamMatcher::new(ObjectiveFunction::default(), 32).run(&problem, 0.5, &registry);
        assert!(narrow.len() <= wide.len());
    }

    #[test]
    fn huge_beam_equals_exhaustive_on_tiny_problem() {
        // With a beam wider than the whole level, nothing is cut.
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.3, &registry);
        let s2 =
            BeamMatcher::new(ObjectiveFunction::default(), 100_000).run(&problem, 0.3, &registry);
        assert_eq!(s1.len(), s2.len());
    }

    #[test]
    fn best_answers_survive_narrow_beams() {
        // The top-ranked S1 answer should be found even by a narrow beam —
        // the paper's observation that the top of the ranking is reliable.
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        let s2 = BeamMatcher::new(ObjectiveFunction::default(), 8).run(&problem, 0.5, &registry);
        if let Some(best) = s1.answers().first() {
            assert!(
                s2.score_of(best.id).is_some(),
                "beam(8) lost the top-ranked answer"
            );
        }
    }

    #[test]
    fn width_clamped_to_one() {
        assert_eq!(BeamMatcher::new(ObjectiveFunction::default(), 0).width(), 1);
    }
}
