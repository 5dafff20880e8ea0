//! S2 variant: top-k early termination (Theobald et al. style, \[17\] in
//! the paper).
//!
//! Branch-and-bound like S1, but the pruning threshold *shrinks* as good
//! answers accumulate: once `k` answers are held, branches that cannot
//! beat the current k-th best score are cut. The result is exactly the
//! top-k of S1's ranking (ties at the boundary resolved by answer id),
//! so the answer-size ratio is 1 up to the k-th score and 0 beyond — the
//! sharpest possible ratio cliff.

use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use crate::search::{Policy, Search, Sink};
use smx_eval::{AnswerId, AnswerSet};

/// The best `k` answers so far, ascending by (score, id) — `AnswerSet`'s
/// ranking, so the largest id loses a score tie. Once full, the search
/// prunes against the worst of them instead of δ_max.
struct TopK {
    k: usize,
    best: Vec<(f64, AnswerId)>,
}

impl Sink for TopK {
    fn bound(&self, delta_max: f64) -> f64 {
        match self.best.last() {
            Some(&(worst, _)) if self.best.len() >= self.k => worst.min(delta_max),
            _ => delta_max,
        }
    }

    fn accept(&mut self, id: AnswerId, score: f64) {
        let at = self.best.partition_point(|&held| held < (score, id));
        self.best.insert(at, (score, id));
        self.best.truncate(self.k);
    }
}

/// Top-k early-termination matcher.
#[derive(Debug, Clone)]
pub struct TopKMatcher {
    objective: ObjectiveFunction,
    k: usize,
}

impl TopKMatcher {
    /// Build with a shared objective function and `k ≥ 1`.
    pub fn new(objective: ObjectiveFunction, k: usize) -> Self {
        TopKMatcher {
            objective,
            k: k.max(1),
        }
    }

    /// The result-list size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Matcher for TopKMatcher {
    fn name(&self) -> &str {
        "S2-topk"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let matrix = problem.cost_matrix(&self.objective);
        let search = Search::new(problem, &self.objective, Some(&matrix), delta_max, registry);
        let mut top = TopK {
            k: self.k,
            best: Vec::new(),
        };
        for sid in problem.active_schema_ids() {
            search.schema(sid, Policy::DepthFirst, &mut top);
        }
        AnswerSet::new(top.best.into_iter().map(|(score, id)| (id, score)))
            .expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveMatcher;
    use smx_synth::{Scenario, ScenarioConfig};

    fn scenario_problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 4,
            noise_schemas: 2,
            personal_nodes: 4,
            host_nodes: 7,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn returns_exactly_the_top_k_of_s1() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        for k in [1, 5, 20, 100] {
            let s2 =
                TopKMatcher::new(ObjectiveFunction::default(), k).run(&problem, 0.5, &registry);
            assert_eq!(s2.len(), k.min(s1.len()), "k={k}");
            // Identical prefix: same ids and scores as S1's head.
            let expect = s1.top_n(k);
            assert_eq!(s2.answers(), expect, "k={k}");
        }
    }

    #[test]
    fn topk_is_subset_with_same_scores() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        let s2 = TopKMatcher::new(ObjectiveFunction::default(), 10).run(&problem, 0.5, &registry);
        s2.is_subset_of(&s1).expect("top-k ⊆ exhaustive");
        assert!(s2.scores_consistent_with(&s1));
    }

    #[test]
    fn k_clamped_to_one() {
        assert_eq!(TopKMatcher::new(ObjectiveFunction::default(), 0).k(), 1);
    }
}
