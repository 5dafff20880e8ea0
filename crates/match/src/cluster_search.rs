//! S2 variant: cluster-restricted search (\[16\] in the paper — the system
//! the bounds technique was developed for).
//!
//! Repository elements are clustered by name/context features; clusters
//! are ranked against the personal schema's tokens; only the top
//! `fragments` clusters' elements remain allowed as mapping targets.
//! Schemas with no selected cluster member are skipped wholesale, which is
//! where the speed-up comes from — and why whole *score bands* of answers
//! disappear at once: the **step-shaped ratio curve** of Figure 10's
//! S2-two.
//!
//! The clustering depends only on the repository, so it is cached there
//! ([`Repository::clustering`](smx_repo::Repository::clustering)) and
//! rebuilt lazily on the first query after a mutation: per query this
//! matcher only ranks clusters and searches.
//!
//! Within a fragment the shared search kernel walks depth-first over the
//! cover's nodes in ascending order, pruning with S1's admissible bound.

use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use crate::search::{Policy, Search};
use smx_eval::AnswerSet;
use smx_repo::{fragments_for_clusters, query_features, Fragment};

/// Cluster-restricted matcher.
#[derive(Debug, Clone)]
pub struct ClusterMatcher {
    objective: ObjectiveFunction,
    /// Greedy-clustering similarity threshold.
    cluster_threshold: f64,
    /// How many top-ranked clusters stay searchable.
    fragments: usize,
}

impl ClusterMatcher {
    /// Build with a shared objective function, a clustering threshold in
    /// `[0, 1]`, and the number of top clusters to search.
    pub fn new(objective: ObjectiveFunction, cluster_threshold: f64, fragments: usize) -> Self {
        ClusterMatcher {
            objective,
            cluster_threshold: cluster_threshold.clamp(0.0, 1.0),
            fragments: fragments.max(1),
        }
    }

    /// Number of clusters searched.
    pub fn fragments(&self) -> usize {
        self.fragments
    }
}

impl Matcher for ClusterMatcher {
    fn name(&self) -> &str {
        "S2-cluster"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let repo = problem.repository();
        let personal = problem.personal();
        // 1. Fetch the repository's cached clustering (built here only on
        //    the first query after a mutation) and rank its clusters
        //    against the query.
        let clustering = repo.clustering(self.cluster_threshold);
        let names: Vec<&str> = personal
            .node_ids()
            .map(|id| personal.node(id).name.as_str())
            .collect();
        let query = query_features(&names);
        let ranked = clustering.rank_against(&query);
        let selected: Vec<usize> = ranked
            .iter()
            .take(self.fragments)
            .map(|&(i, _)| i)
            .collect();
        let fragments: Vec<Fragment> = fragments_for_clusters(repo, &clustering, &selected);

        // 2. Search each fragment's schema with targets restricted to
        //    the fragment cover, bounded like S1.
        let matrix = problem.cost_matrix(&self.objective);
        let search = Search::new(problem, &self.objective, Some(&matrix), delta_max, registry);
        let mut found = Vec::new();
        for fragment in &fragments {
            if problem.is_active(fragment.schema) {
                search.schema(fragment.schema, Policy::Within(&fragment.cover), &mut found);
            }
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
            derived_schemas: 4,
            noise_schemas: 3,
            personal_nodes: 4,
            host_nodes: 7,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn cluster_matcher_is_subset_of_exhaustive() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.45, &registry);
        for fragments in [1, 3, 8] {
            let s2 = ClusterMatcher::new(ObjectiveFunction::default(), 0.5, fragments)
                .run(&problem, 0.45, &registry);
            s2.is_subset_of(&s1).expect("cluster ⊆ exhaustive");
            assert!(s2.scores_consistent_with(&s1), "fragments {fragments}");
        }
    }

    #[test]
    fn more_fragments_find_no_fewer_answers() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let few = ClusterMatcher::new(ObjectiveFunction::default(), 0.5, 1)
            .run(&problem, 0.45, &registry);
        let many = ClusterMatcher::new(ObjectiveFunction::default(), 0.5, 10)
            .run(&problem, 0.45, &registry);
        assert!(few.len() <= many.len());
    }

    #[test]
    fn restriction_actually_restricts() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.45, &registry);
        let s2 = ClusterMatcher::new(ObjectiveFunction::default(), 0.6, 1)
            .run(&problem, 0.45, &registry);
        assert!(
            s2.len() < s1.len(),
            "one fragment should lose answers ({} vs {})",
            s2.len(),
            s1.len()
        );
    }

    #[test]
    fn parameters_clamped() {
        let m = ClusterMatcher::new(ObjectiveFunction::default(), 2.0, 0);
        assert_eq!(m.fragments(), 1);
    }
}
