//! Shared fixtures for the differential test harnesses.
//!
//! Three suites prove bitwise identities against oracle runs: the batch
//! identity suite (`tests/batch_identity.rs`), the candidate
//! differential suite (`tests/candidate_differential.rs`), and the
//! persistence chaos gate (`smx-persist/tests/chaos.rs`). Each used to
//! carry its own copy of the matcher roster and the bitwise-comparison
//! helpers; they live here now so every suite sees the same roster and
//! a new matching system — the composable [`pipeline`](crate::pipeline)
//! was the seventh — is covered by all of them the day it lands.
//!
//! The module is compiled only with the `test-support` feature, which
//! this crate's integration tests and the persistence crate's test
//! suites enable through their dev-dependencies; the library leaves it
//! out by default.

use crate::beam::BeamMatcher;
use crate::brute_force::BruteForceMatcher;
use crate::cluster_search::ClusterMatcher;
use crate::exhaustive::ExhaustiveMatcher;
use crate::mapping::{Mapping, MappingRegistry};
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::pipeline::Pipeline;
use crate::problem::MatchProblem;
use crate::topk::TopKMatcher;
use smx_eval::AnswerSet;
use smx_repo::Repository;
use smx_xml::Schema;

/// The canonical roster: all five matching systems, plus a composed
/// filter→refine [`Pipeline`] so declarative pipelines ride through
/// every differential suite exactly like the monolithic matchers.
pub fn all_matchers() -> Vec<(&'static str, Box<dyn Matcher + Sync>)> {
    let objective = ObjectiveFunction::default;
    vec![
        ("exhaustive", Box::new(ExhaustiveMatcher::new(objective()))),
        ("brute-force", Box::new(BruteForceMatcher::new(objective()))),
        ("beam", Box::new(BeamMatcher::new(objective(), 16))),
        (
            "cluster",
            Box::new(ClusterMatcher::new(objective(), 0.55, 3)),
        ),
        ("topk", Box::new(TopKMatcher::new(objective(), 25))),
        (
            "pipeline",
            Box::new(
                Pipeline::builder(objective())
                    .candidate_filter()
                    .beam_filter(16)
                    .refine(ExhaustiveMatcher::new(objective())),
            ),
        ),
    ]
}

/// Roster names whose matcher is *complete* on the problem it is handed
/// (finds every answer under the threshold): the exhaustive searcher
/// and the no-pruning reference. Suites that assert
/// `certified_recall ≤ measured recall vs the oracle` must restrict
/// themselves to these — for the lossy heuristics the certificate only
/// covers the candidate tier's pruning, not the heuristic's own losses.
pub fn complete_matcher_names() -> &'static [&'static str] {
    &["exhaustive", "brute-force"]
}

/// Registry-independent canonical answers with bitwise score keys:
/// resolve every answer id to its [`Mapping`] and pair it with the raw
/// score bits, sorted by mapping. Two runs agree bitwise iff their
/// canonical vectors are equal — even when each run interned into its
/// own registry.
pub fn canonical_answers(answers: &AnswerSet, registry: &MappingRegistry) -> Vec<(Mapping, u64)> {
    let mut out: Vec<(Mapping, u64)> = answers
        .answers()
        .iter()
        .map(|a| {
            (
                registry.resolve(a.id).expect("answer ids are interned"),
                a.score.to_bits(),
            )
        })
        .collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

/// Assert `got` is bitwise identical to `expected`: same cardinality,
/// every answer resolves to an injective mapping, and every score
/// matches the reference bit for bit. Both sets must share `registry`;
/// for cross-registry comparisons, compare [`canonical_answers`]
/// vectors instead.
pub fn assert_answers_bitwise(
    name: &str,
    got: &AnswerSet,
    expected: &AnswerSet,
    registry: &MappingRegistry,
) {
    assert_eq!(
        got.len(),
        expected.len(),
        "{name}: answer count diverged ({} vs {})",
        got.len(),
        expected.len()
    );
    for answer in got.answers() {
        let mapping = registry
            .resolve(answer.id)
            .expect("answer ids are interned");
        assert!(
            mapping.is_injective(),
            "{name}: non-injective mapping {mapping:?}"
        );
        let reference = expected
            .score_of(answer.id)
            .unwrap_or_else(|| panic!("{name}: answer {mapping:?} missing from the reference set"));
        assert_eq!(
            answer.score.to_bits(),
            reference.to_bits(),
            "{name}: score diverged for {mapping:?} ({} vs {reference})",
            answer.score
        );
    }
}

/// Build a [`MatchProblem`] from a personal schema and a repository and
/// run `matcher` on it — the oracle-run helper every suite starts from.
/// The repository is cloned, so the caller's store state is untouched
/// by problem construction (the clone shares the same score store).
pub fn run_matcher(
    matcher: &dyn Matcher,
    personal: &Schema,
    repository: &Repository,
    delta_max: f64,
    registry: &MappingRegistry,
) -> AnswerSet {
    let problem =
        MatchProblem::new(personal.clone(), repository.clone()).expect("non-empty personal schema");
    matcher.run(&problem, delta_max, registry)
}
