//! Repeated `MatchProblem`s against one `Repository` must reuse the
//! repository's label score store: label profiles are built at ingest
//! only, and a repeat query refills its cost matrix without a single new
//! pair evaluation. The store's work counters make both claims testable —
//! always read through the consistent [`StoreCounters`] snapshot
//! (`store.counters()`), never through individual relaxed atomic loads,
//! so these assertions cannot flake under concurrent sweeps.

use smx_match::{ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher, ObjectiveFunction};
use smx_synth::{Scenario, ScenarioConfig};

fn scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        derived_schemas: 4,
        noise_schemas: 3,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed: 42,
        ..Default::default()
    })
}

#[test]
fn repeated_problems_share_all_label_level_work() {
    let sc = scenario();
    let repository = sc.repository;
    let store_labels = repository.store().len() as u64;
    let ingest = repository.store().counters();
    assert_eq!(
        ingest.profile_builds, store_labels,
        "profiles are built once per distinct label"
    );
    assert_eq!(ingest.pair_evals, 0, "ingest must not score pairs");
    assert_eq!(ingest.row_lookups, 0);

    let objective = ObjectiveFunction::default();

    // First problem: the cold fill sweeps one row per distinct personal
    // label.
    let p1 = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    p1.cost_matrix(&objective);
    let distinct_personal = p1.distinct_personal_labels().len() as u64;
    let cold = repository.store().counters();
    assert_eq!(
        cold.pair_evals,
        distinct_personal * store_labels,
        "cold fill = one kernel sweep per distinct personal label"
    );
    assert_eq!(cold.row_misses, distinct_personal);
    assert_eq!(cold.row_hits + cold.row_misses, cold.row_lookups);

    // Second problem against the same repository: the matrix refills from
    // cached rows — zero pair evaluations, zero profile builds, all hits.
    let p2 = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    p2.cost_matrix(&objective);
    let warm = repository.store().counters();
    assert_eq!(
        warm.pair_evals, cold.pair_evals,
        "repeat query evaluated pairs"
    );
    assert_eq!(warm.profile_builds, cold.profile_builds);
    assert_eq!(warm.row_hits, cold.row_hits + distinct_personal);
    assert_eq!(warm.row_misses, cold.row_misses);
    assert_eq!(warm.row_hits + warm.row_misses, warm.row_lookups);
    assert_eq!(warm.row_evictions, 0, "unbounded store never evicts");

    // And the reuse is invisible to scores: both problems' matchers
    // produce identical answer sets.
    let registry = MappingRegistry::new();
    let a1 = ExhaustiveMatcher::default().run(&p1, 0.4, &registry);
    let a2 = ExhaustiveMatcher::default().run(&p2, 0.4, &registry);
    assert_eq!(a1, a2);
    assert!(!a1.is_empty());
}

#[test]
fn cleared_rows_recompute_to_identical_values() {
    let sc = scenario();
    let repository = sc.repository;
    let objective = ObjectiveFunction::default();
    let p1 = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    let warm = p1.cost_matrix(&objective);
    let warm_evals = repository.store().counters().pair_evals;

    repository.clear_score_rows();
    let p2 = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    let cold = p2.cost_matrix(&objective);
    assert!(
        repository.store().counters().pair_evals > warm_evals,
        "cleared store must re-sweep"
    );
    for (sid, schema) in p2.repository().iter() {
        let (a, b) = (warm.table(sid), cold.table(sid));
        for level in 0..p2.personal_size() {
            for node in 0..schema.len() {
                assert_eq!(a.cost(level, node).to_bits(), b.cost(level, node).to_bits());
            }
        }
    }
}

/// The zero-new-pairs guarantee, adapted for eviction: with the LRU
/// bound below the query vocabulary, a repeat problem *does* re-sweep
/// the evicted rows — but the recomputation is bitwise invisible to
/// answers, and the cache honours its bound throughout.
#[test]
fn bounded_store_recomputes_evicted_rows_without_changing_answers() {
    // Unbounded oracle: same scenario seed ⇒ bitwise-identical twin.
    let sc_oracle = scenario();
    let oracle_problem =
        MatchProblem::new(sc_oracle.personal.clone(), sc_oracle.repository.clone()).unwrap();
    let oracle_registry = MappingRegistry::new();
    let want = ExhaustiveMatcher::default().run(&oracle_problem, 0.4, &oracle_registry);

    let sc = scenario();
    let repository = sc.repository;
    repository.store().set_max_cached_rows(Some(1));
    let distinct_personal = {
        let p = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
        p.distinct_personal_labels().len()
    };
    assert!(
        distinct_personal > 1,
        "scenario must exceed the bound for this test to bite"
    );

    let registry = MappingRegistry::new();
    let p1 = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    let a1 = ExhaustiveMatcher::default().run(&p1, 0.4, &registry);
    let after_first = repository.store().counters();
    assert!(
        after_first.row_evictions > 0,
        "bound below the vocabulary must evict"
    );

    let p2 = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    let a2 = ExhaustiveMatcher::default().run(&p2, 0.4, &registry);
    let after_second = repository.store().counters();
    assert!(
        after_second.pair_evals > after_first.pair_evals,
        "the repeat problem must re-sweep evicted rows"
    );
    assert!(repository.store().cached_rows() <= 1);
    assert_eq!(
        after_second.row_hits + after_second.row_misses,
        after_second.row_lookups
    );

    // Eviction is invisible to results: repeat run and unbounded oracle
    // agree (fresh registries intern in the same deterministic order, so
    // even ids align).
    assert_eq!(a1, a2);
    assert_eq!(a1, want);
    assert!(!a1.is_empty());
}
