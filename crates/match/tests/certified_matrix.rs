//! The certified matrix: fixed-budget [`CertifiedMatcher`] crossed with
//! every matching system in the shared roster, asserting exactly what
//! each class of inner matcher can promise.
//!
//! * **Complete** inner matchers (exhaustive, brute-force)
//!   find everything the restriction leaves reachable, so the
//!   certificate bounds recall against the *exhaustive oracle*.
//! * **Restriction-monotone heuristics** (beam, cluster, and the
//!   composed pipeline) search each schema independently of the others,
//!   so their restricted run equals their unrestricted run intersected
//!   with the surviving schemas — the certificate bounds recall against
//!   the matcher's *own unrestricted run*. It does **not** bound recall
//!   vs the oracle: the heuristic's own losses are outside the tier.
//! * **Global-budget heuristics** (top-k, whose dynamic pruning
//!   threshold is shared across schemas) promise neither: pruning one
//!   schema can *promote* deeper answers from another into the top k,
//!   so the restricted run is not a subset of the unrestricted one.
//!   What survives: answers stay a score-consistent subset of the
//!   oracle, and the certificate stays well-formed.

use smx_match::test_support::{all_matchers, complete_matcher_names};
use smx_match::*;
use smx_synth::{Domain, Scenario, ScenarioConfig};

const DELTA_MAX: f64 = 0.4;
const BUDGETS: [usize; 6] = [0, 1, 2, 4, 8, 64];

/// Roster names whose restricted run equals the unrestricted run
/// intersected with the surviving schemas (per-schema-independent
/// search; cluster ranking reads the whole repository either way).
const RESTRICTION_MONOTONE: &[&str] = &["beam", "cluster", "pipeline"];

fn problem(seed: u64, domain: Domain) -> MatchProblem {
    let sc = Scenario::generate(ScenarioConfig {
        domain,
        derived_schemas: 5,
        noise_schemas: 5,
        personal_nodes: 4,
        host_nodes: 8,
        perturbation_strength: 0.6,
        seed,
    });
    MatchProblem::new(sc.personal, sc.repository).unwrap()
}

fn generator(budget: usize) -> CandidateGenerator {
    CandidateGenerator::new(
        ObjectiveFunction::default(),
        CandidateConfig {
            budget: Some(budget),
        },
    )
}

/// Fraction of `reference`'s answers retained by `kept`.
fn measured_recall(kept: &smx_eval::AnswerSet, reference: &smx_eval::AnswerSet) -> f64 {
    if reference.is_empty() {
        1.0
    } else {
        let retained = kept
            .ids()
            .filter(|&id| reference.score_of(id).is_some())
            .count();
        retained as f64 / reference.len() as f64
    }
}

fn assert_bookkeeping(name: &str, budget: usize, certified: &CertifiedAnswer) {
    let c = &certified.certificate;
    let cert = c.certified_recall();
    assert!(
        (0.0..=1.0).contains(&cert),
        "{name} budget {budget}: certified recall {cert} out of range"
    );
    assert_eq!(c.answer_count(), certified.answers.len(), "{name}");
    assert!(c.missed_cap() >= 0.0, "{name}");
    assert!(
        c.active_schemas() + c.cert_empty_schemas() <= c.total_schemas(),
        "{name}"
    );
    assert_eq!(c.delta_max(), DELTA_MAX, "{name}");
}

#[test]
fn complete_matchers_certify_recall_against_the_oracle() {
    for (seed, domain) in [(51, Domain::Publications), (52, Domain::Commerce)] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, DELTA_MAX, &registry);
        for budget in BUDGETS {
            let complete = all_matchers()
                .into_iter()
                .filter(|(name, _)| complete_matcher_names().contains(name));
            for (name, matcher) in complete {
                let certified = CertifiedMatcher::new(matcher, generator(budget))
                    .run_certified(&problem, DELTA_MAX, &registry);
                certified
                    .answers
                    .is_subset_of(&oracle)
                    .unwrap_or_else(|e| panic!("{name} budget {budget}: {e:?}"));
                assert!(
                    certified.answers.scores_consistent_with(&oracle),
                    "{name} budget {budget}: ranking drifted"
                );
                let cert = certified.certificate.certified_recall();
                let measured = measured_recall(&certified.answers, &oracle);
                assert!(
                    cert <= measured + 1e-12,
                    "{name} budget {budget}: certified {cert} > measured-vs-oracle {measured}"
                );
                assert_bookkeeping(name, budget, &certified);
            }
        }
    }
}

#[test]
fn restriction_monotone_matchers_certify_against_their_own_run() {
    for (seed, domain) in [(53, Domain::Travel), (54, Domain::HumanResources)] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, DELTA_MAX, &registry);
        for budget in BUDGETS {
            let monotone = all_matchers()
                .into_iter()
                .filter(|(name, _)| RESTRICTION_MONOTONE.contains(name));
            for (name, matcher) in monotone {
                let unrestricted = matcher.run(&problem, DELTA_MAX, &registry);
                unrestricted
                    .is_subset_of(&oracle)
                    .unwrap_or_else(|e| panic!("{name}: heuristic ⊄ oracle: {e:?}"));
                let certified = CertifiedMatcher::new(matcher, generator(budget))
                    .run_certified(&problem, DELTA_MAX, &registry);
                // Per-schema independence: restricted ⊆ own unrestricted
                // ⊆ oracle, with identical scores throughout.
                certified
                    .answers
                    .is_subset_of(&unrestricted)
                    .unwrap_or_else(|e| panic!("{name} budget {budget}: {e:?}"));
                assert!(
                    certified.answers.scores_consistent_with(&oracle),
                    "{name} budget {budget}: ranking drifted"
                );
                let cert = certified.certificate.certified_recall();
                let measured = measured_recall(&certified.answers, &unrestricted);
                assert!(
                    cert <= measured + 1e-12,
                    "{name} budget {budget}: certified {cert} > measured-vs-own {measured}"
                );
                assert_bookkeeping(name, budget, &certified);
            }
        }
    }
}

#[test]
fn global_budget_matchers_keep_subset_and_wellformedness_only() {
    for (seed, domain) in [(55, Domain::Commerce), (56, Domain::Publications)] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, DELTA_MAX, &registry);
        for budget in BUDGETS {
            let global = all_matchers()
                .into_iter()
                .filter(|(name, _)| *name == "topk");
            for (name, matcher) in global {
                let certified = CertifiedMatcher::new(matcher, generator(budget))
                    .run_certified(&problem, DELTA_MAX, &registry);
                // Even under a shared dynamic budget, every emitted
                // answer is a real oracle answer with the oracle's
                // score — pruning can only promote real answers.
                certified
                    .answers
                    .is_subset_of(&oracle)
                    .unwrap_or_else(|e| panic!("{name} budget {budget}: {e:?}"));
                assert!(
                    certified.answers.scores_consistent_with(&oracle),
                    "{name} budget {budget}: ranking drifted"
                );
                assert_bookkeeping(name, budget, &certified);
            }
        }
    }
}
