//! The scoring engine's core invariant: matrix-backed runs are **bitwise
//! identical** to direct `ObjectiveFunction` evaluation, for every
//! matcher. The effectiveness-bounds methodology rests on S1 and S2
//! sharing Δ exactly — a single ulp of drift would silently break the
//! `A_S2 ⊆ A_S1` containment the paper's technique needs.

use proptest::prelude::*;
use smx_match::*;
use smx_synth::{Domain, Scenario, ScenarioConfig};

fn scenario_problem(seed: u64) -> MatchProblem {
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 4,
        noise_schemas: 3,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed,
        ..Default::default()
    });
    MatchProblem::new(sc.personal, sc.repository).unwrap()
}

/// Every answer any matrix-backed matcher reports must carry a score
/// bitwise equal to re-evaluating its mapping through the direct
/// `ObjectiveFunction` path.
#[test]
fn all_matchers_report_bitwise_direct_scores() {
    let problem = scenario_problem(7);
    let objective = ObjectiveFunction::default();
    let registry = MappingRegistry::new();
    let delta_max = 0.5;
    let runs: Vec<(&str, smx_eval::AnswerSet)> = vec![
        (
            "exhaustive",
            ExhaustiveMatcher::default().run(&problem, delta_max, &registry),
        ),
        (
            "brute_force",
            BruteForceMatcher::default().run(&problem, delta_max, &registry),
        ),
        (
            "beam",
            BeamMatcher::new(ObjectiveFunction::default(), 16).run(&problem, delta_max, &registry),
        ),
        (
            "cluster",
            ClusterMatcher::new(ObjectiveFunction::default(), 0.5, 3)
                .run(&problem, delta_max, &registry),
        ),
        (
            "topk",
            TopKMatcher::new(ObjectiveFunction::default(), 25).run(&problem, delta_max, &registry),
        ),
    ];
    for (name, answers) in &runs {
        assert!(!answers.is_empty(), "{name} found nothing at δ={delta_max}");
        for a in answers.answers() {
            let mapping = registry.resolve(a.id).expect("interned");
            let direct = objective.mapping_cost(&problem, mapping.schema, &mapping.targets);
            assert_eq!(
                a.score.to_bits(),
                direct.to_bits(),
                "{name}: {mapping} scored {} vs direct {direct}",
                a.score
            );
        }
    }
}

/// Matrix-backed and direct-evaluation exhaustive runs produce the same
/// answer set — same ids, same scores, same order.
#[test]
fn exhaustive_matrix_equals_exhaustive_direct() {
    for seed in [1, 2, 3] {
        let problem = scenario_problem(seed);
        let registry = MappingRegistry::new();
        for delta_max in [0.2, 0.35, 0.5] {
            let fast = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);
            let slow = ExhaustiveMatcher::direct(ObjectiveFunction::default())
                .run(&problem, delta_max, &registry);
            assert_eq!(fast, slow, "seed {seed} δ={delta_max}");
        }
    }
}

/// Same identity for the no-pruning reference enumerator.
#[test]
fn brute_force_matrix_equals_brute_force_direct() {
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 2,
        noise_schemas: 1,
        personal_nodes: 3,
        host_nodes: 5,
        seed: 11,
        ..Default::default()
    });
    let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
    let registry = MappingRegistry::new();
    let fast = BruteForceMatcher::default().run(&problem, 0.6, &registry);
    let slow =
        BruteForceMatcher::direct(ObjectiveFunction::default()).run(&problem, 0.6, &registry);
    assert_eq!(fast, slow);
}

/// Different domains exercise different vocabularies (synonyms, shared
/// tokens across schemas — the interner's dedup paths).
#[test]
fn identity_holds_across_domains() {
    for (seed, domain) in [
        (5, Domain::Publications),
        (6, Domain::Commerce),
        (7, Domain::Travel),
    ] {
        let sc = Scenario::generate(ScenarioConfig {
            domain,
            derived_schemas: 3,
            noise_schemas: 2,
            personal_nodes: 4,
            host_nodes: 6,
            perturbation_strength: 0.7,
            seed,
        });
        let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
        let objective = ObjectiveFunction::default();
        let matrix = problem.cost_matrix(&objective);
        let personal = problem.personal();
        for (sid, schema) in problem.repository().iter() {
            let table = matrix.table(sid);
            for (level, &pid) in problem.personal_order().iter().enumerate() {
                for t in schema.node_ids() {
                    assert_eq!(
                        table.cost(level, t.index()).to_bits(),
                        objective.node_cost(personal, pid, schema, t).to_bits(),
                        "{domain:?} {sid} level {level} {t}"
                    );
                }
            }
        }
    }
}

proptest! {
    /// Property: matrix row minima are admissible per-node bounds, and
    /// the suffix sums are admissible completion bounds — for arbitrary
    /// generated scenarios.
    #[test]
    fn matrix_minima_are_admissible_bounds(
        seed in 0u64..32,
        personal_nodes in 2usize..5,
        host_nodes in 4usize..9,
    ) {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 2,
            noise_schemas: 2,
            personal_nodes,
            host_nodes,
            perturbation_strength: 0.8,
            seed,
            ..Default::default()
        });
        let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
        let objective = ObjectiveFunction::default();
        let matrix = problem.cost_matrix(&objective);
        let k = problem.personal_size();
        for (sid, schema) in problem.repository().iter() {
            let table = matrix.table(sid);
            let n = schema.len();
            // Row minima never exceed any cell of their row.
            for level in 0..k {
                for node in 0..n {
                    prop_assert!(table.row_min(level) <= table.cost(level, node));
                }
            }
            // Suffix sums are the sums of row minima (admissible w.r.t.
            // any injective completion, since edge penalties are ≥ 0).
            let mut expect = 0.0;
            for level in (0..k).rev() {
                expect += table.row_min(level);
                prop_assert!((table.suffix_min()[level] - expect).abs() < 1e-12);
            }
            prop_assert_eq!(table.suffix_min()[k], 0.0);
        }
    }
}
