//! The beam matcher against a textbook beam.
//!
//! The search kernel's beam pools only the children that can still
//! finish within the δ_max budget (`cost + suffix_min` bound) and selects
//! each level's survivors by partial selection. The reference below does
//! neither: per schema it expands every partial of a level into every
//! free target, sorts the whole pool by (cost, target vector compared
//! lexicographically), keeps the `width` cheapest, and at the last level
//! interns the leaves with Δ ≤ δ_max cheapest first. Its step costs and
//! penalties come from the matrix's node costs and the chain-walking
//! [`ObjectiveFunction::edge_penalty`].
//!
//! Over random scenarios, widths and thresholds, [`BeamMatcher`] must
//! return the same answers with the same score bits and intern them in
//! the same order, so the bound only skips work.

use proptest::prelude::*;
use smx_eval::{AnswerId, AnswerSet};
use smx_match::test_support::canonical_answers;
use smx_match::{BeamMatcher, Mapping, MappingRegistry, MatchProblem, Matcher, ObjectiveFunction};
use smx_synth::strategies::{scenarios, thresholds};
use smx_xml::NodeId;

const WIDTHS: [usize; 5] = [1, 2, 4, 16, 64];

/// The textbook beam: no budget, no bound, every level fully sorted.
fn reference_beam(
    problem: &MatchProblem,
    width: usize,
    delta_max: f64,
    registry: &MappingRegistry,
) -> AnswerSet {
    let objective = ObjectiveFunction::default();
    let matrix = problem.cost_matrix(&objective);
    let structure_weight = objective.config().structure_weight;
    let personal = problem.personal();
    let mut found = Vec::new();
    for sid in problem.active_schema_ids() {
        let schema = problem.repository().schema(sid);
        let table = matrix.table(sid);
        let mut beam: Vec<(f64, Vec<NodeId>)> = vec![(0.0, Vec::new())];
        for (level, &pid) in problem.personal_order().iter().enumerate() {
            let parent = personal.node(pid).parent;
            let mut pool = Vec::new();
            for (cost, targets) in &beam {
                for target in schema.node_ids() {
                    if targets.contains(&target) {
                        continue;
                    }
                    let mut step = table.cost(level, target.index());
                    if let Some(p) = parent {
                        step += structure_weight
                            * objective.edge_penalty(schema, targets[p.index()], target);
                    }
                    let mut next = targets.clone();
                    next.push(target);
                    pool.push((cost + step, next));
                }
            }
            pool.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| a.1.cmp(&b.1)));
            pool.truncate(width);
            beam = pool;
        }
        for (_, targets) in beam {
            let score = matrix.mapping_cost(problem, sid, &targets);
            if score <= delta_max {
                let mapping = Mapping {
                    schema: sid,
                    targets,
                };
                found.push((registry.intern(mapping), score));
            }
        }
    }
    AnswerSet::new(found).expect("finite costs, unique interned ids")
}

/// Every mapping of `registry` in interning order.
fn interned(registry: &MappingRegistry) -> Vec<Mapping> {
    (0..registry.len() as u64)
        .map(|id| registry.resolve(AnswerId(id)).expect("interned"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn beam_matches_the_textbook_beam_bitwise(sc in scenarios(), delta_max in thresholds()) {
        let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
        for width in WIDTHS {
            let registry = MappingRegistry::new();
            let got = BeamMatcher::new(ObjectiveFunction::default(), width)
                .run(&problem, delta_max, &registry);
            let reference_registry = MappingRegistry::new();
            let expected = reference_beam(&problem, width, delta_max, &reference_registry);

            prop_assert_eq!(interned(&registry), interned(&reference_registry), "width {}", width);
            prop_assert_eq!(
                canonical_answers(&got, &registry),
                canonical_answers(&expected, &reference_registry),
                "width {}",
                width
            );
        }
    }
}
