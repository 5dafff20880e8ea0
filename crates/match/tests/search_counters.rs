//! The search kernel's counters: `search.{expanded,pruned_by_bound,
//! leaves,answers}` in the global metrics registry.
//!
//! One test in its own binary, because the tracing switch and the
//! registry are process-global.

use smx_match::{BeamMatcher, MappingRegistry, MatchProblem, Matcher, ObjectiveFunction};
use smx_synth::{Scenario, ScenarioConfig};

const NAMES: [&str; 4] = [
    "search.expanded",
    "search.pruned_by_bound",
    "search.leaves",
    "search.answers",
];

fn read() -> [u64; 4] {
    NAMES.map(|name| smx_obs::registry().counter(name).get())
}

#[test]
fn beam_run_reports_its_search_counts_only_while_tracing() {
    let sc = Scenario::generate(ScenarioConfig {
        derived_schemas: 5,
        noise_schemas: 3,
        personal_nodes: 4,
        host_nodes: 8,
        seed: 7,
        ..Default::default()
    });
    let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
    let beam = BeamMatcher::new(ObjectiveFunction::default(), 4);
    let run = || beam.run(&problem, 0.3, &MappingRegistry::new());

    smx_obs::set_enabled(false);
    let before = read();
    let quiet = run();
    assert_eq!(read(), before, "counters moved with tracing off");

    smx_obs::set_enabled(true);
    let traced = run();
    smx_obs::set_enabled(false);
    let after = read();
    let [expanded, pruned, leaves, answers] = std::array::from_fn(|i| after[i] - before[i]);

    assert_eq!(traced.len(), quiet.len());
    assert_eq!(answers, traced.len() as u64);
    assert!(leaves >= answers, "{leaves} leaves, {answers} answers");
    assert!(expanded > 0);
    assert!(pruned > 0, "the beam pruned nothing by bound");
}
