//! Golden answers for the search roster.
//!
//! Every search matcher — exhaustive (matrix and direct), top-k, beam,
//! cluster, and the brute-force reference — runs over 24 seeded
//! scenarios at three thresholds, each run with a fresh
//! [`MappingRegistry`]. Each (matcher, δ) pair folds its runs into one
//! FNV-1a digest of
//!
//! * the registry's interning-order list of mappings (which pins every
//!   `AnswerId`, including the ones top-k interns and later evicts), and
//! * the canonical answers with their raw score bits.
//!
//! The differential suites compare a matcher against itself under other
//! execution conditions (batching, candidate restriction, persistence,
//! tracing), so a change to what a matcher *returns* passes all of them.
//! This suite pins the answers themselves: a digest mismatch means a
//! matcher now returns different mappings, different score bits, or
//! interns in a different order.

use smx_eval::AnswerId;
use smx_match::test_support::canonical_answers;
use smx_match::{
    BeamMatcher, BruteForceMatcher, ClusterMatcher, ExhaustiveMatcher, Mapping, MappingRegistry,
    MatchProblem, Matcher, ObjectiveFunction, TopKMatcher,
};
use smx_synth::{Domain, Scenario, ScenarioConfig};

const DELTAS: [f64; 3] = [0.15, 0.25, 0.45];
const SCENARIOS: u64 = 24;

/// Scenario `seed`: the personal size cycles through 3, 4 and 5 nodes
/// (with hosts small enough that the brute-force reference stays cheap),
/// and the domain, repository shape and perturbation vary with the seed.
fn problem(seed: u64) -> MatchProblem {
    let i = seed as usize;
    let sc = Scenario::generate(ScenarioConfig {
        domain: Domain::ALL[i % Domain::ALL.len()],
        personal_nodes: 3 + i % 3,
        derived_schemas: 2 + i % 3,
        noise_schemas: 1 + i % 2,
        host_nodes: 6 - i % 3 + i % 2,
        perturbation_strength: 0.2 + 0.15 * (i % 4) as f64,
        seed: 1000 + seed,
    });
    MatchProblem::new(sc.personal, sc.repository).expect("non-empty personal schema")
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mapping(&mut self, mapping: &Mapping) {
        self.word(u64::from(mapping.schema.0));
        self.word(mapping.targets.len() as u64);
        for target in &mapping.targets {
            self.word(u64::from(target.0));
        }
    }
}

/// One digest per threshold in [`DELTAS`] over all scenarios.
fn digests(matcher: &dyn Matcher) -> [u64; 3] {
    let problems: Vec<MatchProblem> = (0..SCENARIOS).map(problem).collect();
    DELTAS.map(|delta_max| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for problem in &problems {
            let registry = MappingRegistry::new();
            let answers = matcher.run(problem, delta_max, &registry);
            h.word(registry.len() as u64);
            for id in 0..registry.len() as u64 {
                h.mapping(&registry.resolve(AnswerId(id)).expect("interned"));
            }
            let canonical = canonical_answers(&answers, &registry);
            h.word(canonical.len() as u64);
            for (mapping, bits) in &canonical {
                h.mapping(mapping);
                h.word(*bits);
            }
        }
        h.0
    })
}

fn check(name: &str, matcher: &dyn Matcher, expected: [u64; 3]) {
    let got = digests(matcher);
    assert_eq!(
        got, expected,
        "{name}: answers changed (digests per δ in {DELTAS:?}: got {got:x?})"
    );
}

fn objective() -> ObjectiveFunction {
    ObjectiveFunction::default()
}

#[test]
fn exhaustive() {
    check(
        "exhaustive",
        &ExhaustiveMatcher::new(objective()),
        [0x1cda4afe80316227, 0x82dc868482b911b6, 0x055e2a7bf4359dc3],
    );
}

#[test]
fn exhaustive_direct() {
    check(
        "exhaustive-direct",
        &ExhaustiveMatcher::direct(objective()),
        [0x1cda4afe80316227, 0x82dc868482b911b6, 0x055e2a7bf4359dc3],
    );
}

#[test]
fn topk_1() {
    check(
        "topk(1)",
        &TopKMatcher::new(objective(), 1),
        [0x52bc2b24ee20faf0, 0x98290dd3d00ab29f, 0xc08257038299e6f7],
    );
}

#[test]
fn topk_7() {
    check(
        "topk(7)",
        &TopKMatcher::new(objective(), 7),
        [0xabbf0eddded8d043, 0xeee1caa3c97f02a8, 0x31d89f1c59a7deeb],
    );
}

#[test]
fn topk_100() {
    check(
        "topk(100)",
        &TopKMatcher::new(objective(), 100),
        [0x1cda4afe80316227, 0x965286c8e396555e, 0x4bea5c318f05f081],
    );
}

#[test]
fn beam_1() {
    check(
        "beam(1)",
        &BeamMatcher::new(objective(), 1),
        [0x29b85ef2cdbfb78f, 0x7f5c45aa06aa62c6, 0xdafda6a5ca5839e5],
    );
}

#[test]
fn beam_4() {
    check(
        "beam(4)",
        &BeamMatcher::new(objective(), 4),
        [0x3dc2f11426e06776, 0x15a50b605eb08291, 0xef66916b685cf84d],
    );
}

#[test]
fn beam_16() {
    check(
        "beam(16)",
        &BeamMatcher::new(objective(), 16),
        [0x5cf27b76ed7168c6, 0x4e88f9018799a94e, 0x6a599b42625e372a],
    );
}

#[test]
fn cluster_055_4() {
    check(
        "cluster(0.55, 4)",
        &ClusterMatcher::new(objective(), 0.55, 4),
        [0xe31f180a95710303, 0x59f54a19a1435f79, 0xf153d5ffd7b8bde8],
    );
}

#[test]
fn cluster_05_1() {
    check(
        "cluster(0.5, 1)",
        &ClusterMatcher::new(objective(), 0.5, 1),
        [0xbe80700058c0047b, 0x123ecda278df994c, 0x03bcc2dbab0eb604],
    );
}

#[test]
fn brute_force() {
    check(
        "brute-force",
        &BruteForceMatcher::new(objective()),
        [0x1cda4afe80316227, 0x82dc868482b911b6, 0x055e2a7bf4359dc3],
    );
}
