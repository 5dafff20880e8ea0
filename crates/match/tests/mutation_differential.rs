//! Differential gate for the mutable store: a repository that has been
//! bounded, removed-from, and replaced-into must give every matcher in
//! the roster answers **bitwise identical** (resolved mappings +
//! `f64::to_bits` scores) to a fresh, unbounded rebuild of the same
//! schemas — tombstoned slots rebuilt as the empty placeholder schemas
//! every matcher skips.
//!
//! The roster runs before and after every mutation step, so state a
//! run caches on the repository (score rows, the cluster matcher's
//! clustering) is read again after the next mutation: a missing
//! invalidation shows up as a divergence. LRU eviction, orphaned
//! labels, and generation stamps are all invisible at the answer level.

use smx_match::test_support::{all_matchers, canonical_answers, run_matcher};
use smx_match::MappingRegistry;
use smx_repo::{Repository, SchemaId, StoreConfig};
use smx_synth::{Domain, Scenario, ScenarioConfig};
use smx_xml::Schema;

fn scenario(seed: u64, domain: Domain) -> Scenario {
    Scenario::generate(ScenarioConfig {
        domain,
        derived_schemas: 5,
        noise_schemas: 5,
        personal_nodes: 4,
        host_nodes: 8,
        perturbation_strength: 0.6,
        seed,
    })
}

/// Rebuild `mutated`'s current schemas into a fresh, unbounded
/// repository — the oracle. Removed slots become empty
/// placeholder schemas so `SchemaId`s line up exactly.
fn fresh_oracle(mutated: &Repository) -> Repository {
    let mut oracle = Repository::with_store_config(StoreConfig {
        max_cached_rows: None,
        batch_threads: 1,
    });
    for sid in mutated.schema_ids() {
        if mutated.is_removed(sid) {
            oracle.add(Schema::new(""));
        } else {
            oracle.add(mutated.schema(sid).clone());
        }
    }
    oracle
}

/// Run the whole roster on `mutated` and on its fresh rebuild and
/// require bitwise-identical answers, none of them on a tombstone.
/// Running it between mutations leaves state behind — warm score rows
/// and the repository's cached clustering — that the next mutation
/// must invalidate or leave valid.
fn assert_roster_matches_fresh_oracle(sc: &Scenario, mutated: &Repository, step: &str) {
    let oracle = fresh_oracle(mutated);
    assert_eq!(oracle.len(), mutated.len());
    let delta_max = 0.4;
    for (name, matcher) in all_matchers() {
        let reg_m = MappingRegistry::new();
        let reg_o = MappingRegistry::new();
        let got = run_matcher(matcher.as_ref(), &sc.personal, mutated, delta_max, &reg_m);
        let want = run_matcher(matcher.as_ref(), &sc.personal, &oracle, delta_max, &reg_o);
        assert!(
            !want.is_empty() || !got.is_empty() || want.len() == got.len(),
            "{name} {step}: degenerate comparison"
        );
        // No answer may target a tombstoned schema.
        for a in got.answers() {
            let mapping = reg_m.resolve(a.id).expect("interned");
            assert!(
                !mutated.is_removed(mapping.schema),
                "{name} {step}: answered a removed schema {:?}",
                mapping.schema
            );
        }
        assert_eq!(
            canonical_answers(&got, &reg_m),
            canonical_answers(&want, &reg_o),
            "{name} {step}: diverged from the fresh rebuild"
        );
    }
}

#[test]
fn mutated_store_is_bitwise_identical_to_fresh_rebuild() {
    for (seed, domain) in [
        (31, Domain::Publications),
        (32, Domain::Commerce),
        (33, Domain::Travel),
    ] {
        let sc = scenario(seed, domain);
        // Tightly bounded, then mutated: remove two schemas, replace
        // one with a schema drawn from a different generation of the
        // same domain, and re-add one removed slot's schema verbatim.
        // The roster runs before the first step and after every step.
        let mut mutated = Repository::with_store_config(StoreConfig {
            max_cached_rows: Some(3),
            batch_threads: 0,
        });
        for (_, schema) in sc.repository.iter() {
            mutated.add(schema.clone());
        }
        let n = mutated.len() as u32;
        assert!(n >= 5, "scenario too small to mutate meaningfully");
        let removed_a = SchemaId(1);
        let removed_b = SchemaId(n - 1);
        let replaced = SchemaId(3);
        let readded = SchemaId(2);
        let donor = scenario(seed + 100, domain);
        let at = |step: &str| format!("{domain:?} seed {seed} {step}");
        assert_roster_matches_fresh_oracle(&sc, &mutated, &at("before mutating"));
        for sid in [removed_a, removed_b, readded] {
            assert!(mutated.remove_schema(sid));
            assert_roster_matches_fresh_oracle(
                &sc,
                &mutated,
                &at(&format!("after removing {sid}")),
            );
        }
        assert!(mutated.replace_schema(replaced, donor.repository.schema(SchemaId(0)).clone()));
        assert_roster_matches_fresh_oracle(&sc, &mutated, &at("after the replace"));
        assert!(mutated.replace_schema(readded, sc.repository.schema(readded).clone()));
        // Warm the bounded cache before the last run so eviction
        // and spill churn actually happened by the time answers are
        // compared.
        let _ = mutated
            .store()
            .score_row(&sc.personal.node(smx_xml::NodeId(0)).name);
        assert_roster_matches_fresh_oracle(&sc, &mutated, &at("after the re-add"));
    }
}
