//! Backward compatibility with version-1 snapshots.
//!
//! `fixtures/v1.snap` is a committed image written by the version-1
//! writer (the format with the TOKENS section and a trailing shard count
//! in CONFIG). It was saved from a repository built like this:
//!
//! * the five schemas of `smx_synth` scenario 1301 (3 derived, 2 noise,
//!   4 personal nodes, 7 host nodes, perturbation 0.6), in a store
//!   configured with `max_cached_rows: 6`, `batch_threads: 1` and a
//!   shard count of 4;
//! * rows for `title`, `bookTitle` and `orderDate` scored;
//! * slot 1 removed (a tombstone) and slot 2 replaced by schema 0 of
//!   scenario 1302;
//! * the cost matrix of scenario 1301's personal schema built, then a row
//!   for `customerName` scored, so six rows are cached — some of them
//!   stale prefixes scored before the replace added labels.
//!
//! Every reader must keep loading it, under both recovery policies, to
//! a repository whose answers are bitwise those of a fresh rebuild.

use smx_match::test_support::{all_matchers, canonical_answers, run_matcher};
use smx_match::{MappingRegistry, MatchProblem, ObjectiveFunction};
use smx_persist::{PersistError, RecoveryPolicy, Snapshot};
use smx_repo::{LabelId, Repository, SchemaId};
use smx_synth::{Scenario, ScenarioConfig};
use smx_text::NameSimilarity;
use smx_xml::Schema;

const FIXTURE: &[u8] = include_bytes!("fixtures/v1.snap");
const DELTA_MAX: f64 = 0.45;

/// Offset of the `u32` format version in the header (after the magic).
const VERSION_AT: usize = smx_persist::MAGIC.len();

fn personal() -> Schema {
    Scenario::generate(ScenarioConfig {
        derived_schemas: 3,
        noise_schemas: 2,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed: 1301,
        ..Default::default()
    })
    .personal
}

/// Rebuild `loaded`'s final schemas with plain `Repository::add` into a
/// fresh, unbounded store — tombstoned slots as the empty placeholder
/// schema every matcher skips.
fn fresh_rebuild(loaded: &Repository) -> Repository {
    let mut fresh = Repository::new();
    for sid in loaded.schema_ids() {
        if loaded.is_removed(sid) {
            fresh.add(Schema::new(""));
        } else {
            fresh.add(loaded.schema(sid).clone());
        }
    }
    fresh
}

fn load(policy: RecoveryPolicy) -> Repository {
    let (loaded, report) = Repository::load_snapshot_report(FIXTURE, policy)
        .unwrap_or_else(|e| panic!("{policy:?}: v1 fixture failed to load: {e:?}"));
    assert!(report.is_clean(), "{policy:?}: {report}");
    assert_eq!(loaded.store().salvage_events(), 0, "{policy:?}");
    assert!(loaded.store().health().is_healthy(), "{policy:?}");
    loaded
}

#[test]
fn fixture_is_a_version_1_image() {
    let version = u32::from_le_bytes(FIXTURE[VERSION_AT..VERSION_AT + 4].try_into().unwrap());
    assert_eq!(version, 1);
}

#[test]
fn v1_fixture_loads_with_its_mutations_rows_and_config() {
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
        let loaded = load(policy);
        assert_eq!(loaded.len(), 5, "{policy:?}");
        assert!(loaded.is_removed(SchemaId(1)), "{policy:?}");
        assert_eq!(loaded.schema(SchemaId(1)).len(), 0, "{policy:?}");
        assert_eq!(loaded.live_schemas(), 4, "{policy:?}");
        assert_eq!(loaded.store().schema_generation(SchemaId(1)), 1);
        assert_eq!(loaded.store().schema_generation(SchemaId(2)), 2);
        assert!(loaded.store().orphaned_labels() > 0, "{policy:?}");
        let config = loaded.store().config();
        assert_eq!(config.max_cached_rows, Some(6), "{policy:?}");
        assert_eq!(config.batch_threads, 1, "{policy:?}");
        assert_eq!(loaded.store().cached_rows(), 6, "{policy:?}");

        // Every cached row is bitwise the scalar oracle's distances. The
        // rows scored before the replace are stale prefixes: they cover
        // only the labels that existed then.
        let store = loaded.store();
        let scalar = NameSimilarity::default();
        let rows = store.export_state().rows;
        assert!(rows.iter().any(|(_, row)| row.len() < store.len()));
        for (query, row) in rows {
            assert!(row.len() <= store.len(), "{policy:?}: {query:?}");
            for (id, d) in row.iter().enumerate() {
                let label = store.interner().resolve(LabelId(id as u32));
                assert_eq!(
                    d.to_bits(),
                    scalar.distance(&query, label).to_bits(),
                    "{policy:?}: {query:?} vs {label:?}"
                );
            }
        }
        // The personal schema's rows were warm when the image was saved.
        let warm = MatchProblem::new(personal(), loaded.clone()).unwrap();
        warm.cost_matrix(&ObjectiveFunction::default());
        assert_eq!(store.pair_evals(), 0, "{policy:?}: warm rows were lost");
    }
}

#[test]
fn v1_fixture_answers_bitwise_like_a_fresh_rebuild() {
    let personal = personal();
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
        let loaded = load(policy);
        let fresh = fresh_rebuild(&loaded);
        for (name, matcher) in all_matchers() {
            let registry = MappingRegistry::new();
            let want = run_matcher(&matcher, &personal, &fresh, DELTA_MAX, &registry);
            let got = run_matcher(&matcher, &personal, &loaded, DELTA_MAX, &registry);
            assert!(!want.is_empty(), "{name}: the fixture must produce answers");
            assert_eq!(
                canonical_answers(&want, &registry),
                canonical_answers(&got, &registry),
                "{policy:?}: {name} diverged from the fresh rebuild"
            );
        }
    }
}

#[test]
fn version_3_header_is_rejected() {
    let mut bytes = FIXTURE.to_vec();
    bytes[VERSION_AT..VERSION_AT + 4].copy_from_slice(&3u32.to_le_bytes());
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
        assert!(
            matches!(
                Repository::load_snapshot_report(&bytes, policy),
                Err(PersistError::UnsupportedVersion(3))
            ),
            "{policy:?}"
        );
    }
}
