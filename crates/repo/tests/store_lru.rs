//! Property tests for the LRU-bounded score-row cache: after *any*
//! interleaving of ingests, row fetches, and bound changes —
//!
//! * the cache never exceeds `max_cached_rows`,
//! * evicted rows recompute to bitwise-equal values (every fetched row
//!   is checked against the scalar `NameSimilarity` oracle), and
//! * the counter snapshot satisfies `hits + misses == lookups`.
//!
//! The label pool, fixture schemas, and noisy query labels come from
//! the shared [`smx_synth::strategies`] vocabulary.

use proptest::prelude::*;
use smx_repo::{LabelId, Repository, StoreConfig};
use smx_synth::strategies::{
    noisy_labels, pool_indices, schema_with_label, small_repository, LABEL_POOL,
};
use smx_text::NameSimilarity;

#[derive(Clone, Debug)]
enum Op {
    /// Fetch `LABEL_POOL[i]`'s score row (cache hit, stale extension, or
    /// sweep).
    Query(usize),
    /// Ingest another schema containing `LABEL_POOL[i]` plus a fresh
    /// label.
    Add(usize),
    /// Tighten/loosen the LRU bound on the live store.
    SetCap(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            pool_indices().prop_map(Op::Query),
            pool_indices().prop_map(Op::Add),
            (1..6usize).prop_map(Op::SetCap),
        ],
        1..32,
    )
}

/// Assert `row` equals a scalar-oracle sweep of `query`, bitwise.
fn assert_row_is_oracle(repo: &Repository, query: &str, row: &[f64]) {
    let oracle = NameSimilarity::default();
    assert_eq!(row.len(), repo.store().len());
    for (id, d) in row.iter().enumerate() {
        let label = repo.store().interner().resolve(LabelId(id as u32));
        assert_eq!(
            d.to_bits(),
            oracle.distance(query, label).to_bits(),
            "row({query:?}) vs label {label:?}"
        );
    }
}

proptest! {
    #[test]
    fn lru_invariants_hold_under_any_interleaving(operations in ops(), cap0 in 1..5usize) {
        let mut repo = small_repository(StoreConfig {
            max_cached_rows: Some(cap0),
            batch_threads: 0,
        });
        let mut cap = cap0;
        let mut salt = 0usize;
        for op in &operations {
            match op {
                Op::Query(i) => {
                    let query = LABEL_POOL[*i];
                    let row = repo.store().score_row(query);
                    assert_row_is_oracle(&repo, query, &row);
                }
                Op::Add(i) => {
                    salt += 1;
                    repo.add(schema_with_label(LABEL_POOL[*i], salt));
                }
                Op::SetCap(c) => {
                    cap = *c;
                    repo.store().set_max_cached_rows(Some(cap));
                }
            }
            prop_assert!(
                repo.store().cached_rows() <= cap,
                "cache size {} exceeds bound {} after {:?}",
                repo.store().cached_rows(),
                cap,
                op
            );
        }
        let c = repo.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        // Re-fetch the whole pool once more: evicted rows recompute to
        // bitwise-equal values regardless of the history above.
        for query in LABEL_POOL {
            let row = repo.store().score_row(query);
            assert_row_is_oracle(&repo, query, &row);
        }
    }

    #[test]
    fn bounded_store_agrees_with_unbounded_twin(
        queries in proptest::collection::vec(pool_indices(), 1..24),
        cap in 1..4usize,
    ) {
        let bounded = small_repository(StoreConfig { max_cached_rows: Some(cap), batch_threads: 0 });
        let unbounded = small_repository(StoreConfig::default());
        for &i in &queries {
            let query = LABEL_POOL[i];
            let b = bounded.store().score_row(query);
            let u = unbounded.store().score_row(query);
            prop_assert_eq!(b.len(), u.len());
            for (x, y) in b.iter().zip(u.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}", query);
            }
            prop_assert!(bounded.store().cached_rows() <= cap);
        }
        let cb = bounded.store().counters();
        let cu = unbounded.store().counters();
        prop_assert_eq!(cb.row_hits + cb.row_misses, cb.row_lookups);
        prop_assert_eq!(cu.row_hits + cu.row_misses, cu.row_lookups);
        // The bound can only cost extra sweeps, never save any.
        prop_assert!(cb.pair_evals >= cu.pair_evals);
        prop_assert!(cb.row_evictions >= cu.row_evictions);
    }

    #[test]
    fn batched_fetch_equals_individual_fetch_bitwise(
        batch in proptest::collection::vec(noisy_labels(), 0..16),
    ) {
        // Edit-noised queries: near-misses of interned labels exercise
        // the same sweep path as exact pool hits, bitwise.
        let batched = small_repository(StoreConfig::default());
        let individual = small_repository(StoreConfig::default());
        let queries: Vec<&str> = batch.iter().map(String::as_str).collect();
        let rows = batched.store().score_rows(&queries);
        prop_assert_eq!(rows.len(), queries.len());
        for (&query, row) in queries.iter().zip(&rows) {
            let alone = individual.store().score_row(query);
            prop_assert_eq!(row.len(), alone.len());
            for (x, y) in row.iter().zip(alone.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}", query);
            }
        }
        let c = batched.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        prop_assert_eq!(c.row_lookups, queries.len() as u64);
    }
}
