//! A repository of XML schemas with global element addressing.
//!
//! Every [`Repository::add`] also feeds the repository's
//! [`LabelStore`] — interner, per-label row-kernel profiles, filter
//! lanes, and cached score rows — **incrementally**: ingest appends, it
//! never rebuilds. The store sits behind an `Arc`, so cloning a
//! repository (e.g. to construct a `MatchProblem`) shares all
//! label-level preprocessing and every score row computed so far.
//!
//! The repository also caches its last [`greedy_clustering`]
//! ([`Repository::clustering`]): it depends only on the schema list, so
//! cluster-restricted matching pays for it once per mutation instead of
//! once per query.

use crate::cluster::{greedy_clustering, Clustering};
use crate::store::{LabelStore, StoreConfig};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use smx_xml::{NodeId, Schema};
use std::sync::Arc;

/// Dense index of a schema within a [`Repository`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SchemaId(pub u32);

impl SchemaId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SchemaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A globally addressed repository element: `(schema, node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ElementRef {
    /// The schema containing the element.
    pub schema: SchemaId,
    /// The element inside that schema.
    pub node: NodeId,
}

impl std::fmt::Display for ElementRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.schema, self.node)
    }
}

/// An ordered collection of schemas with an incrementally maintained
/// [`LabelStore`].
///
/// Cloning is cheap: both the schema list and the derived store sit
/// behind `Arc`s (copy-on-write via `Arc::make_mut` on mutation), so a
/// `MatchProblem` — or a whole batch of them — can own a repository
/// clone without duplicating any schema data.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Repository {
    /// The schemas, `Arc`-shared across clones; `Arc::make_mut`
    /// detaches on the rare mutate-after-clone.
    schemas: Arc<Vec<Schema>>,
    /// Derived, append-only state (interner, profiles, filter lanes,
    /// score rows). `Arc` so clones share it; `Arc::make_mut` detaches
    /// on the rare mutate-after-clone.
    ///
    /// Serde note: the workspace's vendored serde derives are no-ops
    /// (nothing serialises at runtime). When the real crates are swapped
    /// in (ROADMAP open item), this field must be `#[serde(skip)]` *and*
    /// rebuilt from `schemas` on deserialize — a skipped-but-empty store
    /// would desync from the schema list and break `schema_labels`
    /// indexing.
    store: Arc<LabelStore>,
    /// One-slot cache of the last [`greedy_clustering`] of `schemas`,
    /// keyed by the bits of its clamped threshold and built lazily by
    /// [`clustering`](Self::clustering). Clones share the slot until one
    /// of them mutates: every mutation empties a slot it owns alone, or
    /// detaches onto a fresh one, so no clone ever reads a clustering
    /// of another schema list.
    ///
    /// Serde note: like `store`, derived state — when real serde lands
    /// this field also needs `#[serde(skip)]`; an empty slot is valid
    /// and refills on the next lookup.
    clustering: Arc<ClusterSlot>,
}

/// The clustering cache's one slot: threshold bits and the clustering.
type ClusterSlot = Mutex<Option<(u64, Arc<Clustering>)>>;

/// Equality is over the schemas; the store and the clustering cache are
/// derived state.
impl PartialEq for Repository {
    fn eq(&self, other: &Self) -> bool {
        self.schemas == other.schemas
    }
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Repository::default()
    }

    /// An empty repository whose label store uses `config` — e.g. a
    /// production deployment bounding the score-row cache
    /// (`max_cached_rows`) or pinning the batched-sweep worker count.
    pub fn with_store_config(config: StoreConfig) -> Self {
        Repository {
            store: Arc::new(LabelStore::with_config(config)),
            ..Repository::default()
        }
    }

    /// Reassemble a repository from a schema list and an already
    /// imported label store — the warm-restart path `smx-persist`'s
    /// snapshot loader uses instead of replaying [`add`](Self::add)
    /// (which would rebuild profiles and score rows from scratch).
    ///
    /// The store must describe exactly these schemas (one column map per
    /// schema, labels resolving to the schemas' node names); the
    /// snapshot decoder validates that before calling this. The
    /// clustering cache is not part of a snapshot: it starts empty.
    pub fn from_parts(schemas: Vec<Schema>, store: LabelStore) -> Self {
        debug_assert!(
            schemas
                .iter()
                .enumerate()
                .all(|(i, s)| { store.schema_labels(SchemaId(i as u32)).len() == s.len() }),
            "store column maps must match the schema list"
        );
        Repository {
            schemas: Arc::new(schemas),
            store: Arc::new(store),
            clustering: Arc::default(),
        }
    }

    /// Add a schema, returning its id. Updates the label store
    /// incrementally: new distinct labels are profiled, label→schema
    /// postings appended — nothing is rebuilt.
    pub fn add(&mut self, schema: Schema) -> SchemaId {
        let id = SchemaId(self.schemas.len() as u32);
        Arc::make_mut(&mut self.store).add_schema(id, &schema);
        Arc::make_mut(&mut self.schemas).push(schema);
        self.invalidate_clustering();
        id
    }

    /// Remove a schema, leaving a tombstone at its slot so every other
    /// [`SchemaId`] stays valid. Returns `false` if `sid` is out of
    /// range or already removed.
    ///
    /// Maintenance is **incremental and targeted**: the removed
    /// schema's label→schema postings and store column map are
    /// stripped, its
    /// slot is replaced by an empty placeholder schema (every matcher
    /// skips empty schemas), and its generation stamp is bumped.
    /// Label-level derived state — interned labels, row-kernel
    /// profiles, cached score rows — is append-only and **never
    /// invalidated**: a cached row is a pure function of its query
    /// string and the label vocabulary, which only grows. Labels no
    /// schema references anymore are merely orphaned
    /// ([`LabelStore::orphaned_labels`]); their row entries stay
    /// bitwise valid.
    pub fn remove_schema(&mut self, sid: SchemaId) -> bool {
        if sid.index() >= self.schemas.len() || self.store.is_removed(sid) {
            return false;
        }
        Arc::make_mut(&mut self.schemas)[sid.index()] = Schema::new("");
        Arc::make_mut(&mut self.store).remove_schema(sid);
        self.invalidate_clustering();
        true
    }

    /// Replace the schema at `sid` with a new version, in place —
    /// remove-then-reingest under the same id, bumping the slot's
    /// generation twice (once per step; a replace of a live slot is
    /// observable as `generation += 2`). The slot may currently be a
    /// tombstone (replace doubles as re-add). Returns `false` only if
    /// `sid` is out of range.
    ///
    /// Like [`add`](Self::add), ingest is incremental: new distinct
    /// labels are profiled and label→schema postings spliced in at
    /// their sorted positions — nothing is rebuilt, no cached score row is
    /// invalidated.
    pub fn replace_schema(&mut self, sid: SchemaId, schema: Schema) -> bool {
        if sid.index() >= self.schemas.len() {
            return false;
        }
        if !self.store.is_removed(sid) {
            Arc::make_mut(&mut self.store).remove_schema(sid);
        }
        Arc::make_mut(&mut self.store).reingest_schema(sid, &schema);
        Arc::make_mut(&mut self.schemas)[sid.index()] = schema;
        self.invalidate_clustering();
        true
    }

    /// The [`greedy_clustering`] of this repository at `threshold`
    /// (clamped to `[0, 1]`), built on the first lookup after a
    /// mutation or a threshold change and shared by every clone until
    /// one of them mutates. Concurrent lookups of a missing entry wait
    /// for one build instead of each clustering the repository.
    pub fn clustering(&self, threshold: f64) -> Arc<Clustering> {
        let threshold = threshold.clamp(0.0, 1.0);
        let key = threshold.to_bits();
        let mut slot = self.clustering.lock();
        match &*slot {
            Some((k, cached)) if *k == key => Arc::clone(cached),
            _ => {
                let built = Arc::new(greedy_clustering(self, threshold));
                *slot = Some((key, Arc::clone(&built)));
                built
            }
        }
    }

    /// Forget the cached clustering: empty the slot in place when this
    /// repository owns it alone, else detach from the clones sharing it.
    fn invalidate_clustering(&mut self) {
        match Arc::get_mut(&mut self.clustering) {
            Some(slot) => *slot.get_mut() = None,
            None => self.clustering = Arc::default(),
        }
    }

    /// Whether `sid`'s slot is a tombstone left by
    /// [`remove_schema`](Self::remove_schema). Out-of-range ids report
    /// `false`.
    pub fn is_removed(&self, sid: SchemaId) -> bool {
        self.store.is_removed(sid)
    }

    /// Number of live (non-tombstoned) schemas — `len()` minus
    /// tombstones.
    pub fn live_schemas(&self) -> usize {
        self.store.live_schema_count()
    }

    /// The repository's label store: interner, row-kernel profiles,
    /// filter lanes, and cached score rows, all maintained by
    /// [`add`](Self::add), [`remove_schema`](Self::remove_schema) and
    /// [`replace_schema`](Self::replace_schema).
    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    /// Drop the store's cached score rows — benches use this to time a
    /// genuinely cold cost-matrix fill. Affects every clone sharing the
    /// store.
    pub fn clear_score_rows(&self) {
        self.store.clear_rows();
    }

    /// Number of schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether the repository holds no schemas.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Borrow a schema.
    pub fn schema(&self, id: SchemaId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Iterate over `(id, schema)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SchemaId, &Schema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(i, s)| (SchemaId(i as u32), s))
    }

    /// All schema ids.
    pub fn schema_ids(&self) -> impl ExactSizeIterator<Item = SchemaId> {
        (0..self.schemas.len() as u32).map(SchemaId)
    }

    /// Total number of elements across all schemas.
    pub fn total_elements(&self) -> usize {
        self.schemas.iter().map(Schema::len).sum()
    }

    /// Iterate over every element in the repository.
    pub fn elements(&self) -> impl Iterator<Item = ElementRef> + '_ {
        self.iter().flat_map(|(sid, schema)| {
            schema
                .node_ids()
                .map(move |node| ElementRef { schema: sid, node })
        })
    }

    /// The name of the element `eref` points at.
    pub fn element_name(&self, eref: ElementRef) -> &str {
        &self.schema(eref.schema).node(eref.node).name
    }

    /// Find schemas by name.
    pub fn find_schema(&self, name: &str) -> Option<SchemaId> {
        self.iter()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn repo() -> Repository {
        let mut r = Repository::new();
        r.add(
            SchemaBuilder::new("bib")
                .root("bib")
                .child("book", |b| b.leaf("title", PrimitiveType::String))
                .build(),
        );
        r.add(
            SchemaBuilder::new("shop")
                .root("shop")
                .leaf("order", PrimitiveType::String)
                .build(),
        );
        r
    }

    #[test]
    fn add_and_lookup() {
        let r = repo();
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_elements(), 5);
        assert_eq!(r.schema(SchemaId(0)).name(), "bib");
        assert_eq!(r.find_schema("shop"), Some(SchemaId(1)));
        assert_eq!(r.find_schema("nope"), None);
    }

    #[test]
    fn element_iteration_and_names() {
        let r = repo();
        let elements: Vec<ElementRef> = r.elements().collect();
        assert_eq!(elements.len(), 5);
        let names: Vec<&str> = elements.iter().map(|&e| r.element_name(e)).collect();
        assert_eq!(names, vec!["bib", "book", "title", "shop", "order"]);
        assert_eq!(elements[2].to_string(), "s0:n2");
    }

    #[test]
    fn empty_repository() {
        let r = Repository::new();
        assert!(r.is_empty());
        assert_eq!(r.total_elements(), 0);
        assert_eq!(r.elements().count(), 0);
    }

    const T: f64 = 0.55;

    fn travel() -> Schema {
        SchemaBuilder::new("trip")
            .root("trip")
            .child("flight", |b| b.leaf("departure", PrimitiveType::String))
            .leaf("hotel", PrimitiveType::String)
            .build()
    }

    #[test]
    fn clustering_is_cached_and_equals_a_fresh_build() {
        let r = repo();
        let first = r.clustering(T);
        assert!(Arc::ptr_eq(&first, &r.clustering(T)), "repeat lookup hits");
        assert!(
            Arc::ptr_eq(&first, &r.clone().clustering(T)),
            "clones share"
        );
        assert_eq!(*first, greedy_clustering(&r, T));
        // The threshold is clamped before it keys the slot.
        assert!(Arc::ptr_eq(&r.clustering(2.0), &r.clustering(1.0)));
        assert_eq!(*r.clustering(1.0), greedy_clustering(&r, 1.0));
        assert_eq!(*r.clustering(T), *first);
    }

    #[test]
    fn every_mutation_invalidates_the_cached_clustering() {
        let mut r = repo();
        let check = |r: &Repository, before: &Clustering, step: &str| {
            let after = r.clustering(T);
            assert_eq!(*after, greedy_clustering(r, T), "{step}");
            assert_ne!(*after, *before, "{step} must change the clustering");
        };
        let before = r.clustering(T);
        r.add(travel());
        check(&r, &before, "add");
        let before = r.clustering(T);
        assert!(r.remove_schema(SchemaId(1)));
        check(&r, &before, "remove_schema");
        let before = r.clustering(T);
        assert!(r.replace_schema(SchemaId(0), travel()));
        check(&r, &before, "replace_schema");
        let before = r.clustering(T);
        assert!(r.replace_schema(SchemaId(1), repo().schema(SchemaId(1)).clone()));
        check(&r, &before, "replace_schema of a tombstone");
    }

    #[test]
    fn a_clone_taken_before_a_mutation_keeps_its_clustering() {
        let mut r = repo();
        let shared = r.clustering(T);
        let old = r.clone();
        r.add(travel());
        assert!(Arc::ptr_eq(&old.clustering(T), &shared));
        assert_eq!(*r.clustering(T), greedy_clustering(&r, T));
        assert_ne!(*r.clustering(T), *shared);
        assert_eq!(*old.clustering(T), greedy_clustering(&old, T));
    }

    #[test]
    fn from_parts_starts_empty_and_rebuilds_the_same_clustering() {
        let r = repo();
        let cached = r.clustering(T);
        let schemas = r.iter().map(|(_, s)| s.clone()).collect();
        let rebuilt = Repository::from_parts(schemas, r.store().clone());
        let again = rebuilt.clustering(T);
        assert!(
            !Arc::ptr_eq(&again, &cached),
            "the cache is not carried over"
        );
        assert_eq!(*again, *cached);
    }

    #[test]
    fn concurrent_lookups_on_shared_clones_agree() {
        let mut r = repo();
        r.add(travel());
        let results: Vec<Arc<Clustering>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let clone = r.clone();
                    s.spawn(move || clone.clustering(T))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&results[0], &results[1]), "one shared build");
        assert_eq!(*results[0], greedy_clustering(&r, T));
    }
}
