#![warn(missing_docs)]

//! Schema matchers: an exhaustive system S1 and several non-exhaustive
//! improvements S2, all sharing **one objective function** Δ — the
//! precondition of the effectiveness-bounds technique.
//!
//! A schema mapping assigns every element of the personal schema to a
//! distinct element of one repository schema; its quality is the
//! difference score Δ ∈ [0, 1] (lower = better) computed by
//! [`ObjectiveFunction`] from name similarity, type compatibility, and
//! structural coherence. The search space is exponential in the personal
//! schema's size ([`space`] counts it), which is why the paper needs
//! non-exhaustive improvements:
//!
//! * [`exhaustive`] — S1: branch-and-bound enumeration, provably complete
//!   for every threshold δ ≤ δ_max (the admissible bound only prunes
//!   branches that cannot reach δ_max); [`brute_force`] is the
//!   no-pruning reference it is tested against, with its own enumerator;
//! * [`beam`] — S2-one style: per-schema beam search; loses answers
//!   smoothly as δ grows (compare Figure 10's S2-one);
//! * [`cluster_search`] — S2-two style (\[16\] in the paper): match only
//!   inside the top-ranked clusters' fragments; loses whole score bands
//!   (Figure 10's S2-two);
//! * [`topk`] — \[17\]-style early termination: exactly the top-k answers;
//! * [`sampler`] — the per-increment random selector of §3.4, used to
//!   validate Equations (9)–(10) empirically;
//! * one crate-private search kernel enumerates assignments for S1,
//!   top-k, beam and cluster alike — each matcher is a configuration of
//!   it (frontier policy, budget, allowed targets), and
//!   `tests/roster_golden.rs` pins their answers bit for bit;
//! * [`batch`] — the bulk serving path: N personal schemas against one
//!   repository, distinct labels deduped across the batch and swept in
//!   one pass over the stored label profiles, then any matcher above
//!   dispatched per problem (optionally across scoped workers) —
//!   bitwise identical to solo runs (`tests/batch_identity.rs`);
//! * [`candidates`] + [`certified`] — the certified non-exhaustive
//!   tier: an inverted-index filter stage ([`smx_repo::FilterIndex`])
//!   computes an *admissible lower bound* on every schema's best
//!   possible mapping cost, certifies hopeless schemas empty before
//!   any exact scoring, and restricts the problem (and its matrix
//!   fill) to the survivors. [`CertifiedMatcher`] wraps any matcher
//!   above and attaches a [`RecallCertificate`]: a machine-checkable
//!   lower bound on recall vs the exhaustive oracle, valid with no
//!   ground truth — and pluggable straight into `smx-core`'s
//!   effectiveness-bounds envelope as a certified answer-size ratio.
//!   With no budget the restriction is loss-free and the restricted
//!   answers are **bitwise identical** to the unrestricted run
//!   (`tests/candidate_differential.rs`).
//!
//! # Pipelines
//!
//! [`pipeline`] generalises the certified tier into *composable*
//! matching processes: a [`Pipeline`] chains filter stages (candidate
//! certification, survivor truncation, beam-as-filter) in front of any
//! terminal matcher, accumulates every stage's certificate charges,
//! and — because it implements [`Matcher`] itself — drops into
//! [`BatchMatcher`], [`CertifiedMatcher`], persistence and the benches
//! unchanged. A small rewrite layer ([`Pipeline::normalize`]) fuses,
//! dedups and reorders stages without changing a single answer bit:
//!
//! ```
//! use smx_match::{ExhaustiveMatcher, MappingRegistry, MatchProblem,
//!                 ObjectiveFunction, Pipeline};
//! use smx_synth::{Scenario, ScenarioConfig};
//!
//! let sc = Scenario::generate(ScenarioConfig::default());
//! let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
//!
//! // candidates → keep the 8 most promising → beam-filter → exhaustive.
//! let pipe = Pipeline::builder(ObjectiveFunction::default())
//!     .candidate_filter()
//!     .truncate(8)
//!     .beam_filter(16)
//!     .refine(ExhaustiveMatcher::default());
//!
//! let registry = MappingRegistry::new();
//! let run = pipe.run_certified(&problem, 0.3, &registry);
//! // The composed certificate multiplies per-stage factors …
//! let cert = &run.certificate;
//! assert!(cert.factor_breakdown().reproduces(cert.certified_recall(), 1e-9));
//! // … and lower-bounds recall against the exhaustive oracle.
//! assert!(cert.certified_recall() <= 1.0);
//! ```
//!
//! Stage pruning decisions all read one shared, full-precision bounds
//! table computed per run, which is what makes the rewrite algebra
//! sound — see the [`pipeline`] module docs. The pipeline-algebra
//! differential suites (`tests/pipeline_differential.rs`,
//! `tests/pipeline_algebra.rs`) hold `normalize` to bitwise answer
//! identity and composed certificates to admissibility across random
//! stage compositions and budgets.
//!
//! # The scoring engine
//!
//! All matchers score through the problem's precomputed
//! [`CostMatrix`] ([`cost_matrix`]): at first use per
//! [`MatchProblem`], one name-distance row per *distinct* personal
//! label is fetched from the repository's score store
//! ([`smx_repo::LabelStore`]) — swept by a batched row kernel
//! (`smx_text::RowKernel`) over per-label profiles precomputed at
//! ingest, and cached on the repository so repeated problems against
//! the same repository refill without evaluating a single string pair.
//! The dense `k × n` node-cost table per schema, per-level row minima,
//! and their suffix sums (the admissible branch-and-bound bounds) are
//! then plain `Vec<f64>` lookups. The engine lives behind a `OnceLock`
//! in the problem, so post-initialisation reads are lock-free and
//! allocation-free — safe to share across [`BatchMatcher`]'s workers.
//!
//! **Score-identity invariant.** The bounds methodology requires S1 and
//! every S2 to share Δ *exactly*. The store's rows are bitwise identical
//! to [`ObjectiveFunction::name_distance`] (the row kernel's contract),
//! the matrix fill reuses [`ObjectiveFunction::blend`], and
//! [`CostMatrix::mapping_cost`] replicates
//! [`ObjectiveFunction::mapping_cost`] term by term, so matrix-backed
//! scores are **bitwise identical** (`f64::to_bits`) to direct
//! evaluation. `ExhaustiveMatcher::direct` /
//! `BruteForceMatcher::direct` keep the recompute-every-time path alive
//! as the reference; `tests/score_identity.rs` asserts the invariant
//! across all matchers, and `benches/matching.rs` measures the speedup
//! the engine buys.
//!
//! All matchers return [`smx_eval::AnswerSet`]s whose ids come from a
//! shared [`MappingRegistry`], so S1's and S2's answers are directly
//! comparable — the invariant `A_S2^δ ⊆ A_S1^δ` is asserted in tests.

pub mod batch;
pub mod beam;
pub mod brute_force;
pub mod candidates;
pub mod certified;
pub mod cluster_search;
pub mod cost_matrix;
pub mod error;
pub mod exhaustive;
pub mod mapping;
pub mod matcher;
pub mod objective;
pub mod pipeline;
pub mod problem;
pub mod sampler;
mod search;
pub mod space;
#[cfg(feature = "test-support")]
pub mod test_support;
pub mod topk;

pub use batch::{BatchMatcher, BatchProblem};
pub use beam::BeamMatcher;
pub use brute_force::BruteForceMatcher;
pub use candidates::{ActiveSet, CandidateConfig, CandidateGenerator, CandidateSet, CERT_SLACK};
pub use certified::{CertifiedAnswer, CertifiedMatcher, RecallCertificate};
pub use cluster_search::ClusterMatcher;
pub use cost_matrix::{CostMatrix, SchemaTable};
pub use error::MatchError;
pub use exhaustive::{ExhaustiveMatcher, ScoringMode};
pub use mapping::{Mapping, MappingRegistry};
pub use matcher::Matcher;
pub use objective::{ObjectiveConfig, ObjectiveFunction};
pub use pipeline::{
    BeamFilter, CandidateFilter, Pipeline, PipelineAnswer, PipelineBuilder, PipelineCertificate,
    PredicateId, RefineStage, SizeFilter, Stage, StageContext, StageKind, StageOutput, StageReport,
    Truncate,
};
pub use problem::MatchProblem;
pub use sampler::random_selection;
pub use space::{falling_factorial, search_space_size};
pub use topk::TopKMatcher;
