//! The search kernel under S1, top-k, beam and cluster.
//!
//! [`Search`] enumerates injective assignments of the personal nodes (in
//! arena order, parents first) into one repository schema, reading node
//! costs and bounds from its [`SchemaTable`]. It owns the step cost (node
//! cost plus the structure-weighted edge penalty to the parent's target),
//! injectivity, the admissible `suffix_min` bound, leaf re-scoring and
//! interning; `expand` is the only loop over candidate targets. S1 walks
//! depth-first with the fixed budget δ_max, top-k depth-first with a
//! budget its [`Sink`] tightens, cluster depth-first over a fragment
//! cover ([`Policy::Within`]), and beam keeps a level frontier of
//! parent-pointer partials ([`Policy::Beam`]).
//!
//! # The ancestry table
//!
//! Each [`Search::schema`] call first builds the visited schema's
//! ancestry table: every node's depth plus a bitset of its proper
//! ancestors (`n.div_ceil(64)` words per node), in O(n · depth). Every
//! edge penalty the kernel needs — one per child `expand` tries, and one
//! per edge of a matrix-mode leaf — is then a bit test and a depth
//! difference instead of two walks up the parent chain. The table feeds
//! the same formula [`ObjectiveFunction::edge_penalty`] calls, so its
//! penalties are bitwise equal, and the matrix-mode leaf sums its terms
//! level by level in the order of [`CostMatrix::mapping_cost`], so its
//! Δ is bitwise equal too. The table is rebuilt per visit and never
//! cached: [`Schema::node_mut`] can rewire a node's `parent`. Direct
//! mode re-scores leaves through [`ObjectiveFunction::mapping_cost`],
//! which, like the brute-force oracle, keeps walking the chain.
//!
//! # Identity conditions
//!
//! Each matcher returns what its former hand-written loop returned, bit
//! for bit, down to the order answers are interned in the
//! [`MappingRegistry`] (which fixes their `AnswerId`s):
//!
//! 1. **Beam ties.** The old beam sorted each level by cost, then by the
//!    target vectors compared lexicographically. Here the parents of a
//!    level are expanded in lexicographic order and their children in
//!    ascending target order, so a child's index in the pool *is* its
//!    lexicographic rank — ordering by (cost, lexicographic rank of the
//!    parent, target) — and ties break by that index. Survivors are kept
//!    in lexicographic order for the next level; leaves are emitted in
//!    final-beam order, cheapest first.
//! 2. **Top-k budget.** The sink's bound is read once per expansion,
//!    before any child is tried. Re-reading it per child would prune
//!    leaves the old search interned, shifting `AnswerId`s and with them
//!    the (score, id) tie at the k-th answer.
//! 3. **Cluster order.** Targets are visited in ascending `NodeId`, the
//!    order of the fragment cover, so leaves are interned as before.
//!
//! `tests/beam_reference.rs` holds the beam to a textbook beam (no
//! bound, every level fully sorted) bit for bit.
//!
//! # Why the prunes change no answer
//!
//! Node costs and edge penalties are non-negative, so a partial cost
//! never falls as targets are added, and `suffix_min[l]` (the sum of the
//! row minima from level `l` on) is at most what any completion adds.
//! The budget is `bound · denom + 1e-12`; the slack absorbs the rounding
//! between a summed partial cost and the leaf's re-scored Δ.
//!
//! * **Depth-first bound.** A child is skipped when
//!   `partial + step + suffix_min[level + 1]` exceeds the budget, so the
//!   skipped subtree holds no leaf that would be interned (S1 is tested
//!   complete against the brute-force reference). Cluster uses the same
//!   bound; the whole-row minima are at most the cover's.
//! * **Beam drop.** Beam prunes with the same bound. A child is *doomed*
//!   when `cost + suffix_min[level + 1]` exceeds the budget. Every
//!   partial in a level's pool adds the same `suffix_min[level + 1]`, so
//!   the doomed children are exactly the costliest tail of the pool.
//!   Every descendant of a doomed partial is doomed too: each step is at
//!   least its level's row minimum and penalties are ≥ 0, so no leaf
//!   below it scores within δ. Never pooling them frees only slots that
//!   other doomed partials would have filled: the survivors within
//!   budget, their order, and the leaves that get interned are those of
//!   a beam with no bound at all.
//! * **NaN or negative δ.** Δ is never negative, so nothing scores ≤ δ
//!   and the kernel returns before enumerating. (A NaN budget would
//!   otherwise disable every prune, since `x > NaN` is false.)
//!
//! # Counters
//!
//! The kernel counts, per [`Search::schema`] call, the nodes it expanded,
//! the children it pruned by bound, the leaves it scored and the answers
//! it accepted. While tracing is on ([`smx_obs::enabled`], read once per
//! [`Search`]) it adds them to the registry counters
//! `search.{expanded,pruned_by_bound,leaves,answers}` once per call.

use crate::cost_matrix::{CostMatrix, SchemaTable};
use crate::mapping::{Mapping, MappingRegistry};
use crate::objective::{structural_penalty, ObjectiveFunction};
use crate::problem::MatchProblem;
use smx_eval::AnswerId;
use smx_obs::Counter;
use smx_repo::SchemaId;
use smx_xml::{NodeId, Schema};
use std::collections::BTreeSet;

/// Receives the kernel's answers and sets the bound it prunes with.
pub(crate) trait Sink {
    /// The Δ bound the next expansion prunes against.
    fn bound(&self, delta_max: f64) -> f64 {
        delta_max
    }

    /// Take one interned answer with Δ ≤ δ_max.
    fn accept(&mut self, id: AnswerId, score: f64);
}

impl Sink for Vec<(AnswerId, f64)> {
    fn accept(&mut self, id: AnswerId, score: f64) {
        self.push((id, score));
    }
}

/// How the kernel walks a schema's assignment tree.
pub(crate) enum Policy<'a> {
    /// Depth-first branch-and-bound over every target.
    DepthFirst,
    /// Depth-first over the nodes of a fragment cover only.
    Within(&'a BTreeSet<NodeId>),
    /// A level frontier keeping the `width` cheapest partials.
    Beam(usize),
}

/// A beam partial: its cost, its parent's slot in the previous level,
/// and its own target.
#[derive(Clone, Copy)]
struct Partial {
    cost: f64,
    parent: usize,
    target: usize,
}

/// One schema's depths and proper-ancestor bitsets (module docs).
struct Ancestry {
    /// Bitset words per node.
    words: usize,
    depth: Vec<u32>,
    /// `words` words per node; bit `a` of node `c`'s words is set when
    /// `a` is a proper ancestor of `c`.
    above: Vec<u64>,
}

impl Ancestry {
    fn new(schema: &Schema) -> Self {
        let n = schema.len();
        let words = n.div_ceil(64);
        let mut depth = vec![0; n];
        let mut above = vec![0u64; n * words];
        for node in schema.node_ids() {
            let bits = &mut above[node.index() * words..][..words];
            let mut cur = node;
            while let Some(p) = schema.node(cur).parent {
                bits[p.index() / 64] |= 1 << (p.index() % 64);
                depth[node.index()] += 1;
                cur = p;
            }
        }
        Ancestry {
            words,
            depth,
            above,
        }
    }

    /// The edge penalty for targets `(tp, tc)`, bitwise equal to
    /// [`ObjectiveFunction::edge_penalty`].
    #[inline]
    fn penalty(&self, tp: NodeId, tc: NodeId) -> f64 {
        let (p, c) = (tp.index(), tc.index());
        let is_ancestor = self.above[c * self.words + p / 64] >> (p % 64) & 1 == 1;
        structural_penalty(is_ancestor.then(|| (self.depth[c] - self.depth[p]) as usize))
    }
}

/// Call-local counts of one [`Search::schema`] call, in the order of
/// [`COUNTERS`].
#[derive(Default)]
struct Counts {
    expanded: u64,
    pruned_by_bound: u64,
    leaves: u64,
    answers: u64,
}

/// The registry counters [`Counts`] are flushed into while tracing is on.
const COUNTERS: [&str; 4] = [
    "search.expanded",
    "search.pruned_by_bound",
    "search.leaves",
    "search.answers",
];

/// One schema's walk: the target of each assigned level, and the targets
/// that are taken or outside the cover.
struct Walk<'a> {
    sid: SchemaId,
    table: &'a SchemaTable,
    ancestry: Ancestry,
    targets: Vec<NodeId>,
    blocked: Vec<bool>,
    counts: Counts,
}

/// The search kernel for one problem, threshold and registry.
pub(crate) struct Search<'a> {
    problem: &'a MatchProblem,
    objective: &'a ObjectiveFunction,
    /// `None` in direct mode: tables and leaf scores via the objective.
    matrix: Option<&'a CostMatrix>,
    delta_max: f64,
    registry: &'a MappingRegistry,
    /// Normalisation denominator `k + e · structure_weight`.
    denom: f64,
    /// The [`COUNTERS`], when tracing was on at construction.
    counters: Option<[Counter; 4]>,
}

impl<'a> Search<'a> {
    pub(crate) fn new(
        problem: &'a MatchProblem,
        objective: &'a ObjectiveFunction,
        matrix: Option<&'a CostMatrix>,
        delta_max: f64,
        registry: &'a MappingRegistry,
    ) -> Self {
        let edges = problem.personal_edges() as f64;
        let denom = problem.personal_size() as f64 + edges * objective.config().structure_weight;
        Search {
            problem,
            objective,
            matrix,
            delta_max,
            registry,
            denom,
            counters: smx_obs::enabled()
                .then(|| COUNTERS.map(|name| smx_obs::registry().counter(name))),
        }
    }

    /// Search schema `sid` under `policy`, feeding answers to `sink`.
    pub(crate) fn schema(&self, sid: SchemaId, policy: Policy<'_>, sink: &mut impl Sink) {
        if self.delta_max.is_nan() || self.delta_max < 0.0 {
            return; // nothing scores ≤ δ (module docs)
        }
        let k = self.problem.personal_size();
        let schema = self.problem.repository().schema(sid);
        let blocked: Vec<bool> = match policy {
            Policy::Within(cover) => schema.node_ids().map(|t| !cover.contains(&t)).collect(),
            _ => vec![false; schema.len()],
        };
        if blocked.iter().filter(|&&b| !b).count() < k {
            return;
        }
        let direct;
        let table = match self.matrix {
            Some(matrix) => matrix.table(sid),
            None => {
                direct = SchemaTable::compute_direct(self.problem, schema, self.objective);
                &direct
            }
        };
        let mut walk = Walk {
            sid,
            table,
            ancestry: Ancestry::new(schema),
            targets: vec![NodeId(0); k],
            blocked,
            counts: Counts::default(),
        };
        match policy {
            Policy::Beam(width) => self.beam(&mut walk, width, sink),
            _ => self.depth_first(&mut walk, 0, 0.0, sink),
        }
        if let Some(counters) = &self.counters {
            let Counts {
                expanded,
                pruned_by_bound,
                leaves,
                answers,
            } = walk.counts;
            for (counter, n) in counters
                .iter()
                .zip([expanded, pruned_by_bound, leaves, answers])
            {
                counter.add(n);
            }
        }
    }

    fn budget(&self, sink: &impl Sink) -> f64 {
        sink.bound(self.delta_max) * self.denom + 1e-12
    }

    fn depth_first(&self, walk: &mut Walk<'_>, level: usize, partial: f64, sink: &mut impl Sink) {
        if level == walk.targets.len() {
            return self.leaf(walk, sink);
        }
        let budget = self.budget(sink); // once per expansion: identity condition 2
        let suffix = walk.table.suffix_min()[level + 1];
        self.expand(walk, level, partial, suffix, budget, |walk, _, cost| {
            self.depth_first(walk, level + 1, cost, sink)
        });
    }

    fn beam(&self, walk: &mut Walk<'_>, width: usize, sink: &mut impl Sink) {
        let k = walk.targets.len();
        let budget = self.budget(sink);
        // Survivors per level, in lexicographic order of their targets.
        let mut levels: Vec<Vec<Partial>> = Vec::with_capacity(k);
        for level in 0..k {
            let suffix = walk.table.suffix_min()[level + 1]; // beam drop (module docs)
            let mut pool: Vec<Partial> = Vec::new();
            for parent in 0..levels.last().map_or(1, Vec::len) {
                let cost = levels.last().map_or(0.0, |prev| prev[parent].cost);
                Self::restore(walk, &levels, parent);
                self.expand(walk, level, cost, suffix, budget, |_, target, cost| {
                    pool.push(Partial {
                        cost,
                        parent,
                        target,
                    })
                });
                for target in &walk.targets[..level] {
                    walk.blocked[target.index()] = false;
                }
            }
            // Pool index = lexicographic rank (identity condition 1).
            let by_cost = |&a: &usize, &b: &usize| {
                let order = pool[a].cost.partial_cmp(&pool[b].cost);
                order.expect("finite costs").then(a.cmp(&b))
            };
            let mut keep: Vec<usize> = (0..pool.len()).collect();
            if keep.len() > width {
                keep.select_nth_unstable_by(width - 1, by_cost);
                keep.truncate(width);
            }
            if level + 1 < k {
                keep.sort_unstable();
                levels.push(keep.into_iter().map(|i| pool[i]).collect());
                continue;
            }
            keep.sort_unstable_by(by_cost);
            for i in keep {
                Self::restore(walk, &levels, pool[i].parent);
                walk.targets[level] = NodeId(pool[i].target as u32);
                self.leaf(walk, sink);
            }
        }
    }

    /// Assign the targets of `levels.last()[slot]` and its ancestors.
    fn restore(walk: &mut Walk<'_>, levels: &[Vec<Partial>], mut slot: usize) {
        for (level, partials) in levels.iter().enumerate().rev() {
            let Partial { parent, target, .. } = partials[slot];
            walk.targets[level] = NodeId(target as u32);
            walk.blocked[target] = true;
            slot = parent;
        }
    }

    /// Try each free target for `level` in ascending order: a child whose
    /// cost plus `suffix` stays within `budget` is assigned, handed to
    /// `visit` with its cost, and unassigned.
    fn expand(
        &self,
        walk: &mut Walk<'_>,
        level: usize,
        partial: f64,
        suffix: f64,
        budget: f64,
        mut visit: impl FnMut(&mut Walk<'_>, usize, f64),
    ) {
        walk.counts.expanded += 1;
        let pid = self.problem.personal_order()[level];
        let parent = self.problem.personal().node(pid).parent;
        let structure_weight = self.objective.config().structure_weight;
        let table = walk.table;
        for (target, &node_cost) in table.row(level).iter().enumerate() {
            if walk.blocked[target] {
                continue;
            }
            let node = NodeId(target as u32);
            let mut step = node_cost;
            if let Some(p) = parent {
                let penalty = walk.ancestry.penalty(walk.targets[p.index()], node);
                step += structure_weight * penalty;
            }
            if partial + step + suffix > budget {
                walk.counts.pruned_by_bound += 1;
                continue;
            }
            walk.targets[level] = node;
            walk.blocked[target] = true;
            visit(walk, target, partial + step);
            walk.blocked[target] = false;
        }
    }

    /// Re-score a full assignment (the summed partial cost has another
    /// summation order) and intern it when Δ ≤ δ_max. Matrix mode scores
    /// from the table and ancestry, direct mode through
    /// [`ObjectiveFunction::mapping_cost`].
    fn leaf(&self, walk: &mut Walk<'_>, sink: &mut impl Sink) {
        walk.counts.leaves += 1;
        let score = match self.matrix {
            Some(_) => self.leaf_cost(walk),
            None => self
                .objective
                .mapping_cost(self.problem, walk.sid, &walk.targets),
        };
        if score <= self.delta_max {
            walk.counts.answers += 1;
            let mapping = Mapping {
                schema: walk.sid,
                targets: walk.targets.clone(),
            };
            sink.accept(self.registry.intern(mapping), score);
        }
    }

    /// Δ of the walk's full assignment from its table and ancestry, term
    /// by term in the order of [`CostMatrix::mapping_cost`].
    fn leaf_cost(&self, walk: &Walk<'_>) -> f64 {
        let personal = self.problem.personal();
        let structure_weight = self.objective.config().structure_weight;
        let targets = &walk.targets;
        let mut total = 0.0;
        for (i, &pid) in self.problem.personal_order().iter().enumerate() {
            total += walk.table.cost(i, targets[i].index());
            if let Some(parent) = personal.node(pid).parent {
                total +=
                    structure_weight * walk.ancestry.penalty(targets[parent.index()], targets[i]);
            }
        }
        total / self.denom
    }
}

#[cfg(test)]
mod tests {
    use super::{Ancestry, Counts, Search, Walk};
    use crate::{
        BeamMatcher, ClusterMatcher, ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher,
        ObjectiveFunction, TopKMatcher,
    };
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use smx_repo::Repository;
    use smx_synth::{Scenario, ScenarioConfig};
    use smx_xml::{NodeId, PrimitiveType, Schema, SchemaBuilder};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// 86 nodes: six groups of ten leaves two levels down, plus a chain
    /// six deep, so the bitsets span two words and gaps reach the cap.
    fn wide_schema() -> Schema {
        let mut host = SchemaBuilder::new("wide").root("catalogue");
        for i in 0..6 {
            host = host.child(format!("group{i}"), |g| {
                g.child(format!("section{i}"), |mut s| {
                    for j in 0..10 {
                        s = s.leaf(format!("field{i}_{j}"), PrimitiveType::String);
                    }
                    s
                })
            });
        }
        host.child("a", |a| {
            a.child("b", |b| {
                b.child("c", |c| {
                    c.child("d", |d| {
                        d.child("e", |e| e.leaf("f", PrimitiveType::String))
                    })
                })
            })
        })
        .build()
    }

    fn scenario_schemas() -> Vec<Schema> {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 4,
            noise_schemas: 2,
            ..Default::default()
        });
        let repo = sc.repository;
        repo.schema_ids()
            .map(|sid| repo.schema(sid).clone())
            .collect()
    }

    fn assert_penalties_match(schema: &Schema) {
        let objective = ObjectiveFunction::default();
        let ancestry = Ancestry::new(schema);
        for tp in schema.node_ids() {
            for tc in schema.node_ids() {
                assert_eq!(
                    ancestry.penalty(tp, tc).to_bits(),
                    objective.edge_penalty(schema, tp, tc).to_bits(),
                    "{}: edge {tp:?} → {tc:?}",
                    schema.name()
                );
            }
        }
    }

    #[test]
    fn ancestry_penalties_equal_edge_penalty_bitwise() {
        let wide = wide_schema();
        assert!(wide.len() > 64, "{} nodes", wide.len());
        assert_penalties_match(&wide);
        for schema in scenario_schemas() {
            assert_penalties_match(&schema);
        }
    }

    #[test]
    fn ancestry_follows_parent_links_rewired_through_node_mut() {
        let mut schema = wide_schema();
        // Re-parent onto lower arena indices (or detach), which keeps the
        // parent links acyclic; `children` lists are left stale.
        for i in 1..schema.len() as u32 {
            if i % 7 == 0 {
                schema.node_mut(NodeId(i)).parent = None;
            } else if i % 5 == 0 {
                schema.node_mut(NodeId(i)).parent = Some(NodeId(i / 2));
            }
        }
        assert_penalties_match(&schema);
    }

    #[test]
    fn matrix_leaf_score_equals_mapping_cost_bitwise() {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 4,
            noise_schemas: 2,
            personal_nodes: 5,
            ..Default::default()
        });
        let mut repo = sc.repository;
        repo.add(wide_schema());
        let problem = MatchProblem::new(sc.personal, repo).unwrap();
        let objective = ObjectiveFunction::default();
        let matrix = problem.cost_matrix(&objective);
        let registry = MappingRegistry::new();
        let search = Search::new(&problem, &objective, Some(&matrix), 0.5, &registry);
        let k = problem.personal_size();
        let mut rng = StdRng::seed_from_u64(17);
        for sid in problem.active_schema_ids() {
            let schema = problem.repository().schema(sid);
            let mut walk = Walk {
                sid,
                table: matrix.table(sid),
                ancestry: Ancestry::new(schema),
                targets: vec![NodeId(0); k],
                blocked: Vec::new(),
                counts: Counts::default(),
            };
            for _ in 0..200 {
                for target in &mut walk.targets {
                    *target = NodeId(rng.random_range(0..schema.len() as u32));
                }
                assert_eq!(
                    search.leaf_cost(&walk).to_bits(),
                    matrix.mapping_cost(&problem, sid, &walk.targets).to_bits(),
                    "{sid:?} {:?}",
                    walk.targets
                );
            }
        }
    }

    #[test]
    fn nan_or_negative_delta_returns_empty_without_enumerating() {
        // 7 personal nodes into a 30-node schema: P(30, 7) ≈ 1.03 · 10¹⁰
        // assignments, far beyond what a second of enumeration covers.
        let mut personal = SchemaBuilder::new("p").root("book");
        for name in ["title", "author", "year", "price", "isbn", "publisher"] {
            personal = personal.leaf(name, PrimitiveType::String);
        }
        let mut host = SchemaBuilder::new("big").root("catalogue");
        for i in 0..29 {
            host = host.leaf(format!("field{i}"), PrimitiveType::String);
        }
        let mut repo = Repository::new();
        repo.add(host.build());
        let problem = MatchProblem::new(personal.build(), repo).unwrap();
        assert_eq!(crate::search_space_size(&problem), 10_260_432_000);

        let objective = ObjectiveFunction::default;
        let matchers: Vec<Box<dyn Matcher + Send>> = vec![
            Box::new(ExhaustiveMatcher::new(objective())),
            Box::new(ExhaustiveMatcher::direct(objective())),
            Box::new(TopKMatcher::new(objective(), 10)),
            Box::new(BeamMatcher::new(objective(), 16)),
            Box::new(ClusterMatcher::new(objective(), 0.5, 4)),
        ];
        let runs = 2 * matchers.len();
        // Run on a worker so an enumerating matcher fails the deadline
        // instead of hanging the suite.
        let (done, results) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            for matcher in &matchers {
                for delta_max in [f64::NAN, -0.5] {
                    let registry = MappingRegistry::new();
                    let answers = matcher.run(&problem, delta_max, &registry);
                    let run = (matcher.name().to_owned(), delta_max);
                    done.send((run, answers.len(), registry.len())).unwrap();
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(1);
        for _ in 0..runs {
            let left = deadline.saturating_duration_since(Instant::now());
            let (run, answers, interned) = match results.recv_timeout(left) {
                Ok(result) => result,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("a matcher enumerated under a NaN or negative δ")
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{:?}", worker.join()),
            };
            assert_eq!((answers, interned), (0, 0), "{run:?}");
        }
        worker.join().expect("worker finished every run");
    }
}
