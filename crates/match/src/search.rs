//! The search kernel under S1, top-k, beam and cluster.
//!
//! [`Search`] enumerates injective assignments of the personal nodes (in
//! arena order, parents first) into one repository schema, reading node
//! costs and bounds from its [`SchemaTable`]. It owns the step cost (node
//! cost plus the structure-weighted edge penalty to the parent's target),
//! injectivity, the admissible `suffix_min` bound, leaf re-scoring
//! ([`CostMatrix::mapping_cost`], or [`ObjectiveFunction::mapping_cost`]
//! in direct mode) and interning; `expand` is the only loop over
//! candidate targets. S1 walks depth-first with the fixed budget δ_max,
//! top-k depth-first with a budget its [`Sink`] tightens, cluster
//! depth-first over a fragment cover ([`Policy::Within`]), and beam keeps
//! a level frontier of parent-pointer partials ([`Policy::Beam`]).
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
//! * **Beam drop.** A child whose own cost exceeds the budget is never
//!   pooled. It sorts after every child within budget, and so do all its
//!   descendants, so it could only fill slots nothing within budget
//!   wanted, and none of its leaves is interned: the within-budget
//!   survivors of every level, and their order, are unchanged. Beam adds
//!   no `suffix_min` term — dropping a within-budget partial would hand
//!   its slot to a costlier one.
//! * **NaN or negative δ.** Δ is never negative, so nothing scores ≤ δ
//!   and the kernel returns before enumerating. (A NaN budget would
//!   otherwise disable every prune, since `x > NaN` is false.)

use crate::cost_matrix::{CostMatrix, SchemaTable};
use crate::mapping::{Mapping, MappingRegistry};
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::AnswerId;
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

/// One schema's walk: the target of each assigned level, and the targets
/// that are taken or outside the cover.
struct Walk<'a> {
    sid: SchemaId,
    schema: &'a Schema,
    table: &'a SchemaTable,
    targets: Vec<NodeId>,
    blocked: Vec<bool>,
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
        let targets = vec![NodeId(0); k];
        let mut walk = Walk {
            sid,
            schema,
            table,
            targets,
            blocked,
        };
        match policy {
            Policy::Beam(width) => self.beam(&mut walk, width, sink),
            _ => self.depth_first(&mut walk, 0, 0.0, sink),
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
            let mut pool: Vec<Partial> = Vec::new();
            for parent in 0..levels.last().map_or(1, Vec::len) {
                let cost = levels.last().map_or(0.0, |prev| prev[parent].cost);
                Self::restore(walk, &levels, parent);
                self.expand(walk, level, cost, 0.0, budget, |_, target, cost| {
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
                let penalty =
                    self.objective
                        .edge_penalty(walk.schema, walk.targets[p.index()], node);
                step += structure_weight * penalty;
            }
            if partial + step + suffix > budget {
                continue;
            }
            walk.targets[level] = node;
            walk.blocked[target] = true;
            visit(walk, target, partial + step);
            walk.blocked[target] = false;
        }
    }

    /// Re-score a full assignment through the shared scoring path (the
    /// summed partial cost has another summation order) and intern it
    /// when Δ ≤ δ_max.
    fn leaf(&self, walk: &Walk<'_>, sink: &mut impl Sink) {
        let targets = walk.targets.clone();
        let score = match self.matrix {
            Some(matrix) => matrix.mapping_cost(self.problem, walk.sid, &targets),
            None => self
                .objective
                .mapping_cost(self.problem, walk.sid, &targets),
        };
        if score <= self.delta_max {
            let mapping = Mapping {
                schema: walk.sid,
                targets,
            };
            sink.accept(self.registry.intern(mapping), score);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        BeamMatcher, ClusterMatcher, ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher,
        ObjectiveFunction, TopKMatcher,
    };
    use smx_repo::Repository;
    use smx_xml::{PrimitiveType, SchemaBuilder};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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
