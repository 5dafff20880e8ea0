//! The objective function Δ shared by every matcher.
//!
//! Δ maps a [`Mapping`](crate::Mapping) to a difference score in `[0, 1]`
//! (lower = better, as in the paper). It combines, per personal node, the
//! name dissimilarity and type incompatibility with its target, and per
//! personal edge, a structural penalty when the targets do not preserve
//! the ancestor relation.
//!
//! The paper's technique requires S1 and S2 to share Δ *exactly*; every
//! matcher in this crate therefore calls [`ObjectiveFunction::mapping_cost`],
//! which evaluates terms in a fixed order so scores are bitwise identical
//! across matchers.

use crate::problem::MatchProblem;
use serde::{Deserialize, Serialize};
use smx_repo::SchemaId;
use smx_text::NameSimilarity;
use smx_xml::{NodeId, Schema};

/// Weights of the objective's components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveConfig {
    /// Weight of name dissimilarity within a node's cost.
    pub name_weight: f64,
    /// Weight of type incompatibility within a node's cost.
    pub type_weight: f64,
    /// Weight of one edge's structural penalty relative to one node.
    pub structure_weight: f64,
}

impl Default for ObjectiveConfig {
    fn default() -> Self {
        ObjectiveConfig {
            name_weight: 0.75,
            type_weight: 0.25,
            structure_weight: 0.6,
        }
    }
}

/// The difference function Δ.
#[derive(Debug, Clone, Default)]
pub struct ObjectiveFunction {
    config: ObjectiveConfig,
    names: NameSimilarity,
}

impl ObjectiveFunction {
    /// Build with explicit weights.
    pub fn new(config: ObjectiveConfig) -> Self {
        ObjectiveFunction {
            config,
            names: NameSimilarity::default(),
        }
    }

    /// The configured weights.
    pub fn config(&self) -> ObjectiveConfig {
        self.config
    }

    /// Name dissimilarity of two raw element names — the expensive leaf
    /// of [`node_cost`](Self::node_cost). Exposed so precomputed scoring
    /// engines ([`CostMatrix`](crate::CostMatrix)) can evaluate it once
    /// per *distinct* label pair and still reproduce `node_cost` bitwise.
    pub fn name_distance(&self, a: &str, b: &str) -> f64 {
        self.names.distance(a, b)
    }

    /// The single blend formula combining a name distance and a type
    /// distance into a node cost. Every code path that produces node
    /// costs (direct evaluation and the precomputed matrix fill) funnels
    /// through this, which is what makes their scores bitwise identical.
    #[inline]
    pub fn blend(&self, name_dist: f64, type_dist: f64) -> f64 {
        let w = self.config;
        (w.name_weight * name_dist + w.type_weight * type_dist) / (w.name_weight + w.type_weight)
    }

    /// Cost in `[0, 1]` of assigning `personal_node` to `target` in
    /// `schema` — name dissimilarity blended with type incompatibility.
    pub fn node_cost(
        &self,
        personal: &Schema,
        personal_node: NodeId,
        schema: &Schema,
        target: NodeId,
    ) -> f64 {
        let p = personal.node(personal_node);
        let t = schema.node(target);
        let name_dist = self.names.distance(&p.name, &t.name);
        let type_dist = 1.0 - p.ty.compatibility(t.ty);
        self.blend(name_dist, type_dist)
    }

    /// Penalty in `[0, 1]` for one personal edge `(parent, child)` whose
    /// targets are `(tp, tc)`: 0 when `tp` is a proper ancestor of `tc`
    /// with a small surcharge per skipped level, a flat high penalty
    /// otherwise (the mapping scrambles the hierarchy).
    pub fn edge_penalty(&self, schema: &Schema, tp: NodeId, tc: NodeId) -> f64 {
        let gap = schema
            .is_ancestor(tp, tc)
            .then(|| schema.depth(tc) - schema.depth(tp));
        structural_penalty(gap)
    }

    /// Δ of a full assignment: `targets[i]` is the image of the `i`-th
    /// personal node (arena order). Normalised into `[0, 1]` by the total
    /// weight `k + e·structure_weight`.
    pub fn mapping_cost(
        &self,
        problem: &MatchProblem,
        schema_id: SchemaId,
        targets: &[NodeId],
    ) -> f64 {
        let personal = problem.personal();
        let schema = problem.repository().schema(schema_id);
        debug_assert_eq!(targets.len(), problem.personal_size());
        let mut total = 0.0;
        for (i, &pid) in problem.personal_order().iter().enumerate() {
            total += self.node_cost(personal, pid, schema, targets[i]);
            if let Some(parent) = personal.node(pid).parent {
                let parent_target = targets[parent.index()];
                total += self.config.structure_weight
                    * self.edge_penalty(schema, parent_target, targets[i]);
            }
        }
        let denom = problem.personal_size() as f64
            + problem.personal_edges() as f64 * self.config.structure_weight;
        total / denom
    }

    /// The smallest possible node cost of `personal_node` within `schema`
    /// — the admissible per-node lower bound used by branch-and-bound.
    pub fn min_node_cost(&self, personal: &Schema, personal_node: NodeId, schema: &Schema) -> f64 {
        schema
            .node_ids()
            .map(|t| self.node_cost(personal, personal_node, schema, t))
            .fold(f64::INFINITY, f64::min)
    }
}

/// The one edge-penalty formula: `gap` is the depth difference when the
/// parent's target is a proper ancestor of the child's, `None` otherwise.
/// [`ObjectiveFunction::edge_penalty`] and the search kernel's ancestry
/// table both call it, so their penalties are bitwise equal.
#[inline]
pub(crate) fn structural_penalty(gap: Option<usize>) -> f64 {
    match gap {
        Some(gap) => (0.15 * (gap as f64 - 1.0)).min(0.45),
        None => 0.8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_repo::Repository;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn fixture() -> (MatchProblem, SchemaId) {
        let personal = SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .leaf("year", PrimitiveType::Integer)
            .build();
        let mut repo = Repository::new();
        let sid = repo.add(
            SchemaBuilder::new("bib")
                .root("bibliography")
                .child("book", |b| {
                    b.leaf("title", PrimitiveType::String)
                        .leaf("year", PrimitiveType::Integer)
                        .leaf("price", PrimitiveType::Decimal)
                })
                .build(),
        );
        (MatchProblem::new(personal, repo).unwrap(), sid)
    }

    #[test]
    fn perfect_target_scores_near_zero() {
        let (problem, sid) = fixture();
        let obj = ObjectiveFunction::default();
        // book→book(n1), title→title(n2), year→year(n3).
        let cost = obj.mapping_cost(&problem, sid, &[NodeId(1), NodeId(2), NodeId(3)]);
        assert!(cost < 0.05, "perfect mapping cost {cost}");
    }

    use smx_xml::NodeId;

    #[test]
    fn scrambled_target_scores_higher() {
        let (problem, sid) = fixture();
        let obj = ObjectiveFunction::default();
        let perfect = obj.mapping_cost(&problem, sid, &[NodeId(1), NodeId(2), NodeId(3)]);
        // Map onto unrelated nodes: root→price, title→bibliography, year→book.
        let scrambled = obj.mapping_cost(&problem, sid, &[NodeId(4), NodeId(0), NodeId(1)]);
        assert!(scrambled > perfect + 0.2, "{scrambled} vs {perfect}");
        assert!((0.0..=1.0).contains(&scrambled));
    }

    #[test]
    fn edge_penalty_prefers_ancestors() {
        let (problem, sid) = fixture();
        let schema = problem.repository().schema(sid);
        let obj = ObjectiveFunction::default();
        // Direct parent→child: zero penalty.
        assert_eq!(obj.edge_penalty(schema, NodeId(1), NodeId(2)), 0.0);
        // Grandparent: small surcharge.
        let skip = obj.edge_penalty(schema, NodeId(0), NodeId(2));
        assert!(skip > 0.0 && skip < 0.5);
        // Non-ancestor: flat high penalty.
        assert_eq!(obj.edge_penalty(schema, NodeId(2), NodeId(3)), 0.8);
    }

    #[test]
    fn node_cost_reacts_to_names_and_types() {
        let (problem, sid) = fixture();
        let schema = problem.repository().schema(sid);
        let personal = problem.personal();
        let obj = ObjectiveFunction::default();
        // title→title: near zero. title→price: high.
        let same = obj.node_cost(personal, NodeId(1), schema, NodeId(2));
        let diff = obj.node_cost(personal, NodeId(1), schema, NodeId(4));
        assert!(same < 0.1);
        assert!(diff > same);
        // year (integer) → price (decimal): name differs, type close.
        let year_price = obj.node_cost(personal, NodeId(2), schema, NodeId(4));
        let year_title = obj.node_cost(personal, NodeId(2), schema, NodeId(2));
        assert!(year_price < year_title + 0.3); // type compat helps a bit
    }

    #[test]
    fn min_node_cost_is_admissible() {
        let (problem, sid) = fixture();
        let schema = problem.repository().schema(sid);
        let personal = problem.personal();
        let obj = ObjectiveFunction::default();
        for pid in personal.node_ids() {
            let min = obj.min_node_cost(personal, pid, schema);
            for t in schema.node_ids() {
                assert!(obj.node_cost(personal, pid, schema, t) >= min - 1e-15);
            }
        }
    }

    #[test]
    fn cost_is_deterministic() {
        let (problem, sid) = fixture();
        let obj = ObjectiveFunction::default();
        let targets = [NodeId(1), NodeId(2), NodeId(3)];
        let a = obj.mapping_cost(&problem, sid, &targets);
        let b = obj.mapping_cost(&problem, sid, &targets);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
