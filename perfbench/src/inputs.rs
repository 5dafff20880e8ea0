//! Seeded inputs: repositories, query pools and request streams.
//!
//! Every input is a pure function of `(seed, stream, index)`, so a
//! request can be regenerated for a correctness check without keeping
//! it alive. The label rewriter widens the synthetic vocabulary before
//! the program sees a schema: it renames nodes with seed-driven
//! prefixes and numeric suffixes, and makes about 10% of the rewritten
//! labels non-ASCII and about 5% longer than 64 bytes, the two cases
//! the row kernel's ASCII fast path does not cover.

use rand::rngs::StdRng;
use rand::{IndexedRandom, Rng};
use smx::repo::{Repository, StoreConfig};
use smx::synth::{generate_schema, Domain, SchemaGenConfig};
use smx::xml::Schema;

/// Independent sub-streams of one seed.
pub mod stream {
    /// Repository schemas.
    pub const REPO: u64 = 1;
    /// Timed query requests.
    pub const QUERY: u64 = 2;
    /// Fixed-budget recall sample.
    pub const RECALL: u64 = 3;
    /// Schemas written by add and replace.
    pub const WRITE: u64 = 4;
    /// The write/query operation mix.
    pub const OPS: u64 = 5;
    /// Query pools.
    pub const POOL: u64 = 6;
    /// The traced run's layer probe.
    pub const PROBE: u64 = 7;
}

/// The RNG of one input: `(seed, stream, index)` mixed into one seed.
pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
    )
}

const PREFIXES: [&str; 12] = [
    "src", "tgt", "legacy", "ext", "crm", "erp", "stg", "dw", "acct", "geo", "hist", "ref",
];
const NON_ASCII_PREFIXES: [&str; 8] = [
    "größe",
    "prénom",
    "número",
    "名前",
    "адрес",
    "città",
    "straße",
    "kōdo",
];
/// Appended to make a label longer than 64 bytes.
const LONG_QUALIFIER: &str = "WithExtendedQualifiedAttributeDescriptorForDownstreamConsumers";
/// Numeric suffixes drawn per rewritten label.
const SUFFIXES: u32 = 1000;

/// Rename `label` with a seed-driven prefix and numeric suffix.
fn rewrite(label: &str, rng: &mut StdRng) -> String {
    let head = if rng.random_bool(0.10) {
        NON_ASCII_PREFIXES.choose(rng)
    } else {
        PREFIXES.choose(rng)
    }
    .expect("non-empty prefix list");
    let mut chars = label.chars();
    let first = chars.next().map(|c| c.to_ascii_uppercase());
    let mut out = String::with_capacity(label.len() + 80);
    out.push_str(head);
    out.extend(first);
    out.extend(chars);
    out.push_str(&rng.random_range(0..SUFFIXES).to_string());
    if rng.random_bool(0.05) {
        out.push_str(LONG_QUALIFIER);
    }
    out
}

/// Rewrite each node's label with probability `share`.
fn rewrite_labels(schema: &mut Schema, share: f64, rng: &mut StdRng) {
    let ids: Vec<_> = schema.node_ids().collect();
    for id in ids {
        if rng.random_bool(share) {
            let name = rewrite(&schema.node(id).name, rng);
            schema.node_mut(id).name = name;
        }
    }
}

/// A generated schema of `nodes` nodes, `share` of its labels rewritten.
fn schema(
    name: String,
    domain: Domain,
    nodes: usize,
    depth: usize,
    share: f64,
    rng: &mut StdRng,
) -> Schema {
    let config = SchemaGenConfig {
        domain,
        nodes,
        max_depth: depth,
        max_fanout: if depth <= 2 { nodes } else { 4 },
    };
    let mut s = generate_schema(&name, &config, rng);
    rewrite_labels(&mut s, share, rng);
    s
}

/// Nodes per repository schema.
const REPO_NODES: usize = 12;

/// Repository schema `index` of `stream`, from domain `index % 4`, with
/// `share` of its labels rewritten.
pub fn repo_schema(seed: u64, stream: u64, index: u64, share: f64) -> Schema {
    let mut r = rng(seed, stream, index);
    let domain = Domain::ALL[(index % 4) as usize];
    schema(
        format!("s{stream}x{index}"),
        domain,
        REPO_NODES,
        4,
        share,
        &mut r,
    )
}

/// A repository of `schemas` generated schemas spanning all four
/// domains, `share` of the labels rewritten, ingested through
/// `Repository::add`.
pub fn repository(seed: u64, schemas: u64, share: f64, config: StoreConfig) -> Repository {
    let mut repo = Repository::with_store_config(config);
    for i in 0..schemas {
        repo.add(repo_schema(seed, stream::REPO, i, share));
    }
    repo
}

/// A personal schema of 4 to 6 nodes from a random domain, with
/// `share` of its labels rewritten. A rewritten label is novel with
/// high probability, so each such query pays a real store sweep.
pub fn query(seed: u64, stream: u64, index: u64, share: f64) -> Schema {
    let mut r = rng(seed, stream, index);
    let domain = *Domain::ALL.choose(&mut r).expect("four domains");
    let nodes = r.random_range(4..7);
    schema(
        format!("q{stream}x{index}"),
        domain,
        nodes,
        2,
        share,
        &mut r,
    )
}

/// The roster workload's inputs: `scenarios` scenarios cycling through
/// the four domains, each contributing its personal schema to the query
/// pool and `schemas` repository schemas: one derived schema (a host
/// with a perturbed copy of the personal schema grafted in) and noise
/// schemas from the same vocabulary. Labels are left as the generator
/// makes them.
pub fn roster_inputs(seed: u64, scenarios: u64, schemas: usize) -> (Repository, Vec<Schema>) {
    let mut repo = Repository::new();
    let mut pool = Vec::new();
    for i in 0..scenarios {
        let sc = smx::synth::Scenario::generate(smx::synth::ScenarioConfig {
            domain: Domain::ALL[(i % 4) as usize],
            personal_nodes: 5,
            derived_schemas: 1,
            noise_schemas: schemas - 1,
            host_nodes: 10,
            perturbation_strength: 0.5,
            seed: rng(seed, stream::POOL, i).random_range(0..u64::MAX),
        });
        for (_, s) in sc.repository.iter() {
            repo.add(s.clone());
        }
        pool.push(sc.personal);
    }
    (repo, pool)
}

/// Whether the row kernel's ASCII fast path skips `label`: it is
/// non-ASCII or longer than 64 bytes.
fn is_fallback_label(label: &str) -> bool {
    !label.is_ascii() || label.len() > 64
}

/// Share of the store's distinct labels that take the kernel fallback.
pub fn fallback_label_share(repo: &Repository) -> f64 {
    let interner = repo.store().interner();
    let n = interner.len();
    let fallback = (0..n)
        .filter(|&i| is_fallback_label(interner.resolve(smx::repo::LabelId(i as u32))))
        .count();
    fallback as f64 / n.max(1) as f64
}
