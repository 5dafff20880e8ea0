//! The three workloads. Every client is a closed loop: it sends its
//! next request only when the previous one has been answered.
//!
//! * `certified_cold`: one client sends novel certified requests to a
//!   1024-schema repository with a bounded row cache, so every request
//!   pays a real store sweep and candidate walk.
//! * `roster_warm`: two clients send a fixed query pool through the
//!   matcher roster over a small, fully warmed repository, so search
//!   dominates and every row lookup is a contended warm hit.
//! * `ingest_restart`: one client mixes writes with certified queries
//!   and restarts from a snapshot every 500 operations, in epochs of
//!   2000 operations that each start from the repository as set up.
//!
//! Every untraced run must report every end-to-end metric, so short
//! operations are timed as side work between a client's requests,
//! spread over the whole timed phase: repeated set-ups on every
//! workload, and on the two query workloads, whose own mix has no
//! writes, rounds of writes to a copy of the repository as set up and a
//! restart of the written copy. Side work never overlaps a timed
//! request. The traced run adds a layer probe that sends every request
//! kind once, so each layer's time is measured on every workload;
//! shares and coverage come from the workload's own mix alone.

use crate::inputs::{self, stream};
use crate::ops::{self, Answer, Engine, Query, Write, FIXED_BUDGET, SEARCHES};
use crate::stats::{self, ms};
use crate::trace::Trace;
use crate::Args;
use rand::Rng;
use smx::eval::AnswerSet;
use smx::matching::{MappingRegistry, MatchProblem};
use smx::persist::Snapshot;
use smx::repo::{Repository, SchemaId, StoreConfig};
use smx::xml::Schema;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Repository size of `certified_cold` and `ingest_restart`.
const LARGE_REPO: u64 = 1024;
/// Share of repository labels the rewriter renames.
const REPO_REWRITE: f64 = 0.35;
/// Share of query labels the rewriter renames.
const QUERY_REWRITE: f64 = 0.5;
/// `max_cached_rows` of `certified_cold`'s store: well below the query
/// vocabulary a run reaches, so the bound is exercised.
const COLD_CACHE_ROWS: usize = 256;
/// Share of `certified_cold` requests with the fixed budget.
const FIXED_SHARE: f64 = 0.2;
/// Concurrent clients of `roster_warm`.
const ROSTER_CLIENTS: usize = 2;
/// `roster_warm` scenarios: each adds its personal schema to the query
/// pool and `ROSTER_SCHEMAS_PER_SCENARIO` schemas to the repository.
const ROSTER_SCENARIOS: u64 = 32;
const ROSTER_SCHEMAS_PER_SCENARIO: usize = 4;
/// `ingest_restart` query pool size per epoch and snapshot period in
/// operations.
const INGEST_POOL: u64 = 64;
const SNAPSHOT_EVERY: u64 = 500;
/// Operations per `ingest_restart` epoch. Each epoch starts again from
/// the repository as set up, with operations of its own, so a run's
/// figures do not drift with how far its repository has grown.
const EPOCH_OPS: u64 = 2000;
/// Sweep threads of `ingest_restart`'s store. With the default two, the
/// client's heavy sweeps waited on the slower of two vCPUs: under a CPU
/// hog on one core of a 2-core host, query p99 rose 39%, against 7.5%
/// with one sweep thread.
const INGEST_SWEEP_THREADS: usize = 1;
/// Requests in the fixed-budget certified-recall sample.
const RECALL_SAMPLE: u64 = 200;
/// Requests compared against unrestricted S1 after the timed phase.
const S1_SAMPLE: u64 = 12;
/// Interval of the side work's cycles and the fewest cycles of a run.
const CYCLE: Duration = Duration::from_secs(1);
const MIN_CYCLES: u64 = 10;
/// Writes per cycle on the two query workloads: at least 3000 writes a
/// run. The first write after each load grows the loaded copy's tables
/// and is several times slower than the rest; at one in 300 writes it
/// stays clear of the 99th percentile instead of deciding it.
const ROUND_WRITES: u64 = 300;
/// Timed samples a 99th percentile needs, so that ten lie beyond it.
const MIN_TAIL_SAMPLES: usize = 1000;
/// The `certified_cold` request after which `peak_rss_mb` is read.
/// Partial rows grow with every novel request, so the figure is taken
/// after a fixed number of requests, not after however many a run's
/// time allowed.
const COLD_PEAK_AT: u64 = 1000;

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations and checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks by name: (passed, failed).
    pub checks: Checks,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Input properties of this workload and seed.
    pub inputs: Vec<(&'static str, f64)>,
}

/// Correctness checks by name: (passed, failed).
#[derive(Default)]
pub struct Checks(pub BTreeMap<&'static str, (u64, u64)>);

impl Checks {
    fn record(&mut self, name: &'static str, ok: bool) {
        let entry = self.0.entry(name).or_default();
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    fn merge(&mut self, other: Checks) {
        for (name, (pass, fail)) in other.0 {
            let entry = self.0.entry(name).or_default();
            entry.0 += pass;
            entry.1 += fail;
        }
    }

    fn counts(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(n, f), &(pass, fail)| (n + pass + fail, f + fail))
    }
}

/// One closed-loop client's record of the timed phase.
#[derive(Default)]
struct Client {
    query_ms: Vec<f64>,
    write_ms: Vec<f64>,
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    /// Time spent in requests, writes and restarts.
    busy: Duration,
    /// Completed queries and writes, and refused ones.
    ops: u64,
    failed: u64,
    restarts: u64,
    trace: Trace,
    checks: Checks,
}

impl Client {
    /// Send one query. A traced query is decomposed into its layer
    /// calls, then sent again as one call outside the timers; the two
    /// must answer bitwise identically.
    fn query(
        &mut self,
        engine: &Engine,
        repo: &Repository,
        personal: Schema,
        query: Query,
        traced: bool,
    ) -> Option<Answer> {
        let registry = MappingRegistry::new();
        let replay = traced.then(|| personal.clone());
        let t = Instant::now();
        let answer = if traced {
            engine.run_traced(repo, personal, query, &registry, &mut self.trace)
        } else {
            engine.run(repo, personal, query, &registry)
        };
        let wall = t.elapsed();
        self.busy += wall;
        self.ops += 1;
        self.query_ms.push(ms(wall));
        let (n, busy) = if traced {
            self.trace.finish(wall);
            &mut self.trace.traced
        } else {
            &mut self.trace.untraced
        };
        *n += 1;
        *busy += wall;
        let Some(answer) = answer else {
            self.failed += 1;
            return None;
        };
        if let Some(personal) = replay {
            let one_call = engine.run(repo, personal, query, &registry);
            let same = one_call.is_some_and(|one| ops::same(&one, &answer));
            self.checks.record("traced_equals_one_call", same);
        }
        Some(answer)
    }

    /// Apply one write; traced writes add their time to the trace.
    fn write(&mut self, repo: &mut Repository, write: Write, traced: bool) {
        let layer = write.layer();
        let t = Instant::now();
        let ok = write.apply(repo);
        let wall = t.elapsed();
        self.busy += wall;
        self.ops += 1;
        self.write_ms.push(ms(wall));
        if traced {
            self.trace.add(layer, wall);
            self.trace.finish(wall);
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Save a snapshot, strictly load it and continue on the loaded
    /// repository. A probe query must answer bitwise identically before
    /// the save and after the load.
    fn restart(&mut self, engine: &Engine, repo: &mut Repository, probe: &Schema, traced: bool) {
        let registry = MappingRegistry::new();
        let before = engine.run(repo, probe.clone(), Query::Certified(None), &registry);
        let t = Instant::now();
        let bytes = repo.save_snapshot();
        let saved = t.elapsed();
        let t = Instant::now();
        let loaded = Repository::load_snapshot(&bytes).ok();
        let load = t.elapsed();
        self.busy += saved + load;
        self.restarts += 1;
        self.save_ms.push(ms(saved));
        self.load_ms.push(ms(load));
        self.snapshot_bytes.push(bytes.len() as f64);
        if traced {
            self.trace.add("persist.save", saved);
            self.trace.add("persist.load", load);
            self.trace.finish(saved + load);
        }
        let Some(loaded) = loaded else {
            self.failed += 1;
            return;
        };
        let after = engine.run(&loaded, probe.clone(), Query::Certified(None), &registry);
        let same = matches!((&before, &after), (Some(b), Some(a))
            if ops::same(b, a));
        self.checks.record("snapshot_round_trip", same);
        *repo = loaded;
    }

    /// Completed operations per second of busy time.
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64()
    }

    fn merge(&mut self, other: Client) {
        self.query_ms.extend(other.query_ms);
        self.write_ms.extend(other.write_ms);
        self.save_ms.extend(other.save_ms);
        self.load_ms.extend(other.load_ms);
        self.snapshot_bytes.extend(other.snapshot_bytes);
        self.busy += other.busy;
        self.ops += other.ops;
        self.failed += other.failed;
        self.restarts += other.restarts;
        self.trace.merge(other.trace);
        self.checks.merge(other.checks);
    }
}

/// Build once and time it in seconds.
fn timed<T>(build: impl Fn() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = build();
    (built, t.elapsed().as_secs_f64())
}

/// The write a `u` in `[0, 0.7)` selects: add below 0.4, replace below
/// 0.6, remove otherwise. New schemas come from `stream::WRITE`.
fn write_for(seed: u64, index: u64, u: f64, repo: &Repository, share: f64) -> Write {
    let schema = || inputs::repo_schema(seed, stream::WRITE, index, share);
    let mut rng = inputs::rng(seed, stream::WRITE, u64::MAX - index);
    let len = repo.len() as u32;
    if u < 0.4 {
        Write::Add(schema())
    } else if u < 0.6 {
        Write::Replace(SchemaId(rng.random_range(0..len)), schema())
    } else {
        let live = (0..1000)
            .map(|_| SchemaId(rng.random_range(0..len)))
            .find(|&sid| !repo.is_removed(sid))
            .expect("the repository keeps live schemas");
        Write::Remove(live)
    }
}

/// Mean certified recall of fixed-budget certified requests for
/// `queries`; deterministic per seed.
fn fixed_recall(
    engine: &Engine,
    repo: &Repository,
    queries: impl Iterator<Item = Schema>,
    out: &mut Outcome,
) -> f64 {
    let mut recalls = Vec::new();
    for personal in queries {
        out.attempted += 1;
        let registry = MappingRegistry::new();
        match engine.run(
            repo,
            personal,
            Query::Certified(Some(FIXED_BUDGET)),
            &registry,
        ) {
            Some(Answer {
                certificate: Some(c),
                ..
            }) => recalls.push(c.certified_recall()),
            _ => out.failed += 1,
        }
    }
    stats::mean(&recalls)
}

/// The unrestricted exhaustive matcher S1's answers.
fn s1(
    engine: &Engine,
    repo: &Repository,
    personal: Schema,
    registry: &MappingRegistry,
) -> Option<AnswerSet> {
    engine
        .run(repo, personal, Query::Search(0), registry)
        .map(|a| a.answers)
}

/// Compare the certified tier with unrestricted S1 on one query: the
/// auto budget must answer bitwise like S1, and the fixed budget must
/// answer a subset of S1 with a certificate no higher than the recall
/// it achieved.
fn check_against_s1(engine: &Engine, repo: &Repository, personal: Schema, checks: &mut Checks) {
    let registry = MappingRegistry::new();
    let s1 = s1(engine, repo, personal.clone(), &registry);
    let auto = engine.run(repo, personal.clone(), Query::Certified(None), &registry);
    let fixed = engine.run(
        repo,
        personal,
        Query::Certified(Some(FIXED_BUDGET)),
        &registry,
    );
    let (Some(s1), Some(auto), Some(fixed)) = (s1, auto, fixed) else {
        checks.record("auto_certified_equals_s1", false);
        return;
    };
    checks.record(
        "auto_certified_equals_s1",
        ops::identical(&auto.answers, &s1),
    );
    let kept = fixed
        .answers
        .ids()
        .filter(|&id| s1.score_of(id).is_some())
        .count();
    let measured = if s1.is_empty() {
        1.0
    } else {
        kept as f64 / s1.len() as f64
    };
    let certified = fixed.certificate.map_or(f64::NAN, |c| c.certified_recall());
    checks.record(
        "fixed_certificate_admissible",
        certified <= measured + 1e-12,
    );
    checks.record(
        "fixed_answers_subset_of_s1",
        ops::subset_with_equal_scores(&fixed.answers, &s1),
    );
}

/// Distinct query labels over a run's requests, and the share of label
/// occurrences already seen in an earlier request.
fn query_vocabulary<'a>(requests: impl Iterator<Item = &'a Schema>) -> (usize, f64) {
    let mut seen: HashSet<&str> = HashSet::new();
    let (mut occurrences, mut repeats) = (0u64, 0u64);
    for personal in requests {
        let labels: HashSet<&str> = personal
            .node_ids()
            .map(|id| personal.node(id).name.as_str())
            .collect();
        for label in labels {
            occurrences += 1;
            if !seen.insert(label) {
                repeats += 1;
            }
        }
    }
    (seen.len(), repeats as f64 / occurrences.max(1) as f64)
}

/// Send every request kind, write kind and one restart once, traced, so
/// the trace measures every layer on this workload.
fn probe_layers(
    engine: &Engine,
    repo: &mut Repository,
    personal: &Schema,
    seed: u64,
    share: f64,
) -> Client {
    let mut c = Client::default();
    let kinds = [Query::Certified(None), Query::Certified(Some(FIXED_BUDGET))]
        .into_iter()
        .chain((0..SEARCHES.len()).map(Query::Search))
        .chain([Query::Pipeline]);
    for kind in kinds {
        c.query(engine, repo, personal.clone(), kind, true);
    }
    for (k, u) in [0.0, 0.5, 0.65].into_iter().enumerate() {
        let write = write_for(seed, u64::MAX / 2 + k as u64, u, repo, share);
        c.write(repo, write, true);
    }
    c.restart(engine, repo, personal, true);
    c
}

/// Side work the first client of a workload does between its requests,
/// outside its busy time. Figures from short operations are sampled
/// across the whole timed phase this way, so they see the same host
/// conditions as the requests. Once per `CYCLE` the side repeats the
/// workload's set-up and, on the two query workloads, a write round.
struct Side<'a> {
    /// One set-up; returns its time in seconds.
    setup: &'a (dyn Fn() -> f64 + Sync),
    setup_s: Vec<f64>,
    rounds: Option<Rounds>,
    cycle: Option<Instant>,
}

impl<'a> Side<'a> {
    fn new(
        setup: &'a (dyn Fn() -> f64 + Sync),
        first_setup_s: f64,
        rounds: Option<Rounds>,
    ) -> Self {
        Side {
            setup,
            setup_s: vec![first_setup_s],
            rounds,
            cycle: None,
        }
    }

    /// Whether a cycle is due.
    fn due(&self) -> bool {
        self.cycle.is_none_or(|t| t.elapsed() >= CYCLE)
    }

    /// Run one cycle and start the interval to the next.
    fn run_cycle(&mut self, engine: &Engine, serving: &Repository, probe: &Schema) {
        self.cycle = Some(Instant::now());
        self.setup_s.push((self.setup)());
        if let Some(rounds) = self.rounds.as_mut() {
            rounds.round(engine, serving, probe);
        }
    }

    /// Complete at least `MIN_CYCLES` cycles; return the median set-up
    /// time and the write and restart record.
    fn finish(mut self, engine: &Engine, serving: &Repository, probe: &Schema) -> (f64, Client) {
        while self.setup_s.len() as u64 <= MIN_CYCLES {
            self.run_cycle(engine, serving, probe);
        }
        let record = self.rounds.map(|r| r.record).unwrap_or_default();
        (stats::median(&mut self.setup_s), record)
    }
}

/// Lets clients' requests run side by side and side work run alone. Once
/// side work asks for the gate, no new request starts; the side work
/// starts when the requests in flight have ended, and the requests wait
/// until it is done. (`RwLock` readers that take the lock back to back
/// kept a writer waiting for seconds.)
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    in_flight: usize,
    side: bool,
}

impl Gate {
    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().expect("gate poisoned")
    }

    /// Run one request beside the other clients' requests.
    fn request<T>(&self, request: impl FnOnce() -> T) -> T {
        let mut state = self
            .changed
            .wait_while(self.lock(), |s| s.side)
            .expect("gate poisoned");
        state.in_flight += 1;
        drop(state);
        let out = request();
        self.lock().in_flight -= 1;
        self.changed.notify_all();
        out
    }

    /// Run side work with no request in flight.
    fn alone(&self, work: impl FnOnce()) {
        let mut state = self.lock();
        state.side = true;
        let state = self
            .changed
            .wait_while(state, |s| s.in_flight > 0)
            .expect("gate poisoned");
        drop(state);
        work();
        self.lock().side = false;
        self.changed.notify_all();
    }
}

/// Write rounds on a copy of a query workload's repository. Each round
/// loads the snapshot of the repository as set up, applies
/// `ROUND_WRITES` writes of its own, then saves the written copy and
/// strictly loads it again, so every round starts from the same state
/// and does the same amount of work.
struct Rounds {
    snapshot: Vec<u8>,
    seed: u64,
    share: f64,
    done: u64,
    record: Client,
}

impl Rounds {
    fn new(repo: &Repository, seed: u64, share: f64) -> Self {
        Rounds {
            snapshot: repo.save_snapshot(),
            seed,
            share,
            done: 0,
            record: Client::default(),
        }
    }

    /// One round. The copy as loaded must answer a probe query bitwise
    /// like the serving repository, and the written copy must answer it
    /// alike before its save and after its load.
    fn round(&mut self, engine: &Engine, serving: &Repository, probe: &Schema) {
        let c = &mut self.record;
        let Ok(mut copy) = Repository::load_snapshot(&self.snapshot) else {
            c.failed += 1;
            return;
        };
        if self.done == 0 {
            let registry = MappingRegistry::new();
            let before = engine.run(serving, probe.clone(), Query::Certified(None), &registry);
            let after = engine.run(&copy, probe.clone(), Query::Certified(None), &registry);
            let same = matches!((&before, &after), (Some(b), Some(a))
                if ops::same(b, a));
            c.checks.record("snapshot_round_trip", same);
        }
        for k in 0..ROUND_WRITES {
            let i = self.done * ROUND_WRITES + k;
            let u =
                inputs::rng(self.seed, stream::WRITE, i).random_range(0..700u32) as f64 / 1000.0;
            let write = write_for(self.seed, u64::MAX / 4 + i, u, &copy, self.share);
            c.write(&mut copy, write, false);
        }
        c.restart(engine, &mut copy, probe, false);
        self.done += 1;
    }
}

/// Fill `out` with the run's metrics: end-to-end ones untraced, per-layer
/// ones traced. `extra` holds the side work's write rounds or the traced
/// run's layer probe.
#[allow(clippy::too_many_arguments)]
fn report(
    out: &mut Outcome,
    args: &Args,
    setup_s: f64,
    timed: &Client,
    extra: &Client,
    throughput: f64,
    peak_rss_mb: f64,
    recall_fixed: f64,
    state: &[(&'static str, f64)],
) {
    let joined = |f: fn(&Client) -> &Vec<f64>| -> Vec<f64> {
        f(timed).iter().chain(f(extra)).copied().collect()
    };
    let mut m = |name: &str, value: f64, unit: &'static str| {
        out.metrics.push((name.to_owned(), value, unit))
    };
    let mut snapshots = joined(|c| &c.snapshot_bytes);
    if !args.trace {
        let mut q = timed.query_ms.clone();
        let mut w = joined(|c| &c.write_ms);
        m("setup_s", setup_s, "s");
        m("throughput_rps", throughput, "1/s");
        m("query_p50_ms", stats::quantile(&mut q, 0.5), "ms");
        m("query_p99_ms", stats::quantile(&mut q, 0.99), "ms");
        m("write_p50_ms", stats::quantile(&mut w, 0.5), "ms");
        m("write_p99_ms", stats::quantile(&mut w, 0.99), "ms");
        m(
            "snapshot_save_ms",
            stats::median(&mut joined(|c| &c.save_ms)),
            "ms",
        );
        m(
            "restart_ms",
            stats::median(&mut joined(|c| &c.load_ms)),
            "ms",
        );
        // The first snapshot is taken after a fixed amount of work, so
        // its size does not depend on how fast the run went.
        m(
            "snapshot_mb",
            snapshots.first().map_or(f64::NAN, |b| b / 1e6),
            "MB",
        );
        m("peak_rss_mb", peak_rss_mb, "MB");
        return;
    }
    let mut all = timed.trace.clone();
    all.merge(extra.trace.clone());
    for layer in crate::LAYERS {
        m(&format!("{layer}.ms"), all.median_ms(layer), "ms");
        m(&format!("{layer}.share"), timed.trace.share(layer), "ratio");
    }
    let unit = |name: &str| {
        if name.ends_with("share") {
            "ratio"
        } else {
            "count"
        }
    };
    for name in crate::COUNTS {
        m(name, stats::mean(all.values(name)), unit(name));
    }
    let evals: f64 = all.values("repo.sweep.pair_evals").iter().sum();
    let cells: f64 = all.values("repo.sweep.cells").iter().sum();
    m("repo.sweep.row_hit_share", 1.0 - evals / cells, "ratio");
    for &(name, value) in state {
        m(name, value, unit(name));
    }
    m(
        "persist.snapshot_bytes",
        stats::median(&mut snapshots),
        "bytes",
    );
    m("match.certificate.recall_fixed", recall_fixed, "ratio");
    m("trace.coverage", timed.trace.coverage(), "ratio");
    m("trace.overhead", timed.trace.overhead(), "ratio");
}

/// Repository state recorded at the end of the timed phase.
fn state(repo: &Repository) -> Vec<(&'static str, f64)> {
    let store = repo.store();
    vec![
        ("repo.cached_rows", store.cached_rows() as f64),
        ("repo.labels", store.len() as f64),
        ("repo.orphaned_labels", store.orphaned_labels() as f64),
        ("repo.live_schemas", repo.live_schemas() as f64),
        (
            "text.kernel.fallback_label_share",
            inputs::fallback_label_share(repo),
        ),
    ]
}

/// Close a run: check that each 99th percentile had enough samples,
/// fold counts into `out` and record input properties.
fn finish(
    out: &mut Outcome,
    args: &Args,
    timed: Client,
    extra: Client,
    mut inputs: Vec<(&'static str, f64)>,
) {
    let queries = timed.query_ms.len();
    let writes = timed.write_ms.len() + extra.write_ms.len();
    inputs.extend([("queries", queries as f64), ("writes", writes as f64)]);
    let mut all = timed;
    all.merge(extra);
    if !args.trace {
        let checks = &mut all.checks;
        checks.record("query_p99_has_enough_samples", queries >= MIN_TAIL_SAMPLES);
        checks.record("write_p99_has_enough_samples", writes >= MIN_TAIL_SAMPLES);
    }
    let (checked, check_failures) = all.checks.counts();
    out.attempted += all.ops + all.restarts + checked;
    out.failed += all.failed + check_failures;
    out.checks.merge(std::mem::take(&mut all.checks));
    out.inputs = inputs;
}

/// The `certified_cold` request `index`: a novel personal schema and
/// whether it gets the fixed budget.
fn cold_request(seed: u64, index: u64) -> (Schema, Query) {
    let personal = inputs::query(seed, stream::QUERY, index, QUERY_REWRITE);
    let fixed = inputs::rng(seed, stream::OPS, index).random_bool(FIXED_SHARE);
    (personal, Query::Certified(fixed.then_some(FIXED_BUDGET)))
}

pub fn certified_cold(args: &Args) -> Outcome {
    let seed = args.seed;
    let config = StoreConfig {
        max_cached_rows: Some(COLD_CACHE_ROWS),
        ..StoreConfig::default()
    };
    let build = || inputs::repository(seed, LARGE_REPO, REPO_REWRITE, config);
    let (mut repo, first_setup_s) = timed(build);
    let again = || timed(build).1;
    let engine = Engine::new(0.15);
    let mut out = Outcome::default();
    let recall_fixed = fixed_recall(
        &engine,
        &repo,
        (0..RECALL_SAMPLE).map(|i| inputs::query(seed, stream::RECALL, i, QUERY_REWRITE)),
        &mut out,
    );
    let mut side = (!args.trace).then(|| {
        Side::new(
            &again,
            first_setup_s,
            Some(Rounds::new(&repo, seed, REPO_REWRITE)),
        )
    });
    let probe = cold_request(seed, 0).0;
    let labels_at_setup = repo.store().len() as f64;
    let mut c = Client::default();
    let mut peak = None;
    let start = Instant::now();
    let mut sent = 0u64;
    while start.elapsed() < args.duration {
        if let Some(side) = side.as_mut().filter(|s| s.due()) {
            side.run_cycle(&engine, &repo, &probe);
        }
        let (personal, query) = cold_request(seed, sent);
        c.query(&engine, &repo, personal, query, args.trace && sent % 2 == 1);
        sent += 1;
        if sent == COLD_PEAK_AT {
            peak = Some(stats::peak_rss_mb());
        }
    }
    if !args.trace {
        c.checks
            .record("peak_rss_read_at_fixed_request", peak.is_some());
    }
    let throughput = c.throughput();
    let state = state(&repo);
    for i in 0..S1_SAMPLE {
        check_against_s1(&engine, &repo, cold_request(seed, i).0, &mut c.checks);
    }
    let requests: Vec<Schema> = (0..sent).map(|i| cold_request(seed, i).0).collect();
    let (vocabulary, seen) = query_vocabulary(requests.iter());
    let (setup_s, extra) = match side {
        Some(side) => side.finish(&engine, &repo, &probe),
        None => {
            let personal = inputs::query(seed, stream::PROBE, 0, QUERY_REWRITE);
            (
                first_setup_s,
                probe_layers(&engine, &mut repo, &personal, seed, REPO_REWRITE),
            )
        }
    };
    report(
        &mut out,
        args,
        setup_s,
        &c,
        &extra,
        throughput,
        peak.unwrap_or(f64::NAN),
        recall_fixed,
        &state,
    );
    let inputs = vec![
        ("distinct_labels", labels_at_setup),
        ("fallback_label_share", inputs::fallback_label_share(&repo)),
        ("query_vocabulary", vocabulary as f64),
        ("max_cached_rows", COLD_CACHE_ROWS as f64),
        ("query_labels_seen_before_share", seen),
    ];
    finish(&mut out, args, c, extra, inputs);
    out
}

pub fn roster_warm(args: &Args) -> Outcome {
    let seed = args.seed;
    let build = || {
        let (repo, pool) =
            inputs::roster_inputs(seed, ROSTER_SCENARIOS, ROSTER_SCHEMAS_PER_SCENARIO);
        for personal in &pool {
            let problem =
                MatchProblem::new(personal.clone(), repo.clone()).expect("non-empty query");
            repo.store().score_rows(&problem.distinct_personal_labels());
        }
        (repo, pool)
    };
    let ((mut repo, pool), first_setup_s) = timed(build);
    let again = || timed(build).1;
    let engine = Engine::new(0.25);
    let mut out = Outcome::default();
    let recall_fixed = fixed_recall(&engine, &repo, pool.iter().cloned(), &mut out);
    let mut side = (!args.trace)
        .then(|| Side::new(&again, first_setup_s, Some(Rounds::new(&repo, seed, 0.0))));
    let kinds: Vec<Query> = (0..SEARCHES.len())
        .map(Query::Search)
        .chain([Query::Pipeline])
        .collect();
    let next = AtomicU64::new(0);
    // The side work's set-ups and write rounds never contend with a
    // timed request.
    let gate = Gate::default();
    let start = Instant::now();
    let shared = (&engine, &repo, &pool, &kinds, &next, &gate);
    let (clients, sides): (Vec<Client>, Vec<Option<Side>>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ROSTER_CLIENTS)
            .map(|i| {
                // The first client also does the side work.
                let mut side = if i == 0 { side.take() } else { None };
                s.spawn(move || {
                    let (engine, repo, pool, kinds, next, gate) = shared;
                    let mut c = Client::default();
                    while start.elapsed() < args.duration {
                        if let Some(side) = side.as_mut().filter(|s| s.due()) {
                            gate.alone(|| side.run_cycle(engine, repo, &pool[0]));
                        }
                        let r = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let personal = pool[r % pool.len()].clone();
                        gate.request(|| {
                            c.query(
                                engine,
                                repo,
                                personal,
                                kinds[r % kinds.len()],
                                args.trace && r % 2 == 1,
                            )
                        });
                    }
                    (c, side)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    // Nothing here grows with the requests served: the rows were warmed
    // in set-up and the pool is fixed.
    let peak = stats::peak_rss_mb();
    let throughput: f64 = clients.iter().map(Client::throughput).sum();
    let mut c = Client::default();
    for client in clients {
        c.merge(client);
    }
    let state = state(&repo);
    for personal in &pool {
        let registry = MappingRegistry::new();
        let s1 = s1(&engine, &repo, personal.clone(), &registry);
        for &kind in &kinds {
            let answer = engine.run(&repo, personal.clone(), kind, &registry);
            let ok = matches!((&s1, &answer), (Some(s1), Some(a)) if match kind {
                Query::Search(0) => ops::identical(&a.answers, s1),
                _ => ops::subset_with_equal_scores(&a.answers, s1),
            });
            c.checks.record("roster_subset_of_s1", ok);
        }
    }
    let sent = next.load(Ordering::Relaxed) as usize;
    let (vocabulary, seen) = query_vocabulary((0..sent).map(|r| &pool[r % pool.len()]));
    let (setup_s, extra) = match sides.into_iter().flatten().next() {
        Some(side) => side.finish(&engine, &repo, &pool[0]),
        None => (
            first_setup_s,
            probe_layers(&engine, &mut repo, &pool[0], seed, 0.0),
        ),
    };
    report(
        &mut out,
        args,
        setup_s,
        &c,
        &extra,
        throughput,
        peak,
        recall_fixed,
        &state,
    );
    let inputs = vec![
        ("distinct_labels", state[1].1),
        ("fallback_label_share", state[4].1),
        ("query_vocabulary", vocabulary as f64),
        ("query_labels_seen_before_share", seen),
    ];
    finish(&mut out, args, c, extra, inputs);
    out
}

pub fn ingest_restart(args: &Args) -> Outcome {
    let seed = args.seed;
    let config = StoreConfig {
        batch_threads: INGEST_SWEEP_THREADS,
        ..StoreConfig::default()
    };
    let build = || inputs::repository(seed, LARGE_REPO, REPO_REWRITE, config);
    let (mut repo, first_setup_s) = timed(build);
    let again = || timed(build).1;
    // Each epoch draws its own query pool, so a run's tail averages over
    // several pools rather than hanging on one pool's heaviest queries.
    let query = |epoch: u64, i: u64| {
        inputs::query(seed, stream::POOL, epoch * INGEST_POOL + i, QUERY_REWRITE)
    };
    let pool_of =
        |epoch: u64| -> Vec<Schema> { (0..INGEST_POOL).map(|i| query(epoch, i)).collect() };
    let mut pool = pool_of(0);
    let engine = Engine::new(0.15);
    let mut out = Outcome::default();
    let recall_fixed = fixed_recall(&engine, &repo, pool.iter().cloned(), &mut out);
    let mut side = (!args.trace).then(|| Side::new(&again, first_setup_s, None));
    let labels_at_setup = repo.store().len() as f64;
    let initial = repo.save_snapshot();
    let mut c = Client::default();
    let mut peak = None;
    let mut queried: Vec<(u64, u64)> = Vec::new();
    let start = Instant::now();
    let mut sent = 0u64;
    while start.elapsed() < args.duration {
        if let Some(side) = side.as_mut().filter(|s| s.due()) {
            side.run_cycle(&engine, &repo, &pool[0]);
        }
        if sent > 0 && sent.is_multiple_of(EPOCH_OPS) {
            repo = Repository::load_snapshot(&initial).expect("the set-up snapshot loads");
            pool = pool_of(sent / EPOCH_OPS);
        }
        let u = inputs::rng(seed, stream::OPS, sent).random_range(0..1000u32) as f64 / 1000.0;
        if u < 0.7 {
            let write = write_for(seed, sent, u, &repo, REPO_REWRITE);
            c.write(&mut repo, write, args.trace);
        } else {
            let i = sent % INGEST_POOL;
            let traced = args.trace && queried.len() % 2 == 1;
            queried.push((sent / EPOCH_OPS, i));
            c.query(
                &engine,
                &repo,
                pool[i as usize].clone(),
                Query::Certified(None),
                traced,
            );
        }
        sent += 1;
        if sent.is_multiple_of(SNAPSHOT_EVERY) {
            c.restart(&engine, &mut repo, &pool[0], args.trace);
        }
        // Read at the end of the first epoch, so the figure does not
        // depend on how many epochs a run's time allowed.
        if sent == EPOCH_OPS {
            peak = Some(stats::peak_rss_mb());
        }
    }
    if !args.trace {
        c.checks
            .record("peak_rss_read_at_fixed_request", peak.is_some());
    }
    let throughput = c.throughput();
    let state = state(&repo);
    for personal in pool.iter().take(S1_SAMPLE as usize) {
        check_against_s1(&engine, &repo, personal.clone(), &mut c.checks);
    }
    let asked: Vec<Schema> = queried.iter().map(|&(epoch, i)| query(epoch, i)).collect();
    let (vocabulary, seen) = query_vocabulary(asked.iter());
    let (setup_s, extra) = match side {
        Some(side) => side.finish(&engine, &repo, &pool[0]),
        None => (
            first_setup_s,
            probe_layers(&engine, &mut repo, &pool[0], seed, REPO_REWRITE),
        ),
    };
    report(
        &mut out,
        args,
        setup_s,
        &c,
        &extra,
        throughput,
        peak.unwrap_or(f64::NAN),
        recall_fixed,
        &state,
    );
    let inputs = vec![
        ("distinct_labels", labels_at_setup),
        ("distinct_labels_at_end", state[1].1),
        ("fallback_label_share", state[4].1),
        ("query_vocabulary", vocabulary as f64),
        ("query_labels_seen_before_share", seen),
        ("operations", sent as f64),
        ("restarts", c.restarts as f64),
    ];
    finish(&mut out, args, c, extra, inputs);
    out
}
