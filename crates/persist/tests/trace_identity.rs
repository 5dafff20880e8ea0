//! The observability identity gate: turning structured tracing on must
//! never change any matcher's answers, bitwise — clean runs, runs under
//! deterministic fault storms on the spill seam, and runs that stream
//! spans through the JSON-lines sink all have to agree with an untraced
//! oracle. Instrumentation observes; it does not participate.
//!
//! Tracing state (`smx_obs::set_enabled` / `set_recorder`) is
//! process-global, so every test in this binary serializes on
//! [`TRACE_LOCK`] and restores the disabled state before returning.

use smx_eval::AnswerSet;
use smx_match::test_support::{all_matchers, canonical_answers, run_matcher};
use smx_match::{MappingRegistry, Matcher};
use smx_persist::{Fault, FaultIo, FaultPlan, RealIo, RetryPolicy, SpillFile};
use smx_repo::{Repository, StoreConfig};
use smx_synth::{Scenario, ScenarioConfig};
use smx_xml::Schema;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

const DELTA_MAX: f64 = 0.45;

/// All tests here flip the process-global tracing switches; one at a
/// time, and always back to "off" on the way out.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn reset_tracing() {
    smx_obs::set_enabled(false);
    smx_obs::set_recorder(None);
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smx-trace-identity-{}-{tag}.bin",
        std::process::id()
    ))
}

fn scenario(seed: u64) -> Scenario {
    Scenario::generate(ScenarioConfig {
        derived_schemas: 3,
        noise_schemas: 1,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed,
        ..Default::default()
    })
}

fn run(
    matcher: &dyn Matcher,
    personal: &Schema,
    repository: &Repository,
    registry: &MappingRegistry,
) -> AnswerSet {
    run_matcher(matcher, personal, repository, DELTA_MAX, registry)
}

/// A bounded clone of `source`'s schemas with a fault-injected spill
/// sink attached (the chaos-suite fixture, reused verbatim so the
/// traced and untraced repositories see identical deterministic I/O).
fn bounded_with_faulty_spill(
    source: &Repository,
    cap: usize,
    plan: FaultPlan,
    path: &PathBuf,
) -> (Repository, Arc<SpillFile>) {
    let mut repo = Repository::with_store_config(StoreConfig {
        max_cached_rows: Some(cap),
        batch_threads: 0,
    });
    for (_, schema) in source.iter() {
        repo.add(schema.clone());
    }
    let io = Arc::new(FaultIo::new(Arc::new(RealIo), plan));
    let spill = Arc::new(
        SpillFile::create_with(io as _, path)
            .expect("creation happens before any planned fault in these tests")
            .with_retry_policy(RetryPolicy {
                max_reopens: 2,
                backoff_base: 1,
            }),
    );
    repo.store()
        .set_eviction_sink(Some(Arc::clone(&spill) as _));
    (repo, spill)
}

/// Every matching system returns bitwise-identical answers with tracing
/// off and with a span collector installed — and actually emits spans
/// while traced (the instrumentation is live, not dead code).
#[test]
fn tracing_changes_no_matchers_answers() {
    let _guard = guard();
    let sc = scenario(9101);
    for (name, matcher) in all_matchers() {
        let registry = MappingRegistry::new();
        reset_tracing();
        let untraced = run(&matcher, &sc.personal, &sc.repository, &registry);
        let collector = smx_obs::install_collector();
        let traced = run(&matcher, &sc.personal, &sc.repository, &registry);
        reset_tracing();
        assert!(
            !collector.is_empty(),
            "matcher {name} emitted no spans while tracing was enabled"
        );
        assert_eq!(
            canonical_answers(&untraced, &registry),
            canonical_answers(&traced, &registry),
            "matcher {name}: enabling tracing changed the answers"
        );
    }
}

/// Same identity under a fault storm: the traced and untraced runs each
/// get their own bounded repository wired to an *identical*
/// deterministic fault plan, so any divergence can only come from the
/// instrumentation itself.
#[test]
fn tracing_is_inert_under_fault_storms() {
    let _guard = guard();
    let sc = scenario(9102);
    type Storm = (&'static str, fn() -> FaultPlan);
    let storms: Vec<Storm> = vec![
        ("failed-write", || {
            FaultPlan::clean().fault_at(2, Fault::Fail)
        }),
        ("torn-write", || {
            FaultPlan::clean().fault_at(2, Fault::Torn { keep: 9 })
        }),
        ("flipped-bit", || {
            FaultPlan::clean().fault_at(2, Fault::BitFlip { byte: 30 })
        }),
        ("total-crash", || FaultPlan::clean().crash_at_op(2)),
        ("byte-budget", || FaultPlan::clean().crash_after_bytes(64)),
    ];
    for (storm_name, plan) in storms {
        for (matcher_name, matcher) in all_matchers() {
            let registry = MappingRegistry::new();

            reset_tracing();
            let path_off = temp_path(&format!("{storm_name}-{matcher_name}-off"));
            let (repo_off, _spill_off) =
                bounded_with_faulty_spill(&sc.repository, 1, plan(), &path_off);
            let untraced = run(&matcher, &sc.personal, &repo_off, &registry);

            let collector = smx_obs::install_collector();
            let path_on = temp_path(&format!("{storm_name}-{matcher_name}-on"));
            let (repo_on, _spill_on) =
                bounded_with_faulty_spill(&sc.repository, 1, plan(), &path_on);
            let traced = run(&matcher, &sc.personal, &repo_on, &registry);
            reset_tracing();

            assert!(
                !collector.is_empty(),
                "storm {storm_name:?}: matcher {matcher_name} emitted no spans"
            );
            assert_eq!(
                canonical_answers(&untraced, &registry),
                canonical_answers(&traced, &registry),
                "storm {storm_name:?}: matcher {matcher_name} diverged once traced"
            );
            std::fs::remove_file(&path_off).ok();
            std::fs::remove_file(&path_on).ok();
        }
    }
}

/// Streaming spans through the JSON-lines sink during a real bounded
/// run keeps the answers bitwise identical, and every line the sink
/// wrote carries a verifiable checksum.
#[test]
fn json_sink_streams_valid_lines_without_perturbing_answers() {
    let _guard = guard();
    let sc = scenario(9103);
    let registry = MappingRegistry::new();
    let (name, matcher) = all_matchers().remove(0);

    reset_tracing();
    let untraced = run(&matcher, &sc.personal, &sc.repository, &registry);

    let trace_path = temp_path("jsonl");
    let sink = Arc::new(smx_obs::JsonLinesSink::create(&trace_path).expect("temp dir is writable"));
    smx_obs::set_recorder(Some(Arc::clone(&sink) as Arc<dyn smx_obs::Recorder>));
    smx_obs::set_enabled(true);
    let traced = run(&matcher, &sc.personal, &sc.repository, &registry);
    reset_tracing();
    sink.flush().expect("sink stayed healthy");

    assert_eq!(
        canonical_answers(&untraced, &registry),
        canonical_answers(&traced, &registry),
        "matcher {name}: streaming to the JSON sink changed the answers"
    );
    let body = std::fs::read_to_string(&trace_path).expect("trace file exists");
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "sink wrote no trace lines");
    for line in &lines {
        assert!(
            smx_obs::trace_line_is_valid(line),
            "corrupt trace line: {line}"
        );
    }
    std::fs::remove_file(&trace_path).ok();
}
