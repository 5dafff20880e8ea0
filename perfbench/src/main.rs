//! End-to-end and per-layer benchmark of the smx schema matcher.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload certified_cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a JSON line describing the host, the configuration and the
//! inputs, then as its last line the result: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`; `--trace 1` reports its per-layer metrics. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod inputs;
mod ops;
mod stats;
mod trace;
mod workloads;

use stats::{num, object, string};
use std::time::Duration;

/// Layers the traced run times; each reports `<layer>.ms`, the
/// per-request median, and `<layer>.share`, its share of summed request
/// time.
pub const LAYERS: [&str; 16] = [
    "match.problem",
    "match.candidates",
    "match.matrix",
    "match.search",
    "match.certificate",
    "repo.sweep",
    "match.search.exhaustive",
    "match.search.topk",
    "match.search.beam",
    "match.search.cluster",
    "match.pipeline",
    "repo.add",
    "repo.replace",
    "repo.remove",
    "persist.save",
    "persist.load",
];

/// Counts the traced run reports as their mean per call.
pub const COUNTS: [&str; 10] = [
    "match.candidates.active_schemas",
    "match.candidates.cert_empty_share",
    "match.candidates.pruned_pairs",
    "match.candidates.scored_pairs",
    "match.search.answers",
    "repo.sweep.pair_evals",
    "repo.sweep.partial_row_fills",
    "repo.sweep.candidate_pruned",
    "repo.sweep.evictions",
    "repo.sweep.cells",
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    duration: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        duration: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// The commit of the checkout, when it is a git repository.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_owned)
    })
}

fn env_record(name: &str) -> String {
    std::env::var(name).map_or_else(|_| "null".to_owned(), |v| string(&v))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Timed runs measure the program with its own spans off; the traced
    // run times layers from here, not through them.
    smx::obs::set_enabled(false);
    let outcome = match args.workload.as_str() {
        "certified_cold" => workloads::certified_cold(&args),
        "roster_warm" => workloads::roster_warm(&args),
        "ingest_restart" => workloads::ingest_restart(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}; expected certified_cold, roster_warm or ingest_restart");
            std::process::exit(2);
        }
    };
    let host = object([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "kernel_variant",
            string(smx::text::KernelVariant::active().name()),
        ),
        ("SMX_KERNEL_FORCE", env_record("SMX_KERNEL_FORCE")),
        ("SMX_TRACE", env_record("SMX_TRACE")),
        ("program_tracing_off", (!smx::obs::enabled()).to_string()),
        (
            "build_profile",
            string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "commit",
            commit().map_or_else(|| "null".to_owned(), |c| string(&c)),
        ),
    ]);
    let inputs = object(outcome.inputs.iter().map(|&(k, v)| (k, num(v))));
    let checks = object(outcome.checks.0.iter().map(|(&k, &(pass, fail))| {
        (
            k,
            object([("passed", pass.to_string()), ("failed", fail.to_string())]),
        )
    }));
    println!(
        "{}",
        object([
            ("workload", string(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", num(args.duration.as_secs_f64())),
            ("trace", args.trace.to_string()),
            ("host", host),
            ("inputs", inputs),
            ("checks", checks),
        ])
    );
    let metrics = object(outcome.metrics.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            object([("value", num(*value)), ("unit", string(unit))]),
        )
    }));
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        object([
            ("correct", correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", metrics),
        ])
    );
}
