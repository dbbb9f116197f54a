//! `huntbench`: the end-to-end and per-layer benchmark of the TQS hunt.
//!
//! ```text
//! cargo run --release --manifest-path huntbench/Cargo.toml -- \
//!     --workload <select_hunt|dml_txn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs through the program's own entry points
//! (`Campaign::new`/`Campaign::run`) on a number of seeded units that
//! `--seconds` fixes, and the end-to-end metrics pool or take the median of
//! those units. With `--trace 1`
//! a single-threaded replay runs the same cells through each layer's
//! public functions with a span around every call into a layer, checks the
//! replay against an untraced run cell by cell, and reports per-layer
//! metrics. Every output check failing makes the exit code non-zero. The
//! last line of standard output is one JSON object with the result; a
//! readable summary goes to standard error. Working files go under
//! `.bench_run/` in the working directory and are removed on exit.

mod hunt;
mod layers;
mod stats;
mod trace;
mod workload;

use stats::{interquartile_mean, median, percentile, relative_spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{unit_seed, Kind, WORKERS};

/// Fewest units an untraced run measures, however short `--seconds` is.
const MIN_UNITS: usize = 3;

/// The end-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("queries_per_s", "1/s"),
    ("cell_p90_s", "s"),
    ("verdict_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, reported by every workload with `--trace 1`
/// (zero where a workload never enters the layer).
const PER_LAYER: [(&str, &str); 35] = [
    ("dsg.build_ms", "ms"),
    ("gen.ms", "ms"),
    ("gen.ops", "count"),
    ("groundtruth.ms", "ms"),
    ("groundtruth.rows", "count"),
    ("optimizer.enumerate_ms", "ms"),
    ("optimizer.plans", "count"),
    ("engine.exec_ms", "ms"),
    ("engine.ref_exec_ms", "ms"),
    ("engine.statements", "count"),
    ("engine.rows_out", "count"),
    ("engine.ns_per_row", "ns"),
    ("engine.load_ms", "ms"),
    ("engine.dml_ms", "ms"),
    ("engine.dml_statements", "count"),
    ("oracle.self_ms", "ms"),
    ("oracle.checks", "count"),
    ("minimize.ms", "ms"),
    ("minimize.calls", "count"),
    ("minimize.oracle_checks", "count"),
    ("triage.admit_ms", "ms"),
    ("triage.reports", "count"),
    ("triage.classes", "count"),
    ("triage.useful_ratio", "ratio"),
    ("triage.fault_kinds", "count"),
    ("triage.fault_kinds_per_worker_s", "1/s"),
    ("persist.append_ms", "ms"),
    ("persist.appends", "count"),
    ("persist.bytes", "bytes"),
    ("campaign.ms", "ms"),
    ("campaign.worker_busy_ratio", "ratio"),
    ("campaign.retries", "count"),
    ("campaign.panics", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Layers whose self time counts toward `trace.coverage`.
const LAYERS: [&str; 8] = [
    "dsg", "gen", "engine", "oracle", "minimize", "triage", "persist", "campaign",
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A workload's result: what was attempted, what failed, the output checks
/// that did not hold, and the metrics by name.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("huntbench: {e}");
            eprintln!(
                "usage: huntbench --workload <select_hunt|dml_txn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    // The disk engine keeps its page files and WAL under the temporary
    // directory; point it inside the run's own working directory so the
    // benchmark reads and writes only below the working directory.
    let tmp = root.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("huntbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let tmp = tmp.canonicalize().unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);
    let result = if args.trace {
        traced(&args, &root)
    } else {
        untraced(&args, &root)
    };
    hunt::remove_dir(&root);
    // Gone once no other run is using it.
    let _ = std::fs::remove_dir(".bench_run");
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("huntbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = outcome.errors;
    let mut fields = Vec::new();
    eprintln!(
        "{} seed={} trace={} attempted={} failed={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for &(name, unit) in wanted {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            errors.push(format!("{name} is not a finite number"));
            continue;
        }
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

/// Every digit of the value; integers keep a trailing `.0` off.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Reset this process's peak resident memory to its current size, so the
/// next `peak_rss_mb` reading covers only what runs in between.
fn reset_peak_rss() {
    release_free_heap();
    // Best effort: without the reset the reading covers the whole process,
    // which only makes the figure larger.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Return the heap pages earlier units freed to the operating system, so
/// one unit's peak does not start from memory another unit left behind.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // free heap memory to the kernel; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// One measured unit: a whole hunt from its own seed.
struct Unit {
    answered: usize,
    attempted: usize,
    wall_s: f64,
    /// `Campaign::new`, in seconds.
    setup_s: f64,
    /// Wall time of each of the unit's cells, from the checkpoint journal.
    cell_s: Vec<f64>,
    peak_rss_mb: f64,
    /// What must repeat exactly when the same unit runs again: the
    /// class-key set and fault kinds.
    signature: String,
    errors: Vec<String>,
}

fn p90(values: &[f64]) -> f64 {
    percentile(values, 0.9).unwrap_or(0.0)
}

fn run_unit(kind: Kind, seed: u64, dir: PathBuf) -> Result<Unit, String> {
    reset_peak_rss();
    let h = hunt::hunt(kind, seed, dir, WORKERS)?;
    let mut unit = Unit {
        answered: h.stats.queries,
        attempted: h.attempted,
        wall_s: h.wall_s,
        setup_s: h.setup_s,
        cell_s: h
            .cells
            .iter()
            .map(|c| c.elapsed_ms as f64 / 1000.0)
            .collect(),
        peak_rss_mb: 0.0,
        signature: format!("{:?} {:?}", h.class_keys, h.fault_kinds),
        errors: h.errors,
    };
    unit.peak_rss_mb = peak_rss_mb()?;
    Ok(unit)
}

/// The untraced run: the run's units in seed order, then unit 0 again to
/// check that it repeats exactly. The rate is the interquartile mean of the
/// units' rates, so one unit stalled by a pathological statement or by the
/// host cannot swing the run; the cell percentile pools every unit's cells;
/// set-up time and memory are medians over units.
fn untraced(args: &Args, root: &Path) -> Result<Outcome, String> {
    let kind = args.workload;
    let count = kind.units(args.seconds).max(MIN_UNITS);
    let mut units = Vec::with_capacity(count);
    for i in 0..count {
        let unit = run_unit(
            kind,
            unit_seed(args.seed, i),
            root.join(format!("unit-{i}")),
        )?;
        eprintln!(
            "  unit {i:>3}: {} of {} answered in {:.3} s, p90 cell {:.3} s, peak {:.1} MiB",
            unit.answered,
            unit.attempted,
            unit.wall_s,
            p90(&unit.cell_s),
            unit.peak_rss_mb
        );
        units.push(unit);
    }
    let again = run_unit(kind, unit_seed(args.seed, 0), root.join("again"))?;
    let mut errors: Vec<String> = units.iter().flat_map(|u| u.errors.clone()).collect();
    if again.signature != units[0].signature {
        errors.push("unit 0 run a second time gave different results".into());
    }
    let answered: usize = units.iter().map(|u| u.answered).sum();
    let attempted: usize = units.iter().map(|u| u.attempted).sum();
    if answered == 0 {
        errors.push("no operation got a verdict".into());
    }
    let med = |f: fn(&Unit) -> f64| -> f64 {
        let v: Vec<f64> = units.iter().map(f).collect();
        median(&v).unwrap_or(0.0)
    };
    let rates: Vec<f64> = units.iter().map(|u| u.answered as f64 / u.wall_s).collect();
    let cells: Vec<f64> = units.iter().flat_map(|u| u.cell_s.clone()).collect();
    let mut metrics = BTreeMap::new();
    metrics.insert("queries_per_s", interquartile_mean(&rates).unwrap_or(0.0));
    metrics.insert("cell_p90_s", p90(&cells));
    metrics.insert("verdict_ratio", answered as f64 / attempted as f64);
    metrics.insert("setup_s", med(|u| u.setup_s));
    metrics.insert("peak_rss_mb", med(|u| u.peak_rss_mb));
    let setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    eprintln!(
        "{} units, {} cells; unit rate iqr/median {:.3}; setup iqr/median {:.3}",
        units.len(),
        cells.len(),
        relative_spread(&rates),
        relative_spread(&setups)
    );
    Ok(Outcome {
        attempted,
        failed: attempted - answered,
        errors,
        metrics,
    })
}

/// Units a traced run replays: the first sixth of the untraced run's.
fn traced_units(args: &Args) -> usize {
    (args.workload.units(args.seconds) / 6).max(1)
}

/// The traced run of a campaign workload. For each replayed unit: the
/// untraced hunt (busy ratio, fault kinds), an untraced reference that
/// drains one cell per `Campaign::run` (per-cell counts), and then, with
/// the tracer recording, the single-threaded replay that must reproduce
/// the reference cell by cell.
fn traced(args: &Args, root: &Path) -> Result<Outcome, String> {
    let kind = args.workload;
    let n = traced_units(args);
    let mut untraced = Vec::with_capacity(n);
    let mut references = Vec::with_capacity(n);
    for i in 0..n {
        let seed = unit_seed(args.seed, i);
        untraced.push(hunt::hunt(
            kind,
            seed,
            root.join(format!("hunt-{i}")),
            WORKERS,
        )?);
        references.push(hunt::reference(
            kind,
            seed,
            root.join(format!("reference-{i}")),
        )?);
    }
    trace::start();
    let started = Instant::now();
    let replays = references
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let dir = root.join(format!("replay-{i}"));
            hunt::replay(kind, unit_seed(args.seed, i), &r.grid, dir)
        })
        .collect::<Result<Vec<_>, String>>();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let (spans, counters) = trace::finish();
    let replays = replays?;
    let mut errors: Vec<String> = untraced.iter().flat_map(|h| h.errors.clone()).collect();
    for ((h, r), replay) in untraced.iter().zip(&references).zip(&replays) {
        errors.extend(hunt::check_fidelity(r, replay));
        if h.class_keys != r.class_keys {
            errors.push(
                "the hunt and its one-cell-per-run reference found different class keys".into(),
            );
        }
    }
    let mut metrics = layer_metrics(&spans, &counters, wall_ns);
    let sum = |f: fn(&hunt::Hunt) -> f64| untraced.iter().map(f).sum::<f64>();
    let worker_s = sum(|h| h.wall_s * h.workers as f64);
    metrics.insert(
        "campaign.worker_busy_ratio",
        sum(hunt::Hunt::busy_s) / worker_s,
    );
    metrics.insert("campaign.retries", sum(|h| h.stats.retries as f64));
    metrics.insert("campaign.panics", sum(|h| h.stats.panics_caught as f64));
    let kinds: Vec<f64> = untraced
        .iter()
        .map(|h| h.fault_kinds.len() as f64)
        .collect();
    metrics.insert("triage.fault_kinds", median(&kinds).unwrap_or(0.0));
    metrics.insert(
        "triage.fault_kinds_per_worker_s",
        kinds.iter().sum::<f64>() / worker_s,
    );
    let replay_s: f64 = replays.iter().map(|r| r.cell_s).sum();
    let reference_s: f64 = references.iter().map(|r| r.cell_s).sum();
    metrics.insert("trace.overhead", replay_s / reference_s - 1.0);
    let attempted: usize = untraced.iter().map(|h| h.attempted).sum();
    let answered: usize = references
        .iter()
        .flat_map(|r| &r.cells)
        .map(|c| c.queries)
        .sum();
    Ok(Outcome {
        attempted,
        failed: attempted - answered,
        errors,
        metrics,
    })
}

/// Per-layer metrics from the spans and counters of one traced run lasting
/// `wall_ns`. Times are self times unless the metric says otherwise;
/// `minimize.ms` is inclusive (the cost of minimization with its oracle
/// checks and engine calls), and the probe layers report the duration of
/// their direct calls.
fn layer_metrics(
    spans: &[trace::Span],
    counters: &BTreeMap<&'static str, u64>,
    wall_ns: u64,
) -> BTreeMap<&'static str, f64> {
    let selfs = trace::self_times(spans);
    let mut self_by_name: BTreeMap<&str, u64> = BTreeMap::new();
    let mut self_by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total_by_name: BTreeMap<&str, u64> = BTreeMap::new();
    let mut probe_ns = 0u64;
    for (s, &own) in spans.iter().zip(&selfs) {
        *self_by_name.entry(s.name).or_insert(0) += own;
        *self_by_layer.entry(s.layer()).or_insert(0) += own;
        *total_by_name.entry(s.name).or_insert(0) += s.duration_ns();
        if trace::is_probe(s) {
            probe_ns += s.duration_ns();
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let own = |name: &str| self_by_name.get(name).copied().unwrap_or(0);
    let layer = |name: &str| self_by_layer.get(name).copied().unwrap_or(0);
    let total = |name: &str| total_by_name.get(name).copied().unwrap_or(0);
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let attributed: u64 = LAYERS.iter().map(|l| layer(l)).sum();

    let mut m = BTreeMap::new();
    m.insert("dsg.build_ms", ms(layer("dsg")));
    m.insert("gen.ms", ms(layer("gen")));
    m.insert("gen.ops", count("gen.ops") as f64);
    m.insert("groundtruth.ms", ms(layer("groundtruth")));
    m.insert("groundtruth.rows", count("groundtruth.rows") as f64);
    m.insert("optimizer.enumerate_ms", ms(layer("optimizer")));
    m.insert("optimizer.plans", count("optimizer.plans") as f64);
    m.insert("engine.exec_ms", ms(own("engine.exec")));
    m.insert("engine.ref_exec_ms", ms(own("engine.ref_exec")));
    m.insert("engine.statements", count("engine.statements") as f64);
    m.insert("engine.rows_out", count("engine.rows_out") as f64);
    m.insert(
        "engine.ns_per_row",
        ratio(
            own("engine.exec") + own("engine.ref_exec"),
            count("engine.rows_out"),
        ),
    );
    m.insert("engine.load_ms", ms(own("engine.load")));
    m.insert("engine.dml_ms", ms(own("engine.dml")));
    m.insert(
        "engine.dml_statements",
        count("engine.dml_statements") as f64,
    );
    m.insert("oracle.self_ms", ms(layer("oracle")));
    m.insert("oracle.checks", count("oracle.checks") as f64);
    m.insert("minimize.ms", ms(total("minimize.run")));
    m.insert("minimize.calls", count("minimize.calls") as f64);
    m.insert(
        "minimize.oracle_checks",
        count("minimize.oracle_checks") as f64,
    );
    m.insert("triage.admit_ms", ms(layer("triage")));
    m.insert("triage.reports", count("triage.reports") as f64);
    m.insert("triage.classes", count("triage.classes") as f64);
    m.insert(
        "triage.useful_ratio",
        ratio(count("triage.classes"), count("triage.reports")),
    );
    m.insert("persist.append_ms", ms(layer("persist")));
    m.insert("persist.appends", count("persist.appends") as f64);
    m.insert("persist.bytes", count("persist.bytes") as f64);
    m.insert("campaign.ms", ms(layer("campaign")));
    m.insert(
        "trace.coverage",
        ratio(attributed, wall_ns.saturating_sub(probe_ns)),
    );
    eprintln!(
        "traced wall {:.3} s, probes {:.3} s, unattributed {:.3} s",
        wall_ns as f64 * 1e-9,
        probe_ns as f64 * 1e-9,
        wall_ns.saturating_sub(probe_ns + attributed) as f64 * 1e-9
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside huntbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + Kind::ALL.len()
        );
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
