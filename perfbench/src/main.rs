//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-batch|stream-churn|serve-refresh> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload all --seed <n> --seconds <s>    # every workload, one table
//! perfbench compare <runs-dir-a> <runs-dir-b>          # medians side by side
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks the program's outputs, and prints as its last stdout line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans recorded around calls into each layer) with `--trace 1`. A run
//! record with the host, the input fingerprint and every metric is also
//! written under `.perfbench/runs/`, and the traced run's spans under
//! `.perfbench/traces/`. See `NOTES.md` for what each metric means on
//! each workload and which layer should move it.

mod cold_batch;
mod serve_refresh;
mod stats;
mod stream_churn;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::Fingerprint;
use trace::Tracer;

/// Where run records and span dumps go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

pub const WORKLOADS: [&str; 3] = ["cold-batch", "stream-churn", "serve-refresh"];

/// End-to-end metrics every workload reports (see `NOTES.md` for the
/// per-workload meaning of the three operation slots).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decision_precision", "ratio"),
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("alt_ms_p50", "ms"),
];

/// The workload-specific end-to-end metrics by their own names; each
/// workload reports the ones that apply to it.
pub const NAMED: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_frac", "ratio"),
    ("cold_claims_per_s", "1/s"),
    ("sharded2_claims_per_s", "1/s"),
    ("decision_precision", "ratio"),
    ("publish_ms_p50", "ms"),
    ("publish_ms_p90", "ms"),
    ("events_per_s", "1/s"),
    ("read_us_p50", "us"),
    ("read_us_p99", "us"),
    ("refresh_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0 there.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.pairs.candidates_ms", "ms"),
    ("core.pairs.detect_ms", "ms"),
    ("core.partial.refine_ms", "ms"),
    ("core.truth.matrix_ms", "ms"),
    ("core.truth.vote_ms", "ms"),
    ("core.accuracy.estimate_ms", "ms"),
    ("core.shard.range_ms", "ms"),
    ("core.shard.merge_ms", "ms"),
    ("core.shard.imbalance", "ratio"),
    ("core.pipeline.iterations", "count"),
    ("core.pipeline.converged_ratio", "ratio"),
    ("core.pairs.candidate_pairs", "count"),
    ("core.pipeline.dependent_pairs", "count"),
    ("core.replay_parity", "bool"),
    ("ingest.append_ns", "ns"),
    ("model.apply_delta_ms", "ms"),
    ("core.pipeline.delta_ms", "ms"),
    ("ingest.dirty_fraction", "ratio"),
    ("serve.publish_us", "us"),
    ("core.pipeline.delta_iterations", "count"),
    ("ingest.incremental_ratio", "ratio"),
    ("query.top_k_us_p50", "us"),
    ("fusion.fuse_us_p50", "us"),
    ("recommend.recommend_us_p50", "us"),
    ("serve.source_reports_us_p50", "us"),
    ("serve.first_read_after_swap_us", "us"),
    ("serve.epoch_swaps", "count"),
    ("loadgen.lag_ms_max", "ms"),
    ("persist.get_ms", "ms"),
    ("persist.entry_bytes", "bytes"),
    ("persist.disk_hit_ratio", "ratio"),
    ("core.pipeline.discovery_runs", "count"),
    ("persist.put_ms", "ms"),
    ("persist.flush_ms", "ms"),
    ("datagen.world_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that panicked or failed their output check.
    pub failed: u64,
    /// Named whole-run output checks (each must hold).
    pub checks: Vec<(&'static str, bool)>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub named: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub fingerprint: Fingerprint,
    /// Free-form lines for the human-readable output and the run record.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(fingerprint: Fingerprint) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            end_to_end: BTreeMap::new(),
            named: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            fingerprint,
            notes: Vec::new(),
        }
    }

    /// Records one operation's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|&(_, ok)| ok)
    }

    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Parsed command line of a single-workload run.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(&workload) = WORKLOADS.iter().find(|&&w| w == args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (expected one of {WORKLOADS:?} or all)",
            args.workload
        );
        return ExitCode::from(2);
    };

    let tracer = Tracer::new(args.trace);
    let steal_before = stats::cpu_steal_ticks();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match workload {
        "cold-batch" => cold_batch::run(args.seed, args.seconds, &tracer),
        "stream-churn" => stream_churn::run(args.seed, args.seconds, &tracer),
        _ => serve_refresh::run(args.seed, args.seconds, &tracer),
    }));
    let Ok(mut report) = run else {
        eprintln!("perfbench: the {workload} run panicked outside a measured operation");
        return ExitCode::from(1);
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::cpu_steal_ticks()) {
        report.notes.push(format!(
            "host steal during the run: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    report
        .end_to_end
        .insert("peak_rss_mb", stats::peak_rss_mb());
    report.named.insert("peak_rss_mb", stats::peak_rss_mb());
    report.named.insert("error_frac", report.error_frac());
    for (name, _) in END_TO_END {
        assert!(
            report.end_to_end.contains_key(name),
            "{workload} did not report {name}"
        );
    }

    let record = run_record(workload, &args, &report);
    let runs_dir = Path::new(OUT_DIR).join("runs");
    let record_path = runs_dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&runs_dir).and_then(|()| std::fs::write(&record_path, &record))
    {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }
    if args.trace {
        let trace_path = Path::new(OUT_DIR)
            .join("traces")
            .join(format!("{workload}-seed{}.jsonl", args.seed));
        if let Err(e) = tracer.write_jsonl(&trace_path) {
            eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
        }
    }

    print_human(workload, &args, &report);
    println!("{}", result_line(&args, &report));
    ExitCode::SUCCESS
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// The final stdout line.
fn result_line(args: &Args, report: &Report) -> String {
    let mut metrics = String::new();
    let (names, values) = if args.trace {
        (&PER_LAYER[..], &report.per_layer)
    } else {
        (&END_TO_END[..], &report.end_to_end)
    };
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

fn print_human(workload: &str, args: &Args, report: &Report) {
    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} peak_rss_mb={:.1}",
        stats::nproc(),
        stats::peak_rss_mb()
    );
    println!(
        "inputs: fingerprint={:016x} ({} generated inputs)",
        report.fingerprint.hash, report.fingerprint.inputs
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for &(name, ok) in &report.checks {
        println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
    }
    println!(
        "ops: attempted={} failed={} error_frac={}",
        report.attempted,
        report.failed,
        report.error_frac()
    );
    for (name, unit) in NAMED {
        match report.named.get(name) {
            Some(v) => println!("metric {name} = {v} {unit}"),
            None => println!("metric {name} = n/a ({workload} does not exercise it)"),
        }
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = report.per_layer.get(name).copied().unwrap_or(0.0);
            println!("layer {name} = {v} {unit}");
        }
    } else {
        for (name, unit) in END_TO_END {
            println!("end_to_end {name} = {} {unit}", report.end_to_end[name]);
        }
    }
}

/// The run record: everything the run measured, plus host and inputs.
fn run_record(workload: &str, args: &Args, report: &Report) -> String {
    let map = |values: &BTreeMap<&'static str, f64>| {
        let body: Vec<String> = values
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(k, ok)| format!("\"{k}\": {ok}"))
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"peak_rss_mb\": {}}}, \
         \"fingerprint\": \"{:016x}\", \"inputs\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": {{{}}}, \
         \"end_to_end\": {}, \"named\": {}, \"per_layer\": {}, \"notes\": [{}]}}\n",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc(),
        json_num(stats::peak_rss_mb()),
        report.fingerprint.hash,
        report.fingerprint.inputs,
        report.correct(),
        report.attempted,
        report.failed,
        checks.join(", "),
        map(&report.end_to_end),
        map(&report.named),
        map(&report.per_layer),
        notes.join(", ")
    )
}

/// Runs every workload in its own process (so peak RSS is per workload)
/// and prints the workload-specific metrics as one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    let mut table: Vec<(&str, BTreeMap<String, String>)> = Vec::new();
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(std::process::Stdio::inherit())
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("perfbench: {workload} run failed: {status:?}");
            ok = false;
            continue;
        }
        let record = Path::new(OUT_DIR).join("runs").join(format!(
            "{workload}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        ));
        match read_record(&record) {
            Ok(rec) => table.push((workload, rec.named)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ok = false;
            }
        }
    }
    println!();
    print!("{:<24}", "metric");
    for (workload, _) in &table {
        print!("{workload:>16}");
    }
    println!();
    for (name, unit) in NAMED {
        print!("{:<24}", format!("{name} [{unit}]"));
        for (_, named) in &table {
            print!("{:>16}", named.get(name).map_or("n/a", String::as_str));
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The parts of a run record `compare` and `all` need.
struct Record {
    workload: String,
    seed: u64,
    trace: u64,
    fingerprint: String,
    named: BTreeMap<String, String>,
    metrics: BTreeMap<String, f64>,
}

fn read_record(path: &Path) -> Result<Record, String> {
    use serde::Content;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde::json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let num = |c: &Content| match *c {
        Content::F64(v) => Some(v),
        Content::U64(v) => Some(v as f64),
        Content::I64(v) => Some(v as f64),
        _ => None,
    };
    let string = |name: &str| match doc.field(name) {
        Some(Content::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{}: missing {name}", path.display())),
    };
    let entries = |name: &str| -> Vec<(String, f64)> {
        match doc.field(name) {
            Some(Content::Map(entries)) => entries
                .iter()
                .filter_map(|(k, v)| match k {
                    Content::Str(k) => num(v).map(|v| (k.clone(), v)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let trace = doc.field("trace").and_then(num).unwrap_or(0.0) as u64;
    let metrics = entries(if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    });
    Ok(Record {
        workload: string("workload")?,
        seed: doc.field("seed").and_then(num).unwrap_or(0.0) as u64,
        trace,
        fingerprint: string("fingerprint")?,
        named: entries("named")
            .into_iter()
            .map(|(k, v)| (k, format!("{v:.6}")))
            .collect(),
        metrics: metrics.into_iter().collect(),
    })
}

fn read_records(dir: &Path) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path: PathBuf = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            out.push(read_record(&path)?);
        }
    }
    Ok(out)
}

/// Compares two directories of run records metric by metric. Refuses
/// when a workload and seed present in both were run on different inputs
/// (their fingerprints differ): a generator change must not silently
/// move the traffic under a comparison.
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: perfbench compare <runs-dir-a> <runs-dir-b>".into());
    };
    let (a, b) = (read_records(Path::new(a))?, read_records(Path::new(b))?);
    let mut mismatched = Vec::new();
    for ra in &a {
        for rb in &b {
            if ra.workload == rb.workload && ra.seed == rb.seed && ra.fingerprint != rb.fingerprint
            {
                mismatched.push(format!(
                    "{} seed {}: {} vs {}",
                    ra.workload, ra.seed, ra.fingerprint, rb.fingerprint
                ));
            }
        }
    }
    if !mismatched.is_empty() {
        mismatched.sort();
        mismatched.dedup();
        return Err(format!(
            "refusing to compare runs whose inputs differ:\n  {}",
            mismatched.join("\n  ")
        ));
    }
    println!(
        "{:<16} {:<5} {:<34} {:>14} {:>14} {:>8}",
        "workload", "trace", "metric", "median a", "median b", "b/a"
    );
    for workload in WORKLOADS {
        for trace in [0u64, 1] {
            let pick = |records: &[Record], name: &str| -> Vec<f64> {
                records
                    .iter()
                    .filter(|r| r.workload == workload && r.trace == trace)
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let names: Vec<&str> = if trace == 1 {
                PER_LAYER.iter().map(|&(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|&(n, _)| n).collect()
            };
            for name in names {
                let (va, vb) = (pick(&a, name), pick(&b, name));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (ma, mb) = (stats::median(&va), stats::median(&vb));
                let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
                println!("{workload:<16} {trace:<5} {name:<34} {ma:>14.6} {mb:>14.6} {ratio:>8.4}");
            }
        }
    }
    Ok(())
}
