//! End-to-end and per-layer benchmark of the BPMF trainers and serving
//! tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gibbs_chembl --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload through the program's public functions, checks its
//! outputs, and prints as the last line of standard output one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end metrics of `BENCHMARK.json`; with
//! `--trace 1` they are its per-layer metrics, and the per-layer self-time
//! tables are printed above. Spans of a traced run are written to
//! `.perfbench/trace-<workload>-<seed>.jsonl`. Any failed check makes the
//! exit code non-zero. See `perfbench/README.md` for the workloads, the
//! metrics and which layer should move which metric.

mod gibbs;
mod host;
mod loadgen;
mod serving;
mod stats;
mod trace;
mod wrap;

use std::path::PathBuf;

use trace::{LayerTable, Spans};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["gibbs_chembl", "gibbs_dist", "serve_router", "serve_live"];

/// End-to-end metrics: `(name, unit)`. Every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. A workload that bypasses a layer
/// reports 0 for its counts and shares.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("dataset.gen_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.op_p99_ms", "ms"),
    ("trace.uncovered_frac", "ratio"),
    ("sched.busy_frac", "ratio"),
    ("sched.steals_per_sweep", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.overhead_frac", "ratio"),
    ("sampler.sweep_movies_frac", "ratio"),
    ("sampler.sweep_users_frac", "ratio"),
    ("sampler.non_sweep_frac", "ratio"),
    ("sampler.rmse", "rating"),
    ("update.rank_one_items", "count"),
    ("update.chol_serial_items", "count"),
    ("update.chol_parallel_items", "count"),
    ("update.rank_one_frac", "ratio"),
    ("update.chol_serial_frac", "ratio"),
    ("update.chol_parallel_frac", "ratio"),
    ("update.gflop_per_iter", "GFLOP"),
    ("update.gflops", "GFLOP/s"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.snapshot_frac", "ratio"),
    ("checkpoint.write_mb_per_s", "MB/s"),
    ("checkpoint.read_mb_per_s", "MB/s"),
    ("mpisim.compute_frac", "ratio"),
    ("mpisim.both_frac", "ratio"),
    ("mpisim.comm_frac", "ratio"),
    ("mpisim.comm_frac_worst", "ratio"),
    ("mpisim.bytes_per_iter", "B"),
    ("mpisim.msgs_per_iter", "count"),
    ("distributed.items_exchanged_per_iter", "count"),
    ("distributed.in_run_setup_frac", "ratio"),
    ("distributed.rank_skew", "ratio"),
    ("serve.model_calls_per_req", "count"),
    ("serve.users_per_call", "count"),
    ("serve.model_frac", "ratio"),
    ("serve.uncertainty_frac", "ratio"),
    ("serve.model_busy_frac", "ratio"),
    ("coalesce.batches", "count"),
    ("coalesce.mean_batch", "count"),
    ("coalesce.largest_batch", "count"),
    ("wire.frac", "ratio"),
    ("wire.request_bytes", "B"),
    ("wire.reply_bytes", "B"),
    ("router.requests", "count"),
    ("router.retries", "count"),
    ("router.overload_rejected", "count"),
    ("router.shard_failures", "count"),
    ("reload.count", "count"),
    ("reload.p50_during_vs_outside", "ratio"),
    ("fold_in.p50_vs_recommend", "ratio"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("loadgen.late_p99_frac", "ratio"),
];

/// Which end-to-end metric a layer should move, and on which workload
/// (the layer map of `perfbench/README.md`), printed beside each row of a
/// traced run's self-time table.
pub fn should_move(layer: &str) -> &'static str {
    let l = layer.to_ascii_lowercase();
    if l.starts_with("sched") || l.starts_with("core::sampler") || l.starts_with("core::update") {
        "throughput_per_s, p50_ms on gibbs_chembl"
    } else if l.starts_with("core::checkpoint") {
        "checkpoint.write_mb_per_s on gibbs_chembl; reload on serve_live"
    } else if l.starts_with("mpisim") || l.starts_with("core::distributed") {
        "throughput_per_s, p50_ms on gibbs_dist"
    } else if l.starts_with("serve model") {
        "throughput_per_s, p50_ms on serve_router and serve_live"
    } else if l.starts_with("serve::wire") {
        "throughput_per_s on serve_router and serve_live"
    } else {
        ""
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: Vec<(String, f64)>,
    pub layers: Vec<(String, f64)>,
    pub tables: Vec<LayerTable>,
    pub spans: Spans,
    /// Worker, pool and rank counts the workload used.
    pub parallelism: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Record a failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }
}

/// Scratch directory for checkpoints and traces, inside the checkout.
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// The final JSON line: `metrics` holds exactly `names`, taken from
/// `values`; names a workload did not report are 0 (a bypassed layer).
fn result_line(
    out: &Outcome,
    names: &[(&str, &str)],
    values: &[(String, f64)],
    correct: bool,
) -> String {
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let v = values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = work_dir();
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let clock = wrap::Clock::new();
    let mut out = match args.workload.as_str() {
        "gibbs_chembl" => gibbs::chembl(&args, clock, &work),
        "gibbs_dist" => gibbs::dist(&args, clock),
        "serve_router" => serving::router(&args, clock),
        "serve_live" => serving::live(&args, clock, &work),
        _ => unreachable!("workload validated by parse_args"),
    };
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    out.e2e("peak_rss_mb", rss);

    println!(
        "host: {}",
        host::record(&args.workload, args.seed, &out.parallelism)
    );
    for f in &out.failures {
        println!("check failed: {f}");
    }
    // A reported metric must be a finite reading; an end-to-end one must
    // also be positive.
    let values = if args.trace { &out.layers } else { &out.e2e };
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for (name, v) in values {
        if !v.is_finite() {
            out.failed += 1;
            println!("check failed: metric {name} is not finite");
        }
    }
    if !args.trace {
        for (name, _) in END_TO_END {
            let v = out.e2e.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if !v.is_some_and(|v| v > 0.0) {
                out.failed += 1;
                println!("check failed: end-to-end metric {name} missing or not positive");
            }
        }
    }
    if args.trace {
        for t in &out.tables {
            print!("{}", t.render(&should_move));
        }
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match out.spans.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => println!("spans: cannot write {}: {e}", path.display()),
        }
        for (name, v) in &out.layers {
            println!("layer {name} = {v}");
        }
    } else {
        for (name, v) in &out.e2e {
            println!("metric {name} = {v}");
        }
    }
    let correct = out.failed == 0;
    let sanitized: Vec<(String, f64)> = values
        .iter()
        .map(|(n, v)| (n.clone(), if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!("{}", result_line(&out, &names, &sanitized, correct));
    if !correct {
        std::process::exit(1);
    }
}

/// `BENCHMARK.json` next to the benchmark's own directory.
#[cfg(test)]
fn benchmark_json() -> String {
    let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(p).expect("BENCHMARK.json at the repository root")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(v: &Value) -> String {
        match v {
            Value::Str(s) => s.clone(),
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::U64(n) => *n as f64,
            Value::I64(n) => *n as f64,
            Value::F64(x) => *x,
            other => panic!("expected a number, got {}", other.kind()),
        }
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Arr(a) => a,
            other => panic!("expected an array, got {}", other.kind()),
        }
    }

    fn names_of(section: &Value) -> Vec<(String, String)> {
        items(section)
            .iter()
            .map(|m| (text(get(m, "name")), text(get(m, "unit"))))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = serde_json::parse_value(&benchmark_json()).expect("valid JSON");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_of(get(&doc, "end_to_end")), own(&END_TO_END));
        assert_eq!(names_of(get(&doc, "per_layer")), own(&PER_LAYER));
        let workloads: Vec<String> = items(get(&doc, "workloads"))
            .iter()
            .map(|w| text(get(w, "name")))
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_reports_every_named_metric() {
        let out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_line(
            &out,
            &[("a", "s"), ("b", "ms")],
            &[("a".to_string(), 1.5)],
            true,
        );
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(number(get(&v, "attempted")), 3.0);
        let metrics = get(&v, "metrics");
        assert_eq!(number(get(get(metrics, "a"), "value")), 1.5);
        assert_eq!(number(get(get(metrics, "b"), "value")), 0.0);
        assert_eq!(text(get(get(metrics, "b"), "unit")), "ms");
    }
}
