//! The training workloads: `gibbs_chembl` (shared-memory Gibbs at the
//! paper's ChEMBL scale, then the final checkpoint) and `gibbs_dist` (the
//! asynchronous distributed sampler over the in-process message layer).

use std::path::Path;
use std::time::Instant;

use bpmf::checkpoint::{
    read_checkpoint, write_checkpoint_sync, FlatMat, RngState, SamplerCheckpoint,
};
use bpmf::distributed::{run_rank, DistConfig, DistOutcome};
use bpmf::{choose_method, BpmfConfig, EngineKind, GibbsSampler, TrainData};
use bpmf_mpisim::{CommStats, NetModel, Universe};
use bpmf_sched::ItemRunner;
use bpmf_sparse::Csr;

use crate::stats::{describe, median, percentile, sorted};
use crate::trace::{self_time, LayerTable};
use crate::wrap::{
    method_index, Clock, MethodTimes, SweepRecord, TracedRunner, METHODS, METHOD_NAMES,
};
use crate::{Args, Outcome};

/// Latent dimension of the training workloads (the paper's ChEMBL runs).
const K: usize = 16;
/// `gibbs_chembl` data scale: 1.0 is the paper's 483 500 × 5 775.
const CHEMBL_SCALE: f64 = 1.0;
/// `gibbs_dist` data scale: 27 698 × 5 455 users × movies, 3.6 M ratings.
const DIST_SCALE: f64 = 0.2;
/// Iterations per distributed run (half burn-in, half averaged).
const DIST_ITERS: usize = 10;
/// Distributed runs per benchmark run, at least: the reported figures are
/// medians over runs, so one run slowed by the host does not move them.
const DIST_MIN_RUNS: usize = 4;
/// Set-ups repeated per run for the `setup_s` median, where affordable.
const SETUP_REPS: usize = 3;

/// Computed floating-point operations of one item update with `d` ratings
/// (labelled as computed, not counted): panel accumulation `d·K²`, the
/// right-hand side `2·d·K`, and for the Cholesky paths the factorization
/// `K³/3` plus two triangular solves and the draw `4·K²`; the rank-one
/// path instead pays `2·K²` per rating plus the solves.
pub fn item_flops(d: usize, k: usize, method: usize) -> f64 {
    let (d, k) = (d as f64, k as f64);
    if method == 0 {
        d * 2.0 * k * k + 2.0 * d * k + 4.0 * k * k
    } else {
        d * k * k + 2.0 * d * k + k * k * k / 3.0 + 4.0 * k * k
    }
}

/// Per-method item counts and computed GFLOP of one full iteration (both
/// sides) under the sampler's adaptive rule.
fn iteration_work(r: &Csr, rt: &Csr, cfg: &BpmfConfig) -> ([u64; METHODS], f64) {
    let mut items = [0u64; METHODS];
    let mut flops = 0.0;
    for m in [r, rt] {
        for i in 0..m.nrows() {
            let d = m.row_nnz(i);
            let meth = method_index(choose_method(
                d,
                cfg.rank_one_threshold(),
                cfg.parallel_threshold,
            ));
            items[meth] += 1;
            flops += item_flops(d, cfg.num_latent, meth);
        }
    }
    (items, flops / 1e9)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn flat_eq(a: &FlatMat, b: &FlatMat) -> bool {
    a.rows == b.rows && a.cols == b.cols && bits_eq(&a.data, &b.data)
}

fn rng_eq(a: &RngState, b: &RngState) -> bool {
    a.words == b.words && a.spare_normal.map(f64::to_bits) == b.spare_normal.map(f64::to_bits)
}

fn pair_eq(a: &Option<(FlatMat, FlatMat)>, b: &Option<(FlatMat, FlatMat)>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((a0, a1)), Some((b0, b1))) => flat_eq(a0, b0) && flat_eq(a1, b1),
        _ => false,
    }
}

fn link_eq(a: &Option<(FlatMat, f64)>, b: &Option<(FlatMat, f64)>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((a0, a1)), Some((b0, b1))) => flat_eq(a0, b0) && a1.to_bits() == b1.to_bits(),
        _ => false,
    }
}

/// Every field of two checkpoints equal, floats compared bit for bit.
pub fn checkpoints_identical(a: &SamplerCheckpoint, b: &SamplerCheckpoint) -> bool {
    a.num_latent == b.num_latent
        && a.iter == b.iter
        && a.acc_count == b.acc_count
        && flat_eq(&a.users, &b.users)
        && flat_eq(&a.movies, &b.movies)
        && bits_eq(&a.users_mu, &b.users_mu)
        && flat_eq(&a.users_lambda, &b.users_lambda)
        && bits_eq(&a.movies_mu, &b.movies_mu)
        && flat_eq(&a.movies_lambda, &b.movies_lambda)
        && rng_eq(&a.hyper_rng, &b.hyper_rng)
        && a.worker_rngs.len() == b.worker_rngs.len()
        && a.worker_rngs
            .iter()
            .zip(&b.worker_rngs)
            .all(|(x, y)| rng_eq(x, y))
        && bits_eq(&a.predict_acc, &b.predict_acc)
        && bits_eq(&a.predict_sq_acc, &b.predict_sq_acc)
        && pair_eq(&a.factor_acc, &b.factor_acc)
        && pair_eq(&a.factor_sq_acc, &b.factor_sq_acc)
        && link_eq(&a.user_link, &b.user_link)
        && link_eq(&a.movie_link, &b.movie_link)
        && a.shard == b.shard
}

/// One timed Gibbs iteration of the traced half of `gibbs_chembl`.
struct TracedIter {
    op: (u64, u64),
    step: (u64, u64),
    sweeps: Vec<SweepRecord>,
}

pub fn chembl(args: &Args, clock: Clock, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::host::nproc();
    let cfg = BpmfConfig {
        num_latent: K,
        burnin: 2,
        samples: 1_000_000,
        kernel_threads: 1,
        seed: args.seed,
        ..BpmfConfig::default()
    };

    // Set-up: generate the data, build the sampler and the pool.
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    let mut ds = None;
    for _ in 0..SETUP_REPS {
        drop(ds.take());
        let t = Instant::now();
        let d = bpmf_dataset::chembl_like(CHEMBL_SCALE, args.seed);
        gens.push(t.elapsed().as_secs_f64());
        let s = GibbsSampler::new(
            cfg.clone(),
            TrainData::new(&d.train, &d.train_t, d.global_mean, &d.test),
        );
        let runner = EngineKind::WorkStealing.build(threads);
        setups.push(t.elapsed().as_secs_f64());
        drop((s, runner));
        ds = Some(d);
    }
    let ds = ds.expect("at least one set-up");
    let mut sampler = GibbsSampler::new(
        cfg.clone(),
        TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test),
    );
    let plain = EngineKind::WorkStealing.build(threads);
    let traced = TracedRunner::new(
        EngineKind::WorkStealing.build(threads),
        cfg.rank_one_threshold(),
        cfg.parallel_threshold,
        clock,
    );
    out.parallelism = vec![
        ("pool_threads", threads),
        ("kernel_threads", 1),
        ("ranks", 1),
    ];
    out.e2e("setup_s", median(&setups));
    out.layer("dataset.gen_s", median(&gens));
    let items_per_iter = (ds.nrows() + ds.ncols()) as f64;

    // One untimed warm-up iteration faults the factor pages in.
    sampler.step(plain.as_ref());

    // Timed iterations. A traced run alternates the plain and the traced
    // runner on the same chain, so the tracing overhead is measured in the
    // same run; the chain is unaffected (the wrapper is transparent).
    let mut plain_ms = Vec::new();
    let mut traced_iters: Vec<TracedIter> = Vec::new();
    let mut last_rmse = f64::NAN;
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let use_traced = args.trace && i % 2 == 1;
        let runner: &dyn ItemRunner = if use_traced { &traced } else { plain.as_ref() };
        let op0 = clock.now();
        let st = sampler.step(runner);
        let op1 = clock.now();
        out.attempted += 1;
        if !(st.rmse_sample.is_finite() && st.items_per_sec > 0.0) {
            out.fail(format!("iteration {i}: non-finite RMSE or no progress"));
        }
        last_rmse = st.rmse_mean;
        if use_traced {
            let sweeps = traced.take_sweeps();
            let sides = [ds.ncols() as u64, ds.nrows() as u64];
            if sweeps.len() != 2
                || sweeps
                    .iter()
                    .zip(sides)
                    .any(|(s, n)| s.items != n || s.methods.items.iter().sum::<u64>() != n)
            {
                out.fail(format!(
                    "iteration {i}: the runner did not update every item exactly once"
                ));
            }
            traced_iters.push(TracedIter {
                op: (op0, clock.now()),
                step: (op0, op1),
                sweeps,
            });
        } else {
            plain_ms.push(ms(op1 - op0));
        }
        i += 1;
    }
    if !last_rmse.is_finite() {
        out.fail("posterior-mean RMSE is not finite after burn-in".to_string());
    }
    let total_s: f64 = plain_ms.iter().sum::<f64>() / 1e3;
    out.e2e(
        "throughput_per_s",
        items_per_iter * plain_ms.len() as f64 / total_s,
    );
    out.e2e("p50_ms", median(&plain_ms));
    println!("set-up s: {}", describe(&setups));
    println!("iteration ms: {}", describe(&plain_ms));

    // The final checkpoint, written exactly as the CLI's `--checkpoint`
    // does, then read back and compared bit for bit.
    let path = work.join("gibbs_chembl.ckpt");
    let c0 = clock.now();
    let snapshot = sampler.checkpoint();
    let c1 = clock.now();
    out.attempted += 3;
    if let Err(e) = write_checkpoint_sync(&path, &snapshot) {
        out.fail(format!("checkpoint write failed: {e}"));
    }
    let c2 = clock.now();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    match read_checkpoint(&path) {
        Ok(back) => {
            if !checkpoints_identical(&back, &snapshot) {
                out.fail("read_checkpoint differs from the in-memory snapshot".to_string());
            }
        }
        Err(e) => out.fail(format!("checkpoint read failed: {e}")),
    }
    let c3 = clock.now();
    let _ = std::fs::remove_file(&path);
    let (snap_s, write_s, read_s) = (ms(c1 - c0) / 1e3, ms(c2 - c1) / 1e3, ms(c3 - c2) / 1e3);

    if args.trace {
        let (items, gflop) = iteration_work(&ds.train, &ds.train_t, &cfg);
        chembl_layers(&mut out, &traced_iters, &plain_ms, items, gflop);
        out.layer("sampler.rmse", last_rmse);
        out.layer("checkpoint.bytes", bytes as f64);
        out.layer("checkpoint.snapshot_frac", snap_s / (snap_s + write_s));
        out.layer("checkpoint.write_mb_per_s", bytes as f64 / 1e6 / write_s);
        out.layer("checkpoint.read_mb_per_s", bytes as f64 / 1e6 / read_s);
        let ck = out.spans.push(None, "checkpoint", c0, c3);
        out.spans.push(Some(ck), "checkpoint.snapshot", c0, c1);
        out.spans.push(Some(ck), "checkpoint.write", c1, c2);
        out.spans
            .push(Some(ck), "checkpoint.read_and_compare", c2, c3);
        out.tables.push(LayerTable {
            op: "final checkpoint".to_string(),
            op_ms: ms(c3 - c0),
            rows: vec![
                ("core::checkpoint snapshot".to_string(), ms(c1 - c0)),
                ("core::checkpoint write".to_string(), ms(c2 - c1)),
                ("core::checkpoint read + compare".to_string(), ms(c3 - c2)),
            ],
            uncovered_ms: 0.0,
            notes: vec![format!("{bytes} bytes written")],
        });
    }
    out
}

/// Per-layer metrics and the per-iteration table from the traced
/// iterations of `gibbs_chembl`.
fn chembl_layers(
    out: &mut Outcome,
    iters: &[TracedIter],
    plain_ms: &[f64],
    items: [u64; METHODS],
    gflop: f64,
) {
    let n = iters.len().max(1) as f64;
    let mut methods = MethodTimes::default();
    let (mut sweep_wall, mut sched_over, mut movies, mut users, mut op_ns, mut unc_ns) =
        (0u64, 0.0, 0u64, 0u64, 0u64, 0u64);
    let (mut busy, mut imb, mut steals, mut nsweeps, mut step_self) =
        (0.0, 0.0, 0u64, 0usize, 0u64);
    let mut op_ms = Vec::new();
    for it in iters {
        op_ms.push(ms(it.op.1 - it.op.0));
        op_ns += it.op.1 - it.op.0;
        unc_ns += (it.op.1 - it.op.0) - (it.step.1 - it.step.0);
        let root = out.spans.push(None, "gibbs.iteration", it.op.0, it.op.1);
        let step = out
            .spans
            .push(Some(root), "sampler.step", it.step.0, it.step.1);
        let sweep_iv: Vec<(u64, u64)> = it.sweeps.iter().map(|s| (s.start, s.end)).collect();
        step_self += self_time(it.step.0, it.step.1, &sweep_iv);
        for (k, s) in it.sweeps.iter().enumerate() {
            let wall = s.end - s.start;
            sweep_wall += wall;
            if k % 2 == 0 {
                movies += wall;
            } else {
                users += wall;
            }
            let item_wall = s.methods.total_ns() as f64 / s.threads as f64;
            sched_over += wall as f64 - item_wall;
            methods.merge(&s.methods);
            busy += s.busy_frac;
            imb += s.imbalance;
            steals += s.steals;
            nsweeps += 1;
            let name = if k % 2 == 0 {
                "sched.sweep_movies"
            } else {
                "sched.sweep_users"
            };
            out.spans.push(Some(step), name, s.start, s.end);
        }
    }
    let ns_sweeps = nsweeps.max(1) as f64;
    let threads = iters
        .first()
        .and_then(|it| it.sweeps.first())
        .map_or(1, |s| s.threads) as f64;
    let item_ns_total = methods.total_ns() as f64;
    out.layer("sched.busy_frac", busy / ns_sweeps);
    out.layer("sched.imbalance", imb / ns_sweeps);
    out.layer("sched.steals_per_sweep", steals as f64 / ns_sweeps);
    out.layer("sched.overhead_frac", sched_over / sweep_wall.max(1) as f64);
    out.layer(
        "sampler.sweep_movies_frac",
        movies as f64 / op_ns.max(1) as f64,
    );
    out.layer(
        "sampler.sweep_users_frac",
        users as f64 / op_ns.max(1) as f64,
    );
    out.layer(
        "sampler.non_sweep_frac",
        step_self as f64 / op_ns.max(1) as f64,
    );
    for (m, name) in METHOD_NAMES.iter().enumerate() {
        out.layer(format!("update.{name}_items"), items[m] as f64);
        out.layer(
            format!("update.{name}_frac"),
            methods.ns[m] as f64 / item_ns_total.max(1.0),
        );
    }
    out.layer("update.gflop_per_iter", gflop);
    out.layer(
        "update.gflops",
        gflop * n / (item_ns_total / threads / 1e9).max(1e-12),
    );
    let traced_med = median(&op_ms);
    out.layer("trace.op_ms", traced_med);
    out.layer("trace.op_p99_ms", percentile(&sorted(&op_ms), 0.99));
    out.layer("trace.uncovered_frac", unc_ns as f64 / op_ns.max(1) as f64);
    out.layer("trace.overhead_frac", traced_med / median(plain_ms) - 1.0);

    let mut rows = vec![
        (
            "core::sampler (hyperparameters, evaluation)".to_string(),
            ms(step_self) / n,
        ),
        (
            "sched (sweep minus item time / threads)".to_string(),
            sched_over / 1e6 / n,
        ),
    ];
    let mut notes = Vec::new();
    for (m, name) in METHOD_NAMES.iter().enumerate() {
        rows.push((
            format!("core::update + linalg: {name}"),
            methods.ns[m] as f64 / threads / 1e6 / n,
        ));
        let (cnt, hist) = (methods.items[m], &methods.hist[m]);
        let mut acc = 0u64;
        let p50_bucket = hist.iter().position(|&c| {
            acc += u64::from(c);
            acc * 2 >= cnt.max(1)
        });
        notes.push(format!(
            "{name}: {} items/iteration, mean {:.2} us, median below {} ns (log2 histogram)",
            cnt as f64 / n,
            methods.ns[m] as f64 / cnt.max(1) as f64 / 1e3,
            p50_bucket.map_or(0, |b| 1u64 << b)
        ));
    }
    notes.push(format!(
        "item updates are aggregated per method (counts, time sums, log2 histograms), not kept as spans; item time is divided by the {threads} pool threads"
    ));
    out.tables.push(LayerTable {
        op: "Gibbs iteration".to_string(),
        op_ms: ms(op_ns) / n,
        rows,
        uncovered_ms: ms(unc_ns) / n,
        notes,
    });
}

/// RMSE of predicting the global mean for every held-out rating.
pub fn baseline_rmse(test: &[(u32, u32, f64)], mean: f64) -> f64 {
    let se: f64 = test.iter().map(|&(_, _, r)| (r - mean) * (r - mean)).sum();
    (se / test.len().max(1) as f64).sqrt()
}

/// What one rank of one distributed run reported, plus the benchmark's own
/// timing of its `run_rank` call.
struct RankRun {
    out: DistOutcome,
    comm: CommStats,
    start: u64,
    end: u64,
}

pub fn dist(args: &Args, clock: Clock) -> Outcome {
    let mut out = Outcome::default();
    let ranks = crate::host::nproc();
    let t = Instant::now();
    let ds = bpmf_dataset::movielens_like(DIST_SCALE, args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    out.e2e("setup_s", gen_s);
    out.layer("dataset.gen_s", gen_s);
    out.parallelism = vec![
        ("ranks", ranks),
        ("threads_per_rank", 1),
        ("kernel_threads", 1),
    ];
    let baseline = baseline_rmse(&ds.test, ds.global_mean);

    let mut cfg = DistConfig::default();
    cfg.base.burnin = DIST_ITERS / 2;
    cfg.base.samples = DIST_ITERS - DIST_ITERS / 2;
    cfg.base.seed = args.seed;
    let items_per_iter = (ds.nrows() + ds.ncols()) as f64;

    let mut calls: Vec<((u64, u64), Vec<RankRun>)> = Vec::new();
    let t0 = Instant::now();
    while calls.len() < DIST_MIN_RUNS || t0.elapsed().as_secs_f64() < args.seconds {
        let c0 = clock.now();
        let runs = Universe::run(ranks, Some(NetModel::test_cluster()), |comm| {
            let start = clock.now();
            let o = run_rank(comm, &ds.train, &ds.train_t, ds.global_mean, &ds.test, &cfg);
            let end = clock.now();
            RankRun {
                out: o,
                comm: comm.stats(),
                start,
                end,
            }
        });
        let c1 = clock.now();
        out.attempted += 1;
        let first = &runs[0].out;
        let trace_bits = |o: &DistOutcome| -> Vec<u64> {
            o.rmse_sample_trace
                .iter()
                .chain(&o.rmse_mean_trace)
                .map(|x| x.to_bits())
                .collect()
        };
        if runs.iter().any(|r| trace_bits(&r.out) != trace_bits(first)) {
            out.fail(format!(
                "run {}: ranks report different RMSE traces",
                calls.len()
            ));
        }
        if first.final_rmse().is_nan() || first.final_rmse() >= baseline {
            out.fail(format!(
                "run {}: RMSE {} is not below the global-mean baseline {baseline}",
                calls.len(),
                first.final_rmse()
            ));
        }
        if let Some((_, prev)) = calls.first() {
            if trace_bits(&prev[0].out) != trace_bits(first) {
                out.fail(format!("run {}: same seed, different chain", calls.len()));
            }
        }
        calls.push(((c0, c1), runs));
    }

    let iters = DIST_ITERS as f64;
    let slowest = |runs: &[RankRun]| {
        runs.iter()
            .map(|r| r.out.elapsed_seconds)
            .fold(0.0, f64::max)
    };
    // Each run's figure is its slowest rank's timed loop (that rank sets
    // the pace); the reported figures are medians over runs.
    let iter_ms: Vec<f64> = calls
        .iter()
        .map(|(_, r)| slowest(r) * 1e3 / iters)
        .collect();
    out.e2e(
        "throughput_per_s",
        items_per_iter / (median(&iter_ms) / 1e3),
    );
    out.e2e("p50_ms", median(&iter_ms));
    println!(
        "iteration ms per run (slowest rank): {}",
        describe(&iter_ms)
    );

    if args.trace {
        dist_layers(&mut out, &calls, &ds, &cfg.base, &iter_ms);
    }
    out
}

fn dist_layers(
    out: &mut Outcome,
    calls: &[((u64, u64), Vec<RankRun>)],
    ds: &bpmf_dataset::Dataset,
    base: &BpmfConfig,
    iter_ms: &[f64],
) {
    let iters = DIST_ITERS as f64;
    let n = calls.len() as f64;
    let (mut cf, mut bf, mut mf, mut worst, mut bytes, mut msgs, mut setup_frac, mut skew) =
        (0.0, 0.0, 0.0, 0.0f64, 0.0, 0.0, 0.0, 0.0);
    let (mut row_setup, mut row_compute, mut row_both, mut row_comm, mut row_unc) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut busy_s = 0.0;
    for ((c0, c1), runs) in calls {
        let r = runs.len() as f64;
        let root = out.spans.push(None, "distributed.universe_run", *c0, *c1);
        let mut compute_s = Vec::new();
        for rr in runs {
            let o = &rr.out;
            let wall = (rr.end - rr.start) as f64 / 1e9;
            cf += o.compute_frac / r;
            bf += o.both_frac / r;
            mf += o.comm_frac / r;
            worst = worst.max(o.comm_frac);
            bytes += rr.comm.bytes_sent as f64 / iters;
            msgs += rr.comm.msgs_sent as f64 / iters;
            setup_frac += (wall - o.elapsed_seconds).max(0.0) / wall / r;
            compute_s.push(o.elapsed_seconds * (o.compute_frac + o.both_frac));
            busy_s += o.elapsed_seconds * (o.compute_frac + o.both_frac);
            let span = out.spans.push(
                Some(root),
                format!("rank{}.run_rank", o.rank),
                rr.start,
                rr.end,
            );
            let loop0 = rr.end.saturating_sub((o.elapsed_seconds * 1e9) as u64);
            out.spans.push(
                Some(span),
                format!("rank{}.in_run_setup", o.rank),
                rr.start,
                loop0,
            );
            out.spans.push(
                Some(span),
                format!("rank{}.timed_iterations", o.rank),
                loop0,
                rr.end,
            );
        }
        let mean_c = compute_s.iter().sum::<f64>() / r;
        skew += compute_s.iter().cloned().fold(0.0, f64::max) / mean_c.max(1e-12);
        // Rows follow the slowest rank: it sets the iteration time.
        let slow = runs
            .iter()
            .max_by(|a, b| a.out.elapsed_seconds.total_cmp(&b.out.elapsed_seconds))
            .expect("at least one rank");
        let o = &slow.out;
        let wall_ms = (slow.end - slow.start) as f64 / 1e6;
        row_setup += (wall_ms - o.elapsed_seconds * 1e3).max(0.0) / iters;
        row_compute += o.elapsed_seconds * 1e3 * o.compute_frac / iters;
        row_both += o.elapsed_seconds * 1e3 * o.both_frac / iters;
        row_comm += o.elapsed_seconds * 1e3 * o.comm_frac / iters;
        let max_rank_wall = runs.iter().map(|x| x.end - x.start).max().unwrap_or(0);
        row_unc += ((c1 - c0) as f64 - max_rank_wall as f64) / 1e6 / iters;
    }
    let first = &calls[0].1[0].out;
    out.layer("mpisim.compute_frac", cf / n);
    out.layer("mpisim.both_frac", bf / n);
    out.layer("mpisim.comm_frac", mf / n);
    out.layer("mpisim.comm_frac_worst", worst);
    out.layer("mpisim.bytes_per_iter", bytes / n);
    out.layer("mpisim.msgs_per_iter", msgs / n);
    out.layer(
        "distributed.items_exchanged_per_iter",
        first.comm_volume_items as f64,
    );
    out.layer("distributed.in_run_setup_frac", setup_frac / n);
    out.layer("distributed.rank_skew", skew / n);
    out.layer("sampler.rmse", first.final_rmse());
    let (items, gflop) = iteration_work(&ds.train, &ds.train_t, base);
    for (m, name) in METHOD_NAMES.iter().enumerate() {
        out.layer(format!("update.{name}_items"), items[m] as f64);
    }
    out.layer("update.gflop_per_iter", gflop);
    out.layer("update.gflops", gflop * iters * n / busy_s.max(1e-12));
    out.layer("trace.op_ms", median(iter_ms));
    out.layer("trace.op_p99_ms", percentile(&sorted(iter_ms), 0.99));
    let per_iter_total = row_setup + row_compute + row_both + row_comm + row_unc;
    out.layer("trace.uncovered_frac", row_unc / per_iter_total.max(1e-12));
    out.layer("trace.overhead_frac", 0.0);
    out.tables.push(LayerTable {
        op: "distributed Gibbs iteration (slowest rank)".to_string(),
        op_ms: per_iter_total / n,
        rows: vec![
            ("core::distributed in-run set-up (amortized)".to_string(), row_setup / n),
            ("mpisim compute only".to_string(), row_compute / n),
            ("mpisim compute with communication in flight".to_string(), row_both / n),
            ("mpisim blocked in communication".to_string(), row_comm / n),
        ],
        uncovered_ms: row_unc / n,
        notes: vec![
            "compute / overlap / blocked split comes from each rank's DistOutcome fractions; the benchmark times run_rank around the call".to_string(),
            "no wrapper enters run_rank, so the traced run is the untraced run plus timestamps: trace.overhead_frac is 0 by construction".to_string(),
            format!("{} ranks, {} iterations per run, {} runs", calls[0].1.len(), DIST_ITERS, calls.len()),
        ],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_comparison_is_bitwise() {
        let ds = bpmf_dataset::chembl_like(0.002, 3);
        let cfg = BpmfConfig {
            num_latent: 4,
            burnin: 1,
            samples: 2,
            kernel_threads: 1,
            ..BpmfConfig::default()
        };
        let mut s = GibbsSampler::new(
            cfg,
            TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test),
        );
        s.run(EngineKind::Static.build(1).as_ref(), 3);
        let a = s.checkpoint();
        let mut b = a.clone();
        assert!(checkpoints_identical(&a, &b));
        // One ULP in one factor is a difference.
        b.users.data[0] = f64::from_bits(b.users.data[0].to_bits() ^ 1);
        assert!(!checkpoints_identical(&a, &b));
    }

    #[test]
    fn iteration_work_counts_every_item_once() {
        let ds = bpmf_dataset::chembl_like(0.002, 3);
        let cfg = BpmfConfig::default();
        let (items, gflop) = iteration_work(&ds.train, &ds.train_t, &cfg);
        assert_eq!(items.iter().sum::<u64>() as usize, ds.nrows() + ds.ncols());
        assert!(gflop > 0.0);
    }
}
