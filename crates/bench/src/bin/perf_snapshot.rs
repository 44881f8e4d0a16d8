//! **Perf snapshot** — machine-readable timing of the Gibbs hot path,
//! written to `BENCH_gibbs.json` so the performance trajectory is tracked
//! across PRs.
//!
//! Times, on a fixed synthetic dataset and fixed kernel shapes:
//!
//! * the three item-update kernels (rank-one / serial Cholesky / parallel
//!   Cholesky) at representative light/mid/heavy rating counts,
//! * blocked panel accumulation (gather + `syrk_ld_lower` + `gemv_t_acc`)
//!   against the naive per-rating accumulation (`syrk_lower` + `axpy` per
//!   rating) it replaced — the headline blocked-vs-per-rating speedup,
//! * one full Gibbs sweep through the public sampler,
//! * the measured rank-one/serial crossover (what `rank_one_max` should be
//!   on this host),
//! * the serving layer (written to `BENCH_serve.json`): batched scoring
//!   throughput (`Recommender::score_all` / `score_batch`) against the
//!   per-pair `predict` loop it replaces, `RecommendService::top_n`
//!   latency with exclude-seen filtering, the TCP daemon under
//!   concurrent clients, and the sharded tier — 1/2/4 shard daemons
//!   behind the scatter-gather router at 1/8/64 clients.
//!
//! Usage: `cargo run --release -p bpmf-bench --bin perf_snapshot`
//! (`-- --smoke` shrinks every measurement for CI smoke runs; `BPMF_K`
//! overrides the latent dimension, default 32).

use std::io::Write as _;
use std::io::{BufRead as _, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use bpmf::serve::coalesce::CoalesceConfig;
use bpmf::serve::daemon::{self, DaemonConfig, ServingModel};
use bpmf::serve::router::{self, RouterConfig};
use bpmf::serve::shard::{slice_train_columns, ShardSpec, ShardView};
use bpmf::serve::{wire, RankPolicy, RecommendService};
use bpmf::{
    BpmfConfig, EngineKind, GibbsSampler, MappedSlab, PosteriorModel, Recommender, SgldConfig,
    SgldSampler, TrainData, UpdateMethod,
};
use bpmf_bench::calibrate::{calibrate_rank_one_max, time_item_update};
use bpmf_dataset::chembl_like;
use bpmf_linalg::{
    gemm_into, gemm_into_scalar, gemv_t_acc, gemv_t_acc_scalar, simd_enabled, syrk_ld_lower,
    syrk_ld_lower_scalar, vecops, Mat, PANEL_BLOCK,
};
use bpmf_sparse::{Coo, Csr};
use bpmf_stats::{normal, Xoshiro256pp};

#[derive(serde::Serialize)]
struct AccumulationRow {
    d: usize,
    per_rating_ns: f64,
    blocked_ns: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct KernelRow {
    method: &'static str,
    d: usize,
    update_ns: f64,
}

#[derive(serde::Serialize)]
struct SimdKernelRow {
    kernel: &'static str,
    d: usize,
    scalar_ns: f64,
    dispatched_ns: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct BlockRow {
    block: usize,
    scores_per_sec: f64,
    speedup_vs_score_all: f64,
}

#[derive(serde::Serialize)]
struct DaemonRow {
    /// `coalesced` (64-request blocks, batch window) or `per_request`
    /// (batch-window 0, single worker, max_batch 1).
    mode: &'static str,
    clients: usize,
    requests: usize,
    requests_per_sec: f64,
    p50_latency_us: f64,
    p95_latency_us: f64,
    /// `recommend_each` batches the daemon executed (requests/batches =
    /// realized coalescing factor).
    batches: u64,
    largest_batch: u64,
}

#[derive(serde::Serialize)]
struct RouterRow {
    shards: usize,
    clients: usize,
    requests: usize,
    requests_per_sec: f64,
    p50_latency_us: f64,
    p95_latency_us: f64,
}

#[derive(serde::Serialize)]
struct RouterSnapshot {
    top_n: usize,
    rows: Vec<RouterRow>,
    /// Scatter-gather cost at the highest client count: req/s behind the
    /// router over the most shards vs over a single shard (the extra fan
    /// out, k-way merge, and one more socket hop per request).
    max_shards_vs_one_shard: f64,
    /// Before/after record for batching scatter writes per shard link
    /// (one buffered flush per fan-out instead of one write+flush per
    /// range). `None` in smoke mode, where the request counts are too
    /// small to compare against the full-run baseline.
    scatter_batching: Option<ScatterBatchingRow>,
}

/// The unbatched-scatter router's req/s at the heaviest cell (most
/// shards, most clients), measured on this machine immediately before
/// write batching landed — the fixed "before" the full run compares its
/// own measurement against.
const UNBATCHED_RPS_4SHARDS_64CLIENTS: f64 = 6157.0;

#[derive(serde::Serialize)]
struct ScatterBatchingRow {
    /// Pre-batching baseline (see [`UNBATCHED_RPS_4SHARDS_64CLIENTS`]).
    unbatched_rps_4shards_64clients: f64,
    /// This run's req/s at the same (4 shards, 64 clients) cell.
    batched_rps_4shards_64clients: f64,
    /// after / before.
    speedup: f64,
}

#[derive(serde::Serialize)]
struct DaemonSnapshot {
    top_n: usize,
    batch_window_ms: f64,
    workers: usize,
    rows: Vec<DaemonRow>,
    /// Headline: coalesced vs per-request throughput at the highest
    /// client count (acceptance floor: 1.5× at 64 clients, 4096×4096
    /// k = 32).
    coalesced_vs_per_request: f64,
}

#[derive(serde::Serialize)]
struct SgmcmcSnapshot {
    nnz: usize,
    k: usize,
    burnin: usize,
    samples: usize,
    minibatch: usize,
    /// Full-conditional Gibbs reference on the same data/seed: held-out
    /// posterior-mean RMSE and wall-clock for burnin+samples iterations.
    gibbs_rmse: f64,
    gibbs_seconds: f64,
    /// Mini-batch SGLD, one epoch-equivalent per iteration (same iteration
    /// budget as the Gibbs reference).
    sgld_rmse: f64,
    sgld_seconds: f64,
    /// sgld_rmse / gibbs_rmse — the tentpole acceptance tracks this
    /// staying within 1.02 (SGLD within 2% of Gibbs held-out RMSE).
    sgld_vs_gibbs_rmse: f64,
    /// Whether the slab-backed SGLD chain reproduced the in-RAM chain
    /// bit-for-bit (it must — the store swap is meant to be transparent).
    slab_bit_identical: bool,
    /// Heap bytes the mmap'd store pins (row-pointer tables + handle) —
    /// everything else stays in reclaimable page cache.
    slab_resident_bytes: usize,
    /// Heap bytes the same two CSR orientations occupy fully resident.
    in_ram_matrix_bytes: usize,
    /// VmRSS (KiB) sampled right after the in-RAM run (matrices live) and
    /// after the slab run (matrices dropped, slab mapped). Allocator
    /// retention makes this noisy on smoke-sized data; the analytic byte
    /// counts above are the stable footprint signal.
    vm_rss_in_ram_kb: Option<u64>,
    vm_rss_slab_kb: Option<u64>,
}

/// Current resident-set size in KiB from `/proc/self/status` (Linux only;
/// `None` elsewhere or if the field is missing).
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Gibbs vs mini-batch SGLD on the same synthetic dataset, plus the
/// out-of-core story: the SGLD chain re-run against an mmap'd slab of the
/// same ratings must be bit-identical, with the resident footprint
/// recorded next to the in-RAM equivalent.
fn sgmcmc_section(smoke: bool, k: usize) -> SgmcmcSnapshot {
    let ds = chembl_like(if smoke { 0.002 } else { 0.01 }, 17);
    let (burnin, samples) = if smoke { (4, 8) } else { (16, 32) };
    let minibatch = 1024;

    let cfg = BpmfConfig {
        num_latent: k,
        burnin,
        samples,
        seed: 5,
        kernel_threads: 1,
        ..Default::default()
    };
    let runner = EngineKind::WorkStealing.build(1);
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let t0 = Instant::now();
    let mut gibbs = GibbsSampler::new(cfg.clone(), data);
    let gibbs_report = gibbs.run(runner.as_ref(), cfg.iterations());
    let gibbs_seconds = t0.elapsed().as_secs_f64();
    let gibbs_rmse = gibbs_report.final_rmse();

    let scfg = SgldConfig {
        num_latent: k,
        burnin,
        samples,
        minibatch,
        seed: 5,
        ..SgldConfig::default()
    };
    let run_sgld = |data: TrainData<'_>| {
        let mut sampler = SgldSampler::try_new(scfg, data).expect("sgld starts");
        let mut trace = Vec::new();
        for _ in 0..(burnin + samples) {
            let (sample, mean) = sampler.step_epoch();
            trace.push((sample.to_bits(), mean.to_bits()));
        }
        trace
    };
    let t0 = Instant::now();
    let ram_trace = run_sgld(data);
    let sgld_seconds = t0.elapsed().as_secs_f64();
    let sgld_rmse = f64::from_bits(ram_trace.last().unwrap().1);
    let vm_rss_in_ram_kb = vm_rss_kb();

    // Pack the ratings as a slab, drop the resident matrices, and re-run
    // the identical chain off the mapping.
    let slab_path =
        std::env::temp_dir().join(format!("bpmf-perf-snapshot-{}.slab", std::process::id()));
    {
        let extents = bpmf_sparse::slab_extents(&ds.train, 8);
        let file = std::fs::File::create(&slab_path).expect("create slab");
        let mut w = std::io::BufWriter::new(file);
        bpmf_sparse::write_slab(&mut w, &ds.train, &ds.train_t, ds.global_mean, &extents)
            .expect("write slab");
    }
    let test = ds.test.clone();
    let global_mean = ds.global_mean;
    let nnz = ds.train.nnz();
    drop(ds);

    let slab = MappedSlab::open(&slab_path).expect("slab opens");
    let (sr, srt) = (slab.r(), slab.rt());
    let slab_trace = run_sgld(TrainData::new(&sr, &srt, global_mean, &test));
    let vm_rss_slab_kb = vm_rss_kb();
    let slab_resident_bytes = slab.heap_bytes();
    let in_ram_matrix_bytes = slab.in_ram_matrix_bytes();
    drop(slab);
    let _ = std::fs::remove_file(&slab_path);

    SgmcmcSnapshot {
        nnz,
        k,
        burnin,
        samples,
        minibatch,
        gibbs_rmse,
        gibbs_seconds,
        sgld_rmse,
        sgld_seconds,
        sgld_vs_gibbs_rmse: sgld_rmse / gibbs_rmse,
        slab_bit_identical: ram_trace == slab_trace,
        slab_resident_bytes,
        in_ram_matrix_bytes,
        vm_rss_in_ram_kb,
        vm_rss_slab_kb,
    }
}

#[derive(serde::Serialize)]
struct Snapshot {
    k: usize,
    panel_block: usize,
    available_parallelism: usize,
    smoke: bool,
    /// Blocked panel accumulation vs naive per-rating accumulation of the
    /// same `(Λ*, b)` build, mid and heavy rating counts.
    accumulation: Vec<AccumulationRow>,
    /// Full `update_item` draws per kernel at representative shapes.
    kernels: Vec<KernelRow>,
    /// One full Gibbs sweep (users + movies) on the fixed dataset.
    gibbs_sweep_ms: f64,
    gibbs_nnz: usize,
    /// Largest d where rank-one still beats blocked serial Cholesky here.
    rank_one_crossover: usize,
    /// Whether the AVX2+FMA dispatch arm was live for this run
    /// (`BPMF_NO_SIMD` unset and hardware support present).
    simd_enabled: bool,
    /// Dispatched (SIMD when live) vs forced-scalar panel kernels — the
    /// Gibbs item-update hot loop's `syrk_ld_lower`/`gemv_t_acc`.
    simd_kernels: Vec<SimdKernelRow>,
    /// Mini-batch SGLD vs full Gibbs, in-RAM vs mmap'd-slab store.
    sgmcmc: SgmcmcSnapshot,
}

#[derive(serde::Serialize)]
struct ServeSnapshot {
    n_users: usize,
    n_items: usize,
    k: usize,
    smoke: bool,
    /// Per-pair `Recommender::predict` through the trait object — the
    /// serving path `score_all` replaces.
    per_pair_scores_per_sec: f64,
    /// Whole-catalogue `score_all` (a one-row GEMM over the packed item
    /// factors).
    batch_scores_per_sec: f64,
    /// `score_batch` over a strided candidate subset (gathered kernel).
    subset_scores_per_sec: f64,
    /// Headline: batch vs per-pair throughput (acceptance floor: 2×).
    batch_vs_per_pair_speedup: f64,
    /// `RecommendService::top_n(…, 10)` with exclude-seen, mean policy.
    top10_mean_us: f64,
    /// Same with UCB (adds a per-candidate uncertainty lookup).
    top10_ucb_us: f64,
    /// Whether the AVX2+FMA dispatch arm was live for this run.
    simd_enabled: bool,
    /// Micro-batch `score_block` throughput across block sizes, against
    /// the looped per-user `score_all` (`batch_scores_per_sec`).
    gemm_block: Vec<BlockRow>,
    /// Headline: 64-user micro-batch vs looped `score_all` (acceptance
    /// floor: 2× at 4096×4096, k = 32).
    block64_vs_score_all_speedup: f64,
    /// The serving tier's compiled-in micro-batch width — derived from the
    /// GEMM cache geometry (`GEMM_KC`/`GEMM_NC` under a 1 MiB L2 budget),
    /// not hand-picked; recorded so a geometry retune shows up in the
    /// snapshot history.
    micro_batch: usize,
    /// `score_block` throughput at B = 256 over B = 64 — the measured
    /// evidence behind sizing [`bpmf::serve::MICRO_BATCH`] from cache
    /// geometry rather than keeping the old hardcoded 64.
    b256_vs_b64_scores: f64,
    /// Dispatched vs forced-scalar `gemm_into` on a serial (below the
    /// pool fan-out threshold) 8 × 2048 × k block — isolates the vector
    /// micro-kernel from core-count parallelism.
    gemm_simd_vs_scalar: f64,
    /// The persistent serving daemon over real TCP: requests/sec and
    /// latency under concurrent closed-loop clients, coalesced vs
    /// per-request serving.
    daemon: DaemonSnapshot,
    /// The sharded tier over real TCP: shard daemons behind the
    /// scatter-gather router, requests/sec and latency per (shard count,
    /// client count) cell.
    router: RouterSnapshot,
}

/// Synthetic fitted posterior over a `n_users × n_items` catalogue, plus a
/// training matrix with ~32 seen items per user for the exclude-seen path.
fn synthetic_serving_world(n_users: usize, n_items: usize, k: usize) -> (PosteriorModel, Csr) {
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let u = Mat::from_fn(n_users, k, |_, _| normal(&mut rng, 0.0, 0.4));
    let v = Mat::from_fn(n_items, k, |_, _| normal(&mut rng, 0.0, 0.4));
    let u2 = Mat::from_fn(n_users, k, |i, j| {
        let m = u[(i, j)];
        m * m + 0.05
    });
    let v2 = Mat::from_fn(n_items, k, |i, j| {
        let m = v[(i, j)];
        m * m + 0.05
    });
    let model = PosteriorModel::from_factors(u, v, Some((u2, v2)), 3.5, Some((0.5, 5.0)), 16);
    let mut coo = Coo::new(n_users, n_items);
    for user in 0..n_users {
        for s in 0..32 {
            let item = (user * 131 + s * 97) % n_items;
            coo.push(user, item, 4.0);
        }
    }
    (model, Csr::from_coo_owned(coo))
}

/// Serving-throughput section: batch kernels vs the per-pair loop, plus
/// filtered top-N latency through `RecommendService`.
fn serve_section(smoke: bool, k: usize) -> ServeSnapshot {
    // Full shape keeps the packed factor panel (n_items × k doubles)
    // L2-resident — scoring is compute-bound there; past L2 both the
    // batch and per-pair paths degrade together into memory streaming.
    let (n_users, n_items) = if smoke { (256, 1024) } else { (4096, 4096) };
    let (model, train) = synthetic_serving_world(n_users, n_items, k);
    let dyn_model: &dyn Recommender = &model;
    let user_reps = if smoke { 64 } else { 512 };

    // Per-pair: one virtual predict per (user, item). (One warmup user
    // before each timed section faults the factor pages in.)
    let mut sink = 0.0;
    for item in 0..n_items {
        sink += dyn_model.predict(0, item);
    }
    let t0 = Instant::now();
    for user in 0..user_reps {
        for item in 0..n_items {
            sink += dyn_model.predict(user % n_users, item);
        }
    }
    let per_pair = (user_reps * n_items) as f64 / t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    // Batch: one score_all per user.
    let mut scores = vec![0.0; n_items];
    dyn_model.score_all(0, &mut scores);
    let t0 = Instant::now();
    for user in 0..user_reps {
        dyn_model.score_all(user % n_users, &mut scores);
        std::hint::black_box(&scores);
    }
    let batch = (user_reps * n_items) as f64 / t0.elapsed().as_secs_f64();

    // Subset: gathered kernel over a strided candidate list (a quarter of
    // the catalogue, deliberately non-contiguous).
    let candidates: Vec<u32> = (0..n_items as u32).step_by(4).collect();
    let mut out = vec![0.0; candidates.len()];
    dyn_model.score_batch(0, &candidates, &mut out);
    let t0 = Instant::now();
    for user in 0..user_reps {
        dyn_model.score_batch(user % n_users, &candidates, &mut out);
        std::hint::black_box(&out);
    }
    let subset = (user_reps * candidates.len()) as f64 / t0.elapsed().as_secs_f64();

    // Top-10 latency with exclude-seen, mean and UCB policies.
    let mut service = RecommendService::new(dyn_model, n_items).exclude_seen(&train);
    let t0 = Instant::now();
    for user in 0..user_reps {
        std::hint::black_box(service.top_n(user, 10));
    }
    let top10_mean_us = t0.elapsed().as_secs_f64() * 1e6 / user_reps as f64;

    let mut service = RecommendService::new(dyn_model, n_items)
        .exclude_seen(&train)
        .policy(RankPolicy::Ucb { beta: 1.0 });
    let t0 = Instant::now();
    for user in 0..user_reps {
        std::hint::black_box(service.top_n(user, 10));
    }
    let top10_ucb_us = t0.elapsed().as_secs_f64() * 1e6 / user_reps as f64;

    // Micro-batch GEMM: `score_block` throughput per block size against a
    // looped per-user `score_all` over the *same* user windows, the two
    // timed back-to-back per row so clock/cache drift between sections
    // cannot skew the ratio.
    // 64 and 256 bracket the geometry-derived MICRO_BATCH in both smoke
    // and full runs, so every snapshot records the B = 64 vs B = 256
    // delta that justifies (or indicts) the derived width.
    let block_sizes: &[usize] = &[1, 8, 64, 256];
    let mut gemm_block = Vec::new();
    let mut block64 = 0.0;
    let (mut b64_scores, mut b256_scores) = (0.0, 0.0);
    for &bs in block_sizes {
        let reps = (user_reps / bs).max(4);
        let users_of = |rep: usize| -> Vec<u32> {
            (0..bs).map(|i| ((rep * bs + i) % n_users) as u32).collect()
        };
        let mut out = vec![0.0; bs * n_items];
        dyn_model.score_block(&users_of(0), &mut out);
        let t0 = Instant::now();
        for rep in 0..reps {
            dyn_model.score_block(&users_of(rep), &mut out);
            std::hint::black_box(&out);
        }
        let per_sec = (reps * bs * n_items) as f64 / t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for rep in 0..reps {
            for (i, &u) in users_of(rep).iter().enumerate() {
                dyn_model.score_all(u as usize, &mut out[i * n_items..(i + 1) * n_items]);
            }
            std::hint::black_box(&out);
        }
        let looped_per_sec = (reps * bs * n_items) as f64 / t0.elapsed().as_secs_f64();

        if bs == 64 {
            block64 = per_sec / looped_per_sec;
            b64_scores = per_sec;
        }
        if bs == 256 {
            b256_scores = per_sec;
        }
        gemm_block.push(BlockRow {
            block: bs,
            scores_per_sec: per_sec,
            speedup_vs_score_all: per_sec / looped_per_sec,
        });
    }

    // Dispatched GEMM vs the forced-scalar reference. The shape is chosen
    // to stay BELOW the kernel-pool fan-out threshold (2·m·n·k <
    // GEMM_PAR_FLOPS) so both arms run serially and the ratio isolates
    // the vector micro-kernel — the dispatched arm would otherwise also
    // count core-count parallelism on multi-core hosts. m = 8 still
    // exercises the full-height AVX-512 row strip.
    let (bm, bn, bk) = (8usize.min(n_users), 2048usize.min(n_items), k);
    assert!(
        2 * bm * bn * bk < bpmf_linalg::gemm::GEMM_PAR_FLOPS,
        "simd-vs-scalar shape must stay serial"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let a: Vec<f64> = (0..bm * bk).map(|_| normal(&mut rng, 0.0, 0.4)).collect();
    let bmat: Vec<f64> = (0..bk * bn).map(|_| normal(&mut rng, 0.0, 0.4)).collect();
    let mut c = vec![0.0; bm * bn];
    let gemm_reps = if smoke { 16 } else { 256 };
    let dispatched_ns = avg_ns(gemm_reps, || {
        gemm_into(bm, bn, bk, &a, &bmat, &mut c);
        std::hint::black_box(&c);
    });
    let scalar_ns = avg_ns(gemm_reps, || {
        gemm_into_scalar(bm, bn, bk, &a, &bmat, &mut c);
        std::hint::black_box(&c);
    });

    // The persistent daemon over real TCP: coalesced vs per-request.
    let daemon = daemon_section(&model, &train, n_users, n_items, smoke);

    // The sharded tier: shard daemons behind the scatter-gather router.
    let router = router_section(&model, &train, n_users, n_items, smoke);

    ServeSnapshot {
        n_users,
        n_items,
        k,
        smoke,
        per_pair_scores_per_sec: per_pair,
        batch_scores_per_sec: batch,
        subset_scores_per_sec: subset,
        batch_vs_per_pair_speedup: batch / per_pair,
        top10_mean_us,
        top10_ucb_us,
        simd_enabled: simd_enabled(),
        gemm_block,
        block64_vs_score_all_speedup: block64,
        micro_batch: bpmf::serve::MICRO_BATCH,
        b256_vs_b64_scores: b256_scores / b64_scores,
        gemm_simd_vs_scalar: scalar_ns / dispatched_ns,
        daemon,
        router,
    }
}

/// Sharded-tier throughput/latency: the catalogue split into 1/2/4 shard
/// daemons behind one `router::serve` instance, closed-loop concurrent
/// clients over real loopback TCP — the same traffic shape as
/// [`daemon_section`], so the per-cell numbers are comparable. The
/// single-shard row isolates the router's own overhead (one extra socket
/// hop plus a trivial merge); extra shards add fan-out and k-way merging.
fn router_section(
    model: &bpmf::PosteriorModel,
    train: &Csr,
    n_users: usize,
    n_items: usize,
    smoke: bool,
) -> RouterSnapshot {
    let top_n = 10;
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let client_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 8, 64] };
    let max_clients = *client_counts.last().unwrap();
    let requests_for = |clients: usize| {
        if smoke {
            16
        } else {
            (2048 / clients).clamp(32, 512)
        }
    };
    let daemon_cfg = DaemonConfig {
        coalesce: CoalesceConfig {
            max_batch: bpmf::serve::MICRO_BATCH,
            batch_window: Duration::from_millis(2),
            queue_cap: 1024,
        },
        workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
        default_top_n: top_n,
        ..DaemonConfig::default()
    };
    let router_cfg = RouterConfig {
        default_top_n: top_n,
        // Admission control is off the table here: the bench measures
        // throughput, so the cap must clear the peak offered load (every
        // client keeps CLIENT_PIPELINE requests outstanding).
        inflight_cap: max_clients * CLIENT_PIPELINE,
        ..RouterConfig::default()
    };

    let mut rows: Vec<RouterRow> = Vec::new();
    for &num_shards in shard_counts {
        // Fleet state lives outside the scope so the spawned daemon and
        // router threads can borrow it.
        let specs: Vec<ShardSpec> = (0..num_shards)
            .map(|i| ShardSpec::for_shard(i as u32, num_shards as u32, n_items, 1))
            .collect();
        let shared = std::sync::Arc::new(model.clone());
        let views: Vec<std::sync::Arc<ShardView>> = specs
            .iter()
            .map(|sp| {
                std::sync::Arc::new(ShardView::new(
                    shared.clone(),
                    sp.item_lo as usize,
                    sp.item_hi as usize,
                ))
            })
            .collect();
        let locals: Vec<Csr> = specs
            .iter()
            .map(|sp| slice_train_columns(train, sp.item_lo as usize, sp.item_hi as usize))
            .collect();
        let worlds: Vec<ServingModel> = (0..num_shards)
            .map(|i| ServingModel {
                model: bpmf::ModelHandle::new(views[i].clone(), 1),
                train: Some(&locals[i]),
                n_users,
                n_items: specs[i].width(),
                shard: Some(specs[i]),
                reload: None,
            })
            .collect();
        let shard_listeners: Vec<TcpListener> = (0..num_shards)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind shard"))
            .collect();
        // One single-replica group per range: the bench measures scatter
        // throughput, not failover.
        let shard_groups: Vec<Vec<String>> = shard_listeners
            .iter()
            .map(|l| vec![l.local_addr().unwrap().to_string()])
            .collect();
        let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
        let router_addr = router_listener.local_addr().unwrap();
        let shard_shutdown = AtomicBool::new(false);
        let router_shutdown = AtomicBool::new(false);

        std::thread::scope(|s| {
            let shard_handles: Vec<_> = worlds
                .iter()
                .zip(shard_listeners)
                .map(|(world, listener)| {
                    let cfg = &daemon_cfg;
                    let stop = &shard_shutdown;
                    s.spawn(move || daemon::serve(world, listener, cfg, stop))
                })
                .collect();
            let shard_groups = &shard_groups;
            let rcfg = &router_cfg;
            let rstop = &router_shutdown;
            let router_handle =
                s.spawn(move || router::serve(router_listener, shard_groups, rcfg, rstop));
            // A panicking client must still flip both flags or the scope
            // join would hang on servers nobody asked to stop.
            let _router_guard = ShutdownOnDrop(&router_shutdown);
            let _shard_guard = ShutdownOnDrop(&shard_shutdown);

            // The shard links dial in the background; requests are refused
            // typed until every link is live.
            wait_router_ready(router_addr);

            let mut expected = 0u64;
            for &clients in client_counts {
                let requests = requests_for(clients);
                let t0 = Instant::now();
                let per_client: Vec<Vec<f64>> = std::thread::scope(|cs| {
                    let handles: Vec<_> = (0..clients)
                        .map(|c| cs.spawn(move || client_loop(router_addr, c, n_users, requests)))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let wall = t0.elapsed().as_secs_f64();
                let mut lats: Vec<f64> = per_client.into_iter().flatten().collect();
                lats.sort_by(f64::total_cmp);
                let total = clients * requests;
                expected += total as u64;
                rows.push(RouterRow {
                    shards: num_shards,
                    clients,
                    requests: total,
                    requests_per_sec: total as f64 / wall,
                    p50_latency_us: percentile(&lats, 0.50),
                    p95_latency_us: percentile(&lats, 0.95),
                });
            }

            router_shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
            let report = router_handle
                .join()
                .expect("router thread")
                .expect("router io");
            // +1: the readiness probe's successful request. (Probes sent
            // before every shard link was up count as shard_failures, so
            // that counter is not asserted here.)
            assert_eq!(report.requests, expected + 1, "every request answered");
            shard_shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
            for h in shard_handles {
                h.join().expect("shard thread").expect("shard io");
            }
        });
    }

    let rps = |shards: usize| {
        rows.iter()
            .find(|r| r.shards == shards && r.clients == max_clients)
            .map_or(f64::NAN, |r| r.requests_per_sec)
    };
    let max_shards_vs_one_shard = rps(*shard_counts.last().unwrap()) / rps(1);
    let scatter_batching = (!smoke).then(|| {
        let after = rps(4);
        ScatterBatchingRow {
            unbatched_rps_4shards_64clients: UNBATCHED_RPS_4SHARDS_64CLIENTS,
            batched_rps_4shards_64clients: after,
            speedup: after / UNBATCHED_RPS_4SHARDS_64CLIENTS,
        }
    });
    RouterSnapshot {
        top_n,
        rows,
        max_shards_vs_one_shard,
        scatter_batching,
    }
}

/// Block until the router answers a recommend request without error —
/// i.e. until every shard link has dialed in.
fn wait_router_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
            let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone socket"));
            let mut reader = BufReader::new(stream);
            writeln!(writer, "{}", wire::encode(&wire::Request::recommend(0, 0))).ok();
            writer.flush().ok();
            let mut line = String::new();
            if reader.read_line(&mut line).is_ok() {
                if let Ok(resp) = wire::decode_response(&line) {
                    if resp.error.is_none() {
                        return;
                    }
                }
            }
        }
        assert!(Instant::now() < deadline, "router never became ready");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Serving-daemon throughput/latency: closed-loop concurrent clients over
/// real loopback TCP, the coalescing configuration (64-request blocks,
/// 2 ms window) against per-request serving (window 0, single worker,
/// batch size 1) — the configuration the daemon degenerates to without a
/// coalescer. Any panic in here (daemon error, malformed reply, failed
/// request) fails the whole snapshot run loudly.
fn daemon_section(
    model: &bpmf::PosteriorModel,
    train: &Csr,
    n_users: usize,
    n_items: usize,
    smoke: bool,
) -> DaemonSnapshot {
    let top_n = 10;
    let batch_window_ms = 2.0;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let client_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 8, 64] };
    let max_clients = *client_counts.last().unwrap();
    let requests_for = |clients: usize| {
        if smoke {
            16
        } else {
            // Bound the wall clock: the 1-client coalesced row pays the
            // full window per round trip by design.
            (2048 / clients).clamp(32, 512)
        }
    };

    let coalesced = DaemonConfig {
        coalesce: CoalesceConfig {
            max_batch: bpmf::serve::MICRO_BATCH,
            batch_window: Duration::from_secs_f64(batch_window_ms / 1e3),
            queue_cap: 1024,
        },
        workers,
        default_top_n: top_n,
        ..DaemonConfig::default()
    };
    let per_request = DaemonConfig {
        coalesce: CoalesceConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            queue_cap: 1024,
        },
        workers: 1,
        default_top_n: top_n,
        ..DaemonConfig::default()
    };

    let mut rows = Vec::new();
    for &clients in client_counts {
        rows.push(daemon_bench(
            "coalesced",
            model,
            train,
            n_users,
            n_items,
            clients,
            requests_for(clients),
            &coalesced,
        ));
    }
    let per_req_row = daemon_bench(
        "per_request",
        model,
        train,
        n_users,
        n_items,
        max_clients,
        requests_for(max_clients),
        &per_request,
    );
    let coalesced_vs_per_request =
        rows.last().unwrap().requests_per_sec / per_req_row.requests_per_sec;
    rows.push(per_req_row);

    DaemonSnapshot {
        top_n,
        batch_window_ms,
        workers,
        rows,
        coalesced_vs_per_request,
    }
}

/// One daemon configuration under `clients` closed-loop clients, each
/// firing `requests` synchronous round trips on its own connection.
#[allow(clippy::too_many_arguments)]
fn daemon_bench(
    mode: &'static str,
    model: &bpmf::PosteriorModel,
    train: &Csr,
    n_users: usize,
    n_items: usize,
    clients: usize,
    requests: usize,
    cfg: &DaemonConfig,
) -> DaemonRow {
    let world = ServingModel {
        model: bpmf::ModelHandle::new(std::sync::Arc::new(model.clone()), 1),
        train: Some(train),
        n_users,
        n_items,
        shard: None,
        reload: None,
    };
    let shutdown = AtomicBool::new(false);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut latencies: Vec<f64> = Vec::new();
    let mut wall = 0.0f64;
    let mut report = None;
    std::thread::scope(|s| {
        let daemon_handle = s.spawn(|| daemon::serve(&world, listener, cfg, &shutdown));
        // If a client panics, the scope join would otherwise wait forever
        // for a daemon that nobody asked to stop; the guard flips the
        // flag during unwinding so the panic surfaces (loudly) instead of
        // hanging the snapshot run.
        let _stop_guard = ShutdownOnDrop(&shutdown);
        let t0 = Instant::now();
        let per_client: Vec<Vec<f64>> = std::thread::scope(|cs| {
            let handles: Vec<_> = (0..clients)
                .map(|c| cs.spawn(move || client_loop(addr, c, n_users, requests)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        wall = t0.elapsed().as_secs_f64();
        shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
        report = Some(
            daemon_handle
                .join()
                .expect("daemon thread")
                .expect("daemon io"),
        );
        latencies = per_client.into_iter().flatten().collect();
    });
    let report = report.unwrap();
    let total = clients * requests;
    assert_eq!(report.requests as usize, total, "every request answered");
    latencies.sort_by(f64::total_cmp);
    DaemonRow {
        mode,
        clients,
        requests: total,
        requests_per_sec: total as f64 / wall,
        p50_latency_us: percentile(&latencies, 0.50),
        p95_latency_us: percentile(&latencies, 0.95),
        batches: report.batches,
        largest_batch: report.largest_batch,
    }
}

/// Requests each bench client keeps in flight on its connection: the
/// multiplexed-frontend traffic shape (not a lock-step ping-pong), and
/// identical for both daemon configurations so the comparison is fair.
const CLIENT_PIPELINE: usize = 8;

/// One closed-loop client with a bounded pipeline: keep up to
/// [`CLIENT_PIPELINE`] requests outstanding, record each request's
/// send-to-reply latency in microseconds.
fn client_loop(addr: SocketAddr, client: usize, n_users: usize, requests: usize) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone socket"));
    let mut reader = BufReader::new(stream);
    let mut sent_at = vec![Instant::now(); requests];
    let mut lats = vec![0.0f64; requests];
    let mut line = String::new();
    let (mut sent, mut received) = (0usize, 0usize);
    while received < requests {
        while sent < requests && sent - received < CLIENT_PIPELINE {
            let user = ((client * 131 + sent * 37) % n_users) as u32;
            let req = wire::Request::recommend(sent as u64, user);
            sent_at[sent] = Instant::now();
            writeln!(writer, "{}", wire::encode(&req)).expect("send");
            sent += 1;
        }
        writer.flush().expect("flush requests");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        let resp = wire::decode_response(&line).expect("reply parses");
        assert!(
            resp.error.is_none(),
            "daemon rejected request: {:?}",
            resp.error
        );
        let id = resp.id as usize;
        assert!(id < requests && lats[id] == 0.0, "duplicate reply {id}");
        assert!(!resp.items.is_empty());
        lats[id] = sent_at[id].elapsed().as_secs_f64() * 1e6;
        received += 1;
    }
    lats
}

/// Sets the daemon shutdown flag when dropped — including during panic
/// unwinding, where it keeps the scoped daemon thread joinable.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Dispatched-vs-scalar ratio for the Gibbs panel kernels at mid/heavy
/// rating counts.
fn simd_kernel_rows(k: usize, smoke: bool) -> Vec<SimdKernelRow> {
    let mut rows = Vec::new();
    let shapes: &[usize] = if smoke { &[256] } else { &[256, 1024] };
    for &d in shapes {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let panel: Vec<f64> = (0..d * k).map(|_| normal(&mut rng, 0.0, 0.5)).collect();
        let weights: Vec<f64> = (0..d).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let reps = (200_000 / d).clamp(10, 2000);
        let mut prec = Mat::zeros(k, k);
        let syrk_dispatched = avg_ns(reps, || {
            prec.fill(0.0);
            syrk_ld_lower(&mut prec, 2.0, &panel, k);
            std::hint::black_box(&prec);
        });
        let syrk_scalar = avg_ns(reps, || {
            prec.fill(0.0);
            syrk_ld_lower_scalar(&mut prec, 2.0, &panel, k);
            std::hint::black_box(&prec);
        });
        rows.push(SimdKernelRow {
            kernel: "syrk_ld_lower",
            d,
            scalar_ns: syrk_scalar,
            dispatched_ns: syrk_dispatched,
            speedup: syrk_scalar / syrk_dispatched,
        });
        let mut rhs = vec![0.0; k];
        let gemv_dispatched = avg_ns(reps, || {
            rhs.fill(0.0);
            gemv_t_acc(&mut rhs, &panel, &weights);
            std::hint::black_box(&rhs);
        });
        let gemv_scalar = avg_ns(reps, || {
            rhs.fill(0.0);
            gemv_t_acc_scalar(&mut rhs, &panel, &weights);
            std::hint::black_box(&rhs);
        });
        rows.push(SimdKernelRow {
            kernel: "gemv_t_acc",
            d,
            scalar_ns: gemv_scalar,
            dispatched_ns: gemv_dispatched,
            speedup: gemv_scalar / gemv_dispatched,
        });
    }
    rows
}

/// Time `f` averaged over `reps` runs after `warmup` runs.
fn avg_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps.min(3) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// Naive vs blocked accumulation of `Λ* = Λ + α Σ v vᵀ`, `b = Λμ + α Σ w v`.
fn accumulation_row(k: usize, d: usize, reps: usize) -> AccumulationRow {
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let other = Mat::from_fn(d, k, |_, _| normal(&mut rng, 0.0, 0.5));
    let cols: Vec<u32> = (0..d as u32).collect();
    let vals: Vec<f64> = (0..d).map(|i| 3.0 + (i as f64).sin()).collect();
    let alpha = 2.0;
    let mean = 3.0;

    let mut prec = Mat::zeros(k, k);
    let mut rhs = vec![0.0; k];
    let per_rating_ns = avg_ns(reps, || {
        prec.fill(0.0);
        rhs.fill(0.0);
        for (&j, &r) in cols.iter().zip(&vals) {
            let v = other.row(j as usize);
            prec.syrk_lower(alpha, v);
            vecops::axpy(alpha * (r - mean), v, &mut rhs);
        }
        std::hint::black_box(&prec);
    });

    let mut panel: Vec<f64> = Vec::with_capacity(PANEL_BLOCK * k);
    let mut weights: Vec<f64> = Vec::with_capacity(PANEL_BLOCK);
    let blocked_ns = avg_ns(reps, || {
        prec.fill(0.0);
        rhs.fill(0.0);
        for (cblock, vblock) in cols.chunks(PANEL_BLOCK).zip(vals.chunks(PANEL_BLOCK)) {
            panel.clear();
            weights.clear();
            for (&j, &r) in cblock.iter().zip(vblock) {
                panel.extend_from_slice(other.row(j as usize));
                weights.push(alpha * (r - mean));
            }
            syrk_ld_lower(&mut prec, alpha, &panel, k);
            gemv_t_acc(&mut rhs, &panel, &weights);
        }
        std::hint::black_box(&prec);
    });

    AccumulationRow {
        d,
        per_rating_ns,
        blocked_ns,
        speedup: per_rating_ns / blocked_ns,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let k = bpmf_bench::env_scale("BPMF_K", 32.0) as usize;
    let scale = if smoke { 10 } else { 1 };

    println!(
        "perf snapshot (K = {k}{})",
        if smoke { ", smoke" } else { "" }
    );

    let mid_heavy: &[usize] = if smoke {
        &[256, 1024]
    } else {
        &[256, 1024, 8192]
    };
    let accumulation: Vec<AccumulationRow> = mid_heavy
        .iter()
        .map(|&d| {
            let row = accumulation_row(k, d, (200_000 / d).clamp(5, 2000) / scale + 5);
            println!(
                "  accumulate d={:>5}: per-rating {:>10.0} ns  blocked {:>10.0} ns  speedup {:.2}x",
                row.d, row.per_rating_ns, row.blocked_ns, row.speedup
            );
            row
        })
        .collect();

    let shapes = [
        ("rank_one", UpdateMethod::RankOne, k / 4),
        ("chol_serial", UpdateMethod::CholSerial, 512),
        ("chol_parallel", UpdateMethod::CholParallel, 4096),
    ];
    let kernels: Vec<KernelRow> = shapes
        .iter()
        .map(|&(name, method, d)| {
            let d = d.max(1);
            let reps = (100_000 / d).clamp(5, 500) / scale + 5;
            let secs = time_item_update(method, k, d, reps, 2);
            println!("  update_item {name:>13} d={d:>5}: {:>10.0} ns", secs * 1e9);
            KernelRow {
                method: name,
                d,
                update_ns: secs * 1e9,
            }
        })
        .collect();

    // One full Gibbs sweep (both sides) on a fixed synthetic dataset.
    let ds = chembl_like(if smoke { 0.001 } else { 0.003 }, 8);
    let cfg = BpmfConfig {
        num_latent: k.min(32),
        seed: 1,
        kernel_threads: 1,
        ..Default::default()
    };
    let data = TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test);
    let runner = EngineKind::WorkStealing.build(1);
    let mut sampler = GibbsSampler::new(cfg, data);
    sampler.step(runner.as_ref()); // warm-up sweep
    let t0 = Instant::now();
    let sweeps = if smoke { 1 } else { 3 };
    for _ in 0..sweeps {
        sampler.step(runner.as_ref());
    }
    let gibbs_sweep_ms = t0.elapsed().as_secs_f64() * 1e3 / sweeps as f64;
    println!("  gibbs sweep ({} nnz): {:.1} ms", ds.nnz(), gibbs_sweep_ms);

    let rank_one_crossover = if smoke { 0 } else { calibrate_rank_one_max(k) };
    if !smoke {
        println!("  rank-one/serial crossover: d = {rank_one_crossover}");
    }

    // SIMD-vs-scalar ratio for the panel kernels (1.0x when the dispatch
    // falls back, e.g. under BPMF_NO_SIMD=1 or off x86-64).
    let simd_kernels = simd_kernel_rows(k, smoke);
    for row in &simd_kernels {
        println!(
            "  simd {:>13} d={:>5}: scalar {:>9.0} ns  dispatched {:>9.0} ns  speedup {:.2}x",
            row.kernel, row.d, row.scalar_ns, row.dispatched_ns, row.speedup
        );
    }

    // Mini-batch SGLD vs Gibbs, and the out-of-core slab store footprint.
    let sgmcmc = sgmcmc_section(smoke, k.min(16));
    println!(
        "  sgmcmc ({} nnz): gibbs RMSE {:.4} in {:.2}s  sgld RMSE {:.4} in {:.2}s ({:.3}x)",
        sgmcmc.nnz,
        sgmcmc.gibbs_rmse,
        sgmcmc.gibbs_seconds,
        sgmcmc.sgld_rmse,
        sgmcmc.sgld_seconds,
        sgmcmc.sgld_vs_gibbs_rmse
    );
    println!(
        "  sgmcmc slab: bit-identical {}  resident {} B vs in-RAM {} B (RSS {:?} -> {:?} KiB)",
        sgmcmc.slab_bit_identical,
        sgmcmc.slab_resident_bytes,
        sgmcmc.in_ram_matrix_bytes,
        sgmcmc.vm_rss_in_ram_kb,
        sgmcmc.vm_rss_slab_kb
    );

    // Serving throughput (batch kernels vs per-pair predict, top-N latency).
    let serve = serve_section(smoke, k.min(32));
    println!(
        "  serve {}x{}: per-pair {:.2}M/s  batch {:.2}M/s ({:.2}x)  subset {:.2}M/s",
        serve.n_users,
        serve.n_items,
        serve.per_pair_scores_per_sec / 1e6,
        serve.batch_scores_per_sec / 1e6,
        serve.batch_vs_per_pair_speedup,
        serve.subset_scores_per_sec / 1e6,
    );
    println!(
        "  serve top-10 (exclude-seen): mean {:.0} us  ucb {:.0} us",
        serve.top10_mean_us, serve.top10_ucb_us
    );
    for row in &serve.gemm_block {
        println!(
            "  serve micro-batch B={:>3}: {:.2}M scores/s ({:.2}x score_all)",
            row.block,
            row.scores_per_sec / 1e6,
            row.speedup_vs_score_all
        );
    }
    println!(
        "  serve gemm simd-vs-scalar: {:.2}x",
        serve.gemm_simd_vs_scalar
    );
    for row in &serve.daemon.rows {
        println!(
            "  daemon {:>11} C={:>3}: {:>8.0} req/s  p50 {:>7.0} us  p95 {:>7.0} us  \
             ({} batches, largest {})",
            row.mode,
            row.clients,
            row.requests_per_sec,
            row.p50_latency_us,
            row.p95_latency_us,
            row.batches,
            row.largest_batch
        );
    }
    println!(
        "  daemon coalesced vs per-request at {} clients: {:.2}x",
        serve.daemon.rows.last().map_or(0, |r| r.clients),
        serve.daemon.coalesced_vs_per_request
    );
    for row in &serve.router.rows {
        println!(
            "  router S={} C={:>3}: {:>8.0} req/s  p50 {:>7.0} us  p95 {:>7.0} us",
            row.shards, row.clients, row.requests_per_sec, row.p50_latency_us, row.p95_latency_us
        );
    }
    println!(
        "  router max-shards vs 1 shard at max clients: {:.2}x",
        serve.router.max_shards_vs_one_shard
    );

    let snapshot = Snapshot {
        k,
        panel_block: PANEL_BLOCK,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        smoke,
        accumulation,
        kernels,
        gibbs_sweep_ms,
        gibbs_nnz: ds.nnz(),
        rank_one_crossover,
        simd_enabled: simd_enabled(),
        simd_kernels,
        sgmcmc,
    };

    // Full runs write the tracked artifacts in the current directory (the
    // repo root under `cargo run`) so the perf trajectory is version
    // controlled; smoke runs only mirror to target/bench-results — their
    // shrunken measurements must not clobber the committed snapshots.
    if smoke {
        println!(
            "  [smoke] skipping BENCH_gibbs.json / BENCH_serve.json \
             (tracked artifacts keep full-run numbers)"
        );
    } else {
        for (name, json) in [
            (
                "BENCH_gibbs.json",
                serde_json::to_string_pretty(&snapshot).unwrap(),
            ),
            (
                "BENCH_serve.json",
                serde_json::to_string_pretty(&serve).unwrap(),
            ),
        ] {
            match std::fs::File::create(name) {
                Ok(mut f) => {
                    writeln!(f, "{json}").unwrap();
                    println!("  [artifact] {name}");
                }
                Err(e) => eprintln!("  could not write {name}: {e}"),
            }
        }
    }
    bpmf_bench::write_json("BENCH_gibbs", &snapshot);
    bpmf_bench::write_json("BENCH_serve", &serve);
}
