//! The serving workloads: `serve_router` (two GEMM-aligned shard daemons
//! behind the scatter-gather router) and `serve_live` (one daemon taking
//! recommends and cold-start fold-ins while an admin connection reloads
//! the model between two checkpoint generations).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpmf::checkpoint::write_checkpoint_sync;
use bpmf::serve::coalesce::CoalesceConfig;
use bpmf::serve::daemon::{self, DaemonConfig, DaemonReport, ReloadContext, ServingModel};
use bpmf::serve::router::{self, RouterConfig, RouterReport};
use bpmf::serve::shard::{slice_train_columns, ShardSpec, ShardView};
use bpmf::serve::{wire, RankPolicy, RecommendService, ServeRequest, MICRO_BATCH};
use bpmf::{
    BpmfConfig, EngineKind, GibbsSampler, ModelHandle, PosteriorModel, Recommender, TrainData,
};
use bpmf_linalg::Mat;
use bpmf_sparse::{Coo, Csr};
use bpmf_stats::{normal, Xoshiro256pp};

use crate::loadgen::{self, Admin, Kind, Mix, Rec};
use crate::stats::{median, percentile, sorted};
use crate::trace::{attribute, LayerTable};
use crate::wrap::{items_key, CallKey, Clock, Method, ModelCall, ModelLog, TracedModel};
use crate::{Args, Outcome};

const TOP_N: usize = 10;
/// Requests kept in flight by a closed-loop client.
const OUTSTANDING: usize = 64;
/// Share of recommend requests ranked by UCB (the rest by the mean).
const UCB_FRAC: f64 = 0.2;
/// Share of `--seconds` given to the closed-loop phase A; the open-loop
/// phase B gets the rest, so its median is taken over more windows.
const PHASE_A_SHARE: f64 = 0.4;

/// `serve_router`: catalogue, users, latent dimension, seen items per user.
const ROUTER_USERS: usize = 65_536;
const ROUTER_ITEMS: usize = 16_384;
const ROUTER_K: usize = 32;
const ROUTER_SEEN: usize = 32;
const ROUTER_SHARDS: usize = 2;
/// Phase B's fixed arrival rate (about a third of closed-loop saturation).
const ROUTER_RATE: f64 = 1000.0;

/// `serve_live`: movielens-like data scale and latent dimension.
const LIVE_SCALE: f64 = 0.2;
const LIVE_K: usize = 32;
/// Iterations before generation 1 is written (no burn-in, so it averages
/// two draws and carries second moments for UCB); generation 2 is one
/// later.
const LIVE_GEN1_ITERS: usize = 2;
const LIVE_FOLD_IN_FRAC: f64 = 0.05;
/// Phase B's fixed arrival rate.
const LIVE_RATE: f64 = 1500.0;
/// Reload cadence in the open-loop phase: the first reload is sent
/// `RELOAD_OFFSET` ns after the phase starts, then one every period. A
/// reload takes about a second here, so at `--seconds 10` two reloads (one
/// to each generation) are in flight for about a third of the 6 s phase:
/// the phase's median stays clear of the boundary between reload and
/// quiet windows, which would make it jump between runs.
const RELOAD_PERIOD: Duration = Duration::from_millis(3000);
const RELOAD_OFFSET: u64 = 1_000_000_000;

/// Set-ups repeated per `serve_router` run for the `setup_s` median.
const SETUP_REPS: usize = 3;

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        coalesce: CoalesceConfig {
            max_batch: MICRO_BATCH,
            batch_window: Duration::from_millis(2),
            queue_cap: 1024,
        },
        workers: 1,
        default_top_n: TOP_N,
        ..DaemonConfig::default()
    }
}

/// Raise `flag` when dropped, so a panicking body still stops the fleet.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Block until `addr` answers a recommend for user 0.
fn wait_ready(addr: SocketAddr) -> bool {
    use std::io::{BufRead, Write};
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
            if let Ok(w) = stream.try_clone() {
                let mut w = std::io::BufWriter::new(w);
                let mut r = std::io::BufReader::new(stream);
                let mut line = String::new();
                let sent = writeln!(w, "{}", wire::encode(&wire::Request::recommend(0, 0)))
                    .and_then(|_| w.flush())
                    .is_ok();
                if sent
                    && r.read_line(&mut line).is_ok()
                    && wire::decode_response(&line).is_ok_and(|resp| resp.error.is_none())
                {
                    return true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Run `worlds` as daemons on loopback — behind a router when `routed` —
/// call `body` with the address clients talk to, then shut everything
/// down and return the reports.
fn with_fleet<R>(
    worlds: &[ServingModel<'_>],
    routed: bool,
    body: impl FnOnce(Option<SocketAddr>) -> R,
) -> std::io::Result<(R, Vec<DaemonReport>, Option<RouterReport>)> {
    let cfg = daemon_config();
    let listeners: Vec<TcpListener> = (0..worlds.len())
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<Result<_, _>>()?;
    let groups: Vec<Vec<String>> = addrs.iter().map(|a| vec![a.to_string()]).collect();
    let router_listener = if routed {
        Some(TcpListener::bind("127.0.0.1:0")?)
    } else {
        None
    };
    let front = match &router_listener {
        Some(l) => l.local_addr()?,
        None => addrs[0],
    };
    let rcfg = RouterConfig {
        default_top_n: TOP_N,
        inflight_cap: 4 * OUTSTANDING,
        ..RouterConfig::default()
    };
    let (daemon_stop, router_stop) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        let daemons: Vec<_> = worlds
            .iter()
            .zip(listeners)
            .map(|(w, l)| {
                let (cfg, stop) = (&cfg, &daemon_stop);
                s.spawn(move || daemon::serve(w, l, cfg, stop))
            })
            .collect();
        let router = router_listener.map(|l| {
            let (groups, rcfg, stop) = (&groups, &rcfg, &router_stop);
            s.spawn(move || router::serve(l, groups, rcfg, stop))
        });
        let result = {
            let _d = StopOnDrop(&daemon_stop);
            let _r = StopOnDrop(&router_stop);
            let ready = wait_ready(front);
            body(ready.then_some(front))
        };
        router_stop.store(true, Ordering::Relaxed);
        let router_report = match router {
            Some(h) => Some(h.join().expect("router thread panicked")?),
            None => None,
        };
        daemon_stop.store(true, Ordering::Relaxed);
        let mut reports = Vec::new();
        for h in daemons {
            reports.push(h.join().expect("daemon thread panicked")?);
        }
        Ok((result, reports, router_report))
    })
}

/// The synthetic posterior `serve_router` serves: factors drawn from
/// `seed`, element-wise second moments for UCB, and a training matrix of
/// `ROUTER_SEEN` seen items per user for exclude-seen.
fn synthetic_world(seed: u64) -> (PosteriorModel, Csr) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let u = Mat::from_fn(ROUTER_USERS, ROUTER_K, |_, _| normal(&mut rng, 0.0, 0.4));
    let v = Mat::from_fn(ROUTER_ITEMS, ROUTER_K, |_, _| normal(&mut rng, 0.0, 0.4));
    let sq = |m: &Mat| Mat::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] * m[(i, j)] + 0.05);
    let (u2, v2) = (sq(&u), sq(&v));
    let model = PosteriorModel::from_factors(u, v, Some((u2, v2)), 3.5, Some((0.5, 5.0)), 16);
    let mut coo = Coo::new(ROUTER_USERS, ROUTER_ITEMS);
    for user in 0..ROUTER_USERS {
        let mut seen: Vec<usize> = Vec::with_capacity(ROUTER_SEEN);
        while seen.len() < ROUTER_SEEN {
            let item = (rng.next_u64() % ROUTER_ITEMS as u64) as usize;
            if !seen.contains(&item) {
                seen.push(item);
                coo.push(user, item, 4.0);
            }
        }
    }
    (model, Csr::from_coo_owned(coo))
}

fn policy_of(kind: &Kind) -> RankPolicy {
    match kind {
        Kind::Ucb => RankPolicy::Ucb { beta: 1.0 },
        _ => RankPolicy::Mean,
    }
}

/// `(item, score bits)` of a ranked list: the byte-identity key.
fn list_bits(items: &[wire::RankedItem]) -> Vec<(u32, u64)> {
    items.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// Offline rankings of `reqs` through the daemon's own batch path
/// (`recommend_each`, whose results do not depend on batch composition),
/// computed on `nproc` threads once the fleet has stopped.
fn reference_lists(
    model: &(dyn Recommender + Sync),
    n_items: usize,
    train: &Csr,
    reqs: &[(u32, RankPolicy)],
) -> Vec<Vec<(u32, u64)>> {
    let per = reqs.len().div_ceil(crate::host::nproc()).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = reqs
            .chunks(per)
            .map(|part| s.spawn(move || reference_part(model, n_items, train, part)))
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

fn reference_part(
    model: &dyn Recommender,
    n_items: usize,
    train: &Csr,
    reqs: &[(u32, RankPolicy)],
) -> Vec<Vec<(u32, u64)>> {
    let mut svc = RecommendService::new(model, n_items).exclude_seen(train);
    let mut out = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(MICRO_BATCH) {
        let batch: Vec<ServeRequest> = chunk
            .iter()
            .map(|&(user, policy)| ServeRequest {
                user,
                top_n: TOP_N,
                policy,
                exclude_seen: true,
            })
            .collect();
        for list in svc.recommend_each(&batch) {
            out.push(
                list.into_iter()
                    .map(|r| (r.item, r.score.to_bits()))
                    .collect(),
            );
        }
    }
    out
}

/// Basic reply checks shared by both workloads, recorded in `out`:
/// answered, `TOP_N` items, none of them already seen by the user (CSR
/// rows are sorted by column, so a binary search finds them).
fn check_recommend(rec: &Rec, train: &Csr, out: &mut Outcome) {
    let Some(resp) = rec.reply.as_ref() else {
        out.fail(format!("request {} got no reply", rec.id));
        return;
    };
    if let Some(e) = &resp.error {
        out.fail(format!("request {} refused: {e}", rec.id));
        return;
    }
    if resp.items.len() != TOP_N {
        out.fail(format!(
            "request {}: {} items, want {TOP_N}",
            rec.id,
            resp.items.len()
        ));
    }
    if matches!(rec.kind, Kind::FoldIn(..)) {
        return;
    }
    let (seen, _) = train.row(rec.user as usize);
    if resp
        .items
        .iter()
        .any(|r| seen.binary_search(&r.item).is_ok())
    {
        out.fail(format!(
            "request {}: recommended an item user {} has seen",
            rec.id, rec.user
        ));
    }
}

/// How far the open-loop generator may fall behind its schedule — its
/// median lateness, as a share of the measured median latency — before the
/// phase is marked invalid rather than reported as a latency. It equals the
/// `p50_ms` bound of `BENCHMARK.json`: a generator later than that could
/// move the reported median by more than a regression is allowed to.
const LATE_LIMIT: f64 = 0.2;

/// Report how late the generator ran (p50, p99, max of `sent − due`), fail
/// the phase if its median lateness exceeds [`LATE_LIMIT`], and return the
/// p99 lateness over the mean arrival gap.
fn open_loop_valid(recs: &[Rec], rate: f64, p50_ms: f64, out: &mut Outcome, phase: &str) -> f64 {
    let late = sorted(
        &recs
            .iter()
            .map(|r| (r.sent.saturating_sub(r.due)) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let (p50, p99) = (percentile(&late, 0.5), percentile(&late, 0.99));
    let max = late.last().copied().unwrap_or(0.0);
    println!(
        "loadgen {phase}: {} sent, late p50 {p50:.4} ms, p99 {p99:.4} ms, max {max:.4} ms",
        recs.len()
    );
    if p50 > LATE_LIMIT * p50_ms {
        out.fail(format!(
            "{phase}: the generator ran {p50:.3} ms late at the median against a {p50_ms:.3} ms median latency: latency not valid"
        ));
    }
    p99 / (1e3 / rate)
}

/// Per-request attribution of model calls for the traced table: layer 0 is
/// the load generator's wire encode/decode, 1 scoring, 2 the variance
/// pass, 3 fold-in.
const REQ_LAYERS: [&str; 4] = [
    "serve::wire encode + decode (load generator)",
    "serve model: score (GEMM)",
    "serve model: uncertainty (variance pass)",
    "serve model: fold_in_user",
];

struct RequestBreakdown {
    op_ms: Vec<f64>,
    per_layer_ns: [f64; 4],
    uncovered_ns: f64,
    total_ns: f64,
    calls_attributed: usize,
}

/// Tie each answered request to the model calls made for it (same user, or
/// same fold-in items, overlapping its flight), record its spans, and sum
/// its self time per layer.
fn breakdown(recs: &[Rec], calls: &[ModelCall], out: &mut Outcome) -> RequestBreakdown {
    let mut by_user: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut by_items: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, c) in calls.iter().enumerate() {
        match &c.key {
            CallKey::Users(us) => {
                for &u in us {
                    by_user.entry(u).or_default().push(i);
                }
            }
            CallKey::FoldIn(h) => by_items.entry(*h).or_default().push(i),
            CallKey::None => {}
        }
    }
    let mut b = RequestBreakdown {
        op_ms: Vec::new(),
        per_layer_ns: [0.0; 4],
        uncovered_ns: 0.0,
        total_ns: 0.0,
        calls_attributed: 0,
    };
    for rec in recs.iter().filter(|r| r.recv > 0) {
        let (lo, hi) = (rec.due, rec.recv + rec.decode_ns);
        let root = out.spans.push(None, "request", lo, hi);
        let mut children: Vec<(usize, u64, u64)> = vec![
            (0, rec.sent.saturating_sub(rec.encode_ns), rec.sent),
            (0, rec.recv, rec.recv + rec.decode_ns),
        ];
        out.spans
            .push(Some(root), "wire.encode", children[0].1, children[0].2);
        let candidates = match &rec.kind {
            Kind::FoldIn(items, _) => by_items.get(&items_key(items)),
            _ => by_user.get(&rec.user),
        };
        for &ci in candidates.into_iter().flatten() {
            let c = &calls[ci];
            if c.end <= rec.sent || c.start >= rec.recv {
                continue;
            }
            let layer = match c.method {
                Method::FoldInUser => 3,
                m if m.is_uncertainty() => 2,
                _ => 1,
            };
            children.push((layer, c.start, c.end));
            out.spans.push(
                Some(root),
                format!("model.{:?}.shard{}", c.method, c.tag),
                c.start,
                c.end,
            );
            b.calls_attributed += 1;
        }
        out.spans.push(
            Some(root),
            "wire.decode",
            rec.recv,
            rec.recv + rec.decode_ns,
        );
        let (per, unc) = attribute(lo, hi, &children, 4);
        for (acc, ns) in b.per_layer_ns.iter_mut().zip(&per) {
            *acc += ns;
        }
        b.uncovered_ns += unc;
        b.total_ns += (hi - lo) as f64;
        b.op_ms.push((hi - lo) as f64 / 1e6);
    }
    b
}

/// Layer metrics common to both serving workloads. `attributed` are the
/// open-loop requests served while the traced model was installed: the
/// self-time breakdown is taken over them.
#[allow(clippy::too_many_arguments)]
fn serving_layers(
    out: &mut Outcome,
    phase_b: &[Rec],
    attributed: &[Rec],
    calls: &[ModelCall],
    traced_wall_ns: u64,
    model_workers: usize,
    traced_requests: usize,
    reports: &[DaemonReport],
) -> RequestBreakdown {
    let b = breakdown(attributed, calls, out);
    let model_ns: u64 = calls.iter().map(|c| c.end - c.start).sum();
    let unc_ns: u64 = calls
        .iter()
        .filter(|c| c.method.is_uncertainty())
        .map(|c| c.end - c.start)
        .sum();
    let blocks: Vec<f64> = calls
        .iter()
        .filter_map(|c| match (&c.key, c.method) {
            (CallKey::Users(us), Method::ScoreBlock | Method::ScoreBlockRange) => {
                Some(us.len() as f64)
            }
            _ => None,
        })
        .collect();
    out.layer(
        "serve.model_calls_per_req",
        calls.len() as f64 / traced_requests.max(1) as f64,
    );
    out.layer(
        "serve.users_per_call",
        blocks.iter().sum::<f64>() / blocks.len().max(1) as f64,
    );
    out.layer(
        "serve.model_frac",
        (b.per_layer_ns[1] + b.per_layer_ns[2] + b.per_layer_ns[3]) / b.total_ns.max(1.0),
    );
    out.layer(
        "serve.uncertainty_frac",
        unc_ns as f64 / model_ns.max(1) as f64,
    );
    out.layer(
        "serve.model_busy_frac",
        model_ns as f64 / (traced_wall_ns.max(1) as f64 * model_workers as f64),
    );
    let (batches, requests, largest) = reports.iter().fold((0u64, 0u64, 0u64), |(b, r, l), d| {
        (b + d.batches, r + d.requests, l.max(d.largest_batch))
    });
    out.layer("coalesce.batches", batches as f64);
    out.layer(
        "coalesce.mean_batch",
        requests as f64 / batches.max(1) as f64,
    );
    out.layer("coalesce.largest_batch", largest as f64);
    let answered: Vec<&Rec> = phase_b.iter().filter(|r| r.recv > 0).collect();
    let n = answered.len().max(1) as f64;
    out.layer("wire.frac", b.per_layer_ns[0] / b.total_ns.max(1.0));
    out.layer(
        "wire.request_bytes",
        answered.iter().map(|r| r.req_bytes as f64).sum::<f64>() / n,
    );
    out.layer(
        "wire.reply_bytes",
        answered.iter().map(|r| r.reply_bytes as f64).sum::<f64>() / n,
    );
    out.layer("loadgen.sent", phase_b.len() as f64);
    out.layer("loadgen.answered", answered.len() as f64);
    let ops = sorted(&b.op_ms);
    out.layer("trace.op_ms", percentile(&ops, 0.5));
    out.layer("trace.op_p99_ms", percentile(&ops, 0.99));
    out.layer("trace.uncovered_frac", b.uncovered_ns / b.total_ns.max(1.0));
    b
}

fn breakdown_table(b: &RequestBreakdown, notes: Vec<String>) -> LayerTable {
    let n = b.op_ms.len().max(1) as f64;
    LayerTable {
        op: "served request (open-loop phase)".to_string(),
        op_ms: b.total_ns / 1e6 / n,
        rows: REQ_LAYERS
            .iter()
            .zip(b.per_layer_ns)
            .map(|(l, ns)| (l.to_string(), ns / 1e6 / n))
            .collect(),
        uncovered_ms: b.uncovered_ns / 1e6 / n,
        notes,
    }
}

/// Closed-loop throughput over `slices` consecutive connections of
/// `slice_s` seconds each; `before_slice(k)` runs before slice `k`.
#[allow(clippy::too_many_arguments)]
fn closed_slices(
    addr: SocketAddr,
    mix: &Mix,
    first_id: &mut u64,
    slices: usize,
    slice_s: f64,
    clock: &Clock,
    mut admin: Option<&mut Admin>,
    mut before_slice: impl FnMut(usize),
) -> std::io::Result<Vec<(Vec<Rec>, f64)>> {
    let mut out = Vec::new();
    for k in 0..slices {
        before_slice(k);
        let t0 = clock.now();
        let until = t0 + (slice_s * 1e9) as u64;
        let recs = loadgen::closed_loop(
            addr,
            mix,
            *first_id,
            OUTSTANDING,
            until,
            clock,
            admin.as_deref_mut(),
        )?;
        let wall = (clock.now() - t0) as f64 / 1e9;
        *first_id += recs.len() as u64 + 1;
        out.push((recs, wall));
    }
    Ok(out)
}

fn rps(slices: &[&(Vec<Rec>, f64)]) -> f64 {
    let answered: usize = slices
        .iter()
        .map(|(r, _)| r.iter().filter(|x| x.answered()).count())
        .sum();
    let wall: f64 = slices.iter().map(|(_, w)| w).sum();
    answered as f64 / wall
}

/// Replies per second in each full `window_s` window from the first send.
/// Replies leave the daemon in coalesced bursts, so a window's count (not
/// the span between its first and last reply) is the unbiased reading.
fn windowed_rps(recs: &[Rec], window_s: f64) -> Vec<f64> {
    let Some(t0) = recs.iter().map(|r| r.sent).min() else {
        return Vec::new();
    };
    let t1 = recs.iter().map(|r| r.recv).max().unwrap_or(t0);
    let w = (window_s * 1e9) as u64;
    let n = ((t1 - t0) / w) as usize;
    let mut counts = vec![0usize; n];
    for r in recs.iter().filter(|r| r.answered()) {
        if let Some(c) = counts.get_mut(((r.recv - t0) / w) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window_s).collect()
}

/// Median latency of the answered requests due in each consecutive
/// `window_s` window of an open-loop phase.
fn windowed_p50(recs: &[Rec], window_s: f64) -> Vec<f64> {
    let Some(t0) = recs.iter().map(|r| r.due).min() else {
        return Vec::new();
    };
    let w = (window_s * 1e9) as u64;
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for r in recs.iter().filter(|r| r.answered()) {
        let k = ((r.due - t0) / w) as usize;
        if windows.len() <= k {
            windows.resize(k + 1, Vec::new());
        }
        windows[k].push(r.latency_ms());
    }
    windows
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect()
}

/// Phase A windows for the closed-loop rate, phase B windows for the
/// open-loop median: each end-to-end reading is the median over windows,
/// so a short stall of the host moves it less than it moves a whole-phase
/// aggregate. A rate window holds some 25 coalesced reply bursts, so one
/// burst more or less moves it by a few percent.
const RATE_WINDOW_S: f64 = 0.5;
const LATENCY_WINDOW_S: f64 = 0.5;

/// The closed-loop rate of `slices`: median over all their windows.
fn closed_loop_rate(slices: &[&(Vec<Rec>, f64)]) -> f64 {
    let w: Vec<f64> = slices
        .iter()
        .flat_map(|(r, _)| windowed_rps(r, RATE_WINDOW_S))
        .collect();
    println!(
        "closed-loop req/s per {RATE_WINDOW_S} s window: {}",
        crate::stats::describe(&w)
    );
    median(&w)
}

/// The open-loop median latency: median over windows of the per-window
/// median.
fn open_loop_p50(recs: &[Rec]) -> f64 {
    let w = windowed_p50(recs, LATENCY_WINDOW_S);
    println!(
        "open-loop p50 ms per {LATENCY_WINDOW_S} s window: {}",
        crate::stats::describe(&w)
    );
    median(&w)
}

pub fn router(args: &Args, clock: Clock) -> Outcome {
    let mut out = Outcome {
        parallelism: vec![
            ("shard_daemons", ROUTER_SHARDS),
            ("daemon_workers", 1),
            ("loadgen_threads", 2),
            ("loadgen_connections", 1),
        ],
        ..Outcome::default()
    };
    let mix = Mix {
        seed: args.seed,
        n_users: ROUTER_USERS as u32,
        n_items: ROUTER_ITEMS as u32,
        ucb_frac: UCB_FRAC,
        fold_in_frac: 0.0,
        top_n: TOP_N,
    };
    let specs: Vec<ShardSpec> = (0..ROUTER_SHARDS)
        .map(|i| ShardSpec::for_shard(i as u32, ROUTER_SHARDS as u32, ROUTER_ITEMS, 1))
        .collect();
    let log = Arc::new(ModelLog::default());
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (model, train) = synthetic_world(args.seed);
        gens.push(t.elapsed().as_secs_f64());
        let shared: Arc<dyn Recommender + Send + Sync> = Arc::new(model);
        let views: Vec<Arc<dyn Recommender + Send + Sync>> = specs
            .iter()
            .map(|sp| {
                Arc::new(ShardView::new(
                    shared.clone(),
                    sp.item_lo as usize,
                    sp.item_hi as usize,
                )) as Arc<dyn Recommender + Send + Sync>
            })
            .collect();
        let traced: Vec<Arc<dyn Recommender + Send + Sync>> = views
            .iter()
            .enumerate()
            .map(|(i, v)| {
                Arc::new(TracedModel::new(v.clone(), i as u32, clock, log.clone()))
                    as Arc<dyn Recommender + Send + Sync>
            })
            .collect();
        let locals: Vec<Csr> = specs
            .iter()
            .map(|sp| slice_train_columns(&train, sp.item_lo as usize, sp.item_hi as usize))
            .collect();
        let worlds: Vec<ServingModel> = (0..ROUTER_SHARDS)
            .map(|i| ServingModel {
                model: ModelHandle::new(views[i].clone(), 1),
                train: Some(&locals[i]),
                n_users: ROUTER_USERS,
                n_items: specs[i].width(),
                shard: Some(specs[i]),
                reload: None,
            })
            .collect();
        let last = rep + 1 == SETUP_REPS;
        let res = with_fleet(&worlds, true, |addr| {
            let Some(addr) = addr else {
                return Err("the fleet never became ready".to_string());
            };
            // Warm-up: the shard views pack their factor panels lazily.
            let mut id = 1u64;
            closed_slices(addr, &mix, &mut id, 1, 0.3, &clock, None, |_| {})
                .map_err(|e| e.to_string())?;
            setups.push(t.elapsed().as_secs_f64());
            if !last {
                return Ok(None);
            }
            let swap = |traced_on: bool| {
                for (i, w) in worlds.iter().enumerate() {
                    let m = if traced_on {
                        traced[i].clone()
                    } else {
                        views[i].clone()
                    };
                    w.model.swap(m, 1);
                }
            };
            // Phase A: closed loop. A traced run alternates plain and
            // traced slices to measure the tracing overhead.
            let slices = if args.trace { 4 } else { 1 };
            let a = closed_slices(
                addr,
                &mix,
                &mut id,
                slices,
                PHASE_A_SHARE * args.seconds / slices as f64,
                &clock,
                None,
                |k| swap(args.trace && k % 2 == 1),
            )
            .map_err(|e| e.to_string())?;
            // Phase B: Poisson open loop at a fixed rate.
            swap(args.trace);
            let schedule = loadgen::poisson_schedule(
                args.seed,
                ROUTER_RATE,
                (1.0 - PHASE_A_SHARE) * args.seconds,
            );
            let b0 = clock.now();
            let b = loadgen::open_loop(addr, &mix, id, &schedule, b0 + 1_000_000, &clock, None)
                .map_err(|e| e.to_string())?;
            let b_wall = clock.now() - b0;
            Ok(Some((a, b, b_wall)))
        });
        match res {
            Ok((Ok(Some(phases)), reports, rreport)) => {
                router_finish(
                    args,
                    &mut out,
                    phases,
                    reports,
                    rreport,
                    &log,
                    shared.as_ref(),
                    &train,
                );
            }
            Ok((Ok(None), _, _)) => {}
            Ok((Err(e), _, _)) => out.fail(e),
            Err(e) => out.fail(format!("fleet i/o: {e}")),
        }
        if out.failed > 0 {
            break;
        }
    }
    out.e2e("setup_s", median(&setups));
    out.layer("dataset.gen_s", median(&gens));
    out
}

type Phases = (Vec<(Vec<Rec>, f64)>, Vec<Rec>, u64);

#[allow(clippy::too_many_arguments)]
fn router_finish(
    args: &Args,
    out: &mut Outcome,
    (a, b, b_wall): Phases,
    reports: Vec<DaemonReport>,
    rreport: Option<RouterReport>,
    log: &ModelLog,
    model: &(dyn Recommender + Sync),
    train: &Csr,
) {
    // Checks: every reply, and a fixed sample against the offline service.
    let all: Vec<&Rec> = a.iter().flat_map(|(r, _)| r).chain(&b).collect();
    out.attempted += all.len() as u64;
    let sample: Vec<&Rec> = all
        .iter()
        .copied()
        .filter(|r| r.id % 16 == 0 && r.answered())
        .collect();
    for r in &all {
        check_recommend(r, train, out);
    }
    let want = reference_lists(
        model,
        ROUTER_ITEMS,
        train,
        &sample
            .iter()
            .map(|r| (r.user, policy_of(&r.kind)))
            .collect::<Vec<_>>(),
    );
    for (r, w) in sample.iter().zip(&want) {
        let got = list_bits(
            &r.reply
                .as_ref()
                .expect("sampled replies are answered")
                .items,
        );
        if &got != w {
            out.fail(format!(
                "request {} (user {}): router reply differs from the offline service",
                r.id, r.user
            ));
        }
    }
    println!(
        "checks: {} replies, {} compared with the offline service",
        all.len(),
        sample.len()
    );

    let plain: Vec<&(Vec<Rec>, f64)> = a.iter().step_by(if args.trace { 2 } else { 1 }).collect();
    let lat = sorted(
        &b.iter()
            .filter(|r| r.answered())
            .map(Rec::latency_ms)
            .collect::<Vec<_>>(),
    );
    let p50 = open_loop_p50(&b);
    out.e2e("throughput_per_s", closed_loop_rate(&plain));
    out.e2e("p50_ms", p50);
    println!(
        "phase B: {} sent, p50 {p50:.4} ms, p99 {:.4} ms, p99.9 {:.4} ms",
        b.len(),
        percentile(&lat, 0.99),
        percentile(&lat, 0.999)
    );
    let late_frac = open_loop_valid(&b, ROUTER_RATE, p50, out, "phase B");
    if !args.trace {
        return;
    }
    let traced_slices: Vec<&(Vec<Rec>, f64)> = a.iter().skip(1).step_by(2).collect();
    out.layer(
        "trace.overhead_frac",
        rps(&plain) / rps(&traced_slices) - 1.0,
    );
    let calls = log.take();
    let traced_requests = traced_slices.iter().map(|(r, _)| r.len()).sum::<usize>() + b.len();
    let traced_wall = traced_slices
        .iter()
        .map(|(_, w)| (w * 1e9) as u64)
        .sum::<u64>()
        + b_wall;
    let bd = serving_layers(
        out,
        &b,
        &b,
        &calls,
        traced_wall,
        ROUTER_SHARDS,
        traced_requests,
        &reports,
    );
    out.layer("loadgen.late_p99_frac", late_frac);
    if let Some(r) = rreport {
        out.layer("router.requests", r.requests as f64);
        out.layer("router.retries", r.retries as f64);
        out.layer("router.overload_rejected", r.overload_rejected as f64);
        out.layer("router.shard_failures", r.shard_failures as f64);
    }
    out.tables.push(breakdown_table(
        &bd,
        vec![
            "model rows are the union over both shards' calls for the request's user (shards score in parallel; overlap is shared equally)".to_string(),
            "(no span covers) is router admit, scatter, merge and hop, the loopback links, daemon parse, coalesce wait, filter/select and serialise: spans inside the program are a later change".to_string(),
            format!("{} model calls attributed to {} requests", bd.calls_attributed, bd.op_ms.len()),
        ],
    ));
}

/// The two checkpoint generations `serve_live` reloads between.
struct Generation {
    path: String,
    model: Arc<PosteriorModel>,
    epoch: u64,
    bytes: u64,
}

pub fn live(args: &Args, clock: Clock, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::host::nproc();
    out.parallelism = vec![
        ("daemon_workers", 1),
        ("train_pool_threads", threads),
        ("loadgen_threads", 2),
        ("loadgen_connections", 2),
    ];
    let t = Instant::now();
    let ds = bpmf_dataset::movielens_like(LIVE_SCALE, args.seed);
    out.layer("dataset.gen_s", t.elapsed().as_secs_f64());
    let cfg = BpmfConfig {
        num_latent: LIVE_K,
        burnin: 0,
        samples: 1_000_000,
        kernel_threads: 1,
        seed: args.seed,
        ..BpmfConfig::default()
    };
    let runner = EngineKind::WorkStealing.build(threads);
    let mut sampler = GibbsSampler::new(
        cfg.clone(),
        TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test),
    );
    let ctx = ReloadContext {
        global_mean: ds.global_mean,
        rating_bounds: cfg.rating_bounds,
        alpha: cfg.alpha,
    };
    let mut gens: Vec<Generation> = Vec::new();
    for g in 0..2 {
        let steps = if g == 0 { LIVE_GEN1_ITERS } else { 1 };
        for _ in 0..steps {
            sampler.step(runner.as_ref());
        }
        let ckpt = sampler.checkpoint();
        let path = work.join(format!("serve_live.gen{}.ckpt", g + 1));
        if let Err(e) = write_checkpoint_sync(&path, &ckpt) {
            out.fail(format!("writing generation {}: {e}", g + 1));
            return out;
        }
        let model = match PosteriorModel::from_checkpoint(
            &ckpt,
            ctx.global_mean,
            ctx.rating_bounds,
            ctx.alpha,
        ) {
            Ok(m) => m,
            Err(e) => {
                out.fail(format!("generation {} unusable: {e}", g + 1));
                return out;
            }
        };
        gens.push(Generation {
            path: path.to_string_lossy().into_owned(),
            model: Arc::new(model),
            epoch: ckpt.iter as u64,
            bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
        });
    }
    drop(sampler);
    println!(
        "set-up: data and two checkpoint generations after {:.3} s",
        t.elapsed().as_secs_f64()
    );
    let n_users = ds.nrows();
    let n_items = ds.ncols();
    let mix = Mix {
        seed: args.seed,
        n_users: n_users as u32,
        n_items: n_items as u32,
        ucb_frac: UCB_FRAC,
        fold_in_frac: LIVE_FOLD_IN_FRAC,
        top_n: TOP_N,
    };
    let log = Arc::new(ModelLog::default());
    let plain: Arc<dyn Recommender + Send + Sync> = gens[0].model.clone();
    let traced: Arc<dyn Recommender + Send + Sync> =
        Arc::new(TracedModel::new(plain.clone(), 0, clock, log.clone()));
    let world = ServingModel {
        model: ModelHandle::new(plain.clone(), gens[0].epoch),
        train: Some(&ds.train),
        n_users,
        n_items,
        shard: None,
        reload: Some(ctx),
    };
    let paths: Vec<String> = gens.iter().map(|g| g.path.clone()).collect();
    let res = with_fleet(std::slice::from_ref(&world), false, |addr| {
        let Some(addr) = addr else {
            return Err("the daemon never became ready".to_string());
        };
        let mut id = 1u64;
        closed_slices(addr, &mix, &mut id, 1, 0.3, &clock, None, |_| {})
            .map_err(|e| e.to_string())?;
        let setup_s = t.elapsed().as_secs_f64();
        let phase_a = PHASE_A_SHARE * args.seconds;
        // A traced run first measures the tracing overhead on alternating
        // plain and traced slices, before any reload replaces the model.
        let mut overhead = Vec::new();
        if args.trace {
            overhead = closed_slices(addr, &mix, &mut id, 4, 0.25 * phase_a, &clock, None, |k| {
                world.model.swap(
                    if k % 2 == 1 {
                        traced.clone()
                    } else {
                        plain.clone()
                    },
                    gens[0].epoch,
                );
            })
            .map_err(|e| e.to_string())?;
            world.model.swap(traced.clone(), gens[0].epoch);
        }
        let traced_from = clock.now();
        // Phase A measures the live daemon's saturation on the mixed
        // traffic; phase B runs the reload cadence beside the open loop.
        let a = closed_slices(addr, &mix, &mut id, 1, phase_a, &clock, None, |_| {})
            .map_err(|e| e.to_string())?;
        let mut admin =
            Admin::connect(addr, paths.clone(), 1, RELOAD_PERIOD).map_err(|e| e.to_string())?;
        let schedule = loadgen::poisson_schedule(args.seed, LIVE_RATE, args.seconds - phase_a);
        let b0 = clock.now() + 1_000_000;
        admin.start(b0 + RELOAD_OFFSET);
        let b = loadgen::open_loop(addr, &mix, id, &schedule, b0, &clock, Some(&mut admin))
            .map_err(|e| e.to_string())?;
        admin.finish(&clock, Duration::from_secs(20));
        Ok((setup_s, overhead, traced_from, a, b, admin.reloads))
    });
    let ((setup_s, overhead, traced_from, a, b, reloads), reports) = match res {
        Ok((Ok(v), reports, _)) => (v, reports),
        Ok((Err(e), _, _)) => {
            out.fail(e);
            return out;
        }
        Err(e) => {
            out.fail(format!("daemon i/o: {e}"));
            return out;
        }
    };
    out.e2e("setup_s", setup_s);
    for g in &gens {
        let _ = std::fs::remove_file(&g.path);
    }

    // Checks.
    let a_recs = &a[0].0;
    let all: Vec<&Rec> = a_recs.iter().chain(&b).collect();
    out.attempted += all.len() as u64 + reloads.len() as u64;
    for r in &reloads {
        if !r.ok {
            out.fail(format!(
                "reload to generation {} was refused",
                r.generation + 1
            ));
        }
    }
    if reloads.is_empty() {
        out.fail("no reload completed".to_string());
    }
    let tc = Instant::now();
    check_live(&mut out, &all, &reloads, &gens, &ds.train, n_items);
    println!("checks took {:.3} s", tc.elapsed().as_secs_f64());

    let rec_lat = |pred: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
        sorted(
            &b.iter()
                .filter(|r| r.answered() && pred(r))
                .map(Rec::latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let lat = rec_lat(&|_| true);
    let p50 = open_loop_p50(&b);
    out.e2e("throughput_per_s", closed_loop_rate(&[&a[0]]));
    out.e2e("p50_ms", p50);
    let acks: Vec<f64> = reloads
        .iter()
        .map(|r| (r.ack - r.sent) as f64 / 1e9)
        .collect();
    println!(
        "reloads: {} acknowledged, median {:.4} s; phase B: {} sent, p50 {p50:.4} ms, p99 {:.4} ms",
        reloads.len(),
        median(&acks),
        b.len(),
        percentile(&lat, 0.99)
    );
    let late_frac = open_loop_valid(&b, LIVE_RATE, p50, &mut out, "phase B");
    let during = |r: &Rec| reloads.iter().any(|x| r.due < x.ack && r.recv > x.sent);
    let dur = rec_lat(&|r| during(r));
    let outside = rec_lat(&|r| !during(r));
    println!(
        "phase B p50 while a reload is in flight {:.4} ms ({} requests), otherwise {:.4} ms ({})",
        percentile(&dur, 0.5),
        dur.len(),
        percentile(&outside, 0.5),
        outside.len()
    );
    if !args.trace {
        return out;
    }
    let fold = rec_lat(&|r| matches!(r.kind, Kind::FoldIn(..)));
    let recs_only = rec_lat(&|r| !matches!(r.kind, Kind::FoldIn(..)));
    out.layer("reload.count", reloads.len() as f64);
    out.layer(
        "reload.p50_during_vs_outside",
        percentile(&dur, 0.5) / percentile(&outside, 0.5),
    );
    out.layer(
        "fold_in.p50_vs_recommend",
        percentile(&fold, 0.5) / percentile(&recs_only, 0.5),
    );
    out.layer("checkpoint.bytes", gens[0].bytes as f64);
    out.layer(
        "checkpoint.read_mb_per_s",
        gens[0].bytes as f64 / 1e6 / median(&acks),
    );
    let plain_s: Vec<&(Vec<Rec>, f64)> = overhead.iter().step_by(2).collect();
    let traced_s: Vec<&(Vec<Rec>, f64)> = overhead.iter().skip(1).step_by(2).collect();
    out.layer("trace.overhead_frac", rps(&plain_s) / rps(&traced_s) - 1.0);
    // The traced model serves from `traced_from` until the first reload.
    let first_reload = reloads.first().map_or(u64::MAX, |r| r.ack);
    let calls = log.take();
    let b_traced: Vec<Rec> = b
        .iter()
        .filter(|r| r.recv < first_reload)
        .cloned()
        .collect();
    let traced_requests =
        a_recs.len() + b_traced.len() + traced_s.iter().map(|(r, _)| r.len()).sum::<usize>();
    let traced_wall = first_reload.min(clock.now()).saturating_sub(traced_from)
        + traced_s.iter().map(|(_, w)| (w * 1e9) as u64).sum::<u64>();
    let bd = serving_layers(
        &mut out,
        &b,
        &b_traced,
        &calls,
        traced_wall,
        1,
        traced_requests,
        &reports,
    );
    out.layer("loadgen.late_p99_frac", late_frac);
    out.tables.push(breakdown_table(
        &bd,
        vec![
            "a reload installs a model the benchmark did not wrap: model spans cover only the time before the first reload, so this table is taken over the open-loop requests answered before it".to_string(),
            format!("{} of {} open-loop requests were answered before the first reload", b_traced.len(), b.len()),
            "(no span covers) is daemon parse, coalesce wait, filter/select, serialise and the loopback link: spans inside the program are a later change".to_string(),
        ],
    ));
    out
}

/// `serve_live` reply checks: every reply matches generation 1 or 2;
/// replies to requests sent after a reload was acknowledged (and before
/// the next was sent) match that reload's generation; fold-in replies equal
/// `Recommender::fold_in_user` on the generation that answered.
fn check_live(
    out: &mut Outcome,
    all: &[&Rec],
    reloads: &[loadgen::Reload],
    gens: &[Generation],
    train: &Csr,
    n_items: usize,
) {
    // The generation a request must have been served by, when its send
    // time falls in a settled window.
    let settled = |r: &Rec| -> Option<usize> {
        let mut g = Some(0usize);
        for x in reloads {
            if r.sent > x.ack {
                g = Some(x.generation);
            } else if r.sent > x.sent {
                return None;
            } else {
                break;
            }
        }
        g
    };
    for r in all {
        check_recommend(r, train, out);
    }
    let recs: Vec<&&Rec> = all
        .iter()
        .filter(|r| r.answered() && !matches!(r.kind, Kind::FoldIn(..)))
        .collect();
    // A request in a settled window is compared with its generation only;
    // one sent while a reload was in flight may match either.
    let mut matched = vec![false; recs.len()];
    for (g, generation) in gens.iter().enumerate() {
        let idx: Vec<usize> = (0..recs.len())
            .filter(|&i| settled(recs[i]).is_none_or(|s| s == g))
            .collect();
        let keys: Vec<(u32, RankPolicy)> = idx
            .iter()
            .map(|&i| (recs[i].user, policy_of(&recs[i].kind)))
            .collect();
        let want = reference_lists(generation.model.as_ref(), n_items, train, &keys);
        for (&i, w) in idx.iter().zip(&want) {
            matched[i] |= list_bits(&recs[i].reply.as_ref().expect("answered").items) == *w;
        }
    }
    for (r, ok) in recs.iter().zip(matched) {
        if !ok {
            match settled(r) {
                Some(g) => out.fail(format!("request {}: sent after the reload to generation {} was acknowledged, but its reply does not match it", r.id, g + 1)),
                None => out.fail(format!("request {}: reply matches neither generation", r.id)),
            }
        }
    }
    let mut folds = 0;
    for r in all.iter().filter(|r| r.answered()) {
        let Kind::FoldIn(items, ratings) = &r.kind else {
            continue;
        };
        folds += 1;
        let resp = r.reply.as_ref().expect("answered");
        let Some(g) = gens.iter().position(|g| Some(g.epoch) == resp.model_epoch) else {
            out.fail(format!(
                "fold-in {}: unknown model epoch {:?}",
                r.id, resp.model_epoch
            ));
            continue;
        };
        if settled(r).is_some_and(|s| s != g) {
            out.fail(format!(
                "fold-in {}: answered by generation {} outside its window",
                r.id,
                g + 1
            ));
        }
        match gens[g].model.fold_in_user(items, ratings) {
            Ok(f) => {
                let mut ranked: Vec<wire::RankedItem> = f
                    .scores
                    .iter()
                    .enumerate()
                    .map(|(i, &score)| wire::RankedItem {
                        item: i as u32,
                        score,
                    })
                    .collect();
                ranked.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.item.cmp(&b.item))
                });
                ranked.truncate(TOP_N);
                let fbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if list_bits(&ranked) != list_bits(&resp.items)
                    || fbits(&f.factors) != fbits(&resp.factors)
                {
                    out.fail(format!("fold-in {}: reply differs from fold_in_user", r.id));
                }
            }
            Err(e) => out.fail(format!("fold-in {}: reference fold-in failed: {e}", r.id)),
        }
    }
    println!(
        "checks: {} replies against both generations, {folds} fold-ins, {} reloads",
        recs.len(),
        reloads.len()
    );
}
