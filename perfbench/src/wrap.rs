//! Tracing wrappers around the program's public layer traits.
//!
//! [`TracedRunner`] wraps a [`ItemRunner`] (the `sched` layer as the Gibbs
//! sampler sees it) and [`TracedModel`] wraps a [`Recommender`] (the model
//! as the serving tier sees it). Both forward every trait method to the
//! wrapped object — a method left to its trait default would silently take
//! a slower path and the traced run would measure a different program —
//! and record the time spent in the calls they can see.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bpmf::{choose_method, FoldIn, FoldInError, PredictionSummary, Recommender, UpdateMethod};
use bpmf_linalg::Mat;
use bpmf_sched::{Adjacency, ItemRunner, RunStats};

/// Monotonic nanoseconds since a shared epoch, so spans recorded on
/// different threads and by different recorders line up.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Item-update method buckets, in the order [`METHOD_NAMES`] lists them.
pub const METHODS: usize = 3;
pub const METHOD_NAMES: [&str; METHODS] = ["rank_one", "chol_serial", "chol_parallel"];

pub fn method_index(m: UpdateMethod) -> usize {
    match m {
        UpdateMethod::RankOne => 0,
        UpdateMethod::CholSerial => 1,
        UpdateMethod::CholParallel => 2,
    }
}

/// Log2 buckets of item-update nanoseconds: bucket `b` holds times in
/// `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 40;

/// Per-method item counts, summed item time and time histograms.
#[derive(Clone, Debug)]
pub struct MethodTimes {
    pub items: [u64; METHODS],
    pub ns: [u64; METHODS],
    pub hist: [[u32; HIST_BUCKETS]; METHODS],
}

impl Default for MethodTimes {
    fn default() -> Self {
        MethodTimes {
            items: [0; METHODS],
            ns: [0; METHODS],
            hist: [[0; HIST_BUCKETS]; METHODS],
        }
    }
}

impl MethodTimes {
    fn add(&mut self, method: usize, ns: u64) {
        self.items[method] += 1;
        self.ns[method] += ns;
        let b = (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.hist[method][b] += 1;
    }

    pub fn merge(&mut self, other: &MethodTimes) {
        for m in 0..METHODS {
            self.items[m] += other.items[m];
            self.ns[m] += other.ns[m];
            for b in 0..HIST_BUCKETS {
                self.hist[m][b] += other.hist[m][b];
            }
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// One `run_items` call (one Gibbs half-sweep) as the wrapper saw it.
#[derive(Clone, Debug)]
pub struct SweepRecord {
    pub start: u64,
    pub end: u64,
    pub threads: usize,
    pub methods: MethodTimes,
    pub busy_frac: f64,
    pub imbalance: f64,
    pub steals: u64,
    pub items: u64,
}

/// An [`ItemRunner`] that times every item update it dispatches, bucketed
/// by the update method the sampler's adaptive rule picks for the item's
/// rating count (recomputed here from the adjacency the sampler passes).
pub struct TracedRunner {
    inner: Box<dyn ItemRunner>,
    rank_one_max: usize,
    parallel_threshold: usize,
    clock: Clock,
    sweeps: Mutex<Vec<SweepRecord>>,
}

impl TracedRunner {
    pub fn new(
        inner: Box<dyn ItemRunner>,
        rank_one_max: usize,
        parallel_threshold: usize,
        clock: Clock,
    ) -> Self {
        TracedRunner {
            inner,
            rank_one_max,
            parallel_threshold,
            clock,
            sweeps: Mutex::new(Vec::new()),
        }
    }

    /// Drain the sweeps recorded so far.
    pub fn take_sweeps(&self) -> Vec<SweepRecord> {
        std::mem::take(&mut *self.sweeps.lock().expect("sweep log poisoned"))
    }
}

impl ItemRunner for TracedRunner {
    fn run_items(
        &self,
        n: usize,
        weights: Option<&[f64]>,
        adj: Option<Adjacency<'_>>,
        f: &(dyn Fn(usize, usize) + Sync),
    ) -> RunStats {
        let threads = self.inner.threads();
        let slots: Vec<Mutex<MethodTimes>> = (0..threads + 1).map(|_| Mutex::default()).collect();
        let method_of = |item: usize| -> usize {
            adj.map_or(0, |a| {
                let d = a.offsets[item + 1] - a.offsets[item];
                method_index(choose_method(d, self.rank_one_max, self.parallel_threshold))
            })
        };
        let timed = |worker: usize, item: usize| {
            let t = Instant::now();
            f(worker, item);
            let ns = t.elapsed().as_nanos() as u64;
            slots[worker.min(threads)]
                .lock()
                .expect("item timer poisoned")
                .add(method_of(item), ns);
        };
        let start = self.clock.now();
        let stats = self.inner.run_items(n, weights, adj, &timed);
        let end = self.clock.now();
        let mut methods = MethodTimes::default();
        for s in &slots {
            methods.merge(&s.lock().expect("item timer poisoned"));
        }
        self.sweeps
            .lock()
            .expect("sweep log poisoned")
            .push(SweepRecord {
                start,
                end,
                threads,
                methods,
                busy_frac: stats.busy_fraction(),
                imbalance: stats.imbalance(),
                steals: stats.total_steals(),
                items: stats.total_items(),
            });
        stats
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Recommender methods a [`TracedModel`] times, in trait order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    PredictBatch,
    Rmse,
    ScoreAll,
    ScoreBatch,
    ScoreBlock,
    ScoreBlockRange,
    UncertaintyAll,
    UncertaintyRange,
    FoldInUser,
}

impl Method {
    /// True for the posterior-variance pass (UCB ranking).
    pub fn is_uncertainty(self) -> bool {
        matches!(self, Method::UncertaintyAll | Method::UncertaintyRange)
    }
}

/// What a model call was made for: the users it scored, or — for a
/// cold-start fold-in, which has no user id — a hash of the rated items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKey {
    Users(Vec<u32>),
    FoldIn(u64),
    None,
}

/// One timed model call.
#[derive(Clone, Debug)]
pub struct ModelCall {
    pub method: Method,
    pub tag: u32,
    pub start: u64,
    pub end: u64,
    pub key: CallKey,
}

/// FNV-1a over item ids: the key that ties a fold-in model call to the
/// request that carried the same items.
pub fn items_key(items: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in items {
        for b in i.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Where a [`TracedModel`] records its calls. Shared by every wrapper of
/// one run (each wrapper stamps its own `tag`, e.g. the shard index).
#[derive(Default)]
pub struct ModelLog {
    calls: Mutex<Vec<ModelCall>>,
}

impl ModelLog {
    pub fn take(&self) -> Vec<ModelCall> {
        std::mem::take(&mut *self.calls.lock().expect("model log poisoned"))
    }
}

/// A [`Recommender`] that forwards all 13 trait methods to `inner` and
/// times the ones that do real work (per-pair `predict` calls are too
/// small to time one by one and are only forwarded).
pub struct TracedModel {
    inner: Arc<dyn Recommender + Send + Sync>,
    tag: u32,
    clock: Clock,
    log: Arc<ModelLog>,
}

impl TracedModel {
    pub fn new(
        inner: Arc<dyn Recommender + Send + Sync>,
        tag: u32,
        clock: Clock,
        log: Arc<ModelLog>,
    ) -> Self {
        TracedModel {
            inner,
            tag,
            clock,
            log,
        }
    }

    fn timed<R>(
        &self,
        method: Method,
        key: impl FnOnce() -> CallKey,
        call: impl FnOnce() -> R,
    ) -> R {
        let start = self.clock.now();
        let out = call();
        let end = self.clock.now();
        let rec = ModelCall {
            method,
            tag: self.tag,
            start,
            end,
            key: key(),
        };
        self.log.calls.lock().expect("model log poisoned").push(rec);
        out
    }
}

impl Recommender for TracedModel {
    fn predict(&self, user: usize, movie: usize) -> f64 {
        self.inner.predict(user, movie)
    }

    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f64> {
        self.timed(
            Method::PredictBatch,
            || CallKey::None,
            || self.inner.predict_batch(pairs),
        )
    }

    fn rmse(&self, test: &[(u32, u32, f64)]) -> f64 {
        self.timed(Method::Rmse, || CallKey::None, || self.inner.rmse(test))
    }

    fn predict_with_uncertainty(&self, user: usize, movie: usize) -> Option<PredictionSummary> {
        self.inner.predict_with_uncertainty(user, movie)
    }

    fn num_items(&self) -> Option<usize> {
        self.inner.num_items()
    }

    fn score_all(&self, user: usize, scores: &mut [f64]) {
        self.timed(
            Method::ScoreAll,
            || CallKey::Users(vec![user as u32]),
            || self.inner.score_all(user, scores),
        )
    }

    fn score_batch(&self, user: usize, items: &[u32], out: &mut [f64]) {
        self.timed(
            Method::ScoreBatch,
            || CallKey::Users(vec![user as u32]),
            || self.inner.score_batch(user, items, out),
        )
    }

    fn score_block(&self, users: &[u32], out: &mut [f64]) {
        self.timed(
            Method::ScoreBlock,
            || CallKey::Users(users.to_vec()),
            || self.inner.score_block(users, out),
        )
    }

    fn score_block_range(&self, users: &[u32], lo: usize, hi: usize, out: &mut [f64]) {
        self.timed(
            Method::ScoreBlockRange,
            || CallKey::Users(users.to_vec()),
            || self.inner.score_block_range(users, lo, hi, out),
        )
    }

    fn uncertainty_all(&self, user: usize, stds: &mut [f64]) -> bool {
        self.timed(
            Method::UncertaintyAll,
            || CallKey::Users(vec![user as u32]),
            || self.inner.uncertainty_all(user, stds),
        )
    }

    fn uncertainty_range(&self, user: usize, lo: usize, hi: usize, stds: &mut [f64]) -> bool {
        self.timed(
            Method::UncertaintyRange,
            || CallKey::Users(vec![user as u32]),
            || self.inner.uncertainty_range(user, lo, hi, stds),
        )
    }

    fn factors(&self) -> Option<(&Mat, &Mat)> {
        self.inner.factors()
    }

    fn fold_in_user(&self, items: &[u32], ratings: &[f64]) -> Result<FoldIn, FoldInError> {
        self.timed(
            Method::FoldInUser,
            || CallKey::FoldIn(items_key(items)),
            || self.inner.fold_in_user(items, ratings),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmf::serve::{RankPolicy, RecommendService, ServeRequest};
    use bpmf::{BpmfConfig, EngineKind, GibbsSampler, PosteriorModel, TrainData};
    use bpmf_sched::WorkerStats;

    /// A model whose every method answers distinctively and logs its own
    /// name, so a wrapper that lets a call fall through to a trait default
    /// is caught: the default would log a different method (or none).
    #[derive(Default)]
    struct Probe {
        called: Mutex<Vec<&'static str>>,
        u: Option<(Mat, Mat)>,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.called.lock().unwrap().push(name);
        }
    }

    impl Recommender for Probe {
        fn predict(&self, _: usize, _: usize) -> f64 {
            self.hit("predict");
            1.0
        }
        fn predict_batch(&self, pairs: &[(u32, u32)]) -> Vec<f64> {
            self.hit("predict_batch");
            vec![2.0; pairs.len()]
        }
        fn rmse(&self, _: &[(u32, u32, f64)]) -> f64 {
            self.hit("rmse");
            3.0
        }
        fn predict_with_uncertainty(&self, _: usize, _: usize) -> Option<PredictionSummary> {
            self.hit("predict_with_uncertainty");
            None
        }
        fn num_items(&self) -> Option<usize> {
            self.hit("num_items");
            Some(4)
        }
        fn score_all(&self, _: usize, scores: &mut [f64]) {
            self.hit("score_all");
            scores.fill(5.0);
        }
        fn score_batch(&self, _: usize, _: &[u32], out: &mut [f64]) {
            self.hit("score_batch");
            out.fill(6.0);
        }
        fn score_block(&self, _: &[u32], out: &mut [f64]) {
            self.hit("score_block");
            out.fill(7.0);
        }
        fn score_block_range(&self, _: &[u32], _: usize, _: usize, out: &mut [f64]) {
            self.hit("score_block_range");
            out.fill(8.0);
        }
        fn uncertainty_all(&self, _: usize, stds: &mut [f64]) -> bool {
            self.hit("uncertainty_all");
            stds.fill(9.0);
            true
        }
        fn uncertainty_range(&self, _: usize, _: usize, _: usize, stds: &mut [f64]) -> bool {
            self.hit("uncertainty_range");
            stds.fill(10.0);
            true
        }
        fn factors(&self) -> Option<(&Mat, &Mat)> {
            self.hit("factors");
            self.u.as_ref().map(|(a, b)| (a, b))
        }
        fn fold_in_user(&self, items: &[u32], _: &[f64]) -> Result<FoldIn, FoldInError> {
            self.hit("fold_in_user");
            Ok(FoldIn {
                factors: vec![11.0],
                scores: vec![12.0; items.len()],
            })
        }
    }

    #[test]
    fn traced_model_forwards_all_thirteen_methods() {
        let probe = Arc::new(Probe {
            u: Some((Mat::zeros(1, 1), Mat::zeros(4, 1))),
            ..Probe::default()
        });
        let log = Arc::new(ModelLog::default());
        let m = TracedModel::new(probe.clone(), 0, Clock::new(), log.clone());
        let mut buf = vec![0.0; 4];
        assert_eq!(m.predict(0, 0), 1.0);
        assert_eq!(m.predict_batch(&[(0, 0)]), vec![2.0]);
        assert_eq!(m.rmse(&[(0, 0, 1.0)]), 3.0);
        assert!(m.predict_with_uncertainty(0, 0).is_none());
        assert_eq!(m.num_items(), Some(4));
        m.score_all(0, &mut buf);
        assert_eq!(buf, vec![5.0; 4]);
        m.score_batch(0, &[0, 1, 2, 3], &mut buf);
        assert_eq!(buf, vec![6.0; 4]);
        m.score_block(&[0], &mut buf);
        assert_eq!(buf, vec![7.0; 4]);
        m.score_block_range(&[0, 1], 1, 3, &mut buf);
        assert_eq!(buf, vec![8.0; 4]);
        assert!(m.uncertainty_all(0, &mut buf));
        assert_eq!(buf, vec![9.0; 4]);
        assert!(m.uncertainty_range(0, 0, 4, &mut buf));
        assert_eq!(buf, vec![10.0; 4]);
        assert_eq!(m.factors().map(|(u, v)| (u.rows(), v.rows())), Some((1, 4)));
        let f = m.fold_in_user(&[1, 2], &[3.0, 4.0]).unwrap();
        assert_eq!((f.factors, f.scores), (vec![11.0], vec![12.0, 12.0]));

        let called = probe.called.lock().unwrap().clone();
        assert_eq!(
            called,
            vec![
                "predict",
                "predict_batch",
                "rmse",
                "predict_with_uncertainty",
                "num_items",
                "score_all",
                "score_batch",
                "score_block",
                "score_block_range",
                "uncertainty_all",
                "uncertainty_range",
                "factors",
                "fold_in_user",
            ],
            "each wrapper method must reach the same method of the wrapped model, once"
        );
        // Calls that do real work are logged with their keys.
        let calls = log.take();
        assert_eq!(calls.len(), 9);
        assert_eq!(calls[4].key, CallKey::Users(vec![0]));
        assert_eq!(calls[8].key, CallKey::FoldIn(items_key(&[1, 2])));
    }

    struct ProbeRunner {
        called: Mutex<Vec<&'static str>>,
    }

    impl ItemRunner for ProbeRunner {
        fn run_items(
            &self,
            n: usize,
            _: Option<&[f64]>,
            _: Option<Adjacency<'_>>,
            f: &(dyn Fn(usize, usize) + Sync),
        ) -> RunStats {
            self.called.lock().unwrap().push("run_items");
            for i in 0..n {
                f(0, i);
            }
            RunStats {
                elapsed: std::time::Duration::from_millis(1),
                per_worker: vec![WorkerStats {
                    items: n as u64,
                    ..WorkerStats::default()
                }],
            }
        }
        fn threads(&self) -> usize {
            self.called.lock().unwrap().push("threads");
            3
        }
        fn name(&self) -> &'static str {
            self.called.lock().unwrap().push("name");
            "probe"
        }
    }

    #[test]
    fn traced_runner_forwards_and_buckets_items_by_method() {
        let probe = Box::new(ProbeRunner {
            called: Mutex::new(Vec::new()),
        });
        let runner = TracedRunner::new(probe, 1, 3, Clock::new());
        assert_eq!(runner.name(), "probe");
        // Degrees 1, 2, 3: rank-one (≤ 1), serial (2), parallel (≥ 3).
        let offsets = [0usize, 1, 3, 6];
        let indices = [0u32; 6];
        let adj = Adjacency {
            offsets: &offsets,
            indices: &indices,
            neighbor_domain: 1,
        };
        let seen = Mutex::new(Vec::new());
        let stats = runner.run_items(3, None, Some(adj), &|_, i| seen.lock().unwrap().push(i));
        assert_eq!(stats.total_items(), 3);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2]);
        let sweeps = runner.take_sweeps();
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].methods.items, [1, 1, 1]);
        assert_eq!(sweeps[0].threads, 3);
        // `threads` is forwarded too (asked once here, once by run_items).
        assert_eq!(runner.threads(), 3);
    }

    fn tiny_data() -> bpmf_dataset::Dataset {
        bpmf_dataset::chembl_like(0.002, 9)
    }

    fn chain(runner: &dyn ItemRunner, ds: &bpmf_dataset::Dataset) -> Vec<u64> {
        let cfg = BpmfConfig {
            num_latent: 8,
            burnin: 1,
            samples: 2,
            kernel_threads: 1,
            seed: 11,
            ..BpmfConfig::default()
        };
        let mut s = GibbsSampler::new(
            cfg,
            TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test),
        );
        let mut bits = Vec::new();
        for _ in 0..3 {
            let st = s.step(runner);
            bits.push(st.rmse_sample.to_bits());
        }
        bits.extend(s.user_factors().as_slice().iter().map(|x| x.to_bits()));
        bits.extend(s.movie_factors().as_slice().iter().map(|x| x.to_bits()));
        bits
    }

    #[test]
    fn wrapped_runner_gives_a_bit_identical_chain() {
        let ds = tiny_data();
        // The static engine with one thread is deterministic, so any
        // difference would come from the wrapper.
        let plain = chain(EngineKind::Static.build(1).as_ref(), &ds);
        let traced = TracedRunner::new(EngineKind::Static.build(1), 1, 1000, Clock::new());
        assert_eq!(chain(&traced, &ds), plain);
        assert_eq!(traced.take_sweeps().len(), 6, "two half-sweeps per step");
    }

    #[test]
    fn wrapped_model_gives_bit_identical_rankings() {
        let ds = tiny_data();
        let cfg = BpmfConfig {
            num_latent: 8,
            burnin: 1,
            samples: 2,
            kernel_threads: 1,
            seed: 5,
            ..BpmfConfig::default()
        };
        let mut s = GibbsSampler::new(
            cfg,
            TrainData::new(&ds.train, &ds.train_t, ds.global_mean, &ds.test),
        );
        s.run(EngineKind::Static.build(1).as_ref(), 3);
        let model: Arc<dyn Recommender + Send + Sync> = Arc::new(PosteriorModel::from_sampler(&s));
        let traced = TracedModel::new(
            model.clone(),
            0,
            Clock::new(),
            Arc::new(ModelLog::default()),
        );
        let reqs: Vec<ServeRequest> = (0..40u32)
            .map(|u| ServeRequest {
                user: u,
                top_n: 10,
                policy: if u % 3 == 0 {
                    RankPolicy::Ucb { beta: 1.0 }
                } else {
                    RankPolicy::Mean
                },
                exclude_seen: true,
            })
            .collect();
        let n_items = ds.ncols();
        let rank = |m: &dyn Recommender| -> Vec<Vec<(u32, u64)>> {
            RecommendService::new(m, n_items)
                .exclude_seen(&ds.train)
                .recommend_each(&reqs)
                .into_iter()
                .map(|l| l.into_iter().map(|r| (r.item, r.score.to_bits())).collect())
                .collect()
        };
        assert_eq!(rank(&traced), rank(model.as_ref()));
        let items: Vec<u32> = (0..5).collect();
        let a = traced.fold_in_user(&items, &[4.0; 5]).unwrap();
        let b = model.fold_in_user(&items, &[4.0; 5]).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.factors), bits(&b.factors));
        assert_eq!(bits(&a.scores), bits(&b.scores));
    }
}
