//! Integration: the serving layer returns exactly what a brute-force
//! reference computes — for every ranking policy and filter combination —
//! and the batched scoring entry points agree with per-pair prediction
//! for every algorithm behind the unified trait.

use bpmf::serve::{thompson_draw, RankPolicy, RecommendService, Recommendation};
use bpmf::{
    Algorithm, Bpmf, NoCallback, Patience, Recommender, TrainData, Trainer, WallClockBudget,
};
use bpmf_baselines::make_trainer;
use bpmf_dataset::{movielens_like, Dataset};

fn dataset() -> Dataset {
    movielens_like(0.01, 77)
}

fn fit(algorithm: Algorithm, ds: &Dataset) -> Box<dyn Trainer> {
    let spec = Bpmf::builder()
        .algorithm(algorithm)
        .latent(6)
        .burnin(3)
        .samples(6)
        .sweeps(6)
        .epochs(6)
        .seed(19)
        .threads(1)
        .kernel_threads(1)
        .rating_bounds(0.5, 5.0)
        .build()
        .unwrap();
    let runner = spec.runner();
    let mut trainer = make_trainer(&spec);
    trainer
        .fit(
            &TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test).unwrap(),
            runner.as_ref(),
            &mut NoCallback,
        )
        .unwrap();
    trainer
}

/// Brute force: score every candidate per-pair, full argsort, take n.
fn brute_force_top_n(
    model: &dyn Recommender,
    ds: &Dataset,
    user: usize,
    n: usize,
    exclude_seen: bool,
    deny: &[u32],
    score: impl Fn(usize, usize, f64) -> f64,
) -> Vec<u32> {
    let (seen, _) = ds.train.row(user);
    let deny: std::collections::HashSet<u32> = deny.iter().copied().collect();
    let mut all: Vec<(u32, f64)> = (0..ds.ncols() as u32)
        .filter(|m| !(deny.contains(m) || (exclude_seen && seen.binary_search(m).is_ok())))
        .map(|m| {
            let mean = model.predict(user, m as usize);
            (m, score(user, m as usize, mean))
        })
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all.truncate(n);
    all.into_iter().map(|(m, _)| m).collect()
}

fn items(recs: &[Recommendation]) -> Vec<u32> {
    recs.iter().map(|r| r.item).collect()
}

#[test]
fn mean_top_n_matches_brute_force_argsort_with_filters() {
    let ds = dataset();
    let deny = [3u32, 11, 19];
    for algorithm in [Algorithm::Gibbs, Algorithm::Als, Algorithm::Sgd] {
        let trainer = fit(algorithm, &ds);
        let model = trainer.recommender().unwrap();
        let mut service = RecommendService::new(model, ds.ncols())
            .exclude_seen(&ds.train)
            .deny(&deny);
        for user in [0usize, 3, 7, 11] {
            let got = items(&service.top_n(user, 10));
            let expect = brute_force_top_n(model, &ds, user, 10, true, &deny, |_, _, mean| mean);
            assert_eq!(got, expect, "{algorithm}, user {user}");
        }
    }
}

#[test]
fn min_support_filter_matches_a_hand_count() {
    let ds = dataset();
    let trainer = fit(Algorithm::Als, &ds);
    let model = trainer.recommender().unwrap();

    // Reference support counts.
    let mut support = vec![0u32; ds.ncols()];
    for (_, j, _) in ds.train.iter() {
        support[j as usize] += 1;
    }
    let min_support = 3u32;

    let mut service = RecommendService::new(model, ds.ncols())
        .exclude_seen(&ds.train)
        .min_support(min_support);
    let top = service.top_n(2, 25);
    assert!(!top.is_empty());
    for r in &top {
        assert!(
            support[r.item as usize] >= min_support,
            "item {} has support {}",
            r.item,
            support[r.item as usize]
        );
    }
    // And it is exactly the brute force restricted to supported items.
    let (seen, _) = ds.train.row(2);
    let mut expect: Vec<(u32, f64)> = (0..ds.ncols() as u32)
        .filter(|m| seen.binary_search(m).is_err() && support[*m as usize] >= min_support)
        .map(|m| (m, model.predict(2, m as usize)))
        .collect();
    expect.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    expect.truncate(25);
    assert_eq!(
        items(&top),
        expect.into_iter().map(|(m, _)| m).collect::<Vec<_>>()
    );
}

#[test]
fn ucb_top_n_matches_brute_force_reference() {
    let ds = dataset();
    let trainer = fit(Algorithm::Gibbs, &ds);
    let model = trainer.recommender().unwrap();
    let beta = 0.7;
    let mut service = RecommendService::new(model, ds.ncols())
        .exclude_seen(&ds.train)
        .policy(RankPolicy::Ucb { beta });
    for user in [1usize, 5, 9] {
        let got = items(&service.top_n(user, 8));
        let expect = brute_force_top_n(model, &ds, user, 8, true, &[], |u, m, mean| {
            mean + beta * model.predict_with_uncertainty(u, m).map_or(0.0, |s| s.std)
        });
        assert_eq!(got, expect, "user {user}");
    }
    // UCB must actually use the posterior: with a huge beta the ranking
    // diverges from the pure mean ranking somewhere.
    let mut mean_service = RecommendService::new(model, ds.ncols()).exclude_seen(&ds.train);
    let mut explore = RecommendService::new(model, ds.ncols())
        .exclude_seen(&ds.train)
        .policy(RankPolicy::Ucb { beta: 50.0 });
    let diverged =
        (0..ds.nrows()).any(|u| items(&mean_service.top_n(u, 5)) != items(&explore.top_n(u, 5)));
    assert!(diverged, "beta=50 UCB never changed any top-5");
}

#[test]
fn thompson_top_n_matches_a_per_item_draw_reference() {
    let ds = dataset();
    let trainer = fit(Algorithm::Gibbs, &ds);
    let model = trainer.recommender().unwrap();
    let seed = 123u64;
    let user = 4usize;

    let mut service = RecommendService::new(model, ds.ncols())
        .exclude_seen(&ds.train)
        .policy(RankPolicy::Thompson { seed });
    let got = service.top_n(user, 10);

    // Replay: draws are stateless per (seed, item) — `thompson_draw` —
    // so the reference scores each candidate independently, in any
    // order, and still reproduces the service's ranking.
    let (seen, _) = ds.train.row(user);
    let mut scored: Vec<(u32, f64)> = (0..ds.ncols() as u32)
        .filter(|m| seen.binary_search(m).is_err())
        .map(|m| {
            let mean = model.predict(user, m as usize);
            let std = model
                .predict_with_uncertainty(user, m as usize)
                .map_or(0.0, |s| s.std);
            (m, thompson_draw(seed, m as u64, mean, std))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(10);

    assert_eq!(
        items(&got),
        scored.iter().map(|(m, _)| *m).collect::<Vec<_>>()
    );
    // The service's means come from the GEMM (different summation order
    // than per-pair `predict`), so draws agree to rounding — not bitwise.
    for (g, (_, s)) in got.iter().zip(&scored) {
        assert!(
            (g.score - s).abs() < 1e-9,
            "draw mismatch: {} vs {s}",
            g.score
        );
    }
}

#[test]
fn overridden_score_batch_and_score_all_match_the_trait_default() {
    /// Strips a model down to `predict`, so the trait *defaults* run.
    struct DefaultOnly<'a>(&'a dyn Recommender);
    impl Recommender for DefaultOnly<'_> {
        fn predict(&self, user: usize, movie: usize) -> f64 {
            self.0.predict(user, movie)
        }
    }

    let ds = dataset();
    for algorithm in [Algorithm::Als, Algorithm::Sgd, Algorithm::Gibbs] {
        let trainer = fit(algorithm, &ds);
        let model = trainer.recommender().unwrap();
        let default_path = DefaultOnly(model);

        let items: Vec<u32> = (0..ds.ncols() as u32).step_by(3).collect();
        let mut fast = vec![0.0; items.len()];
        let mut slow = vec![0.0; items.len()];
        let mut fast_all = vec![0.0; ds.ncols()];
        let mut slow_all = vec![0.0; ds.ncols()];
        for user in 0..ds.nrows().min(12) {
            model.score_batch(user, &items, &mut fast);
            default_path.score_batch(user, &items, &mut slow);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "{algorithm} score_batch: user {user} item {} differs: {a} vs {b}",
                    items[i]
                );
            }
            model.score_all(user, &mut fast_all);
            default_path.score_all(user, &mut slow_all);
            for (m, (a, b)) in fast_all.iter().zip(&slow_all).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "{algorithm} score_all: user {user} item {m} differs: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn score_block_matches_per_user_score_all_for_every_algorithm() {
    /// Strips a model down to `predict`, so the trait *defaults* run.
    struct DefaultOnly<'a>(&'a dyn Recommender);
    impl Recommender for DefaultOnly<'_> {
        fn predict(&self, user: usize, movie: usize) -> f64 {
            self.0.predict(user, movie)
        }
    }

    let ds = dataset();
    // Deliberately awkward block: repeated users, non-multiple of every
    // register-tile height, reverse order.
    let users: Vec<u32> = vec![5, 0, 3, 3, 11, 2, 9];
    for algorithm in [Algorithm::Gibbs, Algorithm::Als, Algorithm::Sgd] {
        let trainer = fit(algorithm, &ds);
        let model = trainer.recommender().unwrap();
        let n = ds.ncols();
        let mut block = vec![f64::NAN; users.len() * n];
        model.score_block(&users, &mut block);
        let mut row = vec![0.0; n];
        for (i, &u) in users.iter().enumerate() {
            model.score_all(u as usize, &mut row);
            for (m, (a, b)) in block[i * n..(i + 1) * n].iter().zip(&row).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{algorithm} user {u} item {m}: block {a} vs score_all {b}"
                );
            }
        }
        // The trait default (per-user loop over `predict`) agrees too.
        let default_path = DefaultOnly(model);
        let mut default_block = vec![f64::NAN; users.len() * n];
        default_path.score_block(&users, &mut default_block);
        for (i, (a, b)) in block.iter().zip(&default_block).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "{algorithm} slot {i}: GEMM {a} vs default {b}"
            );
        }
        // Degenerate block.
        model.score_block(&[], &mut []);
    }
}

#[test]
fn recommend_batch_matches_per_user_top_n_for_every_policy() {
    let ds = dataset();
    let trainer = fit(Algorithm::Gibbs, &ds);
    let model = trainer.recommender().unwrap();
    // More users than one MICRO_BATCH block, out of order, with repeats.
    let users: Vec<u32> = (0..ds.nrows() as u32).rev().chain([3, 3, 7]).collect();
    for policy in [
        RankPolicy::Mean,
        RankPolicy::Ucb { beta: 0.8 },
        RankPolicy::Thompson { seed: 99 },
    ] {
        let mut batch_service = RecommendService::new(model, ds.ncols())
            .exclude_seen(&ds.train)
            .policy(policy);
        let lists = batch_service.recommend_batch(&users, 9);
        assert_eq!(lists.len(), users.len());

        let mut single_service = RecommendService::new(model, ds.ncols())
            .exclude_seen(&ds.train)
            .policy(policy);
        for (&u, list) in users.iter().zip(&lists) {
            let direct = single_service.top_n(u as usize, 9);
            assert_eq!(
                items(list),
                items(&direct),
                "policy {policy:?}, user {u}: batch and per-user rankings differ"
            );
            for (a, b) in list.iter().zip(&direct) {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "policy {policy:?} user {u}: {} vs {}",
                    a.score,
                    b.score
                );
            }
        }
    }
}

#[test]
fn patience_stops_training_and_wall_clock_budget_is_respected() {
    let ds = dataset();
    let spec = Bpmf::builder()
        .latent(4)
        .burnin(2)
        .samples(40)
        .seed(5)
        .threads(1)
        .kernel_threads(1)
        .build()
        .unwrap();
    let runner = spec.runner();

    // Patience 2 with a 1e-3 improvement floor: the posterior-mean RMSE
    // keeps improving by shrinking 1/n amounts as averaging smooths it, so
    // a meaningful min_delta is what turns the tail into "no progress".
    let mut trainer = spec.gibbs_trainer();
    let mut patience = Patience::new(2, 1e-3);
    let report = trainer
        .fit(
            &TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test).unwrap(),
            runner.as_ref(),
            &mut patience,
        )
        .unwrap();
    assert!(report.early_stopped, "patience never triggered");
    assert!(report.iters.len() < 42);
    assert!(patience.best_rmse().is_finite());

    // A zero wall-clock budget stops after the very first iteration.
    let mut trainer = spec.gibbs_trainer();
    let mut budget = WallClockBudget::new(std::time::Duration::ZERO);
    let report = trainer
        .fit(
            &TrainData::try_new(&ds.train, &ds.train_t, ds.global_mean, &ds.test).unwrap(),
            runner.as_ref(),
            &mut budget,
        )
        .unwrap();
    assert!(report.early_stopped);
    assert_eq!(report.iters.len(), 1);
}

#[test]
fn ranking_eval_and_serving_share_one_path() {
    // evaluate_ranking_model must equal evaluate_ranking over the same
    // scorer — the closure path is just the model path in disguise.
    let ds = dataset();
    let trainer = fit(Algorithm::Gibbs, &ds);
    let model = trainer.recommender().unwrap();
    let via_model = bpmf_baselines::evaluate_ranking_model(&ds.train, &ds.test, 10, 4.0, model);
    let via_closure =
        bpmf_baselines::evaluate_ranking(&ds.train, &ds.test, 10, 4.0, |u, m| model.predict(u, m));
    assert_eq!(via_model.users_evaluated, via_closure.users_evaluated);
    assert!((via_model.precision - via_closure.precision).abs() < 1e-12);
    assert!((via_model.recall - via_closure.recall).abs() < 1e-12);
    assert!((via_model.ndcg - via_closure.ndcg).abs() < 1e-12);
    assert!((via_model.hit_rate - via_closure.hit_rate).abs() < 1e-12);
}
