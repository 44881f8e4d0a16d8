//! The factor model produced by the baseline trainers.

use bpmf_linalg::Mat;

/// A trained matrix-factorization model: `r̂(u,m) = mean + b_u + b_m + U_u · V_m`.
///
/// ALS leaves the bias vectors zero (its regularized normal equations
/// absorb per-item offsets into the factors); biased SGD fits them. Either
/// way prediction and evaluation are uniform, so benchmark tables can treat
/// every algorithm identically.
#[derive(Clone, Debug)]
pub struct MfModel {
    /// User factors, `nrows × k`.
    pub user_factors: Mat,
    /// Movie factors, `ncols × k`.
    pub movie_factors: Mat,
    /// Per-user additive bias (empty = zeros).
    pub user_bias: Vec<f64>,
    /// Per-movie additive bias (empty = zeros).
    pub movie_bias: Vec<f64>,
    /// Training-set global mean the residuals were centered on.
    pub global_mean: f64,
    /// Optional rating-scale clamp applied to predictions.
    pub clip: Option<(f64, f64)>,
    /// Transposed movie factors in the GEMM's cache-blocked packed layout
    /// (`bpmf_linalg::PackedB`), built on the first scoring call — the `B`
    /// operand behind `Recommender::score_block_range`. Built
    /// lazily from `movie_factors`; code that mutates `movie_factors`
    /// after a scoring call must call [`MfModel::invalidate_packed_cache`]
    /// or block scores will keep serving the stale factors.
    movie_factors_packed: std::sync::OnceLock<bpmf_linalg::PackedB>,
}

impl MfModel {
    /// Fresh zero-bias model around `global_mean`.
    pub fn new(user_factors: Mat, movie_factors: Mat, global_mean: f64) -> Self {
        MfModel {
            user_factors,
            movie_factors,
            user_bias: Vec::new(),
            movie_bias: Vec::new(),
            global_mean,
            clip: None,
            movie_factors_packed: std::sync::OnceLock::new(),
        }
    }

    /// Number of latent dimensions.
    pub fn k(&self) -> usize {
        self.user_factors.cols()
    }

    /// Transposed movie factors in the GEMM's packed layout, cached after
    /// the first call.
    pub fn movie_factors_packed(&self) -> &bpmf_linalg::PackedB {
        self.movie_factors_packed
            .get_or_init(|| bpmf_linalg::PackedB::pack_transposed_from(&self.movie_factors))
    }

    /// Drop the packed-factor cache so the next scoring call rebuilds it.
    ///
    /// The fields of this model are public for the baseline trainers'
    /// convenience; anything that mutates `movie_factors` after a scoring
    /// call (another ALS sweep, a hot factor swap) must call this, or
    /// `score_block_range` — and everything on it, like
    /// `RecommendService::top_n` — will keep scoring against the factors
    /// as they were when the cache was built, silently diverging from
    /// `predict`.
    pub fn invalidate_packed_cache(&mut self) {
        self.movie_factors_packed = std::sync::OnceLock::new();
    }

    /// Predicted rating for `(user, movie)`.
    pub fn predict(&self, user: usize, movie: usize) -> f64 {
        let u = self.user_factors.row(user);
        let v = self.movie_factors.row(movie);
        let mut p = self.global_mean + bpmf_linalg::vecops::dot(u, v);
        if !self.user_bias.is_empty() {
            p += self.user_bias[user];
        }
        if !self.movie_bias.is_empty() {
            p += self.movie_bias[movie];
        }
        match self.clip {
            Some((lo, hi)) => p.clamp(lo, hi),
            None => p,
        }
    }

    /// RMSE over a held-out `(user, movie, rating)` set.
    pub fn rmse_on(&self, test: &[(u32, u32, f64)]) -> f64 {
        crate::metrics::rmse(test, |u, m| self.predict(u, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> MfModel {
        let mut u = Mat::zeros(2, 2);
        u.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        u.row_mut(1).copy_from_slice(&[0.0, 2.0]);
        let mut v = Mat::zeros(2, 2);
        v.row_mut(0).copy_from_slice(&[3.0, 0.0]);
        v.row_mut(1).copy_from_slice(&[0.0, -1.0]);
        MfModel::new(u, v, 1.0)
    }

    #[test]
    fn prediction_is_mean_plus_dot() {
        let m = tiny_model();
        assert_eq!(m.predict(0, 0), 1.0 + 3.0);
        assert_eq!(m.predict(1, 1), 1.0 - 2.0);
        assert_eq!(m.predict(0, 1), 1.0);
    }

    #[test]
    fn biases_add_when_present() {
        let mut m = tiny_model();
        m.user_bias = vec![0.5, -0.5];
        m.movie_bias = vec![0.25, 0.0];
        assert_eq!(m.predict(0, 0), 1.0 + 3.0 + 0.5 + 0.25);
        assert_eq!(m.predict(1, 1), 1.0 - 2.0 - 0.5);
    }

    #[test]
    fn clip_clamps_predictions() {
        let mut m = tiny_model();
        m.clip = Some((0.0, 3.0));
        assert_eq!(m.predict(0, 0), 3.0); // raw 4.0
        assert_eq!(m.predict(1, 1), 0.0); // raw -1.0
    }

    #[test]
    fn rmse_on_exact_predictions_is_zero() {
        let m = tiny_model();
        let test = vec![(0, 0, 4.0), (1, 1, -1.0)];
        assert!(m.rmse_on(&test) < 1e-15);
    }
}
