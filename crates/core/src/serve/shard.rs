//! Catalogue sharding: contiguous, GEMM-aligned item ranges a serving
//! process can pack and serve independently.
//!
//! The paper's follow-up (Vander Aa et al.) keeps each worker's owned
//! item rows on that worker and serves them directly instead of
//! gathering; this module is that topology applied to the serving tier.
//! A *shard* is a contiguous column range `[item_lo, item_hi)` of the
//! item catalogue, chosen by [`shard_ranges`] so every boundary lands on
//! a [`bpmf_linalg::GEMM_NC`] block boundary of the packed item factors
//! ([`bpmf_linalg::PackedB`]). That alignment is what buys the tier its
//! strongest property: a shard scores through a zero-copy
//! [`bpmf_linalg::PackedB::columns`] view of the model's one packed
//! buffer, so the GEMM micro-kernel performs bit-identical arithmetic per
//! item and a sharded deployment returns exactly — bit for bit — what the
//! single-process daemon returns. (Thompson draws stay shard-independent too: they are
//! keyed per `(seed, global item)`, see [`crate::serve::thompson_draw`].)
//!
//! The pieces:
//!
//! * [`ShardSpec`] — which slice a process serves, carried in checkpoints
//!   ([`crate::checkpoint::SamplerCheckpoint`]) and in `health` replies so
//!   mixed-epoch deployments are detectable;
//! * [`shard_ranges`] — the NC-aligned partition itself;
//! * [`ShardView`] — a [`Recommender`] adaptor that scores one range of a
//!   full model through the model's range primitive
//!   ([`Recommender::score_block_range`]);
//! * [`slice_train_columns`] — the matching slice of the training matrix,
//!   so exclude-seen filtering works shard-locally;
//! * [`merge_top_n`] — the k-way merge the router uses to splice
//!   per-shard top-N lists (already sorted, global ids) back into one
//!   ranking.

use bpmf_linalg::GEMM_NC;
use bpmf_sparse::{Coo, Csr};

use crate::api::Recommender;
use crate::sampler::PredictionSummary;
use crate::serve::wire::RankedItem;

/// Which slice of the catalogue a serving process owns, and which
/// training epoch its factors came from.
///
/// Carried inside checkpoints (so `serve-daemon --shard i/N` can verify
/// it serves what it loaded) and in `health` replies (so the router can
/// flag mixed-epoch deployments). Every field is `#[serde(default)]`:
/// specs written by future versions still parse.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardSpec {
    /// This shard's index, `0 ≤ shard_id < num_shards`.
    #[serde(default)]
    pub shard_id: u32,
    /// Total shards the catalogue is split into.
    #[serde(default)]
    pub num_shards: u32,
    /// First global item id this shard serves (inclusive).
    #[serde(default)]
    pub item_lo: u32,
    /// One past the last global item id this shard serves.
    #[serde(default)]
    pub item_hi: u32,
    /// Training epoch (sampler iteration) the served factors came from.
    #[serde(default)]
    pub epoch: u64,
}

impl ShardSpec {
    /// The spec for shard `shard_id` of `num_shards` over an
    /// `n_items`-item catalogue, with boundaries from [`shard_ranges`].
    ///
    /// # Panics
    ///
    /// Panics when `shard_id >= num_shards` or `num_shards == 0`.
    pub fn for_shard(shard_id: u32, num_shards: u32, n_items: usize, epoch: u64) -> ShardSpec {
        assert!(
            shard_id < num_shards,
            "shard {shard_id} out of 0..{num_shards}"
        );
        let (lo, hi) = shard_ranges(n_items, num_shards as usize)[shard_id as usize];
        ShardSpec {
            shard_id,
            num_shards,
            item_lo: lo as u32,
            item_hi: hi as u32,
            epoch,
        }
    }

    /// Items this shard serves (`item_hi − item_lo`).
    pub fn width(&self) -> usize {
        (self.item_hi - self.item_lo) as usize
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} items [{}, {}) epoch {}",
            self.shard_id, self.num_shards, self.item_lo, self.item_hi, self.epoch
        )
    }
}

/// Split an `n_items` catalogue into `num_shards` contiguous ranges whose
/// boundaries all land on [`GEMM_NC`] block boundaries (the last range
/// ends at `n_items`). The NC blocks are dealt out as evenly as possible,
/// leading shards first; with more shards than blocks the surplus shards
/// get empty ranges (`lo == hi`), which serve zero items but stay
/// protocol-correct.
///
/// Covers the catalogue exactly: ranges are adjacent, in order, and union
/// to `[0, n_items)`.
pub fn shard_ranges(n_items: usize, num_shards: usize) -> Vec<(usize, usize)> {
    assert!(num_shards > 0, "need at least one shard");
    let nblocks = n_items.div_ceil(GEMM_NC);
    let base = nblocks / num_shards;
    let extra = nblocks % num_shards;
    let mut ranges = Vec::with_capacity(num_shards);
    let mut block = 0usize;
    for s in 0..num_shards {
        let lo = (block * GEMM_NC).min(n_items);
        block += base + usize::from(s < extra);
        let hi = (block * GEMM_NC).min(n_items);
        ranges.push((lo, hi));
    }
    ranges
}

/// One shard of a full model: a [`Recommender`] whose catalogue is the
/// item range `[lo, hi)` of the wrapped model's, in *local* coordinates
/// (`0..hi − lo`).
///
/// The view **owns** its model (an `Arc`, shared with whoever else serves
/// it), so a shard can live inside a swapped [`crate::ModelHandle`]
/// version: a zero-downtime `reload` builds a fresh full model, wraps it
/// in a new view for the same range, and publishes the pair atomically.
///
/// The view implements only the two range primitives
/// ([`Recommender::score_block_range`] /
/// [`Recommender::uncertainty_range`]), offset into the wrapped model's;
/// the whole-catalogue entry points are the trait's, over the view's own
/// `[0, hi − lo)`. On factor models a shard's scores therefore come out
/// of the same GEMM over the same packed buffer as the full model's. Pair
/// with [`crate::serve::RecommendService::item_base`]`(lo)` so replies
/// carry global ids and Thompson draws key on them.
pub struct ShardView {
    inner: std::sync::Arc<dyn Recommender + Send + Sync>,
    lo: usize,
    hi: usize,
}

impl ShardView {
    /// View of `model`'s items `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics on an inverted range, or one out of bounds when the model
    /// knows its catalogue size.
    pub fn new(model: std::sync::Arc<dyn Recommender + Send + Sync>, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "bad item range [{lo}, {hi})");
        if let Some(n) = model.num_items() {
            assert!(hi <= n, "item range [{lo}, {hi}) out of 0..{n}");
        }
        ShardView {
            inner: model,
            lo,
            hi,
        }
    }

    /// First global item id served (inclusive).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// One past the last global item id served.
    pub fn hi(&self) -> usize {
        self.hi
    }
}

impl Recommender for ShardView {
    fn predict(&self, user: usize, movie: usize) -> f64 {
        debug_assert!(movie < self.hi - self.lo, "local item out of shard");
        self.inner.predict(user, self.lo + movie)
    }

    fn predict_with_uncertainty(&self, user: usize, movie: usize) -> Option<PredictionSummary> {
        self.inner.predict_with_uncertainty(user, self.lo + movie)
    }

    fn num_items(&self) -> Option<usize> {
        Some(self.hi - self.lo)
    }

    fn score_block_range(&self, users: &[u32], lo: usize, hi: usize, out: &mut [f64]) {
        assert!(lo <= hi && self.lo + hi <= self.hi, "range out of shard");
        self.inner
            .score_block_range(users, self.lo + lo, self.lo + hi, out);
    }

    fn uncertainty_range(&self, user: usize, lo: usize, hi: usize, stds: &mut [f64]) -> bool {
        assert!(lo <= hi && self.lo + hi <= self.hi, "range out of shard");
        self.inner
            .uncertainty_range(user, self.lo + lo, self.lo + hi, stds)
    }

    /// Fold-in runs against the *full* wrapped model (the rated items are
    /// global ids and may live outside this shard's range — the inner
    /// model carries the whole catalogue's factors), then the scores are
    /// sliced down to this shard's `[lo, hi)` so the reply matches the
    /// rest of the shard's serving surface.
    fn fold_in_user(
        &self,
        items: &[u32],
        ratings: &[f64],
    ) -> Result<crate::api::FoldIn, crate::api::FoldInError> {
        let mut fold = self.inner.fold_in_user(items, ratings)?;
        fold.scores = fold.scores[self.lo..self.hi].to_vec();
        Ok(fold)
    }
}

/// The training matrix restricted to item columns `[lo, hi)`, remapped to
/// local ids `0..hi − lo` — what a shard daemon hands
/// [`crate::serve::RecommendService::exclude_seen`] so seen-item
/// filtering works against its local catalogue.
pub fn slice_train_columns(train: &Csr, lo: usize, hi: usize) -> Csr {
    assert!(
        lo <= hi && hi <= train.ncols(),
        "column range [{lo}, {hi}) out of 0..{}",
        train.ncols()
    );
    let mut coo = Coo::new(train.nrows(), hi - lo);
    for (i, j, v) in train.iter() {
        let j = j as usize;
        if (lo..hi).contains(&j) {
            coo.push(i, j - lo, v);
        }
    }
    Csr::from_coo_owned(coo)
}

/// `a` outranks `b` under the serving order: higher score first, ties to
/// the smaller item id — the same total order
/// [`crate::serve::RecommendService`] sorts by, which is what makes the
/// merge reproduce the single-process ranking exactly.
fn outranks(a: &RankedItem, b: &RankedItem) -> bool {
    match a.score.total_cmp(&b.score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.item < b.item,
    }
}

/// K-way merge of per-shard top-N lists into one global top-`n`.
///
/// Each input list must be sorted best-first under the serving order
/// (score descending, ties by ascending item id) and carry *global* item
/// ids — which is exactly what a shard daemon replies with. The merge
/// repeatedly takes the best head among the `S` lists: `O(n · S)`
/// comparisons, no heap, no allocation beyond the output. Because every
/// shard contributes its own top `n`, the union of heads provably
/// contains the global top `n`.
///
/// Handles ragged input (a shard with fewer than `n` candidates, or none
/// at all) and degenerates to a copy for a single shard.
pub fn merge_top_n(shards: &[Vec<RankedItem>], n: usize) -> Vec<RankedItem> {
    let mut cursor = vec![0usize; shards.len()];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut best: Option<(usize, RankedItem)> = None;
        for (s, list) in shards.iter().enumerate() {
            if let Some(&cand) = list.get(cursor[s]) {
                let take = match &best {
                    Some((_, incumbent)) => outranks(&cand, incumbent),
                    None => true,
                };
                if take {
                    best = Some((s, cand));
                }
            }
        }
        match best {
            Some((s, item)) => {
                cursor[s] += 1;
                out.push(item);
            }
            None => break, // every list exhausted
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ri(item: u32, score: f64) -> RankedItem {
        RankedItem { item, score }
    }

    #[test]
    fn ranges_cover_the_catalogue_contiguously_and_aligned() {
        for (n_items, shards) in [
            (1usize, 1usize),
            (17, 4),
            (GEMM_NC, 2),
            (3 * GEMM_NC + 77, 4),
            (10 * GEMM_NC + 1, 3),
            (5, 8), // more shards than blocks
        ] {
            let ranges = shard_ranges(n_items, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[shards - 1].1, n_items);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be adjacent: {ranges:?}");
            }
            for &(lo, hi) in &ranges {
                assert!(lo <= hi);
                // Starts are NC-aligned except for empty tail shards
                // clamped to the catalogue end (they pack nothing).
                assert!(
                    lo % GEMM_NC == 0 || lo == n_items,
                    "unaligned start in {ranges:?}"
                );
            }
        }
    }

    #[test]
    fn ranges_balance_blocks_evenly() {
        let ranges = shard_ranges(5 * GEMM_NC, 2);
        // 5 blocks over 2 shards: 3 + 2.
        assert_eq!(ranges, vec![(0, 3 * GEMM_NC), (3 * GEMM_NC, 5 * GEMM_NC)]);
    }

    #[test]
    fn spec_for_shard_matches_ranges_and_prints() {
        let spec = ShardSpec::for_shard(1, 4, 5 * GEMM_NC + 9, 7);
        let ranges = shard_ranges(5 * GEMM_NC + 9, 4);
        assert_eq!(
            (spec.item_lo as usize, spec.item_hi as usize),
            ranges[1],
            "spec must agree with shard_ranges"
        );
        assert_eq!(spec.width(), ranges[1].1 - ranges[1].0);
        let shown = spec.to_string();
        assert!(shown.contains("1/4"), "{shown}");
    }

    #[test]
    fn slice_train_columns_remaps_and_filters() {
        let mut coo = Coo::new(3, 10);
        for (u, m, r) in [(0, 1, 5.0), (0, 4, 3.0), (1, 4, 4.0), (2, 9, 2.0)] {
            coo.push(u, m, r);
        }
        let train = Csr::from_coo_owned(coo);
        let sliced = slice_train_columns(&train, 4, 9);
        assert_eq!((sliced.nrows(), sliced.ncols()), (3, 5));
        assert_eq!(sliced.row(0), (&[0u32][..], &[3.0][..])); // global 4 → local 0
        assert_eq!(sliced.row(1), (&[0u32][..], &[4.0][..]));
        assert_eq!(sliced.row(2).0, &[] as &[u32]); // global 9 is outside [4, 9)
    }

    #[test]
    fn merge_matches_brute_force_and_breaks_ties_by_item() {
        let shards = vec![
            vec![ri(0, 5.0), ri(3, 3.0), ri(6, 1.0)],
            vec![ri(10, 5.0), ri(11, 3.0)],
            vec![], // empty shard
            vec![ri(20, 4.0)],
        ];
        let got = merge_top_n(&shards, 4);
        // Brute force: concatenate and argsort under the serving order.
        let mut all: Vec<RankedItem> = shards.iter().flatten().copied().collect();
        all.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.item.cmp(&b.item))
        });
        all.truncate(4);
        assert_eq!(got, all);
        // The 5.0 tie went to item 0, not item 10.
        assert_eq!(got[0].item, 0);
        assert_eq!(got[1].item, 10);
    }

    #[test]
    fn merge_degenerate_cases() {
        // One shard: a copy (truncated).
        let one = vec![vec![ri(2, 9.0), ri(5, 8.0), ri(1, 7.0)]];
        assert_eq!(merge_top_n(&one, 2), vec![ri(2, 9.0), ri(5, 8.0)]);
        // Fewer candidates than n: everything, still sorted.
        assert_eq!(merge_top_n(&one, 10).len(), 3);
        // No shards / all empty.
        assert!(merge_top_n(&[], 5).is_empty());
        assert!(merge_top_n(&[vec![], vec![]], 5).is_empty());
    }
}
