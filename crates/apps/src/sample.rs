//! Distributed uniform sampling and k-means++ initialization.
//!
//! Picking initial centroids requires a uniform sample of the dataset — but
//! reservoir sampling is order-*sensitive*, so it cannot be a reduction
//! object. The **bottom-k sketch** can: tag every record with a
//! deterministic pseudo-random key (a hash of its global id) and keep the k
//! records with the smallest keys. "Smallest k of a set" is
//! order-insensitive and merges exactly, and because the keys are uniform
//! the surviving records are a uniform sample. One framework pass yields the
//! sample; k-means++ then runs on it locally.

use crate::knn::KnnApp;
use crate::points;
use crate::{expect_records, records};
use cb_simnet::DetRng;
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp, ReductionObject};

/// Deterministic 64-bit mix of a record id (splitmix64 finalizer) — the
/// pseudo-random sampling key.
pub fn sample_key(id: u64, salt: u64) -> u64 {
    let mut z = id ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bounded, mergeable uniform sample of points: the `k` records with the
/// smallest sampling keys seen so far.
#[derive(Debug, Clone)]
pub struct BottomKSample {
    k: usize,
    /// `(key, point)`, kept as a max-by-key binary heap via sort-on-insert
    /// batching: we keep a Vec and prune when it doubles — simpler than a
    /// heap of non-Ord payloads, same asymptotics for our sizes.
    entries: Vec<(u64, Vec<f32>)>,
    /// The largest kept key after the last prune that left `k` entries.
    /// Those `k` keys are all at or below it, so a key at or above it can
    /// never make the sample (a tie loses to the entry already kept).
    threshold: Option<u64>,
}

impl BottomKSample {
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        BottomKSample {
            k,
            entries: Vec::with_capacity(2 * k),
            threshold: None,
        }
    }

    pub fn offer(&mut self, key: u64, point: Vec<f32>) {
        self.offer_with(key, || point);
    }

    /// [`offer`](Self::offer), building the point only if `key` can still
    /// make the sample.
    pub fn offer_with(&mut self, key: u64, point: impl FnOnce() -> Vec<f32>) {
        if self.threshold.is_some_and(|t| key >= t) {
            return;
        }
        self.entries.push((key, point()));
        if self.entries.len() >= 2 * self.k {
            self.prune();
        }
    }

    fn prune(&mut self) {
        self.entries.sort_by_key(|(k, _)| *k);
        self.entries.dedup_by_key(|(k, _)| *k);
        self.entries.truncate(self.k);
        if self.entries.len() == self.k {
            self.threshold = self.entries.last().map(|(k, _)| *k);
        }
    }

    /// The sample, in ascending key order (canonical).
    pub fn into_points(mut self) -> Vec<Vec<f32>> {
        self.prune();
        self.entries.into_iter().map(|(_, p)| p).collect()
    }
}

impl ReductionObject for BottomKSample {
    fn merge(&mut self, other: Self) {
        assert_eq!(self.k, other.k, "merging samples of different k");
        self.entries.extend(other.entries);
        self.prune();
    }
    fn size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, p)| 8 + p.len() * 4)
            .sum::<usize>()
            .min(self.k * 64)
    }
}

/// The sampling application: one pass yields a uniform sample of `k` points.
#[derive(Debug, Clone)]
pub struct SampleApp {
    pub dim: usize,
    pub k: usize,
    /// Salt for the sampling keys: different salts give independent samples.
    pub salt: u64,
}

impl SampleApp {
    pub fn new(dim: usize, k: usize, salt: u64) -> Self {
        assert!(dim > 0 && k > 0);
        SampleApp { dim, k, salt }
    }
}

impl GRApp for SampleApp {
    /// `(global id, coordinates)`.
    type Unit = (u64, Vec<f32>);
    type RObj = BottomKSample;
    type Params = ();

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<(u64, Vec<f32>)> {
        expect_records(meta, bytes, points::unit_bytes(self.dim))
            .enumerate()
            .map(|(i, rec)| (KnnApp::unit_id(meta, self.dim, i), points::point(rec)))
            .collect()
    }

    fn init(&self, _: &()) -> BottomKSample {
        BottomKSample::new(self.k)
    }

    fn local_reduce(&self, _: &(), robj: &mut BottomKSample, unit: &(u64, Vec<f32>)) {
        robj.offer_with(sample_key(unit.0, self.salt), || unit.1.clone());
    }

    fn fold_chunk(
        &self,
        _: &(),
        robj: &mut BottomKSample,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let recs = records(meta, bytes, points::unit_bytes(self.dim))?;
        for (i, rec) in recs.enumerate() {
            let id = KnnApp::unit_id(meta, self.dim, i);
            robj.offer_with(sample_key(id, self.salt), || points::point(rec));
        }
        Ok(meta.units)
    }
}

/// k-means++ seeding over a (sampled) point set: the first centroid is
/// uniform, each further centroid is drawn proportionally to its squared
/// distance from the nearest already-chosen centroid.
pub fn kmeans_plus_plus(sample: &[Vec<f32>], k: usize, seed: u64) -> Vec<f64> {
    assert!(!sample.is_empty(), "cannot seed from an empty sample");
    assert!(k > 0);
    debug_assert!(
        sample.iter().all(|p| p.len() == sample[0].len()),
        "ragged sample"
    );
    let mut rng = DetRng::new(seed);
    let mut centers: Vec<&[f32]> = vec![&sample[rng.index(sample.len())]];
    let mut d2: Vec<f64> = sample
        .iter()
        .map(|p| points::dist2(p, centers[0]))
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining mass is on already-chosen points (duplicates):
            // fall back to uniform.
            rng.index(sample.len())
        } else {
            let mut target = rng.uniform() * total;
            let mut idx = 0;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        centers.push(&sample[next]);
        let c = centers[centers.len() - 1];
        for (i, p) in sample.iter().enumerate() {
            d2[i] = d2[i].min(points::dist2(p, c));
        }
    }
    centers
        .into_iter()
        .flat_map(|c| c.iter().map(|&x| x as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::run_sequential;

    #[test]
    fn sample_key_is_deterministic_and_spread() {
        assert_eq!(sample_key(7, 1), sample_key(7, 1));
        assert_ne!(sample_key(7, 1), sample_key(7, 2));
        assert_ne!(sample_key(7, 1), sample_key(8, 1));
        // Keys of consecutive ids should look uniform: check top-bit balance.
        let ones = (0..10_000u64)
            .filter(|&i| sample_key(i, 0) >> 63 == 1)
            .count();
        assert!((4_000..6_000).contains(&ones), "biased keys: {ones}");
    }

    #[test]
    fn bottom_k_merge_equals_whole() {
        let mk = |ids: std::ops::Range<u64>| {
            let mut s = BottomKSample::new(10);
            for id in ids {
                s.offer(sample_key(id, 5), vec![id as f32]);
            }
            s
        };
        let whole = mk(0..1000);
        let mut left = mk(0..431);
        left.merge(mk(431..1000));
        assert_eq!(whole.into_points(), left.into_points());
    }

    #[test]
    fn skipping_keys_past_the_threshold_keeps_the_exact_bottom_k() {
        // Every key at or above the last prune's threshold is skipped
        // unbuilt; the sample must still be exactly the k smallest keys.
        let k = 7;
        let mut s = BottomKSample::new(k);
        let mut built = 0;
        for id in 0..5_000u64 {
            s.offer_with(sample_key(id, 3), || {
                built += 1;
                vec![id as f32]
            });
        }
        let mut all: Vec<(u64, u64)> = (0..5_000u64).map(|id| (sample_key(id, 3), id)).collect();
        all.sort_unstable();
        let expect: Vec<Vec<f32>> = all[..k].iter().map(|&(_, id)| vec![id as f32]).collect();
        assert_eq!(s.into_points(), expect);
        assert!(built < 200, "{built} points built for a bottom-{k}");
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Sample 200 of 10k points whose single coordinate is their index;
        // the sample mean should be near the population mean.
        let mut s = BottomKSample::new(200);
        for id in 0..10_000u64 {
            s.offer(sample_key(id, 9), vec![id as f32]);
        }
        let pts = s.into_points();
        assert_eq!(pts.len(), 200);
        let mean: f64 = pts.iter().map(|p| p[0] as f64).sum::<f64>() / 200.0;
        assert!(
            (3_500.0..6_500.0).contains(&mean),
            "sample not uniform: mean {mean}"
        );
    }

    #[test]
    fn sample_app_via_framework() {
        let dim = 2;
        let app = SampleApp::new(dim, 16, 3);
        let pts: Vec<f32> = (0..400).map(|i| (i % 37) as f32).collect();
        let mut buf = vec![0u8; pts.len() * 4];
        points::encode_into(&pts, dim, &mut buf);
        let meta = ChunkMeta {
            id: ChunkId(0),
            file: FileId(0),
            offset: 0,
            len: buf.len() as u64,
            units: 200,
        };
        let robj = run_sequential(&app, &(), vec![(meta, buf)]);
        let sample = robj.into_points();
        assert_eq!(sample.len(), 16);
        assert!(sample.iter().all(|p| p.len() == dim));
    }

    #[test]
    #[should_panic(expected = "unit count mismatch")]
    fn decode_checks_the_indexed_unit_count() {
        let app = SampleApp::new(2, 4, 0);
        let meta = ChunkMeta {
            id: ChunkId(0),
            file: FileId(0),
            offset: 0,
            len: 16,
            units: 3,
        };
        app.decode_chunk(&meta, &[0u8; 16]);
    }

    #[test]
    fn kmeans_pp_picks_spread_centers() {
        // Two tight far-apart blobs: k-means++ with k=2 must take one from
        // each (squared-distance weighting makes the other blob ~certain).
        let mut pts: Vec<Vec<f32>> = Vec::new();
        for i in 0..50 {
            pts.push(vec![0.0 + (i % 5) as f32 * 0.01, 0.0]);
            pts.push(vec![100.0 + (i % 5) as f32 * 0.01, 0.0]);
        }
        let flat = kmeans_plus_plus(&pts, 2, 7);
        let a = flat[0];
        let b = flat[2];
        assert!(
            (a - b).abs() > 50.0,
            "centers should span the blobs: {a} vs {b}"
        );
    }

    #[test]
    fn kmeans_pp_handles_duplicates() {
        let pts = vec![vec![1.0f32, 1.0]; 20];
        let flat = kmeans_plus_plus(&pts, 3, 1);
        assert_eq!(flat.len(), 6);
        assert!(flat.iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn mismatched_k_merge_panics() {
        let mut a = BottomKSample::new(2);
        a.merge(BottomKSample::new(3));
    }
}
