//! k-Nearest-Neighbors search (paper §IV-A: low computation, medium-high
//! I/O, small reduction object; k = 1000 in the evaluation).
//!
//! Each data unit is a point; the reduction object is a bounded [`TopK`]
//! keeping the k smallest squared distances to the query, so memory per
//! worker is O(k) regardless of dataset size — exactly the generalized-
//! reduction argument.

use crate::points;
use crate::{expect_records, records};
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::TopK;
use std::borrow::Borrow;

/// A point with its global id (payload returned in results).
#[derive(Debug, Clone)]
pub struct IdPoint {
    pub id: u64,
    pub coords: Vec<f32>,
}

/// Query parameters for one knn pass.
#[derive(Debug, Clone)]
pub struct KnnQuery {
    /// The query point.
    pub query: Vec<f32>,
}

/// The knn application.
#[derive(Debug, Clone)]
pub struct KnnApp {
    pub dim: usize,
    pub k: usize,
}

impl KnnApp {
    pub fn new(dim: usize, k: usize) -> Self {
        assert!(dim > 0 && k > 0);
        KnnApp { dim, k }
    }

    /// Globally unique id of unit `i` of `chunk`: file id in the high bits,
    /// record index within the file in the low bits.
    pub fn unit_id(chunk: &ChunkMeta, dim: usize, i: usize) -> u64 {
        let per_file_index = chunk.offset / points::unit_bytes(dim) + i as u64;
        ((chunk.file.0 as u64) << 40) | per_file_index
    }
}

impl GRApp for KnnApp {
    type Unit = IdPoint;
    type RObj = TopK;
    type Params = KnnQuery;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<IdPoint> {
        expect_records(meta, bytes, points::unit_bytes(self.dim))
            .enumerate()
            .map(|(i, rec)| IdPoint {
                id: Self::unit_id(meta, self.dim, i),
                coords: points::point(rec),
            })
            .collect()
    }

    fn init(&self, _params: &KnnQuery) -> TopK {
        TopK::with_capacity(self.k)
    }

    fn local_reduce(&self, params: &KnnQuery, robj: &mut TopK, unit: &IdPoint) {
        robj.offer(points::dist2(&unit.coords, &params.query), unit.id);
    }

    fn fold_chunk(
        &self,
        params: &KnnQuery,
        robj: &mut TopK,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let recs = records(meta, bytes, points::unit_bytes(self.dim))?;
        for (i, rec) in recs.enumerate() {
            let id = Self::unit_id(meta, self.dim, i);
            robj.offer(points::dist2(points::coords(rec), &params.query), id);
        }
        Ok(meta.units)
    }
}

/// Batch k-NN: answer many queries in one pass over the data (how a knn
/// service actually amortizes its scan). The reduction object is one
/// bounded [`TopK`] per query, merged slot-wise; total state stays
/// `O(queries × k)` per worker.
#[derive(Debug, Clone)]
pub struct BatchKnnApp {
    pub dim: usize,
    pub k: usize,
}

/// Slot-wise mergeable set of per-query top-k heaps.
#[derive(Debug, Clone)]
pub struct TopKSet {
    heaps: Vec<TopK>,
}

impl TopKSet {
    pub fn new(queries: usize, k: usize) -> Self {
        TopKSet {
            heaps: (0..queries).map(|_| TopK::with_capacity(k)).collect(),
        }
    }

    pub fn queries(&self) -> usize {
        self.heaps.len()
    }

    /// Results per query, best-first.
    pub fn into_sorted(self) -> Vec<Vec<(f64, u64)>> {
        self.heaps.into_iter().map(TopK::into_sorted).collect()
    }

    /// Offer point `id` to every query's heap.
    fn offer<P>(&mut self, params: &BatchQueries, id: u64, point: P)
    where
        P: IntoIterator + Clone,
        P::Item: Borrow<f32>,
    {
        for (q, heap) in params.queries.iter().zip(self.heaps.iter_mut()) {
            heap.offer(points::dist2(point.clone(), q), id);
        }
    }
}

impl cloudburst_core::api::ReductionObject for TopKSet {
    fn merge(&mut self, other: Self) {
        assert_eq!(
            self.heaps.len(),
            other.heaps.len(),
            "merging TopKSet with different query counts"
        );
        for (a, b) in self.heaps.iter_mut().zip(other.heaps) {
            a.merge(b);
        }
    }
    fn size_bytes(&self) -> usize {
        self.heaps.iter().map(|h| h.size_bytes()).sum()
    }
}

/// Parameters of a batch pass: the query points.
#[derive(Debug, Clone)]
pub struct BatchQueries {
    pub queries: Vec<Vec<f32>>,
}

impl BatchKnnApp {
    pub fn new(dim: usize, k: usize) -> Self {
        assert!(dim > 0 && k > 0);
        BatchKnnApp { dim, k }
    }
}

impl GRApp for BatchKnnApp {
    type Unit = IdPoint;
    type RObj = TopKSet;
    type Params = BatchQueries;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<IdPoint> {
        KnnApp {
            dim: self.dim,
            k: self.k,
        }
        .decode_chunk(meta, bytes)
    }

    fn init(&self, params: &BatchQueries) -> TopKSet {
        assert!(!params.queries.is_empty(), "batch needs at least one query");
        for q in &params.queries {
            assert_eq!(q.len(), self.dim, "query dimension mismatch");
        }
        TopKSet::new(params.queries.len(), self.k)
    }

    fn local_reduce(&self, params: &BatchQueries, robj: &mut TopKSet, unit: &IdPoint) {
        robj.offer(params, unit.id, &unit.coords);
    }

    fn fold_chunk(
        &self,
        params: &BatchQueries,
        robj: &mut TopKSet,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let recs = records(meta, bytes, points::unit_bytes(self.dim))?;
        for (i, rec) in recs.enumerate() {
            let id = KnnApp::unit_id(meta, self.dim, i);
            robj.offer(params, id, points::coords(rec));
        }
        Ok(meta.units)
    }
}

/// Brute-force reference: the k nearest of `points` (by index-as-id) to
/// `query`. Returns ascending `(dist2, id)`.
pub fn knn_reference(points: &[(u64, Vec<f32>)], query: &[f32], k: usize) -> Vec<(f64, u64)> {
    let mut all: Vec<(f64, u64)> = points
        .iter()
        .map(|(id, p)| (points::dist2(p, query), *id))
        .collect();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::{run_sequential, ReductionObject};

    fn chunk_meta(file: u32, id: u32, offset: u64, n: u64, dim: usize) -> ChunkMeta {
        ChunkMeta {
            id: ChunkId(id),
            file: FileId(file),
            offset,
            len: n * points::unit_bytes(dim),
            units: n,
        }
    }

    fn encode(pts: &[f32], dim: usize) -> Vec<u8> {
        let mut buf = vec![0u8; pts.len() * 4];
        points::encode_into(pts, dim, &mut buf);
        buf
    }

    #[test]
    fn finds_nearest_points() {
        let app = KnnApp::new(2, 2);
        let data = vec![
            0.0f32, 0.0, // id (0<<40)|0
            5.0, 5.0, //    id 1
            0.1, 0.1, //    id 2
            9.0, 9.0, //    id 3
        ];
        let meta = chunk_meta(0, 0, 0, 4, 2);
        let bytes = encode(&data, 2);
        let q = KnnQuery {
            query: vec![0.0, 0.0],
        };
        let robj = run_sequential(&app, &q, vec![(meta, bytes)]);
        let got = robj.into_sorted();
        assert_eq!(got[0].1, 0);
        assert_eq!(got[1].1, 2);
    }

    #[test]
    fn unit_ids_unique_across_chunks_of_a_file() {
        let dim = 2;
        let a = chunk_meta(0, 0, 0, 3, dim);
        let b = chunk_meta(0, 1, 3 * points::unit_bytes(dim), 3, dim);
        let ids_a: Vec<u64> = (0..3).map(|i| KnnApp::unit_id(&a, dim, i)).collect();
        let ids_b: Vec<u64> = (0..3).map(|i| KnnApp::unit_id(&b, dim, i)).collect();
        assert_eq!(ids_a, vec![0, 1, 2]);
        assert_eq!(ids_b, vec![3, 4, 5]);
    }

    #[test]
    fn unit_ids_distinct_across_files() {
        let dim = 2;
        let f0 = chunk_meta(0, 0, 0, 1, dim);
        let f1 = chunk_meta(1, 1, 0, 1, dim);
        assert_ne!(KnnApp::unit_id(&f0, dim, 0), KnnApp::unit_id(&f1, dim, 0));
    }

    #[test]
    fn split_processing_matches_reference() {
        let app = KnnApp::new(3, 5);
        let mut rng = cb_simnet::DetRng::new(1);
        let pts: Vec<f32> = (0..60).map(|_| rng.uniform() as f32).collect();
        let q = KnnQuery {
            query: vec![0.5, 0.5, 0.5],
        };

        // Two chunks of 10 points each.
        let m1 = chunk_meta(0, 0, 0, 10, 3);
        let m2 = chunk_meta(0, 1, 10 * 12, 10, 3);
        let b1 = encode(&pts[..30], 3);
        let b2 = encode(&pts[30..], 3);

        let mut left = run_sequential(&app, &q, vec![(m1, b1.clone())]);
        let right = run_sequential(&app, &q, vec![(m2, b2.clone())]);
        left.merge(right);

        let ref_pts: Vec<(u64, Vec<f32>)> = pts
            .chunks_exact(3)
            .enumerate()
            .map(|(i, p)| (i as u64, p.to_vec()))
            .collect();
        let expect = knn_reference(&ref_pts, &q.query, 5);

        let got = left.into_sorted();
        assert_eq!(got.len(), 5);
        for ((gd, gid), (ed, eid)) in got.iter().zip(&expect) {
            assert!((gd - ed).abs() < 1e-9);
            assert_eq!(gid, eid);
        }
    }

    #[test]
    fn batch_knn_answers_every_query_like_single_queries() {
        let dim = 2;
        let k = 4;
        let mut rng = cb_simnet::DetRng::new(3);
        let pts: Vec<f32> = (0..200).map(|_| rng.uniform() as f32).collect();
        let meta = chunk_meta(0, 0, 0, 100, dim);
        let bytes = encode(&pts, dim);

        let queries = vec![vec![0.1, 0.1], vec![0.9, 0.9], vec![0.5, 0.2]];
        let batch = BatchKnnApp::new(dim, k);
        let robj = run_sequential(
            &batch,
            &BatchQueries {
                queries: queries.clone(),
            },
            vec![(meta, bytes.clone())],
        );
        let batch_results = robj.into_sorted();

        let single = KnnApp::new(dim, k);
        for (qi, q) in queries.iter().enumerate() {
            let r = run_sequential(
                &single,
                &KnnQuery { query: q.clone() },
                vec![(meta, bytes.clone())],
            );
            assert_eq!(batch_results[qi], r.into_sorted(), "query {qi}");
        }
    }

    #[test]
    fn topkset_merge_is_slotwise() {
        let mut a = TopKSet::new(2, 2);
        let mut b = TopKSet::new(2, 2);
        let app = BatchKnnApp::new(1, 2);
        let params = BatchQueries {
            queries: vec![vec![0.0], vec![10.0]],
        };
        let unit = |id, x: f32| IdPoint {
            id,
            coords: vec![x],
        };
        app.local_reduce(&params, &mut a, &unit(1, 1.0));
        app.local_reduce(&params, &mut b, &unit(2, 9.0));
        use cloudburst_core::api::ReductionObject;
        a.merge(b);
        let res = a.into_sorted();
        assert_eq!(res[0][0].1, 1, "query at 0 is closest to point 1");
        assert_eq!(res[1][0].1, 2, "query at 10 is closest to point 9");
    }

    #[test]
    #[should_panic(expected = "different query counts")]
    fn topkset_query_count_mismatch_panics() {
        use cloudburst_core::api::ReductionObject;
        let mut a = TopKSet::new(2, 2);
        a.merge(TopKSet::new(3, 2));
    }

    #[test]
    fn robj_is_small() {
        let app = KnnApp::new(2, 100);
        let q = KnnQuery {
            query: vec![0.0, 0.0],
        };
        let robj = app.init(&q);
        assert!(robj.size_bytes() <= 100 * 16);
    }
}
