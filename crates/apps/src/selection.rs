//! Selection (distributed grep): scan every record, keep the ids of those
//! matching a predicate — the classic "filter" workload from the
//! Map-Reduce paper, expressed as a generalized reduction with a
//! concatenating reduction object.
//!
//! Records are the same fixed-dimension points knn uses; the query selects
//! points inside an axis-aligned box. The reduction object is a
//! [`Concat`] of matching global ids, so — unlike knn's bounded top-k —
//! its size is data-dependent, exercising the framework with *growing*
//! reduction objects.

use crate::knn::KnnApp;
use crate::points;
use crate::{expect_records, records};
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::Concat;
use std::borrow::Borrow;

/// An axis-aligned box query: `lo[d] <= x[d] < hi[d]` for every dimension.
#[derive(Debug, Clone)]
pub struct BoxQuery {
    pub lo: Vec<f32>,
    pub hi: Vec<f32>,
}

impl BoxQuery {
    pub fn new(lo: Vec<f32>, hi: Vec<f32>) -> Self {
        assert_eq!(lo.len(), hi.len(), "box bounds of different dimension");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "box with lo > hi is empty by construction; reject it loudly"
        );
        BoxQuery { lo, hi }
    }

    /// Whether the point `p` (a slice or a record's [`points::coords`])
    /// lies inside the box.
    pub fn contains(&self, p: impl IntoIterator<Item = impl Borrow<f32>>) -> bool {
        p.into_iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(x, (l, h))| {
                let x = x.borrow();
                l <= x && x < h
            })
    }
}

/// The selection application.
#[derive(Debug, Clone)]
pub struct SelectionApp {
    pub dim: usize,
}

impl SelectionApp {
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        SelectionApp { dim }
    }
}

impl GRApp for SelectionApp {
    /// `(global id, coordinates)` — ids as in [`KnnApp::unit_id`].
    type Unit = (u64, Vec<f32>);
    type RObj = Concat<u64>;
    type Params = BoxQuery;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<(u64, Vec<f32>)> {
        expect_records(meta, bytes, points::unit_bytes(self.dim))
            .enumerate()
            .map(|(i, rec)| (KnnApp::unit_id(meta, self.dim, i), points::point(rec)))
            .collect()
    }

    fn init(&self, params: &BoxQuery) -> Concat<u64> {
        assert_eq!(params.lo.len(), self.dim, "query dimension mismatch");
        Concat::new()
    }

    fn local_reduce(&self, params: &BoxQuery, robj: &mut Concat<u64>, unit: &(u64, Vec<f32>)) {
        if params.contains(&unit.1) {
            robj.push(unit.0);
        }
    }

    fn fold_chunk(
        &self,
        params: &BoxQuery,
        robj: &mut Concat<u64>,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let recs = records(meta, bytes, points::unit_bytes(self.dim))?;
        for (i, rec) in recs.enumerate() {
            if params.contains(points::coords(rec)) {
                robj.push(KnnApp::unit_id(meta, self.dim, i));
            }
        }
        Ok(meta.units)
    }
}

/// Sequential reference: ids of all points inside the box, sorted.
pub fn selection_reference(points: &[(u64, Vec<f32>)], query: &BoxQuery) -> Vec<u64> {
    let mut ids: Vec<u64> = points
        .iter()
        .filter(|(_, p)| query.contains(p))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::{run_sequential, ReductionObject};

    fn chunk(vals: &[f32], dim: usize) -> (ChunkMeta, Vec<u8>) {
        let mut buf = vec![0u8; vals.len() * 4];
        points::encode_into(vals, dim, &mut buf);
        (
            ChunkMeta {
                id: ChunkId(0),
                file: FileId(0),
                offset: 0,
                len: buf.len() as u64,
                units: (vals.len() / dim) as u64,
            },
            buf,
        )
    }

    #[test]
    fn box_query_semantics() {
        let q = BoxQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(q.contains([0.0, 0.5]));
        assert!(q.contains([0.999, 0.0]));
        assert!(!q.contains([1.0, 0.5]), "hi is exclusive");
        assert!(!q.contains([-0.1, 0.5]));
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn inverted_box_rejected() {
        BoxQuery::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn selects_matching_ids() {
        let app = SelectionApp::new(2);
        let q = BoxQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let (meta, bytes) = chunk(&[0.5, 0.5, 2.0, 2.0, 0.1, 0.9, 1.0, 0.0], 2);
        let robj = run_sequential(&app, &q, vec![(meta, bytes)]);
        assert_eq!(robj.into_sorted(), vec![0, 2]);
    }

    #[test]
    fn split_matches_reference() {
        let app = SelectionApp::new(1);
        let q = BoxQuery::new(vec![0.25], vec![0.75]);
        let vals: Vec<f32> = (0..40).map(|i| i as f32 / 40.0).collect();
        let (m_all, b_all) = chunk(&vals, 1);
        let whole = run_sequential(&app, &q, vec![(m_all, b_all)]);

        let (m1, b1) = chunk(&vals[..20], 1);
        let mut m2 = m_all;
        m2.id = ChunkId(1);
        m2.offset = 20 * 4;
        let mut buf2 = vec![0u8; 20 * 4];
        points::encode_into(&vals[20..], 1, &mut buf2);
        m2.len = buf2.len() as u64;
        m2.units = 20;

        let mut left = run_sequential(&app, &q, vec![(m1, b1)]);
        let right = run_sequential(&app, &q, vec![(m2, buf2)]);
        left.merge(right);
        assert_eq!(left.into_sorted(), whole.into_sorted());
    }

    #[test]
    fn reference_agrees() {
        let q = BoxQuery::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let pts = vec![
            (10u64, vec![0.1, 0.1]),
            (20, vec![0.6, 0.1]),
            (30, vec![0.4, 0.49]),
        ];
        assert_eq!(selection_reference(&pts, &q), vec![10, 30]);
    }
}
