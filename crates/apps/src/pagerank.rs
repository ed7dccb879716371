//! PageRank (paper §IV-A: low-medium computation, high I/O, and a **very
//! large reduction object** — ~300 MB for the 50M-page graph — which is what
//! stresses the inter-cluster global reduction in the paper's evaluation).
//!
//! One pass streams the edge list: each edge `(src, dst)` contributes
//! `rank[src] / out_degree[src]` to `dst`'s accumulator. The reduction
//! object is a dense [`VecSum`] over all pages — deliberately proportional
//! to the graph, reproducing the paper's robj-transfer bottleneck. The
//! driver applies damping and dangling-mass redistribution between passes.
//!
//! # Shares
//!
//! The quotient depends on the source page alone, so [`RankParams::new`]
//! divides once per page, not once per edge: `shares[p] = ranks[p] /
//! out_degree[p] as f64`, the per-pass value the paper's head broadcasts.
//! An edge then costs one load and one add, `robj[dst] += shares[src]`,
//! instead of two loads from src-indexed arrays, a conversion and a
//! division. Every page is divided, degree 0 included (its share is
//! infinite or NaN, and no edge of a consistent graph reads it), so each
//! edge adds the very `f64` that the per-edge division gives — IEEE
//! division is correctly rounded, so the same operands give the same bits
//! — and every robj is bit-identical to [`pagerank_reference_pass`]'s,
//! which keeps dividing per edge as the oracle. Building the params costs
//! one division per page and one more `f64` per page (16 MB at 2M pages),
//! paid once per PageRank pass by an iterating driver.
//!
//! # Bad edges
//!
//! An edge naming a page at or past `n_pages` is a [`DecodeError::OutOfRange`]
//! from [`PageRankApp::fold_chunk`], found by one scan of the chunk before
//! any edge is folded, so the job fails and the robj is untouched.

use crate::{expect_records, records};
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::VecSum;
use std::sync::Arc;

/// One edge record: `(src, dst)` as two little-endian `u32`s.
pub fn edge(rec: &[u8]) -> (u32, u32) {
    (
        u32::from_le_bytes(rec[..4].try_into().unwrap()),
        u32::from_le_bytes(rec[4..].try_into().unwrap()),
    )
}

/// Broadcast parameters of one PageRank pass: every page's rank and
/// out-degree, and the share of its rank it sends along each out-link.
/// The fields are private so the shares always match the ranks.
#[derive(Debug, Clone)]
pub struct RankParams {
    ranks: Arc<Vec<f64>>,
    out_degree: Arc<Vec<u32>>,
    /// `ranks[p] / out_degree[p] as f64`: what one edge from `p` adds.
    shares: Arc<Vec<f64>>,
}

impl RankParams {
    /// Params for ranks `ranks` (summing to 1) over pages of out-degree
    /// `out_degree`; divides every page's rank into its share.
    pub fn new(ranks: Arc<Vec<f64>>, out_degree: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            ranks.len(),
            out_degree.len(),
            "one rank and one out-degree per page"
        );
        let shares = ranks
            .iter()
            .zip(out_degree.iter())
            .map(|(&r, &d)| r / d as f64)
            .collect();
        RankParams {
            ranks,
            out_degree,
            shares: Arc::new(shares),
        }
    }

    /// Uniform initial ranks.
    pub fn uniform(out_degree: Arc<Vec<u32>>) -> Self {
        let n = out_degree.len();
        Self::new(Arc::new(vec![1.0 / n as f64; n]), out_degree)
    }

    pub fn n_pages(&self) -> usize {
        self.ranks.len()
    }

    /// Current rank of every page.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Out-degree of every page, shared so the next pass's params can
    /// reuse it.
    pub fn out_degree(&self) -> &Arc<Vec<u32>> {
        &self.out_degree
    }

    /// What one edge from each page adds to its target's accumulator.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }
}

/// The PageRank application.
#[derive(Debug, Clone)]
pub struct PageRankApp {
    pub n_pages: u32,
}

impl PageRankApp {
    pub fn new(n_pages: u32) -> Self {
        assert!(n_pages > 0);
        PageRankApp { n_pages }
    }
}

impl GRApp for PageRankApp {
    /// A directed edge `(src, dst)`.
    type Unit = (u32, u32);
    type RObj = VecSum;
    type Params = RankParams;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<(u32, u32)> {
        expect_records(meta, bytes, 8).map(edge).collect()
    }

    fn init(&self, params: &RankParams) -> VecSum {
        assert_eq!(params.n_pages(), self.n_pages as usize);
        VecSum::zeros(self.n_pages as usize)
    }

    fn local_reduce(&self, params: &RankParams, robj: &mut VecSum, unit: &(u32, u32)) {
        let (src, dst) = *unit;
        robj.add_at(dst as usize, params.shares[src as usize]);
    }

    fn fold_chunk(
        &self,
        params: &RankParams,
        robj: &mut VecSum,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let recs = records(meta, bytes, 8)?;
        check_pages(bytes, self.n_pages)?;
        let shares = params.shares();
        for rec in recs {
            let (src, dst) = edge(rec);
            robj.add_at(dst as usize, shares[src as usize]);
        }
        Ok(meta.units)
    }
}

/// Every page named in `bytes`, a whole number of edge records, is below
/// `n_pages`; else the first bad record. The scan has no early exit, so
/// it compiles to packed compares, and runs before any edge is folded.
fn check_pages(bytes: &[u8], n_pages: u32) -> Result<(), DecodeError> {
    let page = |w: &[u8]| u32::from_le_bytes(w.try_into().expect("4-byte page"));
    let bad = bytes
        .chunks_exact(4)
        .fold(false, |bad, w| bad | (page(w) >= n_pages));
    if !bad {
        return Ok(());
    }
    let (at, value) = bytes
        .chunks_exact(4)
        .map(page)
        .enumerate()
        .find(|&(_, p)| p >= n_pages)
        .expect("the scan saw a bad page");
    Err(DecodeError::OutOfRange {
        record: at as u64 / 2,
        value: value.into(),
        limit: n_pages.into(),
    })
}

/// Damping factor used throughout (the standard 0.85).
pub const DAMPING: f64 = 0.85;

/// Produce the next rank vector from a pass's contribution accumulator:
/// `r' = (1-d)/N + d * (contrib + dangling_mass/N)` where dangling mass is
/// the rank held by pages with no outgoing links.
pub fn next_ranks(contrib: &VecSum, params: &RankParams) -> Vec<f64> {
    let n = params.n_pages();
    assert_eq!(contrib.len(), n);
    let dangling: f64 = params
        .ranks
        .iter()
        .zip(params.out_degree.iter())
        .filter(|(_, &d)| d == 0)
        .map(|(r, _)| r)
        .sum();
    let base = (1.0 - DAMPING) / n as f64;
    let dang_share = DAMPING * dangling / n as f64;
    contrib
        .values()
        .iter()
        .map(|c| base + DAMPING * c + dang_share)
        .collect()
}

/// L1 distance between two rank vectors (convergence metric).
pub fn rank_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Sequential reference: one full pass over `edges`.
pub fn pagerank_reference_pass(edges: &[(u32, u32)], params: &RankParams) -> Vec<f64> {
    let n = params.n_pages();
    let mut contrib = VecSum::zeros(n);
    for &(src, dst) in edges {
        let deg = params.out_degree[src as usize];
        contrib.add_at(dst as usize, params.ranks[src as usize] / deg as f64);
    }
    next_ranks(&contrib, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::{run_sequential, ReductionObject};

    fn encode(edges: &[(u32, u32)]) -> (ChunkMeta, Vec<u8>) {
        let mut buf = Vec::with_capacity(edges.len() * 8);
        for (s, d) in edges {
            buf.extend_from_slice(&s.to_le_bytes());
            buf.extend_from_slice(&d.to_le_bytes());
        }
        (
            ChunkMeta {
                id: ChunkId(0),
                file: FileId(0),
                offset: 0,
                len: buf.len() as u64,
                units: edges.len() as u64,
            },
            buf,
        )
    }

    fn degrees(n: usize, edges: &[(u32, u32)]) -> Arc<Vec<u32>> {
        let mut d = vec![0u32; n];
        for &(s, _) in edges {
            d[s as usize] += 1;
        }
        Arc::new(d)
    }

    #[test]
    fn ranks_sum_to_one_each_pass() {
        // 0 -> 1 -> 2 -> 0 plus a dangling page 3.
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let params = RankParams::uniform(degrees(4, &edges));
        let ranks = pagerank_reference_pass(&edges, &params);
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "mass not conserved: {total}");
    }

    #[test]
    fn framework_pass_matches_reference() {
        let edges = vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)];
        let app = PageRankApp::new(4);
        let params = RankParams::uniform(degrees(4, &edges));
        let (meta, bytes) = encode(&edges);
        let contrib = run_sequential(&app, &params, vec![(meta, bytes)]);
        let got = next_ranks(&contrib, &params);
        let expect = pagerank_reference_pass(&edges, &params);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn split_edge_list_merges_to_same_contrib() {
        let edges = vec![(0, 1), (1, 0), (2, 1), (0, 2), (1, 2), (2, 0)];
        let app = PageRankApp::new(3);
        let params = RankParams::uniform(degrees(3, &edges));
        let (m_all, b_all) = encode(&edges);
        let whole = run_sequential(&app, &params, vec![(m_all, b_all)]);

        let (m1, b1) = encode(&edges[..3]);
        let (m2, b2) = encode(&edges[3..]);
        let mut left = run_sequential(&app, &params, vec![(m1, b1)]);
        let right = run_sequential(&app, &params, vec![(m2, b2)]);
        left.merge(right);
        for (a, b) in left.values().iter().zip(whole.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hub_accumulates_rank() {
        // Everyone links to page 0; page 0 links to page 1.
        let edges = vec![(1, 0), (2, 0), (3, 0), (0, 1)];
        let mut params = RankParams::uniform(degrees(4, &edges));
        for _ in 0..30 {
            let ranks = pagerank_reference_pass(&edges, &params);
            params = RankParams::new(Arc::new(ranks), Arc::clone(params.out_degree()));
        }
        let r = &params.ranks;
        assert!(r[0] > r[2] && r[0] > r[3], "hub should dominate: {r:?}");
        assert!(r[1] > r[2], "hub's sole target inherits rank");
    }

    #[test]
    fn robj_size_proportional_to_pages() {
        let app = PageRankApp::new(1000);
        let params = RankParams::uniform(Arc::new(vec![1; 1000]));
        let robj = app.init(&params);
        assert_eq!(robj.size_bytes(), 8000);
    }

    #[test]
    fn convergence_delta_shrinks() {
        let edges = vec![(0, 1), (1, 2), (2, 0), (2, 1)];
        let mut params = RankParams::uniform(degrees(3, &edges));
        let mut deltas = Vec::new();
        // Damped power iteration contracts at ~DAMPING per pass, so 60
        // passes give ~0.85^60 ≈ 6e-5 of the initial error.
        for _ in 0..60 {
            let ranks = pagerank_reference_pass(&edges, &params);
            deltas.push(rank_delta(&ranks, &params.ranks));
            params = RankParams::new(Arc::new(ranks), Arc::clone(params.out_degree()));
        }
        assert!(
            deltas.last().unwrap() < &deltas[0],
            "power iteration should contract: {deltas:?}"
        );
        assert!(deltas.last().unwrap() < &1e-3);
    }
}
