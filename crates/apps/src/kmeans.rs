//! k-Means clustering (paper §IV-A: heavy computation, low-medium I/O,
//! small reduction object; k = 1000 in the evaluation).
//!
//! One pass assigns every point to its nearest centroid and accumulates
//! per-centroid coordinate sums and counts in a [`VecSum`] of length
//! `k * (dim + 1)` — the classic generalized-reduction formulation. The
//! driver ([`next_centroids`]) recomputes centroids
//! between passes; iteration happens by re-running the framework with new
//! [`Centroids`] params.
//!
//! The nearest-centroid search is the fold's hot loop. Both of its kernels
//! are bit-identical to one scalar loop per centroid: start at `0.0`,
//! `diff = x - y`, `d += diff * diff`, dimensions in order, every multiply
//! and add rounded on its own, and the sums compared in centroid order
//! with a strict `<` against the best so far. So the lowest index wins a
//! tie, and a point with a NaN coordinate (every sum NaN) goes to
//! centroid 0.
//!
//! * **Point lanes**, in [`KMeansApp::fold_chunk`]. A chunk is folded in
//!   blocks of eight records. Each block is transposed once into a stack
//!   buffer of `[f64; 8]` rows, one row per dimension, each coordinate
//!   converted to `f64` once. The row-major centroids are then walked in
//!   order, and each lane runs the scalar loop for its own point, keeping
//!   its best centroid with a branch-free select on the same strict `<`.
//!   Each lane *is* the scalar loop, and the block's points are then added
//!   to the robj in record order, so the robj is bit-identical to a scalar
//!   fold. The last `n % 8` records, and points wider than
//!   [`BLOCK_MAX_DIM`], go through [`Centroids::nearest`] one at a time.
//! * **Centroid lanes**, in [`Centroids::nearest`], for one point at a
//!   time (`local_reduce`, the MapReduce adapters and
//!   [`kmeans_reference_pass`]). Beside the row-major centroids,
//!   [`Centroids::new`] builds a transposed copy once per pass: tiles of
//!   eight centroids, each one `[f64; 8]` row per dimension holding that
//!   coordinate of its eight centroids, with the last tile padded with
//!   NaN. `nearest` walks the point once per tile and updates eight
//!   independent sums, which it then compares in centroid order; a NaN pad
//!   lane never wins.
//!
//! The block loop is one `#[inline(always)]` body compiled twice
//! ([`BlockBody`]): at the build's target (SSE2 on plain `x86_64`, two
//! lanes per register), and inside a `#[target_feature(enable = "avx2")]`
//! function (four). `fold_chunk` picks the AVX2 body once per chunk when
//! `is_x86_feature_detected!("avx2")` finds it on the running CPU. Code
//! compiled for AVX2 is undefined behaviour on a CPU without it, so the
//! call is `unsafe`: it is the crate's one `unsafe` block, and the check
//! that guards it sits in the same function.

use crate::points;
use crate::{expect_records, records};
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::VecSum;
use std::borrow::Borrow;
use std::slice::ChunksExact;

/// Centroids per tile of [`Centroids`]' transposed copy, and points per
/// block of [`KMeansApp::fold_chunk`].
const LANES: usize = 8;

/// The widest point `fold_chunk`'s block kernel takes: its stack buffer
/// holds this many `[f64; 8]` rows (2 KiB). Wider points go through
/// [`Centroids::nearest`] one at a time.
pub const BLOCK_MAX_DIM: usize = 32;

/// The block kernel's stack buffer, one `[f64; 8]` row per dimension. A
/// row fills one 64-byte cache line, so no vector load of it is split
/// across two lines, wherever the stack happens to sit.
#[repr(align(64))]
struct Rows([[f64; LANES]; BLOCK_MAX_DIM]);

/// A compilation of `fold_chunk`'s block kernel (see the module docs).
/// [`fold_chunk`](GRApp::fold_chunk) runs [`BlockBody::fastest`];
/// [`KMeansApp::fold_chunk_on`] runs a chosen one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockBody {
    /// Compiled for the build's target.
    Portable,
    /// Compiled with AVX2 enabled; runs only on a CPU that has it.
    Avx2,
}

impl BlockBody {
    /// Whether the running CPU can run this body.
    pub fn runs_here(self) -> bool {
        match self {
            BlockBody::Portable => true,
            #[cfg(target_arch = "x86_64")]
            BlockBody::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            BlockBody::Avx2 => false,
        }
    }

    /// The fastest body the running CPU can run.
    pub fn fastest() -> BlockBody {
        if BlockBody::Avx2.runs_here() {
            BlockBody::Avx2
        } else {
            BlockBody::Portable
        }
    }
}

/// Broadcast parameters of one k-means pass: the current centroids,
/// flattened row-major (`k * dim`), and the tiled copy
/// [`nearest`](Centroids::nearest) reads (see the module docs). The fields
/// are private so the two cannot disagree.
#[derive(Debug, Clone)]
pub struct Centroids {
    dim: usize,
    flat: Vec<f64>,
    /// `ceil(k / LANES) * dim` rows: row `t * dim + j` holds coordinate `j`
    /// of centroids `t * LANES ..`, NaN past the last centroid.
    tiles: Vec<[f64; LANES]>,
}

impl Centroids {
    pub fn new(dim: usize, flat: Vec<f64>) -> Self {
        assert!(dim > 0);
        assert_eq!(flat.len() % dim, 0, "ragged centroid array");
        let k = flat.len() / dim;
        let mut tiles = vec![[f64::NAN; LANES]; k.div_ceil(LANES) * dim];
        for (c, cent) in flat.chunks_exact(dim).enumerate() {
            for (j, &y) in cent.iter().enumerate() {
                tiles[c / LANES * dim + j][c % LANES] = y;
            }
        }
        Centroids { dim, flat, tiles }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The centroids, flattened row-major (`k * dim`).
    pub fn flat(&self) -> &[f64] {
        &self.flat
    }

    pub fn k(&self) -> usize {
        self.flat.len() / self.dim
    }

    pub fn centroid(&self, c: usize) -> &[f64] {
        &self.flat[c * self.dim..(c + 1) * self.dim]
    }

    /// Index of the centroid nearest to `p` (a slice or a record's
    /// [`points::coords`]); the lowest index wins a tie, and a point with a
    /// NaN coordinate goes to centroid 0. `p` is walked once per tile of
    /// eight centroids.
    pub fn nearest<P>(&self, p: P) -> usize
    where
        P: IntoIterator + Clone,
        P::Item: Borrow<f32>,
    {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (t, tile) in self.tiles.chunks_exact(self.dim).enumerate() {
            let mut d = [0.0; LANES];
            for (x, ys) in p.clone().into_iter().zip(tile) {
                let x = *x.borrow() as f64;
                for (dl, y) in d.iter_mut().zip(ys) {
                    let diff = x - y;
                    *dl += diff * diff;
                }
            }
            for (l, &dl) in d.iter().enumerate() {
                if dl < best_d {
                    best_d = dl;
                    best = t * LANES + l;
                }
            }
        }
        best
    }
}

/// Equal when the centroids are: the tiles follow from them, and their NaN
/// padding would make every tiled pair unequal.
impl PartialEq for Centroids {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.flat == other.flat
    }
}

/// The k-means application.
#[derive(Debug, Clone)]
pub struct KMeansApp {
    pub dim: usize,
    pub k: usize,
}

impl KMeansApp {
    pub fn new(dim: usize, k: usize) -> Self {
        assert!(dim > 0 && k > 0);
        KMeansApp { dim, k }
    }

    /// Reduction-object layout: for centroid `c`, slots
    /// `[c*(dim+1) .. c*(dim+1)+dim)` are coordinate sums and slot
    /// `c*(dim+1)+dim` is the point count.
    pub fn robj_len(&self) -> usize {
        self.k * (self.dim + 1)
    }

    /// Add point `p` to its nearest centroid's sums and count.
    fn assign<P>(&self, params: &Centroids, robj: &mut VecSum, p: P)
    where
        P: IntoIterator + Clone,
        P::Item: Borrow<f32>,
    {
        let base = params.nearest(p.clone()) * (self.dim + 1);
        for (d, x) in p.into_iter().enumerate() {
            robj.add_at(base + d, *x.borrow() as f64);
        }
        robj.add_at(base + self.dim, 1.0);
    }

    /// [`fold_chunk`](GRApp::fold_chunk) on a chosen compilation of the
    /// block kernel. Panics if the running CPU cannot run `body`
    /// ([`BlockBody::runs_here`]).
    pub fn fold_chunk_on(
        &self,
        body: BlockBody,
        params: &Centroids,
        robj: &mut VecSum,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let unit_bytes = points::unit_bytes(self.dim);
        let recs = records(meta, bytes, unit_bytes)?;
        if self.dim > BLOCK_MAX_DIM {
            for rec in recs {
                self.assign(params, robj, points::coords(rec));
            }
            return Ok(meta.units);
        }
        let blocks = bytes.chunks_exact(LANES * unit_bytes as usize);
        let tail = blocks.remainder();
        self.fold_blocks(body, params.flat(), robj, blocks);
        for rec in tail.chunks_exact(unit_bytes as usize) {
            self.assign(params, robj, points::coords(rec));
        }
        Ok(meta.units)
    }

    /// Run [`fold_block_body`](Self::fold_block_body) compiled as `body`.
    #[allow(unsafe_code)]
    fn fold_blocks(
        &self,
        body: BlockBody,
        flat: &[f64],
        robj: &mut VecSum,
        blocks: ChunksExact<'_, u8>,
    ) {
        assert!(
            body.runs_here(),
            "{body:?} block body asked for on a CPU that cannot run it"
        );
        match body {
            #[cfg(target_arch = "x86_64")]
            BlockBody::Avx2 => {
                /// The block body compiled with AVX2 enabled.
                ///
                /// # Safety
                ///
                /// The running CPU must have AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2(
                    app: &KMeansApp,
                    flat: &[f64],
                    robj: &mut VecSum,
                    blocks: ChunksExact<'_, u8>,
                ) {
                    app.fold_block_body(flat, robj, blocks)
                }
                // SAFETY: `avx2` needs only AVX2 beyond the build's target,
                // and the assert above found it on the running CPU.
                unsafe { avx2(self, flat, robj, blocks) }
            }
            _ => self.fold_block_body(flat, robj, blocks),
        }
    }

    /// Fold `blocks` of eight records each against the row-major
    /// centroids `flat`, the points in the lanes (see the module docs).
    #[inline(always)]
    fn fold_block_body(&self, flat: &[f64], robj: &mut VecSum, blocks: ChunksExact<'_, u8>) {
        let dim = self.dim;
        let mut rows = Rows([[0.0; LANES]; BLOCK_MAX_DIM]);
        let rows = &mut rows.0[..dim];
        let cents = flat.chunks_exact(dim);
        for block in blocks {
            for (l, rec) in block.chunks_exact(block.len() / LANES).enumerate() {
                for (row, x) in rows.iter_mut().zip(points::coords(rec)) {
                    row[l] = x as f64;
                }
            }
            let mut best = [0usize; LANES];
            let mut best_d = [f64::INFINITY; LANES];
            for (c, cent) in cents.clone().enumerate() {
                let mut d = [0.0; LANES];
                for (row, &y) in rows.iter().zip(cent) {
                    for (dl, &x) in d.iter_mut().zip(row) {
                        let diff = x - y;
                        *dl += diff * diff;
                    }
                }
                for l in 0..LANES {
                    let nearer = d[l] < best_d[l];
                    best_d[l] = if nearer { d[l] } else { best_d[l] };
                    best[l] = if nearer { c } else { best[l] };
                }
            }
            for (l, &c) in best.iter().enumerate() {
                let base = c * (dim + 1);
                for (j, row) in rows.iter().enumerate() {
                    robj.add_at(base + j, row[l]);
                }
                robj.add_at(base + dim, 1.0);
            }
        }
    }
}

impl GRApp for KMeansApp {
    type Unit = Vec<f32>;
    type RObj = VecSum;
    type Params = Centroids;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<Vec<f32>> {
        expect_records(meta, bytes, points::unit_bytes(self.dim))
            .map(points::point)
            .collect()
    }

    fn init(&self, params: &Centroids) -> VecSum {
        assert_eq!(params.k(), self.k, "params have wrong k");
        assert_eq!(params.dim(), self.dim, "params have wrong dim");
        VecSum::zeros(self.robj_len())
    }

    fn local_reduce(&self, params: &Centroids, robj: &mut VecSum, unit: &Vec<f32>) {
        self.assign(params, robj, unit);
    }

    fn fold_chunk(
        &self,
        params: &Centroids,
        robj: &mut VecSum,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        self.fold_chunk_on(BlockBody::fastest(), params, robj, meta, bytes)
    }
}

/// Compute the next centroids from a pass's reduction object. Centroids
/// that attracted no points keep their previous position (the standard
/// empty-cluster policy).
pub fn next_centroids(app: &KMeansApp, robj: &VecSum, prev: &Centroids) -> Centroids {
    assert_eq!(robj.len(), app.robj_len());
    let mut flat = Vec::with_capacity(app.k * app.dim);
    for c in 0..app.k {
        let base = c * (app.dim + 1);
        let count = robj.values()[base + app.dim];
        if count > 0.0 {
            for d in 0..app.dim {
                flat.push(robj.values()[base + d] / count);
            }
        } else {
            flat.extend_from_slice(prev.centroid(c));
        }
    }
    Centroids::new(app.dim, flat)
}

/// Maximum centroid displacement between two parameter sets (convergence
/// metric).
pub fn centroid_shift(a: &Centroids, b: &Centroids) -> f64 {
    assert_eq!(a.flat.len(), b.flat.len());
    (0..a.k())
        .map(|c| {
            a.centroid(c)
                .iter()
                .zip(b.centroid(c))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        })
        .fold(0.0, f64::max)
}

/// Sequential reference: one full assignment-and-update pass over `pts`.
pub fn kmeans_reference_pass(pts: &[Vec<f32>], params: &Centroids) -> Centroids {
    let dim = params.dim;
    let k = params.k();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    for p in pts {
        let c = params.nearest(p);
        for (d, &x) in p.iter().enumerate() {
            sums[c * dim + d] += x as f64;
        }
        counts[c] += 1;
    }
    let mut flat = Vec::with_capacity(k * dim);
    for c in 0..k {
        if counts[c] > 0 {
            for d in 0..dim {
                flat.push(sums[c * dim + d] / counts[c] as f64);
            }
        } else {
            flat.extend_from_slice(params.centroid(c));
        }
    }
    Centroids::new(dim, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::run_sequential;

    fn meta(id: u32, n: u64, dim: usize) -> ChunkMeta {
        ChunkMeta {
            id: ChunkId(id),
            file: FileId(0),
            offset: 0,
            len: n * points::unit_bytes(dim),
            units: n,
        }
    }

    fn encode(pts: &[f32]) -> Vec<u8> {
        let mut buf = vec![0u8; pts.len() * 4];
        points::encode_into(pts, 1, &mut buf); // dim irrelevant for raw encode
        buf
    }

    #[test]
    fn nearest_centroid() {
        let c = Centroids::new(2, vec![0.0, 0.0, 10.0, 10.0]);
        assert_eq!(c.nearest(&[1.0, 1.0]), 0);
        assert_eq!(c.nearest(&[9.0, 9.0]), 1);
        assert_eq!(c.k(), 2);
    }

    #[test]
    fn one_pass_matches_reference() {
        let app = KMeansApp::new(2, 2);
        let pts: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![9.0, 9.0],
            vec![10.0, 10.0],
        ];
        let flat: Vec<f32> = pts.iter().flatten().copied().collect();
        let params = Centroids::new(2, vec![0.5, 0.5, 9.5, 9.5]);

        let robj = run_sequential(&app, &params, vec![(meta(0, 4, 2), encode(&flat))]);
        let got = next_centroids(&app, &robj, &params);
        let expect = kmeans_reference_pass(&pts, &params);
        assert_eq!(got, expect);
        assert_eq!(got.centroid(0), &[0.5, 0.5]);
        assert_eq!(got.centroid(1), &[9.5, 9.5]);
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        let app = KMeansApp::new(1, 2);
        let params = Centroids::new(1, vec![0.0, 100.0]);
        let pts = vec![1.0f32, 2.0]; // all near centroid 0
        let robj = run_sequential(&app, &params, vec![(meta(0, 2, 1), encode(&pts))]);
        let next = next_centroids(&app, &robj, &params);
        assert_eq!(next.centroid(1), &[100.0], "empty cluster unchanged");
        assert!((next.centroid(0)[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn centroid_shift_metric() {
        let a = Centroids::new(2, vec![0.0, 0.0, 1.0, 1.0]);
        let b = Centroids::new(2, vec![0.0, 0.0, 4.0, 5.0]);
        assert!((centroid_shift(&a, &b) - 5.0).abs() < 1e-12);
        assert_eq!(centroid_shift(&a, &a), 0.0);
    }

    #[test]
    fn iteration_converges_on_blobs() {
        // Two tight blobs; k-means should land on their means in a few passes.
        let mut pts = Vec::new();
        for i in 0..50 {
            let j = (i % 7) as f32 * 0.01;
            pts.push(vec![1.0 + j, 1.0 - j]);
            pts.push(vec![8.0 - j, 8.0 + j]);
        }
        let mut params = Centroids::new(2, vec![0.0, 0.0, 10.0, 10.0]);
        for _ in 0..10 {
            let next = kmeans_reference_pass(&pts, &params);
            if centroid_shift(&params, &next) < 1e-9 {
                params = next;
                break;
            }
            params = next;
        }
        assert!((params.centroid(0)[0] - 1.03).abs() < 0.05);
        assert!((params.centroid(1)[0] - 7.97).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "wrong k")]
    fn mismatched_params_rejected() {
        let app = KMeansApp::new(2, 3);
        let params = Centroids::new(2, vec![0.0, 0.0]);
        app.init(&params);
    }
}
