//! # cb-apps — the evaluation applications
//!
//! The three data-intensive applications of the paper's evaluation
//! (§IV-A), plus wordcount for the API-comparison experiments:
//!
//! * [`knn`] — k-Nearest-Neighbors search: low compute, medium-high I/O,
//!   small reduction object (a bounded top-k heap).
//! * [`kmeans`] — k-Means clustering: heavy compute, low-medium I/O, small
//!   reduction object (per-centroid sums and counts).
//! * [`pagerank`] — PageRank: low-medium compute, high I/O, **very large**
//!   reduction object (dense rank accumulator over all pages).
//! * [`wordcount`] — keyed counting, expressed on both the generalized-
//!   reduction API and the baseline MapReduce engine.
//! * [`selection`] — distributed grep over point records (data-dependent
//!   reduction-object size).
//! * [`sample`] — distributed uniform sampling (order-insensitive bottom-k
//!   sketch) and k-means++ seeding on the sample.
//!
//! Plus the substrate the examples/tests share:
//!
//! * [`records`] — a chunk's fixed-size records, checked against its index
//!   entry. Every app's `fold_chunk` folds straight from them, with no
//!   heap object per unit, and returns the [`DecodeError`] of a bad chunk;
//!   every `decode_chunk` (the reference route) maps over them.
//! * [`points`] — the fixed-dimension point record format.
//! * [`gen`] — deterministic synthetic dataset generators (uniform points,
//!   Gaussian blobs, power-law web graphs, skewed word streams).
//! * [`scenario`] — one-call construction of the paper's hybrid
//!   local+cloud environments at laptop scale.
//!
//! The crate denies `unsafe` code with one exception: the call into
//! k-means' AVX2 compilation of its block kernel ([`kmeans`]). Running
//! code compiled for AVX2 on a CPU without it is undefined behaviour, so
//! the call is `unsafe`; it sits behind a run-time check of the CPU, and
//! the kernel it runs is safe code, the same body the portable build runs.

#![deny(unsafe_code)]

pub mod gen;
pub mod kmeans;
pub mod knn;
pub mod mr_adapters;
pub mod pagerank;
pub mod points;
pub mod sample;
pub mod scenario;
pub mod selection;
pub mod stats;
pub mod wordcount;

use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use std::slice::ChunksExact;

/// A chunk's records, `unit_bytes` each, or why the chunk cannot hold
/// them: `bytes` must be whole records and exactly `meta.units` of them.
/// The organizer writes chunks that way, so anything else is a wrong unit
/// size or a stale index.
pub fn records<'a>(
    meta: &ChunkMeta,
    bytes: &'a [u8],
    unit_bytes: u64,
) -> Result<ChunksExact<'a, u8>, DecodeError> {
    let len = bytes.len() as u64;
    let (found, rest) = (len / unit_bytes, len % unit_bytes);
    if rest > 0 {
        return Err(DecodeError::Ragged { len, unit_bytes });
    }
    if found != meta.units {
        return Err(DecodeError::UnitCount {
            expected: meta.units,
            found,
        });
    }
    Ok(bytes.chunks_exact(unit_bytes as usize))
}

/// [`records`] for a `decode_chunk`, which has no error path: a bad chunk
/// panics with the reason.
fn expect_records<'a>(meta: &ChunkMeta, bytes: &'a [u8], unit_bytes: u64) -> ChunksExact<'a, u8> {
    records(meta, bytes, unit_bytes).unwrap_or_else(|e| panic!("{e}"))
}

/// `fold_chunk` for an app whose unit is a plain value: each record is
/// read onto the stack with `read` and folded by the app's `local_reduce`.
fn fold_values<A: GRApp>(
    app: &A,
    params: &A::Params,
    robj: &mut A::RObj,
    meta: &ChunkMeta,
    bytes: &[u8],
    unit_bytes: u64,
    read: impl Fn(&[u8]) -> A::Unit,
) -> Result<u64, DecodeError> {
    for rec in records(meta, bytes, unit_bytes)? {
        app.local_reduce(params, robj, &read(rec));
    }
    Ok(meta.units)
}
