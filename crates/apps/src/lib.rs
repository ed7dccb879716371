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
//!   entry; every app's `decode_chunk` maps over it.
//! * [`points`] — the fixed-dimension point record format.
//! * [`gen`] — deterministic synthetic dataset generators (uniform points,
//!   Gaussian blobs, power-law web graphs, skewed word streams).
//! * [`scenario`] — one-call construction of the paper's hybrid
//!   local+cloud environments at laptop scale.

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
use std::slice::ChunksExact;

/// A chunk's records, `unit_bytes` each. Panics unless `bytes` holds whole
/// records and exactly `meta.units` of them: the organizer writes chunks
/// that way, so anything else is a wrong unit size or a stale index.
pub fn records<'a>(meta: &ChunkMeta, bytes: &'a [u8], unit_bytes: u64) -> ChunksExact<'a, u8> {
    let len = bytes.len() as u64;
    assert_eq!(
        len % unit_bytes,
        0,
        "chunk not a whole number of {unit_bytes}-byte records"
    );
    assert_eq!(len / unit_bytes, meta.units, "unit count mismatch");
    bytes.chunks_exact(unit_bytes as usize)
}
