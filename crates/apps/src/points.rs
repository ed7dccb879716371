//! Fixed-dimension point records: the on-disk format shared by knn and
//! k-means.
//!
//! A data unit is one point: `dim` little-endian `f32` coordinates
//! (`unit_bytes = 4 * dim`). Chunks hold whole points by construction of the
//! organizer.
//!
//! The point apps fold a record in place through [`coords`], and the
//! per-point arithmetic ([`dist2`] here, `Centroids::nearest`,
//! `BoxQuery::contains`) takes any coordinate iterator, so one function
//! serves both a record and a decoded `Vec<f32>`. `Centroids::nearest`
//! clones its iterator and walks it once per tile of eight centroids, not
//! once per centroid. k-means' `fold_chunk` reads each record's [`coords`]
//! once, into a block of eight points transposed on the stack.

use std::borrow::Borrow;

/// Byte size of one point record.
pub fn unit_bytes(dim: usize) -> u64 {
    (dim * 4) as u64
}

/// Encode `points` (flattened row-major) into `buf`. Panics if sizes do not
/// line up — generation bugs should fail fast.
pub fn encode_into(points: &[f32], dim: usize, buf: &mut [u8]) {
    assert_eq!(points.len() % dim, 0, "ragged point array");
    assert_eq!(buf.len(), points.len() * 4, "buffer/points size mismatch");
    for (src, dst) in points.iter().zip(buf.chunks_exact_mut(4)) {
        dst.copy_from_slice(&src.to_le_bytes());
    }
}

/// The coordinates of one point record (one of [`crate::records`]), read
/// in place.
pub fn coords(rec: &[u8]) -> impl Iterator<Item = f32> + Clone + '_ {
    rec.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
}

/// Decode one point record into an owned point.
pub fn point(rec: &[u8]) -> Vec<f32> {
    coords(rec).collect()
}

/// Squared Euclidean distance from the point `a` (a slice or a record's
/// [`coords`]) to `b`.
pub fn dist2(a: impl IntoIterator<Item = impl Borrow<f32>>, b: &[f32]) -> f64 {
    a.into_iter()
        .zip(b)
        .map(|(x, &y)| {
            let d = *x.borrow() as f64 - y as f64;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records;
    use cb_storage::layout::{ChunkId, ChunkMeta, FileId};

    fn decode(bytes: &[u8], dim: usize, units: u64) -> Vec<Vec<f32>> {
        let meta = ChunkMeta {
            id: ChunkId(0),
            file: FileId(0),
            offset: 0,
            len: bytes.len() as u64,
            units,
        };
        records(&meta, bytes, unit_bytes(dim))
            .unwrap_or_else(|e| panic!("{e}"))
            .map(point)
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let pts = vec![1.0f32, 2.0, 3.0, -4.5, 0.25, 1e-7];
        let mut buf = vec![0u8; 24];
        encode_into(&pts, 3, &mut buf);
        let back = decode(&buf, 3, 2);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], vec![1.0, 2.0, 3.0]);
        assert_eq!(back[1], vec![-4.5, 0.25, 1e-7]);
    }

    #[test]
    fn unit_bytes_matches_encoding() {
        assert_eq!(unit_bytes(3), 12);
        assert_eq!(unit_bytes(1), 4);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_chunk_rejected() {
        decode(&[0u8; 10], 3, 1);
    }

    #[test]
    fn dist2_basic() {
        assert_eq!(dist2([0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2([1.0], &[1.0]), 0.0);
    }

    #[test]
    fn dist2_of_a_record_equals_dist2_of_its_point() {
        let mut rec = vec![0u8; 12];
        encode_into(&[1.5, -2.0, 1e-7], 3, &mut rec);
        let q = [0.25, 3.0, -1.0];
        assert_eq!(dist2(coords(&rec), &q), dist2(point(&rec), &q));
    }
}
