//! Summary statistics over a stream of scalar readings — a small
//! application showing *composed* reduction objects: one pass accumulates a
//! `(Moments, Histogram, MinMax)` triple (component-wise merge comes from
//! the blanket tuple impl in `cloudburst_core::api`).
//!
//! Units are little-endian `f64` readings (sensor samples, latencies, ...).

use crate::{expect_records, fold_values};
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::{Histogram, MinMax, Moments};

/// One 8-byte reading record.
fn reading(rec: &[u8]) -> f64 {
    f64::from_le_bytes(rec.try_into().unwrap())
}

/// Parameters: the histogram range (fixed per pass so per-worker histograms
/// are merge-compatible).
#[derive(Debug, Clone, Copy)]
pub struct StatsQuery {
    pub histogram_lo: f64,
    pub histogram_hi: f64,
    pub histogram_bins: usize,
}

/// The statistics application.
#[derive(Debug, Clone, Default)]
pub struct StatsApp;

impl GRApp for StatsApp {
    type Unit = f64;
    type RObj = (Moments, Histogram, MinMax);
    type Params = StatsQuery;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<f64> {
        expect_records(meta, bytes, 8).map(reading).collect()
    }

    fn init(&self, q: &StatsQuery) -> (Moments, Histogram, MinMax) {
        (
            Moments::new(),
            Histogram::new(q.histogram_lo, q.histogram_hi, q.histogram_bins),
            MinMax::default(),
        )
    }

    fn local_reduce(&self, _q: &StatsQuery, robj: &mut (Moments, Histogram, MinMax), unit: &f64) {
        robj.0.observe(*unit);
        robj.1.observe(*unit);
        // MinMax is integer-domain; readings are observed at millisecond
        // resolution (scaled), which is exact for the comparison purpose.
        robj.2.observe((*unit * 1000.0).round() as i64);
    }

    fn fold_chunk(
        &self,
        q: &StatsQuery,
        robj: &mut (Moments, Histogram, MinMax),
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        fold_values(self, q, robj, meta, bytes, 8, reading)
    }
}

/// Encode readings for materialization.
pub fn encode_readings(readings: &[f64], buf: &mut [u8]) {
    assert_eq!(buf.len(), readings.len() * 8);
    for (r, rec) in readings.iter().zip(buf.chunks_exact_mut(8)) {
        rec.copy_from_slice(&r.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::{run_sequential, ReductionObject};

    fn chunk(vals: &[f64]) -> (ChunkMeta, Vec<u8>) {
        let mut buf = vec![0u8; vals.len() * 8];
        encode_readings(vals, &mut buf);
        (
            ChunkMeta {
                id: ChunkId(0),
                file: FileId(0),
                offset: 0,
                len: buf.len() as u64,
                units: vals.len() as u64,
            },
            buf,
        )
    }

    fn query() -> StatsQuery {
        StatsQuery {
            histogram_lo: 0.0,
            histogram_hi: 10.0,
            histogram_bins: 10,
        }
    }

    #[test]
    fn one_pass_gets_all_three_statistics() {
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let (meta, bytes) = chunk(&vals);
        let (moments, hist, minmax) = run_sequential(&StatsApp, &query(), vec![(meta, bytes)]);
        assert_eq!(moments.count(), 8);
        assert!((moments.mean() - 5.0).abs() < 1e-12);
        assert!((moments.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(hist.count(), 8);
        assert_eq!(hist.bins()[4], 3, "three readings of 4.0 in [4,5)");
        assert_eq!(hist.bins()[5], 2, "two readings of 5.0 in [5,6)");
        assert_eq!(minmax.min, Some(2_000));
        assert_eq!(minmax.max, Some(9_000));
    }

    #[test]
    fn split_merge_equals_whole() {
        let vals: Vec<f64> = (0..200).map(|i| (i % 10) as f64 + 0.25).collect();
        let (m_all, b_all) = chunk(&vals);
        let whole = run_sequential(&StatsApp, &query(), vec![(m_all, b_all)]);

        let (m1, b1) = chunk(&vals[..77]);
        let (m2, b2) = chunk(&vals[77..]);
        let mut left = run_sequential(&StatsApp, &query(), vec![(m1, b1)]);
        let right = run_sequential(&StatsApp, &query(), vec![(m2, b2)]);
        left.merge(right);

        assert_eq!(left.0.count(), whole.0.count());
        assert!((left.0.mean() - whole.0.mean()).abs() < 1e-9);
        assert!((left.0.variance() - whole.0.variance()).abs() < 1e-9);
        assert_eq!(left.1, whole.1);
        assert_eq!(left.2, whole.2);
    }

    #[test]
    fn robj_size_is_small_and_additive() {
        let q = query();
        let robj = StatsApp.init(&q);
        // Moments (24) + histogram (10*8 + 32) + minmax (16).
        assert_eq!(robj.size_bytes(), 24 + 112 + 16);
    }
}
