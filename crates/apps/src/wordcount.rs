//! Word count — the fourth application, used mainly to compare the
//! generalized-reduction API against the baseline MapReduce engine (Fig. 1):
//! the same keyed aggregation expressed both ways.
//!
//! Units are 8-byte word ids (a real system would hash tokens to ids during
//! ingestion); the reduction object is a [`KeyedSum`].

use crate::{expect_records, fold_values};
use cb_storage::layout::ChunkMeta;
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::KeyedSum;

/// One 8-byte word-id record.
fn word(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec.try_into().unwrap())
}

/// The wordcount application.
#[derive(Debug, Clone, Default)]
pub struct WordCountApp;

impl GRApp for WordCountApp {
    type Unit = u64;
    type RObj = KeyedSum;
    type Params = ();

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<u64> {
        expect_records(meta, bytes, 8).map(word).collect()
    }

    fn init(&self, _: &()) -> KeyedSum {
        KeyedSum::new()
    }

    fn local_reduce(&self, _: &(), robj: &mut KeyedSum, unit: &u64) {
        robj.add(*unit, 1.0);
    }

    fn fold_chunk(
        &self,
        params: &(),
        robj: &mut KeyedSum,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        fold_values(self, params, robj, meta, bytes, 8, word)
    }
}

/// Sequential reference.
pub fn wordcount_reference(words: &[u64]) -> std::collections::BTreeMap<u64, u64> {
    let mut m = std::collections::BTreeMap::new();
    for &w in words {
        *m.entry(w).or_insert(0u64) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};
    use cloudburst_core::api::run_sequential;

    fn encode(words: &[u64]) -> (ChunkMeta, Vec<u8>) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        (
            ChunkMeta {
                id: ChunkId(0),
                file: FileId(0),
                offset: 0,
                len: bytes.len() as u64,
                units: words.len() as u64,
            },
            bytes,
        )
    }

    #[test]
    fn counts_match_reference() {
        let words = vec![3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let (meta, bytes) = encode(&words);
        let robj = run_sequential(&WordCountApp, &(), vec![(meta, bytes)]);
        let expect = wordcount_reference(&words);
        assert_eq!(robj.len(), expect.len());
        for (w, n) in &expect {
            let (sum, cnt) = robj.get(*w).unwrap();
            assert_eq!(sum as u64, *n);
            assert_eq!(cnt, *n);
        }
    }

    #[test]
    fn empty_input() {
        let (meta, bytes) = encode(&[]);
        let robj = run_sequential(&WordCountApp, &(), vec![(meta, bytes)]);
        assert!(robj.is_empty());
    }
}
