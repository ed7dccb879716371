//! The Generalized Reduction programming interface (paper §III-A, Fig. 1).
//!
//! Unlike Map-Reduce — even with a Combine function — the generalized
//! reduction model never materializes intermediate `(key, value)` pairs:
//! each data element is processed and folded *immediately* into a
//! **reduction object** (`proc(e)` in the paper's figure). After all
//! elements are consumed, per-worker reduction objects are merged pairwise
//! in a **global reduction**. The model trades generality (the fold must be
//! order-insensitive) for the absence of shuffle, sort, grouping, and
//! intermediate memory — which is precisely what makes it suitable for
//! cloud bursting, where inter-cluster traffic is the scarce resource.
//!
//! An application supplies three things (paper §III-A):
//!
//! 1. a **Reduction Object** — any type implementing [`ReductionObject`];
//! 2. a **Local Reduction** — [`GRApp::local_reduce`], folding one data unit
//!    into the object; the result must not depend on unit order;
//! 3. a **Global Reduction** — [`ReductionObject::merge`], combining two
//!    objects; shipped combiners live in [`crate::combine`].
//!
//! The runtime folds each chunk through [`GRApp::fold_chunk`]. Its provided
//! body is the reference semantics — [`GRApp::decode_chunk`], then
//! `local_reduce` on every unit — and apps override it to fold straight
//! from the chunk bytes. [`run_sequential`] always takes the reference
//! route, so it is the oracle for the fast one.

use cb_storage::layout::ChunkMeta;
use std::fmt;

/// A mergeable accumulator — the *reduction object* of the paper.
///
/// # Contract
///
/// `merge` must be **commutative and associative** up to the application's
/// notion of equivalence: for the framework to be free to process chunks in
/// any order on any node, `a ⊕ b == b ⊕ a` and `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`.
/// The shipped combiners are property-tested against this contract; user
/// implementations should be too.
pub trait ReductionObject: Send + 'static {
    /// Fold `other` into `self` (the global-reduction combine step).
    fn merge(&mut self, other: Self);

    /// Approximate wire size of this object in bytes.
    ///
    /// The runtime uses this to model (and the simulator to charge) the
    /// inter-cluster transfer of reduction objects during global reduction —
    /// the paper's pagerank experiments show this matters enormously when
    /// the object is hundreds of megabytes.
    fn size_bytes(&self) -> usize;
}

/// A generalized-reduction application.
///
/// `Params` carries read-only per-pass state broadcast to every worker
/// (e.g. current k-means centroids, the query point set for k-NN, the rank
/// vector of the previous PageRank iteration). Iterative algorithms run the
/// framework once per pass with updated `Params`.
pub trait GRApp: Send + Sync + 'static {
    /// The smallest atomically-processable element (paper: "data unit").
    type Unit: Send;
    /// The reduction object type.
    type RObj: ReductionObject;
    /// Read-only broadcast state for one pass.
    type Params: Send + Sync;

    /// Decode a chunk's raw bytes into data units: the reference route's
    /// view of a chunk, one `proc(e)` element per unit.
    ///
    /// `meta.units` tells the expected count; implementations should
    /// assert it to catch index corruption early. [`GRApp::fold_chunk`]
    /// is where a bad chunk is reported rather than asserted.
    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<Self::Unit>;

    /// A fresh (identity) reduction object.
    fn init(&self, params: &Self::Params) -> Self::RObj;

    /// Fold one unit into the reduction object. Must be order-insensitive
    /// across units (see [`ReductionObject`] contract).
    fn local_reduce(&self, params: &Self::Params, robj: &mut Self::RObj, unit: &Self::Unit);

    /// Fold every unit of one chunk into `robj`; returns the unit count.
    ///
    /// The runtime folds every chunk through this. The provided body is the
    /// reference route: [`decode_chunk`](GRApp::decode_chunk), then
    /// [`local_reduce`](GRApp::local_reduce) on each unit. An override
    /// folds straight from `bytes` instead, with no unit materialised, and
    /// must leave `robj` exactly as the reference route would.
    ///
    /// An override returns `Err` when `bytes` disagree with `meta`, and
    /// does so *before* folding any unit: the runtime then fails the job,
    /// which may be retried elsewhere, so a partial fold would count units
    /// twice.
    fn fold_chunk(
        &self,
        params: &Self::Params,
        robj: &mut Self::RObj,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        let units = self.decode_chunk(meta, bytes);
        reduce_units(self, params, robj, &units);
        Ok(units.len() as u64)
    }
}

/// Why a chunk's bytes cannot be folded: they disagree with the chunk's
/// index entry, or a record holds a value the app cannot take. The
/// organizer never writes such a chunk, so this is a wrong unit size, a
/// stale index or data for other params, not a transient fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// `len` bytes are not a whole number of `unit_bytes`-byte records.
    Ragged { len: u64, unit_bytes: u64 },
    /// The chunk holds `found` records; its index entry says `expected`.
    UnitCount { expected: u64, found: u64 },
    /// Record `record` (counted from 0 in the chunk) holds `value`, which
    /// must be below `limit` (e.g. an edge to a page past the graph).
    OutOfRange { record: u64, value: u64, limit: u64 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Ragged { len, unit_bytes } => write!(
                f,
                "chunk of {len} bytes is not a whole number of {unit_bytes}-byte records"
            ),
            DecodeError::UnitCount { expected, found } => write!(
                f,
                "unit count mismatch: the index says {expected}, the chunk holds {found}"
            ),
            DecodeError::OutOfRange {
                record,
                value,
                limit,
            } => write!(
                f,
                "record {record} holds {value}, out of range: must be below {limit}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

// --- Composition: tuples and vectors of reduction objects are reduction
// --- objects, merged component-wise. Lets an application accumulate
// --- several independent statistics in one pass without a wrapper type.

impl<A: ReductionObject, B: ReductionObject> ReductionObject for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes()
    }
}

impl<A: ReductionObject, B: ReductionObject, C: ReductionObject> ReductionObject for (A, B, C) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
        self.2.merge(other.2);
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes() + self.2.size_bytes()
    }
}

/// Slot-wise merge; both sides must have the same length (same number of
/// logical slots on every worker).
impl<R: ReductionObject> ReductionObject for Vec<R> {
    fn merge(&mut self, other: Self) {
        assert_eq!(
            self.len(),
            other.len(),
            "merging Vec<RObj> of different lengths"
        );
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }
    fn size_bytes(&self) -> usize {
        self.iter().map(|r| r.size_bytes()).sum()
    }
}

/// Process a whole decoded chunk sequentially — the reference semantics any
/// distributed schedule must reproduce. Exposed for tests, benchmarks, and
/// the sequential baselines.
pub fn reduce_units<A: GRApp + ?Sized>(
    app: &A,
    params: &A::Params,
    robj: &mut A::RObj,
    units: &[A::Unit],
) {
    for u in units {
        app.local_reduce(params, robj, u);
    }
}

/// Run an app over an in-memory corpus on a single thread: decode every
/// chunk, fold every unit, return the final object. This is the oracle the
/// integration tests compare every distributed configuration against.
pub fn run_sequential<A: GRApp>(
    app: &A,
    params: &A::Params,
    chunks: impl IntoIterator<Item = (ChunkMeta, Vec<u8>)>,
) -> A::RObj {
    let mut robj = app.init(params);
    for (meta, bytes) in chunks {
        let units = app.decode_chunk(&meta, &bytes);
        reduce_units(app, params, &mut robj, &units);
    }
    robj
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::{ChunkId, FileId};

    /// Trivial app: units are little-endian u64s, reduction is their sum.
    struct SumApp;

    pub struct Sum(u64);

    impl ReductionObject for Sum {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
        }
        fn size_bytes(&self) -> usize {
            8
        }
    }

    impl GRApp for SumApp {
        type Unit = u64;
        type RObj = Sum;
        type Params = ();

        fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<u64> {
            assert_eq!(bytes.len() as u64, meta.len);
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        }
        fn init(&self, _: &()) -> Sum {
            Sum(0)
        }
        fn local_reduce(&self, _: &(), robj: &mut Sum, unit: &u64) {
            robj.0 += unit;
        }
    }

    fn chunk(id: u32, vals: &[u64]) -> (ChunkMeta, Vec<u8>) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        (
            ChunkMeta {
                id: ChunkId(id),
                file: FileId(0),
                offset: 0,
                len: bytes.len() as u64,
                units: vals.len() as u64,
            },
            bytes,
        )
    }

    #[test]
    fn sequential_oracle_sums() {
        let r = run_sequential(
            &SumApp,
            &(),
            vec![chunk(0, &[1, 2, 3]), chunk(1, &[10, 20])],
        );
        assert_eq!(r.0, 36);
    }

    #[test]
    fn merge_matches_split_processing() {
        let all = run_sequential(&SumApp, &(), vec![chunk(0, &[1, 2, 3, 4, 5, 6])]);
        let mut a = run_sequential(&SumApp, &(), vec![chunk(0, &[1, 2, 3])]);
        let b = run_sequential(&SumApp, &(), vec![chunk(1, &[4, 5, 6])]);
        a.merge(b);
        assert_eq!(a.0, all.0);
    }

    #[test]
    fn empty_corpus_is_identity() {
        let r = run_sequential(&SumApp, &(), std::iter::empty());
        assert_eq!(r.0, 0);
    }

    #[test]
    fn tuple_robjs_merge_componentwise() {
        let mut a = (Sum(1), Sum(10));
        a.merge((Sum(2), Sum(20)));
        assert_eq!(a.0 .0, 3);
        assert_eq!(a.1 .0, 30);
        assert_eq!(a.size_bytes(), 16);

        let mut t = (Sum(1), Sum(2), Sum(3));
        t.merge((Sum(10), Sum(20), Sum(30)));
        assert_eq!((t.0 .0, t.1 .0, t.2 .0), (11, 22, 33));
    }

    #[test]
    fn vec_robjs_merge_slotwise() {
        let mut a = vec![Sum(1), Sum(2)];
        a.merge(vec![Sum(10), Sum(20)]);
        assert_eq!(a[0].0, 11);
        assert_eq!(a[1].0, 22);
        assert_eq!(a.size_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn vec_robjs_length_mismatch_panics() {
        let mut a = vec![Sum(1)];
        a.merge(vec![Sum(1), Sum(2)]);
    }
}
