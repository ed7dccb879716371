//! # cloudburst-core — data-intensive computing with cloud bursting
//!
//! A Rust implementation of the middleware described in *"A Framework for
//! Data-Intensive Computing with Cloud Bursting"* (Bicer, Chiu, Agrawal,
//! IEEE CLUSTER 2011): Map-Reduce–style processing of a dataset split
//! between a local cluster and cloud storage, using compute on both sides,
//! with transparent remote retrieval and pooling-based load balancing.
//!
//! * [`api`] — the **generalized reduction** programming model: a
//!   [`api::ReductionObject`] folded in place by [`api::GRApp::local_reduce`]
//!   (no shuffle, no intermediate pairs), merged across workers and clusters.
//!   The runtime folds whole chunks through [`api::GRApp::fold_chunk`],
//!   which an app may override to fold straight from the chunk bytes.
//! * [`combine`] — the shipped combiner library (aggregation, concatenation,
//!   top-k, keyed sums, ...).
//! * [`sched`] — the head's job pool with locality-first consecutive grants
//!   and contention-minimizing work stealing, plus the master-side queue.
//! * [`head`] — the head core every real substrate drives: job pool,
//!   per-cluster result slots, global reduction and report.
//! * [`runtime`] — the real multi-threaded head/master/slave execution
//!   engine over a [`deploy::Deployment`].
//! * [`report`] — the measurement schema (processing / retrieval / sync per
//!   cluster; job and byte counters) matching the paper's figures.
//!
//! ## Quick example
//!
//! See `examples/quickstart.rs` in the repository for a complete program;
//! the short of it:
//!
//! ```
//! use cloudburst_core::api::{GRApp, ReductionObject};
//! use cloudburst_core::combine::Counter;
//! use cb_storage::layout::ChunkMeta;
//!
//! /// Count bytes that equal 0x2A.
//! struct CountStars;
//! impl GRApp for CountStars {
//!     type Unit = u8;
//!     type RObj = Counter;
//!     type Params = ();
//!     fn decode_chunk(&self, _m: &ChunkMeta, bytes: &[u8]) -> Vec<u8> { bytes.to_vec() }
//!     fn init(&self, _: &()) -> Counter { Counter(0) }
//!     fn local_reduce(&self, _: &(), robj: &mut Counter, unit: &u8) {
//!         if *unit == 0x2A { robj.0 += 1; }
//!     }
//! }
//! ```

#![deny(unsafe_code)]

pub mod api;
pub mod combine;
pub mod config;
pub mod deploy;
pub mod head;
pub mod iterate;
pub mod obs;
pub mod report;
pub mod runtime;
pub mod sched;

pub use api::{run_sequential, GRApp, ReductionObject};
pub use config::RuntimeConfig;
pub use deploy::{ClusterSpec, DataFabric, Deployment};
pub use head::Head;
pub use iterate::{run_iterative, IterativeOutcome, Step};
pub use obs::{EventKind, EventRecord, EventSink, RecordingSink, SinkHandle};
pub use report::{ClusterAccount, ClusterBreakdown, RunReport, SlaveStats};
pub use runtime::{
    run, run_cluster, ClusterOutcome, HeadPort, Resolution, RunOutcome, RuntimeError,
};
