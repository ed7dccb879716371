//! Fault-injection integration tests: exactly-once processing under flaky
//! stores, slave fail-stops, and whole-cluster loss.
//!
//! The invariant under test is the paper's §III-C recovery claim: because
//! generalized reduction only needs the reduction objects plus the set of
//! unprocessed chunks, any schedule of slave failures that leaves at least
//! one worker alive must produce a result identical to the failure-free run.

mod common;

use cb_storage::builder::{materialize, StoreMap};
use cb_storage::faults::{FaultMode, FlakyStore};
use cb_storage::layout::{ChunkMeta, LocationId, Placement};
use cb_storage::organizer::organize_even;
use cb_storage::store::{MemStore, ObjectStore};
use cloudburst_core::api::{GRApp, ReductionObject};
use cloudburst_core::config::{RuntimeConfig, SlaveKill};
use cloudburst_core::deploy::{ClusterSpec, DataFabric, Deployment};
use cloudburst_core::runtime::{run, RuntimeError};
use common::KillGate;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const LOCAL: LocationId = LocationId(0);
const CLOUD: LocationId = LocationId(1);

/// Sums little-endian u64 units (order-independent, so any interleaving of
/// recovered jobs must reproduce the exact same value).
struct SumApp;

#[derive(Debug)]
struct Sum(u64);

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
        assert_eq!(bytes.len() as u64, meta.len, "short read");
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

fn fill(chunk: &ChunkMeta, buf: &mut [u8]) {
    let v = (chunk.id.0 + 1) as u64;
    for u in buf.chunks_exact_mut(8) {
        u.copy_from_slice(&v.to_le_bytes());
    }
}

fn expected_sum(layout: &cb_storage::layout::DatasetLayout) -> u64 {
    layout
        .chunks
        .iter()
        .map(|c| (c.id.0 + 1) as u64 * c.units)
        .sum()
}

fn setup(
    n_files: usize,
    frac_local: f64,
) -> (cb_storage::layout::DatasetLayout, Placement, StoreMap) {
    let layout = organize_even(n_files, 4096, 512, 8).unwrap();
    let placement = Placement::split_fraction(n_files, frac_local, LOCAL, CLOUD);
    let mut stores: StoreMap = BTreeMap::new();
    stores.insert(
        LOCAL,
        Arc::new(MemStore::new("local-store")) as Arc<dyn ObjectStore>,
    );
    stores.insert(
        CLOUD,
        Arc::new(MemStore::new("cloud-store")) as Arc<dyn ObjectStore>,
    );
    materialize(&layout, &placement, &stores, fill).unwrap();
    (layout, placement, stores)
}

fn two_cluster_deployment(stores: &StoreMap, local_cores: usize, cloud_cores: usize) -> Deployment {
    let fabric = DataFabric::direct(stores);
    Deployment::new(
        vec![
            ClusterSpec::new("local", LOCAL, local_cores),
            ClusterSpec::new("EC2", CLOUD, cloud_cores),
        ],
        fabric,
    )
}

/// Regression for the silent-data-loss bug: a failed fetch used to be
/// reported as *completed*, so the pool drained with the chunk's data never
/// folded. With the storage layer's retries exhausted (zero retries against
/// a first-GET-always-fails store), every key's first fetch surfaces to the
/// slave; the run must still fold every chunk exactly once.
#[test]
fn exactly_once_when_retries_are_exhausted() {
    let (layout, placement, stores) = setup(8, 0.5);
    let mut deployment = two_cluster_deployment(&stores, 2, 2);
    for site in [LOCAL, CLOUD] {
        deployment.fabric.wrap_paths_to(site, |s| {
            Arc::new(FlakyStore::new(s, FaultMode::FirstNPerKey { n: 1 }, 0))
        });
    }
    let cfg = RuntimeConfig {
        retrieval_retries: 0, // storage layer absorbs nothing
        ..Default::default()
    };
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(
        out.result.0,
        expected_sum(&layout),
        "no chunk lost or doubled"
    );
    assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
    let rec = &out.report.recovery;
    assert!(
        rec.fetch_failures > 0,
        "failures must have surfaced: {rec:?}"
    );
    assert!(rec.jobs_reenqueued > 0, "failed jobs must have been re-run");
}

/// With retries enabled, the same fault schedule is absorbed entirely below
/// the scheduler: no job fails, but the retry count is still accounted.
#[test]
fn storage_retries_absorb_transient_faults_below_scheduler() {
    let (layout, placement, stores) = setup(4, 0.5);
    let mut deployment = two_cluster_deployment(&stores, 2, 2);
    deployment.fabric.wrap_paths_to(CLOUD, |s| {
        Arc::new(FlakyStore::new(s, FaultMode::FirstNPerKey { n: 1 }, 0))
    });
    let cfg = RuntimeConfig {
        retrieval_retries: 3,
        retrieval_backoff: std::time::Duration::ZERO,
        ..Default::default()
    };
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    let rec = &out.report.recovery;
    assert_eq!(rec.fetch_failures, 0, "nothing should reach the scheduler");
    assert_eq!(rec.jobs_reenqueued, 0);
    assert!(rec.retries > 0, "the absorbed faults are still visible");
}

/// Killed slaves stop at a job boundary; their partial reduction objects
/// are valid checkpoints, so the result matches the failure-free run.
#[test]
fn killed_slaves_checkpoint_and_survivors_finish() {
    let (layout, placement, stores) = setup(8, 0.5);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let cfg = KillGate::install(RuntimeConfig {
        kill_schedule: vec![
            SlaveKill {
                cluster: 0,
                slave: 0,
                after_jobs: 2,
            },
            SlaveKill {
                cluster: 1,
                slave: 1,
                after_jobs: 1,
            },
        ],
        ..Default::default()
    });
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(
        out.result.0,
        expected_sum(&layout),
        "checkpointed robjs merged"
    );
    assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
    assert_eq!(out.report.recovery.slaves_killed, 2);
}

/// Losing every node at one location must degrade, not hang or panic: the
/// dead cluster's master returns its leases and the survivor steals the
/// orphaned data.
#[test]
fn losing_every_node_at_one_location_is_survivable() {
    let (layout, placement, stores) = setup(6, 0.5);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let cfg = KillGate::install(RuntimeConfig {
        kill_schedule: vec![
            SlaveKill {
                cluster: 1,
                slave: 0,
                after_jobs: 1,
            },
            SlaveKill {
                cluster: 1,
                slave: 1,
                after_jobs: 0,
            },
        ],
        ..Default::default()
    });
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
    assert_eq!(out.report.recovery.slaves_killed, 2);
    let local = out.report.cluster("local").unwrap();
    assert!(
        local.jobs_stolen > 0,
        "the survivor must have taken over cloud-homed data"
    );
}

/// `SumApp` with a bug: decoding chunk 5 panics, on every attempt or on
/// the first one only.
struct PanicsOnChunk5 {
    once: bool,
    fired: AtomicBool,
}

impl GRApp for PanicsOnChunk5 {
    type Unit = u64;
    type RObj = Sum;
    type Params = ();

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<u64> {
        if meta.id.0 == 5 && !(self.once && self.fired.swap(true, Ordering::SeqCst)) {
            panic!("bug decoding chunk 5");
        }
        SumApp.decode_chunk(meta, bytes)
    }
    fn init(&self, _: &()) -> Sum {
        Sum(0)
    }
    fn local_reduce(&self, _: &(), robj: &mut Sum, unit: &u64) {
        robj.0 += unit;
    }
}

/// A run's sum and lost-cluster count, beside the exact sum.
type Panicked = (Result<(u64, usize), RuntimeError>, u64);

/// One run of `PanicsOnChunk5` at `cores` + `cores`, on a watchdog thread:
/// a run that hangs fails the test instead of hanging it.
fn run_panicking(once: bool, cores: usize) -> Panicked {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (layout, placement, stores) = setup(8, 0.5);
        let deployment = two_cluster_deployment(&stores, cores, cores);
        let app = PanicsOnChunk5 {
            once,
            fired: AtomicBool::new(false),
        };
        let cfg = RuntimeConfig::default();
        let out = run(&app, &(), &layout, &placement, &deployment, &cfg);
        let out = out.map(|o| {
            let lost = o
                .report
                .clusters
                .iter()
                .filter(|c| c.name.ends_with("(lost)"));
            (o.result.0, lost.count())
        });
        let _ = tx.send((out, expected_sum(&layout)));
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the run ended within 30 s")
}

/// A panic in app code loses its cluster: the run ends, never hangs. When
/// every attempt panics no cluster can fold the chunk and the run fails
/// naming the panic; when one attempt does, the other cluster redoes the
/// lost cluster's work and the result is exact.
#[test]
fn a_panicking_cluster_is_a_lost_cluster() {
    for cores in [1, 2] {
        match run_panicking(false, cores).0 {
            Err(RuntimeError::JobsFailed { last_error, .. }) => {
                let error = last_error.expect("the panic is reported");
                assert!(error.contains("panicked: bug decoding chunk 5"), "{error}");
            }
            other => panic!("expected JobsFailed, got {other:?}"),
        }
        let (out, expected) = run_panicking(true, cores);
        assert_eq!(out, Ok((expected, 1)), "{cores}+{cores} cores");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random kill schedule that leaves local slave 0 alive yields the
    /// exact failure-free result: every chunk folded exactly once.
    #[test]
    fn random_kill_schedules_uphold_exactly_once(
        kills in prop::collection::vec((0usize..2, 0usize..3, 0u64..5), 0..6)
    ) {
        let (layout, placement, stores) = setup(4, 0.5);
        let deployment = two_cluster_deployment(&stores, 3, 3);
        let kill_schedule: Vec<SlaveKill> = kills
            .iter()
            .filter(|&&(c, s, _)| !(c == 0 && s == 0)) // keep one survivor
            .map(|&(cluster, slave, after_jobs)| SlaveKill { cluster, slave, after_jobs })
            .collect();
        let cfg = RuntimeConfig { kill_schedule, ..Default::default() };
        let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
        prop_assert_eq!(out.result.0, expected_sum(&layout));
        prop_assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
    }
}
