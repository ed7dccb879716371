//! Prefetch-pipeline integration tests: correctness of the slave's
//! background fetcher at every lookahead depth, and the overlap win itself.
//!
//! The pipeline must be *invisible* to the computation: any
//! `prefetch_depth` — under any kill schedule or fetch-fault rate — has to
//! produce the exact reduction object of the serial (depth 0) slave,
//! because leases held by the fetcher are reclaimed, not lost, when a
//! slave dies. And on a workload where retrieval time rivals compute time,
//! depth 1 has to actually deliver the overlap it exists for.

mod common;

use cb_storage::builder::{materialize, StoreMap};
use cb_storage::faults::{FaultMode, FlakyStore};
use cb_storage::layout::{ChunkMeta, LocationId, Placement};
use cb_storage::organizer::organize_even;
use cb_storage::s3sim::{RemoteProfile, RemoteStore};
use cb_storage::store::{MemStore, ObjectStore};
use cloudburst_core::api::{GRApp, ReductionObject};
use cloudburst_core::config::{RuntimeConfig, SlaveKill};
use cloudburst_core::deploy::{ClusterSpec, DataFabric, Deployment};
use cloudburst_core::runtime::run;
use common::KillGate;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const LOCAL: LocationId = LocationId(0);
const CLOUD: LocationId = LocationId(1);

/// Sums little-endian u64 units. Integer addition is exactly associative
/// and commutative, so *any* job-to-slave assignment — and any recovery
/// interleaving — must reproduce the same bits.
struct SumApp;

#[derive(Debug, PartialEq, Eq)]
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

/// Every depth produces the serial result on the healthy path.
#[test]
fn every_depth_matches_the_serial_reduction() {
    let (layout, placement, stores) = setup(6, 0.5);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let mut results = Vec::new();
    for depth in 0..=3 {
        let cfg = RuntimeConfig {
            prefetch_depth: depth,
            ..Default::default()
        };
        let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
        assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
        results.push(out.result);
    }
    assert!(
        results.iter().all(|r| r.0 == expected_sum(&layout)),
        "reduction must be bit-identical across depths: {results:?}"
    );
}

/// A retiring slave's prefetched-but-unprocessed leases are reclaimed
/// uncharged; the work still lands exactly once.
#[test]
fn killed_slave_in_flight_prefetches_are_reclaimed() {
    let (layout, placement, stores) = setup(8, 0.5);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let cfg = KillGate::install(RuntimeConfig {
        prefetch_depth: 3, // die holding up to 3 undigested leases
        kill_schedule: vec![
            SlaveKill {
                cluster: 0,
                slave: 0,
                after_jobs: 1,
            },
            SlaveKill {
                cluster: 1,
                slave: 1,
                after_jobs: 2,
            },
        ],
        ..Default::default()
    });
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
    assert_eq!(out.report.recovery.slaves_killed, 2);
}

/// The overlap win itself, in wall-clock time: one slave, one remote store
/// tuned so a fetch and a fold both take ~20 ms. Serial pays
/// `n * (fetch + fold)`; a depth-1 pipeline pays ~`fetch + n * fold`. The
/// ISSUE's acceptance floor is 1.3x (the tuned ceiling is ~1.8x).
#[test]
fn depth_one_beats_serial_on_a_remote_dominated_workload() {
    // 8 chunks x 512 KiB; one core so nothing but the pipeline overlaps.
    let layout = organize_even(4, 1 << 20, 1 << 19, 8).unwrap();
    let placement = Placement::all_at(4, CLOUD);
    let mut stores: StoreMap = BTreeMap::new();
    let profile = RemoteProfile {
        request_latency: Duration::from_millis(1),
        // The aggregate binds, so a fetch is one GET:
        // 512 KiB / 25 MB/s ~= 21 ms per fetch.
        aggregate_bps: 25.0e6,
        per_conn_bps: f64::INFINITY,
    };
    let backing = Arc::new(MemStore::new("s3-backing"));
    stores.insert(
        CLOUD,
        Arc::new(RemoteStore::new("s3", backing, profile)) as Arc<dyn ObjectStore>,
    );
    materialize(&layout, &placement, &stores, fill).unwrap();
    let deployment = Deployment::new(
        vec![ClusterSpec::new("local", CLOUD, 1)],
        DataFabric::direct(&stores),
    );

    let timed = |depth: usize| {
        let cfg = RuntimeConfig {
            prefetch_depth: depth,
            synthetic_compute_ns_per_unit: 300, // 65536 units ~= 20 ms per fold
            ..Default::default()
        };
        let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
        assert_eq!(out.result.0, expected_sum(&layout), "depth {depth}");
        out.report
    };

    let serial = timed(0);
    let piped = timed(1);
    let speedup = serial.total_s / piped.total_s;
    assert!(
        speedup >= 1.3,
        "depth 1 must overlap retrieval with compute: serial {:.3}s, piped {:.3}s ({speedup:.2}x)",
        serial.total_s,
        piped.total_s
    );
    let c = piped.cluster("local").unwrap();
    assert!(
        c.overlap_saved_s > 0.5 * c.retrieval_s,
        "most retrieval should hide behind compute: {c:?}"
    );
    // A serial slave blocks for at least the full retrieval (its measured
    // stall also includes master round-trip overhead), so nothing is hidden.
    let s = serial.cluster("local").unwrap();
    assert!(
        s.fetch_stall_s >= 0.9 * s.retrieval_s,
        "a serial slave stalls for every retrieval second: {s:?}"
    );
    assert!(
        s.overlap_saved_s < 0.1 * s.retrieval_s,
        "a serial slave has nothing to hide retrieval behind: {s:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pipelining is invisible under fire: any depth x kill schedule x
    /// fetch-fault rate reproduces the serial reduction object, with every
    /// chunk folded exactly once.
    #[test]
    fn any_depth_under_faults_matches_serial(
        depth in 0usize..=3,
        kills in prop::collection::vec((0usize..2, 0usize..3, 0u64..4), 0..4),
        fault_denom in 0u32..4, // fault probability 0, 1/4, 1/3, 1/2 of GETs
    ) {
        let (layout, placement, stores) = setup(4, 0.5);
        let mut deployment = two_cluster_deployment(&stores, 3, 3);
        if fault_denom > 0 {
            let probability = 1.0 / (fault_denom + 1) as f64;
            for site in [LOCAL, CLOUD] {
                deployment.fabric.wrap_paths_to(site, |s| {
                    Arc::new(FlakyStore::new(s, FaultMode::Random { probability }, 2011))
                });
            }
        }
        let kill_schedule: Vec<SlaveKill> = kills
            .iter()
            .filter(|&&(c, s, _)| !(c == 0 && s == 0)) // keep one survivor
            .map(|&(cluster, slave, after_jobs)| SlaveKill { cluster, slave, after_jobs })
            .collect();
        let cfg = RuntimeConfig {
            prefetch_depth: depth,
            kill_schedule,
            retrieval_retries: 1,
            retrieval_backoff: Duration::ZERO,
            ..Default::default()
        };
        let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
        prop_assert_eq!(out.result.0, expected_sum(&layout));
        prop_assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
    }
}
