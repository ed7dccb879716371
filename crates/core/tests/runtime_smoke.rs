//! End-to-end smoke tests of the threaded runtime on a toy sum application,
//! and of one cluster's shared master against a scripted head.

use bytes::Bytes;
use cb_storage::builder::{materialize, StoreMap};
use cb_storage::layout::{ChunkId, ChunkMeta, LocationId, Placement};
use cb_storage::organizer::organize_even;
use cb_storage::s3sim::{RemoteProfile, RemoteStore, REMOTE_STREAMS};
use cb_storage::store::{MemStore, ObjectStore};
use cloudburst_core::api::{GRApp, ReductionObject};
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::deploy::{ClusterSpec, DataFabric, Deployment};
use cloudburst_core::obs::{EventKind, EventRecord, EventSink, RecordingSink, SinkHandle};
use cloudburst_core::runtime::{
    run, run_cluster, ClusterOutcome, HeadPort, Resolution, RuntimeError,
};
use cloudburst_core::sched::pool::Grant;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

const LOCAL: LocationId = LocationId(0);
const CLOUD: LocationId = LocationId(1);

/// Sums little-endian u64 units.
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
        let units: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(units.len() as u64, meta.units, "unit count mismatch");
        units
    }
    fn init(&self, _: &()) -> Sum {
        Sum(0)
    }
    fn local_reduce(&self, _: &(), robj: &mut Sum, unit: &u64) {
        robj.0 += unit;
    }
}

/// Fill chunks with the value `chunk_id + 1` in every unit, so the expected
/// global sum is analytic.
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

#[test]
fn hybrid_run_matches_oracle() {
    let (layout, placement, stores) = setup(8, 0.5);
    let deployment = two_cluster_deployment(&stores, 3, 3);
    let out = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));

    let r = &out.report;
    assert_eq!(r.total_jobs(), layout.n_jobs() as u64);
    assert_eq!(r.clusters.len(), 2);
    assert!(r.total_s > 0.0);
    assert_eq!(r.robj_bytes, 8);
}

#[test]
fn single_cluster_all_local() {
    let (layout, placement, stores) = setup(4, 1.0);
    let fabric = DataFabric::direct(&stores);
    let deployment = Deployment::new(vec![ClusterSpec::new("local", LOCAL, 4)], fabric);
    let out = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    let c = &out.report.clusters[0];
    assert_eq!(c.jobs_stolen, 0, "no remote data, nothing stolen");
    assert_eq!(c.bytes_remote, 0);
    assert_eq!(c.bytes_local, layout.total_bytes());
}

#[test]
fn skewed_placement_forces_stealing() {
    // All data in the cloud; the local cluster must steal everything it does.
    let (layout, placement, stores) = setup(6, 0.0);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let out = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    let local = out.report.cluster("local").unwrap();
    assert_eq!(
        local.jobs_stolen, local.jobs_processed,
        "every local-cluster job was remote data"
    );
    let ec2 = out.report.cluster("EC2").unwrap();
    assert_eq!(ec2.jobs_stolen, 0);
}

#[test]
fn stealing_disabled_leaves_remote_jobs_to_their_home_cluster() {
    let (layout, placement, stores) = setup(6, 0.5);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let mut cfg = RuntimeConfig::default();
    cfg.pool.allow_stealing = false;
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    for c in &out.report.clusters {
        assert_eq!(c.jobs_stolen, 0);
        assert_eq!(c.bytes_remote, 0);
    }
}

#[test]
fn many_small_jobs_all_processed_exactly_once() {
    let (layout, placement, stores) = setup(16, 0.33);
    let deployment = two_cluster_deployment(&stores, 4, 4);
    let out = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    // The analytic sum is only right if every chunk was folded exactly once.
    assert_eq!(out.result.0, expected_sum(&layout));
    assert_eq!(out.report.total_jobs(), layout.n_jobs() as u64);
}

#[test]
fn missing_file_fails_the_run_without_hanging() {
    let (layout, placement, stores) = setup(4, 0.5);
    // Sabotage: remove one cloud file after materialization. Its chunks can
    // never be processed anywhere, so the run must terminate with an error
    // naming the loss — not hang waiting, and not "succeed" with data
    // silently dropped.
    stores[&CLOUD].delete("part-00002").unwrap();
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let err = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap_err();
    match err {
        RuntimeError::JobsFailed {
            dead,
            unfinished,
            last_error,
        } => {
            assert!(
                !dead.is_empty() || unfinished > 0,
                "some chunks must be reported lost"
            );
            assert!(
                last_error.unwrap().contains("part-00002"),
                "error names the missing file"
            );
        }
        other => panic!("expected JobsFailed, got {other:?}"),
    }
}

#[test]
fn invalid_config_rejected_before_running() {
    let (layout, placement, stores) = setup(2, 0.5);
    let deployment = two_cluster_deployment(&stores, 1, 1);
    let cfg = RuntimeConfig {
        slave_failure_threshold: 0,
        ..Default::default()
    };
    let err = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap_err();
    assert!(matches!(err, RuntimeError::Validation(_)));
}

#[test]
fn missing_fabric_path_rejected() {
    let (layout, placement, stores) = setup(2, 0.5);
    // Build a fabric where the local cluster cannot reach cloud data.
    let mut fabric = DataFabric::new();
    fabric.set_path(LOCAL, LOCAL, Arc::clone(&stores[&LOCAL]));
    fabric.set_path(CLOUD, CLOUD, Arc::clone(&stores[&CLOUD]));
    fabric.set_path(CLOUD, LOCAL, Arc::clone(&stores[&LOCAL]));
    let deployment = Deployment::new(
        vec![
            ClusterSpec::new("local", LOCAL, 1),
            ClusterSpec::new("EC2", CLOUD, 1),
        ],
        fabric,
    );
    let err = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::Validation(_)));
}

#[test]
fn report_breakdown_is_consistent() {
    let (layout, placement, stores) = setup(8, 0.5);
    let deployment = two_cluster_deployment(&stores, 2, 2);
    let out = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    for c in &out.report.clusters {
        assert!(c.wall_s <= out.report.total_s + 1e-9);
        assert!(c.sync_s >= 0.0);
        assert!(c.processing_s >= 0.0);
        assert!(c.retrieval_s >= 0.0);
        // processing + retrieval + sync == wall (by construction of sync).
        let sum = c.processing_s + c.retrieval_s + c.sync_s;
        assert!(
            (sum - c.wall_s).abs() < 1e-6 || sum <= c.wall_s,
            "breakdown exceeds wall: {sum} vs {}",
            c.wall_s
        );
        assert_eq!(
            c.bytes_local + c.bytes_remote,
            layout
                .chunks
                .iter()
                .filter(|_| true)
                .map(|_| 0u64)
                .sum::<u64>()
                + c.bytes_local
                + c.bytes_remote
        );
    }
    // One cluster idles while the other finishes; at most one has nonzero
    // idle... both can be ~0, but never both large. Just sanity: idle >= 0.
    assert!(out.report.clusters.iter().all(|c| c.idle_end_s >= 0.0));
}

#[test]
fn synthetic_compute_slows_processing() {
    let (layout, placement, stores) = setup(2, 1.0);
    let fabric = DataFabric::direct(&stores);
    let deployment = Deployment::new(vec![ClusterSpec::new("local", LOCAL, 2)], fabric);

    let fast = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();

    let cfg = RuntimeConfig {
        synthetic_compute_ns_per_unit: 2_000, // 2 µs per unit
        ..Default::default()
    };
    let slow = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();

    assert_eq!(slow.result.0, fast.result.0);
    let fast_p = fast.report.clusters[0].processing_s;
    let slow_p = slow.report.clusters[0].processing_s;
    assert!(
        slow_p > fast_p * 2.0,
        "synthetic compute should dominate: fast={fast_p} slow={slow_p}"
    );
}

/// Counts the GETs through one fabric path and the threads that issue
/// them; forwards the path's stream count.
struct Counting {
    inner: Arc<dyn ObjectStore>,
    gets: AtomicUsize,
    threads: Mutex<HashSet<ThreadId>>,
}

impl ObjectStore for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        self.inner.put(key, data)
    }
    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        self.gets.fetch_add(1, Ordering::SeqCst);
        self.threads.lock().unwrap().insert(thread::current().id());
        self.inner.get_range(key, offset, len)
    }
    fn size_of(&self, key: &str) -> io::Result<u64> {
        self.inner.size_of(key)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn delete(&self, key: &str) -> io::Result<bool> {
        self.inner.delete(key)
    }
    fn streams(&self) -> usize {
        self.inner.streams()
    }
}

/// One single-core cluster at `site` reads every chunk, all homed in the
/// cloud, through `path(backing)` behind a [`Counting`] store. Chunks are
/// 128 KiB. Returns the chunk count and the counter.
fn fan_out(
    site: LocationId,
    path: impl FnOnce(Arc<dyn ObjectStore>) -> Arc<dyn ObjectStore>,
) -> (usize, Arc<Counting>) {
    let layout = organize_even(2, 1 << 18, 1 << 17, 8).unwrap();
    let placement = Placement::all_at(2, CLOUD);
    let backing: Arc<dyn ObjectStore> = Arc::new(MemStore::new("cloud-store"));
    let stores: StoreMap = BTreeMap::from([(CLOUD, Arc::clone(&backing))]);
    materialize(&layout, &placement, &stores, fill).unwrap();
    let counting = Arc::new(Counting {
        inner: path(backing),
        gets: AtomicUsize::new(0),
        threads: Mutex::new(HashSet::new()),
    });
    let mut fabric = DataFabric::new();
    fabric.set_path(site, CLOUD, Arc::clone(&counting) as _);
    let deployment = Deployment::new(vec![ClusterSpec::new("only", site, 1)], fabric);
    let out = run(
        &SumApp,
        &(),
        &layout,
        &placement,
        &deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    let stolen = if site == CLOUD { 0 } else { layout.n_jobs() };
    assert_eq!(out.report.clusters[0].jobs_stolen, stolen as u64);
    (layout.n_jobs(), counting)
}

#[test]
fn a_cluster_reads_its_own_capped_site_over_remote_streams() {
    let (chunks, path) = fan_out(CLOUD, |backing| {
        let capped = RemoteProfile {
            request_latency: Duration::ZERO,
            aggregate_bps: f64::INFINITY,
            per_conn_bps: 1.0e9,
        };
        Arc::new(RemoteStore::new("s3-intra-cloud", backing, capped))
    });
    assert_eq!(
        path.gets.load(Ordering::SeqCst),
        REMOTE_STREAMS * chunks,
        "a capped path is read over {REMOTE_STREAMS} GETs per chunk"
    );
}

#[test]
fn stealing_over_an_uncapped_path_reads_each_chunk_with_one_get() {
    let (chunks, path) = fan_out(LOCAL, |backing| backing);
    assert_eq!(
        path.gets.load(Ordering::SeqCst),
        chunks,
        "one GET per chunk"
    );
    assert_eq!(
        path.threads.lock().unwrap().len(),
        1,
        "every GET ran on the slave's fetcher thread"
    );
}

/// Holds cluster 0's fetches back until cluster 1 has started folding, so
/// that cluster 1 certainly holds a slow chunk while cluster 0 drains the
/// rest; passes every event on to `inner`. The timeout only turns a gate
/// bug into a failed assertion instead of a hang.
struct SlowClusterFirst {
    started: Mutex<bool>,
    ready: Condvar,
    inner: SinkHandle,
}

impl EventSink for SlowClusterFirst {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        match (cluster, &kind) {
            (Some(1), EventKind::ProcessStart { .. }) => {
                *self.started.lock().unwrap() = true;
                self.ready.notify_all();
            }
            (Some(0), EventKind::FetchStart { .. }) => {
                let started = self.started.lock().unwrap();
                let wait = self
                    .ready
                    .wait_timeout_while(started, Duration::from_secs(10), |s| !*s);
                assert!(*wait.unwrap().0, "cluster 1 never started folding");
            }
            _ => {}
        }
        self.inner.emit(cluster, slave, kind);
    }
}

/// A cluster that runs dry while another still folds waits for the head's
/// answer instead of asking again on a timer: cluster 0 emits at most 3
/// refills after its last chunk while cluster 1 folds ~320 ms chunks.
#[test]
fn a_dry_cluster_waits_for_the_head_instead_of_reasking() {
    let (layout, placement, stores) = setup(2, 0.5);
    let fabric = DataFabric::direct(&stores);
    let slow = ClusterSpec::new("EC2", CLOUD, 1).with_compute_ns(5_000_000);
    let deployment = Deployment::new(vec![ClusterSpec::new("local", LOCAL, 2), slow], fabric);
    let rec = RecordingSink::new();
    let gate = SlowClusterFirst {
        started: Mutex::new(false),
        ready: Condvar::new(),
        inner: SinkHandle::new(Arc::clone(&rec) as _),
    };
    let mut cfg = RuntimeConfig {
        prefetch_depth: 0,
        master_low_water: 0,
        sink: SinkHandle::new(Arc::new(gate)),
        ..Default::default()
    };
    (cfg.pool.local_batch, cfg.pool.remote_batch) = (1, 1);
    let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
    assert_eq!(out.result.0, expected_sum(&layout));
    let events = rec.snapshot();
    let of_0 = |e: &&EventRecord| e.cluster == Some(0);
    let last_end = events
        .iter()
        .filter(of_0)
        .filter(|e| matches!(e.kind, EventKind::ProcessEnd { .. }))
        .map(|e| e.t_ns)
        .max()
        .expect("cluster 0 processed chunks");
    let last_fold = events
        .iter()
        .filter(|e| e.cluster == Some(1) && matches!(e.kind, EventKind::ProcessEnd { .. }))
        .map(|e| e.t_ns)
        .max()
        .expect("cluster 1 processed chunks");
    assert!(
        last_fold >= last_end + 200_000_000,
        "cluster 0 was dry for only {} ms",
        (last_fold.saturating_sub(last_end)) / 1_000_000
    );
    let refills = events
        .iter()
        .filter(of_0)
        .filter(|e| e.t_ns > last_end && matches!(e.kind, EventKind::MasterRefill { .. }))
        .count();
    assert!(refills <= 3, "{refills} refills after cluster 0 ran dry");
}

/// The head never holds a request from a cluster that holds a lease: one
/// slave at depth 1 asks for more while it still holds the run's last
/// chunk, and the run ends. A watchdog turns a hang into a failure.
#[test]
fn a_lease_holder_is_never_held() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (layout, placement, stores) = setup(2, 1.0);
        let fabric = DataFabric::direct(&stores);
        let deployment = Deployment::new(vec![ClusterSpec::new("local", LOCAL, 1)], fabric);
        let cfg = RuntimeConfig {
            prefetch_depth: 1,
            ..Default::default()
        };
        let out = run(&SumApp, &(), &layout, &placement, &deployment, &cfg).unwrap();
        let _ = done.send(out.result.0 == expected_sum(&layout));
    });
    let exact = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("the run ended within 30 s");
    assert!(exact, "the run's sum is exact");
}

// --- The shared master: `run_cluster` against a scripted head. ---

/// A head for one cluster that grants `todo` two chunks at a time, except
/// that from request `quiet_after` on it answers "empty, not exhausted" for
/// `quiet`. Like the real head, it holds a request it cannot answer while
/// the cluster holds no lease, here until the quiet spell ends. It records
/// how the cluster drives it.
#[derive(Default)]
struct FakeHead {
    todo: Mutex<Vec<ChunkId>>,
    quiet_after: usize,
    quiet: Duration,
    /// When the quiet spell ends; set by request `quiet_after`.
    quiet_until: Mutex<Option<Instant>>,
    in_request: AtomicBool,
    overlapped: AtomicBool,
    requests: AtomicUsize,
    granted: Mutex<Vec<ChunkId>>,
    resolved: Mutex<Vec<Resolution>>,
}

impl FakeHead {
    fn new(todo: Vec<ChunkId>, quiet_after: usize, quiet: Duration) -> Self {
        FakeHead {
            todo: Mutex::new(todo),
            quiet_after,
            quiet,
            ..Default::default()
        }
    }

    fn holds_lease(&self) -> bool {
        let resolved = self.resolved.lock().unwrap().len();
        resolved < self.granted.lock().unwrap().len()
    }
}

impl HeadPort for FakeHead {
    fn request_jobs(&self, _: LocationId) -> io::Result<(Grant, bool)> {
        if self.in_request.swap(true, Ordering::SeqCst) {
            self.overlapped.store(true, Ordering::SeqCst);
        }
        if self.requests.fetch_add(1, Ordering::SeqCst) == self.quiet_after {
            *self.quiet_until.lock().unwrap() = Some(Instant::now() + self.quiet);
        }
        // Widen the window a concurrent request would land in.
        std::thread::sleep(Duration::from_micros(200));
        let mut quiet = *self.quiet_until.lock().unwrap();
        quiet = quiet.filter(|&t| Instant::now() < t);
        // Hold a request it cannot answer while the cluster holds no lease.
        if let Some(t) = quiet.filter(|_| !self.holds_lease()) {
            std::thread::sleep(t.saturating_duration_since(Instant::now()));
            quiet = None;
        }
        let quiet = quiet.is_some();
        let mut todo = self.todo.lock().unwrap();
        let n = if quiet { 0 } else { todo.len().min(2) };
        let mut grant = Grant::empty();
        grant.jobs.extend(todo.drain(..n));
        let mut granted = self.granted.lock().unwrap();
        granted.extend(&grant.jobs);
        // Exhausted only once every lease is resolved, as the real head.
        let idle = !quiet && todo.is_empty();
        let exhausted = idle && self.resolved.lock().unwrap().len() >= granted.len();
        self.in_request.store(false, Ordering::SeqCst);
        Ok((grant, exhausted))
    }

    fn resolve(&self, _: LocationId, what: Resolution) -> io::Result<()> {
        self.resolved.lock().unwrap().push(what);
        Ok(())
    }
}

/// Run one 4-slave, depth-1 cluster over `layout`'s local data against
/// `head`, folding each unit for `compute_ns`.
fn drive(
    layout: &cb_storage::layout::DatasetLayout,
    placement: &Placement,
    stores: &StoreMap,
    head: &FakeHead,
    compute_ns: u64,
) -> ClusterOutcome<Sum> {
    let cfg = RuntimeConfig {
        prefetch_depth: 1,
        synthetic_compute_ns_per_unit: compute_ns,
        ..Default::default()
    };
    let fabric = DataFabric::direct(stores);
    let cluster = ClusterSpec::new("local", LOCAL, 4);
    let t0 = Instant::now();
    run_cluster(
        &SumApp,
        &(),
        layout,
        placement,
        &fabric,
        &cluster,
        0,
        &cfg,
        head,
        t0,
    )
}

fn all_chunks(layout: &cb_storage::layout::DatasetLayout) -> Vec<ChunkId> {
    layout.chunks.iter().map(|c| c.id).collect()
}

#[test]
fn one_cluster_never_overlaps_head_requests() {
    let (layout, placement, stores) = setup(4, 1.0);
    let head = FakeHead::new(all_chunks(&layout), 0, Duration::ZERO);
    let out = drive(&layout, &placement, &stores, &head, 0);
    assert_eq!(out.robj.unwrap().0, expected_sum(&layout));
    assert!(head.requests.load(Ordering::SeqCst) > 1);
    assert!(
        !head.overlapped.load(Ordering::SeqCst),
        "request_jobs entered concurrently for one cluster"
    );
}

/// While the head answers "empty, not exhausted" to a cluster that holds
/// leases, the cluster asks again only once a lease resolves: two slow
/// chunks (~256 ms each) outlast a 200 ms quiet spell with a handful of
/// requests, not one per timer tick.
#[test]
fn empty_grants_are_reasked_only_after_a_resolution() {
    let (layout, placement, stores) = setup(2, 1.0);
    let two = all_chunks(&layout)[..2].to_vec();
    let want: u64 = layout.chunks[..2]
        .iter()
        .map(|c| (c.id.0 + 1) as u64 * c.units)
        .sum();
    let quiet = Duration::from_millis(200);
    let head = FakeHead::new(two, 1, quiet);
    let out = drive(&layout, &placement, &stores, &head, 4_000_000);
    assert_eq!(out.robj.unwrap().0, want);
    let requests = head.requests.load(Ordering::SeqCst);
    let resolutions = head.resolved.lock().unwrap().len();
    assert_eq!(resolutions, 2);
    assert!(
        requests <= resolutions + 2,
        "{requests} requests for {resolutions} resolutions"
    );
}

#[test]
fn every_granted_chunk_is_resolved_exactly_once() {
    let (layout, placement, stores) = setup(4, 1.0);
    let head = FakeHead::new(all_chunks(&layout), 0, Duration::from_millis(10));
    drive(&layout, &placement, &stores, &head, 0);
    let resolved = head.resolved.lock().unwrap();
    let completed = resolved.iter().map(|r| match r {
        Resolution::Completed(c) => *c,
        other => panic!("healthy run resolved {other:?}"),
    });
    let mut completed: Vec<ChunkId> = completed.collect();
    let mut granted = head.granted.lock().unwrap().clone();
    granted.sort();
    completed.sort();
    assert_eq!(granted, all_chunks(&layout));
    assert_eq!(completed, granted);
}
