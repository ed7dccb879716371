//! The worker process: one cluster (master + slaves) behind a TCP head.
//!
//! [`run_worker`] dials the head (capped + jittered reconnect), handshakes,
//! then runs `cloudburst_core::run_cluster` — the *same* master/slave
//! machinery the in-process runtime uses — against a `NetHeadPort` whose
//! `request_jobs`/`resolve` cross the socket instead of a mutex. A
//! background thread heartbeats at half the cadence the head announced; a
//! reader thread routes `JobGrant` and `ShipAck` frames to the callers
//! waiting on them. When the cluster drains, the worker encodes its
//! reduction object canonically ([`RobjCodec`]), ships it with its final
//! accounting, waits for the head's ack (after which its death is free),
//! and says goodbye.

use crate::robj::RobjCodec;
use crate::transport::{connect_with_backoff, split_tcp, LinkRx, LinkTx, NetConfig};
use crate::wire::{Message, PROTOCOL_VERSION};
use cb_storage::layout::{ChunkId, DatasetLayout, LocationId, Placement};
use cloudburst_core::api::GRApp;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::deploy::{ClusterSpec, DataFabric};
use cloudburst_core::obs::EventKind;
use cloudburst_core::sched::pool::Grant;
use cloudburst_core::{run_cluster, ClusterOutcome, HeadPort, Resolution};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a worker run ended without shipping.
#[derive(Debug)]
pub enum NetError {
    /// Connection-level failure (dial, read, write, timeout).
    Io(io::Error),
    /// The head refused the handshake.
    Rejected(String),
    /// The peer violated the protocol (unexpected frame, missing ack).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O: {e}"),
            NetError::Rejected(r) => write!(f, "head rejected handshake: {r}"),
            NetError::Protocol(r) => write!(f, "protocol violation: {r}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// What this worker announces at handshake.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Report slot on the head (cluster index).
    pub cluster: u32,
    pub name: String,
    /// Application tag; must match the head's.
    pub app_tag: String,
    /// Dataset fingerprint ([`crate::fingerprint`]); must match the head's.
    pub fingerprint: u64,
}

/// A worker's summary of its finished run (the authoritative result lives
/// on the head).
#[derive(Debug)]
pub struct WorkerOutcome<R> {
    /// The cluster's locally combined reduction object (a copy of what was
    /// shipped — useful for tests and local inspection).
    pub outcome: ClusterOutcome<R>,
    /// Bytes of the encoded reduction object as shipped.
    pub robj_bytes: usize,
}

/// The TCP-backed [`HeadPort`]: `request_jobs` sends `JobRequest` and
/// blocks on the grant channel the reader thread feeds; `resolve` is
/// fire-and-forget. The transmit half is shared with the heartbeat thread
/// and the shipping code behind a mutex; the grant receiver sits behind its
/// own mutex because the channel shim's `Receiver` is single-consumer and
/// not `Sync` (the `HeadPort` trait requires `Sync`).
///
/// Requests and grants are paired by sequence number. If the grant for a
/// request does not arrive within `io_timeout`, the link is **poisoned**:
/// the head may by then hold leases this worker will never run, and the
/// only recovery that preserves the result contract is to die visibly —
/// stop heartbeating, never ship, never say goodbye — so the head declares
/// this worker lost and forfeits its leases back to the survivors.
struct NetHeadPort {
    tx: Arc<Mutex<LinkTx>>,
    grants: Mutex<Receiver<(u64, Grant, bool)>>,
    io_timeout: Duration,
    cluster: u32,
    sink: cloudburst_core::obs::SinkHandle,
    /// Sequence number of the most recent `JobRequest`; its `JobGrant`
    /// must echo it. Any lower number is a stale grant from a request this
    /// worker already gave up on.
    seq: AtomicU64,
    /// Set on a missed grant; shared with the heartbeat thread (which
    /// stops beating) and the shipping path (which refuses to ship).
    poisoned: Arc<AtomicBool>,
}

impl NetHeadPort {
    fn send(&self, msg: &Message) -> io::Result<()> {
        let bytes = self.tx.lock().send(msg)?;
        self.sink.emit(
            Some(self.cluster),
            None,
            EventKind::NetSent {
                bytes: bytes as u64,
            },
        );
        Ok(())
    }
}

impl HeadPort for NetHeadPort {
    fn request_jobs(&self, _loc: LocationId) -> io::Result<(Grant, bool)> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "link poisoned after a missed JobGrant",
            ));
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.send(&Message::JobRequest { seq })?;
        let grants = self.grants.lock();
        let deadline = Instant::now() + self.io_timeout;
        loop {
            match grants.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                // A grant for an older request is stale: poisoning makes
                // this unreachable in practice (a request is never issued
                // after a miss), but the explicit pairing keeps the
                // protocol self-checking.
                Ok((got, grant, exhausted)) if got == seq => return Ok((grant, exhausted)),
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no JobGrant within io_timeout; dropping the link so the head \
                         reclaims this worker's leases",
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection to head lost",
                    ));
                }
            }
        }
    }

    fn resolve(&self, _loc: LocationId, what: Resolution) -> io::Result<()> {
        self.send(&Message::Resolve(what))
    }
}

/// Dial `addr` (capped + jittered reconnect), then run on the socket.
#[allow(clippy::too_many_arguments)]
pub fn run_worker<A: GRApp>(
    app: &A,
    params: &A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    fabric: &DataFabric,
    cluster: &ClusterSpec,
    spec: &WorkerSpec,
    cfg: &RuntimeConfig,
    net: &NetConfig,
    addr: SocketAddr,
) -> Result<WorkerOutcome<A::RObj>, NetError>
where
    A::RObj: RobjCodec,
{
    let seed = (spec.cluster as u64) << 16 | cluster.location.0 as u64;
    let stream = connect_with_backoff(addr, net, seed)?;
    let (tx, rx) = split_tcp(stream, net)?;
    run_worker_on_links(
        app, params, layout, placement, fabric, cluster, spec, cfg, net, tx, rx,
    )
}

/// Handshake and run the cluster over an already-established link —
/// transport-agnostic, so loopback tests exercise the identical worker
/// machinery over in-process channels.
#[allow(clippy::too_many_arguments)]
pub fn run_worker_on_links<A: GRApp>(
    app: &A,
    params: &A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    fabric: &DataFabric,
    cluster: &ClusterSpec,
    spec: &WorkerSpec,
    cfg: &RuntimeConfig,
    net: &NetConfig,
    mut tx: LinkTx,
    mut rx: LinkRx,
) -> Result<WorkerOutcome<A::RObj>, NetError>
where
    A::RObj: RobjCodec,
{
    cfg.validate().map_err(NetError::Protocol)?;

    // --- Handshake. ---
    tx.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        cluster: spec.cluster,
        location: cluster.location.0,
        cores: cluster.cores as u32,
        name: spec.name.clone(),
        app: spec.app_tag.clone(),
        fingerprint: spec.fingerprint,
    })?;
    let heartbeat = match rx.recv(net.accept_timeout)? {
        Some((Message::Welcome { heartbeat_ms, .. }, _)) => Duration::from_millis(heartbeat_ms),
        Some((Message::Reject { reason }, _)) => return Err(NetError::Rejected(reason)),
        Some((other, _)) => {
            return Err(NetError::Protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
        None => {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no Welcome from head",
            )))
        }
    };

    let tx = Arc::new(Mutex::new(tx));
    let done = AtomicBool::new(false);
    let poisoned = Arc::new(AtomicBool::new(false));
    let (grant_tx, grant_rx) = unbounded::<(u64, Grant, bool)>();
    let (ack_tx, ack_rx) = unbounded::<()>();
    let port = NetHeadPort {
        tx: Arc::clone(&tx),
        grants: Mutex::new(grant_rx),
        io_timeout: net.io_timeout,
        cluster: spec.cluster,
        sink: cfg.sink.clone(),
        seq: AtomicU64::new(0),
        poisoned: Arc::clone(&poisoned),
    };
    let t0 = Instant::now();

    let (outcome, shipped_bytes) = std::thread::scope(|scope| {
        // --- Reader: route frames to whoever waits on them. ---
        let done_ref = &done;
        let sink = cfg.sink.clone();
        let cluster_idx = spec.cluster;
        scope.spawn(move || {
            // EOF or a link error ends the pump: pending recvs then see
            // Disconnected.
            let mut rx = rx;
            let _ = rx.pump(done_ref, |msg, bytes| {
                let bytes = bytes as u64;
                sink.emit(Some(cluster_idx), None, EventKind::NetRecv { bytes });
                match msg {
                    Message::JobGrant {
                        seq,
                        jobs,
                        stolen,
                        exhausted,
                    } => {
                        let jobs = jobs.into_iter().map(ChunkId).collect();
                        let grant = Grant { jobs, stolen };
                        grant_tx.send((seq, grant, exhausted)).is_ok()
                    }
                    Message::ShipAck => {
                        let _ = ack_tx.send(());
                        true
                    }
                    // Anything else mid-run is noise; the head never
                    // initiates other traffic after Welcome.
                    _ => true,
                }
            });
        });

        // --- Heartbeats at half the announced cadence. A poisoned link
        // stops beating on purpose: the head must declare this worker
        // lost and forfeit its leases. ---
        let hb_tx = Arc::clone(&tx);
        let hb_done = &done;
        let hb_poisoned = Arc::clone(&poisoned);
        let hb_interval = (heartbeat / 2).max(Duration::from_millis(10));
        scope.spawn(move || {
            let mut seq = 0u64;
            while !hb_done.load(Ordering::Relaxed) {
                std::thread::sleep(hb_interval);
                if hb_done.load(Ordering::Relaxed) || hb_poisoned.load(Ordering::Relaxed) {
                    return;
                }
                seq += 1;
                if hb_tx.lock().send(&Message::Heartbeat { seq }).is_err() {
                    return;
                }
            }
        });

        // --- The cluster itself: unchanged core machinery. ---
        let outcome = run_cluster(
            app,
            params,
            layout,
            placement,
            fabric,
            cluster,
            spec.cluster as usize,
            cfg,
            &port,
            t0,
        );

        // --- Ship the result, then let the background threads go. ---
        let shipped = ship(&outcome, &port, &ack_rx, net);
        done.store(true, Ordering::Relaxed);
        (outcome, shipped)
    });

    let robj_bytes = shipped_bytes?;
    // Clean goodbye (best-effort: the result is already banked).
    let _ = tx.lock().send(&Message::Goodbye);
    Ok(WorkerOutcome {
        outcome,
        robj_bytes,
    })
}

/// Encode + ship the cluster outcome; wait for the head's ack.
fn ship<R: RobjCodec>(
    outcome: &ClusterOutcome<R>,
    port: &NetHeadPort,
    ack_rx: &Receiver<()>,
    net: &NetConfig,
) -> Result<usize, NetError> {
    if port.poisoned.load(Ordering::Relaxed) {
        // A grant went missing mid-run: the head may hold leases this
        // worker never executed. Shipping (and the Goodbye that follows a
        // successful ship) would bank our robj and leave those leases
        // assigned forever — the run would end `JobsFailed`. Dying without
        // shipping instead makes the head forfeit everything we held and
        // completed, and survivors re-run it to the exact result.
        return Err(NetError::Protocol(
            "link poisoned after a missed JobGrant; withholding robj so the head \
             forfeits this worker's work"
                .into(),
        ));
    }
    let robj = outcome
        .robj
        .as_ref()
        .ok_or_else(|| NetError::Protocol("cluster produced no reduction object".into()))?;
    let encoded = robj.encode_robj();
    let robj_bytes = encoded.len();
    port.send(&Message::RobjShip {
        robj: encoded,
        report: outcome.account.clone(),
    })?;
    match ack_rx.recv_timeout(net.io_timeout) {
        Ok(()) => Ok(robj_bytes),
        Err(RecvTimeoutError::Timeout) => Err(NetError::Protocol(
            "no ShipAck within io_timeout — result may not be banked".into(),
        )),
        Err(RecvTimeoutError::Disconnected) => Err(NetError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection to head lost before ShipAck",
        ))),
    }
}
