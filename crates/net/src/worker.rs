//! The worker process: one cluster (master + slaves) behind a TCP head.
//!
//! [`run_worker`] dials the head (capped + jittered reconnect), handshakes,
//! then runs `cloudburst_core::run_cluster` — the *same* master/slave
//! machinery the in-process runtime uses — against a `NetHeadPort` whose
//! `request_jobs`/`resolve` cross the socket instead of a mutex. The head
//! only ever replies, so there is no reader thread: `request_jobs` reads
//! its `JobGrant` inline and the shipping code reads its `ShipAck` inline.
//! The one helper thread heartbeats at half the cadence the head announced
//! until a stop channel drops. When the cluster drains, the worker encodes
//! its reduction object canonically ([`RobjCodec`]), ships it with its
//! final accounting, reads the head's ack (after which its death is free),
//! says goodbye at once and returns.

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
use crossbeam::channel::{unbounded, RecvTimeoutError};
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// The TCP-backed [`HeadPort`]. The head only ever answers: a `JobGrant`
/// replies to a `JobRequest`, a `ShipAck` to the `RobjShip`. So each
/// caller reads its own reply inline — `request_jobs` runs one at a time
/// per cluster, and shipping starts after the slaves are joined. `resolve`
/// is fire-and-forget. The transmit half is shared with the heartbeat
/// thread behind a mutex.
///
/// Requests and grants are paired by sequence number. The head may hold a
/// request it cannot answer yet, for at most half of its `io_timeout`, and
/// then answers it empty. If the grant for a request does not arrive
/// within `io_timeout`, the link is **poisoned**:
/// the head may by then hold leases this worker will never run, and the
/// only recovery that preserves the result contract is to die visibly —
/// stop heartbeating, never ship, never say goodbye — so the head declares
/// this worker lost and forfeits its leases back to the survivors.
struct NetHeadPort {
    tx: Mutex<LinkTx>,
    rx: Mutex<LinkRx>,
    io_timeout: Duration,
    cluster: u32,
    sink: cloudburst_core::obs::SinkHandle,
    /// Sequence number of the most recent `JobRequest`; its `JobGrant`
    /// must echo it. Any lower number is a stale grant from a request this
    /// worker already gave up on.
    seq: AtomicU64,
    /// Set on a missed grant; read by the heartbeat thread (which stops
    /// beating) and the shipping path (which refuses to ship).
    poisoned: AtomicBool,
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

    /// Read the head's frames until `want` takes one; fails with
    /// `TimedOut` if no frame `what` arrives within `io_timeout`.
    fn reply<T>(&self, what: &str, mut want: impl FnMut(Message) -> Option<T>) -> io::Result<T> {
        let deadline = Instant::now() + self.io_timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Some((msg, bytes)) = self.rx.lock().recv(left)? else {
                let late = format!("no {what} within io_timeout");
                return Err(io::Error::new(io::ErrorKind::TimedOut, late));
            };
            let bytes = bytes as u64;
            let cluster = Some(self.cluster);
            self.sink.emit(cluster, None, EventKind::NetRecv { bytes });
            if let Some(got) = want(msg) {
                return Ok(got);
            }
        }
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
        // A grant for an older request is stale: poisoning makes this
        // unreachable in practice (a request is never issued after a miss),
        // but the explicit pairing keeps the protocol self-checking. The
        // head initiates nothing else after `Welcome`, so any other frame
        // is noise.
        let grant = self.reply("JobGrant", |msg| match msg {
            Message::JobGrant {
                seq: got,
                jobs,
                stolen,
                exhausted,
            } if got == seq => {
                let jobs = jobs.into_iter().map(ChunkId).collect();
                Some((Grant { jobs, stolen }, exhausted))
            }
            _ => None,
        });
        // A missed grant poisons the link, so the head reclaims this
        // worker's leases.
        if grant.is_err() {
            self.poisoned.store(true, Ordering::Relaxed);
        }
        grant
    }

    fn resolve(&self, _loc: LocationId, what: Resolution) -> io::Result<()> {
        self.send(&Message::Resolve(what))
    }
}

/// Validate `cfg`, dial `addr` (capped + jittered reconnect), handshake,
/// then run the cluster and ship its result.
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
    cfg.validate().map_err(NetError::Protocol)?;
    let seed = (spec.cluster as u64) << 16 | cluster.location.0 as u64;
    let stream = connect_with_backoff(addr, net, seed)?;
    let (mut tx, mut rx) = split_tcp(stream, net)?;

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

    let port = NetHeadPort {
        tx: Mutex::new(tx),
        rx: Mutex::new(rx),
        io_timeout: net.io_timeout,
        cluster: spec.cluster,
        sink: cfg.sink.clone(),
        seq: AtomicU64::new(0),
        poisoned: AtomicBool::new(false),
    };
    let t0 = Instant::now();
    let hb_interval = (heartbeat / 2).max(Duration::from_millis(10));
    let (stop_beating, stop) = unbounded::<()>();

    let (outcome, shipped) = std::thread::scope(|scope| {
        // --- Heartbeats at half the announced cadence until `stop_beating`
        // drops. A poisoned link stops beating on purpose: the head must
        // declare this worker lost and forfeit its leases. ---
        let port = &port;
        scope.spawn(move || {
            let mut seq = 0u64;
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(hb_interval) {
                seq += 1;
                let beat = Message::Heartbeat { seq };
                if port.poisoned.load(Ordering::Relaxed) || port.tx.lock().send(&beat).is_err() {
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
            port,
            t0,
        );

        // --- Ship the result; once it is banked, say goodbye at once
        // (best-effort: the head already holds the result). ---
        let shipped = ship(&outcome, port);
        if shipped.is_ok() {
            let _ = port.tx.lock().send(&Message::Goodbye);
        }
        drop(stop_beating);
        (outcome, shipped)
    });

    Ok(WorkerOutcome {
        outcome,
        robj_bytes: shipped?,
    })
}

/// Encode + ship the cluster outcome; wait for the head's ack.
fn ship<R: RobjCodec>(outcome: &ClusterOutcome<R>, port: &NetHeadPort) -> Result<usize, NetError> {
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
    // Without the ack the result may not be banked.
    let ack = port.reply("ShipAck", |msg| {
        matches!(msg, Message::ShipAck).then_some(())
    });
    ack.map(|()| robj_bytes).map_err(NetError::Io)
}
