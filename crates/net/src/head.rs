//! The head process: the wire around the shared head core.
//!
//! [`serve_head`] accepts the expected complement of workers (handshake:
//! version, app tag, fingerprint, distinct cluster/location) and then hands
//! the connected peers to [`run_head`].
//!
//! The job pool, the per-cluster result slots, the global reduction and
//! the report are `cloudburst_core::Head`'s, exactly as in the in-process
//! runtime. This module adds only what the wire needs: reader threads,
//! heartbeats and loss detection, frame counting, and decoding the banked
//! robjs (after the event loop, so decoding never stalls request serving).
//!
//! Every wait ends on an event. Joining blocks in `accept` on a scoped
//! thread, woken by one self-dial when joining ends. Each peer's reader is
//! a plain thread that owns its receive half, blocks until a frame arrives
//! and exits on EOF, `Goodbye`, a link error or when the head loop is gone.
//! The head loop waits for the next frame, the earliest open peer's loss
//! deadline or the earliest held request's bound. A `JobRequest` the head
//! cannot answer yet (`Head::should_hold`) is held and answered after the
//! `Resolve` or peer loss that changes the pool's answer, or empty at half
//! of `io_timeout`. When the run ends, the head closes every link, which
//! wakes any reader still blocked on a silent peer. Nothing joins the
//! readers.
//!
//! # Failure semantics
//!
//! The head tracks each peer's `last_seen` instant (any frame refreshes
//! it; idle workers send heartbeats at the cadence the head announced in
//! `Welcome`). A peer that goes silent for `heartbeat × heartbeat_misses`,
//! or whose connection drops, is declared **lost** — unless it already
//! shipped its reduction object, in which case its work is banked and its
//! death is free. Losing an unshipped peer forfeits everything it held
//! via `Head::lose`: its outstanding leases *and* its completions
//! return to the pending queues (the completions were folded into a
//! reduction object that will now never arrive), so surviving workers
//! re-process them and the run still produces the exact result.
//!
//! Forfeiture is **final**: frames that arrive from a peer after it was
//! declared lost are dropped unprocessed. A stalled-but-alive worker that
//! wakes up and delivers its robj or late lease resolutions must not have
//! them banked — the forfeited work may already be re-granted to (or
//! re-done by) survivors, and counting it twice would break the byte-exact
//! result contract.

use crate::robj::RobjCodec;
use crate::transport::{split_tcp, LinkRx, LinkTx, NetConfig};
use crate::wire::{Message, PROTOCOL_VERSION};
use cb_storage::layout::{DatasetLayout, LocationId, Placement};
use cloudburst_core::api::ReductionObject;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::obs::{Clock, EventKind};
use cloudburst_core::report::NetStats;
use cloudburst_core::{ClusterSpec, Head, RunOutcome, RuntimeError};
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a worker declared about itself at handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSpec {
    /// Report slot (cluster index); each peer must claim a distinct one.
    pub cluster: u32,
    /// The worker's site — the job pool's locality key. Distinct per peer:
    /// peer loss forfeits *by location*.
    pub location: LocationId,
    pub cores: u32,
    pub name: String,
}

/// A connected, handshaken worker as seen by [`run_head`].
pub struct HeadPeer {
    pub spec: PeerSpec,
    pub tx: LinkTx,
    pub rx: LinkRx,
}

/// Reader → head-loop event: a frame off peer `.0`'s link, or the error
/// that ended the link. An error is peer loss unless the peer shipped.
type FromPeer = (usize, io::Result<(Message, usize)>);

/// One peer's reader: forwards frames to the head loop until the link ends
/// (EOF, a link error, `Goodbye`) or the head loop is gone.
fn read_peer(peer: usize, mut rx: LinkRx, events: Sender<FromPeer>) {
    loop {
        let frame = rx.next();
        let last = frame
            .as_ref()
            .map_or(true, |(msg, _)| *msg == Message::Goodbye);
        if events.send((peer, frame)).is_err() || last {
            return;
        }
    }
}

/// The head's end of one peer's connection. Whether the peer shipped or
/// was lost is its result slot's state in the head core.
struct Link {
    spec: PeerSpec,
    tx: LinkTx,
    last_seen: Instant,
    /// The `JobRequest` not yet answered ([`Head::should_hold`]): its
    /// `seq`, and when it is answered empty if nothing changes first.
    held: Option<(u64, Instant)>,
}

/// Accept and handshake exactly `expected` workers, then run the job-pool
/// protocol to completion and perform the global reduction.
///
/// The listener should already be bound; workers dial it with
/// [`crate::transport::connect_with_backoff`].
#[allow(clippy::too_many_arguments)]
pub fn serve_head<R: ReductionObject + RobjCodec>(
    listener: &TcpListener,
    expected: usize,
    layout: &DatasetLayout,
    placement: &Placement,
    cfg: &RuntimeConfig,
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> Result<RunOutcome<R>, RuntimeError> {
    let peers = accept_workers(listener, expected, cfg, net, fingerprint, app_tag)
        .map_err(|e| RuntimeError::Io(format!("accepting workers: {e}")))?;
    run_head(peers, layout, placement, cfg, net)
}

/// Accept loop: admits `Hello`s until `expected` workers have handshaken or
/// [`NetConfig::accept_timeout`] expires. A `Hello` is admitted the moment
/// it lands. Rejected dialers (version/fingerprint/app mismatch, duplicate
/// cluster or location) get a `Reject { reason }` frame and are dropped
/// without counting; so is a dialer whose `Hello` never came.
///
/// A scoped thread blocks in `accept` on `listener` (which must be in
/// blocking mode, the default) and reads each dialer's `Hello` on a
/// short-lived thread of its own, so a dialer that connects but never
/// speaks (a port-scanner, a stalled client) ties up only its own thread
/// for `io_timeout` instead of stalling every legitimate join behind it.
/// Validation and the `Welcome`/`Reject` reply stay on this thread,
/// serialized against `peers`, so duplicate-slot checks cannot race. When
/// joining ends, this thread dials the listener once: the accept thread
/// drops every dialer it accepts from then on and exits at that dial, so
/// the listener is left with no thread and no connection of this call's.
pub fn accept_workers(
    listener: &TcpListener,
    expected: usize,
    cfg: &RuntimeConfig,
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> io::Result<Vec<HeadPeer>> {
    let deadline = Instant::now() + net.accept_timeout;
    // Each dialer's halves and first frame, or the error that ended accepting.
    let (dialer_tx, dialers) = unbounded::<io::Result<(LinkTx, LinkRx, Result<Message, String>)>>();
    let joining_over = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (waker_tx, waker) = unbounded::<SocketAddr>();
        let over = &joining_over;
        // The accept thread: hands each dialer to a `Hello` reader until an
        // accept fails or joining is over. From then on it drops what it
        // accepts, and exits once it accepted the dial from `waker`.
        let accepting = scope.spawn(move || {
            let mut waker_addr = None;
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        let _ = dialer_tx.send(Err(e));
                        return;
                    }
                };
                if over.load(Ordering::SeqCst) {
                    let waker = *waker_addr.get_or_insert_with(|| waker.recv().ok());
                    if waker.is_none() || stream.peer_addr().ok() == waker {
                        return;
                    }
                    continue;
                }
                let (dialers, net) = (dialer_tx.clone(), net.clone());
                std::thread::spawn(move || {
                    let Ok((tx, mut rx)) = split_tcp(stream, &net) else {
                        return;
                    };
                    let hello = read_hello(&mut rx, &net);
                    // Joining may be over (deadline, or complement already
                    // full): then the send fails and the socket just drops.
                    let _ = dialers.send(Ok((tx, rx, hello)));
                });
            }
        });
        let mut peers: Vec<HeadPeer> = Vec::with_capacity(expected);
        let joined = loop {
            if peers.len() == expected {
                break Ok(peers);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let (tx, rx, hello) = match dialers.recv_timeout(left) {
                Ok(Ok(dialer)) => dialer,
                // The accept thread has ended on this error.
                Ok(Err(e)) => return Err(e),
                Err(_) => {
                    let joined = peers.len();
                    let why = format!("only {joined} of {expected} worker(s) joined");
                    break Err(io::Error::new(io::ErrorKind::TimedOut, why));
                }
            };
            let admitted = hello
                .and_then(|hello| admit_hello(tx, rx, hello, &peers, net, fingerprint, app_tag));
            match admitted {
                Ok(peer) => {
                    cfg.sink.emit(
                        Some(peer.spec.cluster),
                        None,
                        EventKind::PeerJoined {
                            cores: peer.spec.cores as u64,
                        },
                    );
                    peers.push(peer);
                }
                // A rejection was already sent (best-effort); keep waiting
                // for a valid worker on this slot.
                Err(reason) => eprintln!("head: turned away dialer: {reason}"),
            }
        };
        joining_over.store(true, Ordering::SeqCst);
        // Dialling the unspecified address reaches this host on Linux.
        let waker = TcpStream::connect_timeout(&listener.local_addr()?, net.io_timeout)?;
        let _ = waker_tx.send(waker.local_addr()?);
        accepting.join().expect("the accept thread does not panic");
        joined
    })
}

/// A dialer's first frame, waited for up to `io_timeout`.
///
/// Handshake traffic is deliberately not counted into net stats/events:
/// the report's net counters cover the post-handshake protocol, so the
/// recorded trace and the RunReport reconcile exactly.
fn read_hello(rx: &mut LinkRx, net: &NetConfig) -> Result<Message, String> {
    match rx.recv(net.io_timeout) {
        Ok(Some((msg, _bytes))) => Ok(msg),
        Ok(None) => Err("no Hello before timeout".into()),
        Err(e) => Err(format!("reading Hello: {e}")),
    }
}

/// Validate a received `Hello` against the already-accepted peers; answer
/// `Welcome` or `Reject`. Must be called serially with respect to
/// `accepted` (the duplicate-slot checks assume no concurrent admission).
fn admit_hello(
    mut tx: LinkTx,
    rx: LinkRx,
    hello: Message,
    accepted: &[HeadPeer],
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> Result<HeadPeer, String> {
    let reject = |tx: &mut LinkTx, reason: String| -> Result<HeadPeer, String> {
        let _ = tx.send(&Message::Reject {
            reason: reason.clone(),
        });
        Err(reason)
    };
    let Message::Hello {
        version,
        cluster,
        location,
        cores,
        name,
        app,
        fingerprint: their_fp,
    } = hello
    else {
        return reject(&mut tx, "first frame was not Hello".into());
    };
    if version != PROTOCOL_VERSION {
        return reject(
            &mut tx,
            format!("protocol version {version} != {PROTOCOL_VERSION}"),
        );
    }
    if app != app_tag {
        return reject(&mut tx, format!("app {app:?} != head's {app_tag:?}"));
    }
    if their_fp != fingerprint {
        return reject(
            &mut tx,
            format!("dataset fingerprint {their_fp:#x} != head's {fingerprint:#x}"),
        );
    }
    if cores == 0 {
        return reject(&mut tx, "worker declared zero cores".into());
    }
    if accepted.iter().any(|p| p.spec.cluster == cluster) {
        return reject(&mut tx, format!("cluster slot {cluster} already taken"));
    }
    if accepted.iter().any(|p| p.spec.location.0 == location) {
        return reject(
            &mut tx,
            format!("location {location} already taken (peer loss is tracked per location)"),
        );
    }
    let welcome = Message::Welcome {
        version: PROTOCOL_VERSION,
        heartbeat_ms: net.heartbeat.as_millis() as u64,
        fingerprint,
    };
    if let Err(e) = tx.send(&welcome) {
        return Err(format!("sending Welcome: {e}"));
    }
    Ok(HeadPeer {
        spec: PeerSpec {
            cluster,
            location: LocationId(location),
            cores,
            name,
        },
        tx,
        rx,
    })
}

/// Drive handshaken peers through the job-pool protocol and perform the
/// global reduction.
pub fn run_head<R: ReductionObject + RobjCodec>(
    mut peers: Vec<HeadPeer>,
    layout: &DatasetLayout,
    placement: &Placement,
    cfg: &RuntimeConfig,
    net: &NetConfig,
) -> Result<RunOutcome<R>, RuntimeError> {
    if peers.is_empty() {
        return Err(RuntimeError::Validation("no workers".into()));
    }
    // From here on, peer `i` is cluster slot `i`.
    peers.sort_by_key(|p| p.spec.cluster);
    let slots: Vec<u32> = peers.iter().map(|p| p.spec.cluster).collect();
    if slots.iter().enumerate().any(|(i, &c)| c != i as u32) {
        return Err(RuntimeError::Validation(format!(
            "peer cluster slots {slots:?} are not exactly 0..{}",
            peers.len()
        )));
    }
    let now = Instant::now();
    let clusters = peers.iter().map(|p| &p.spec);
    let clusters = clusters.map(|s| ClusterSpec::new(&s.name, s.location, s.cores as usize));
    let mut wire = WireHead {
        head: Head::new(layout, placement, cfg, clusters.collect(), Clock::Wall(now))?,
        cfg,
        hold: net.io_timeout / 2,
        stats: NetStats {
            peers_joined: peers.len() as u64,
            ..Default::default()
        },
    };

    let grace = net.heartbeat * net.heartbeat_misses.max(1);
    let (event_tx, event_rx) = unbounded::<FromPeer>();
    let mut links: Vec<Link> = Vec::with_capacity(peers.len());
    for (peer, HeadPeer { spec, tx, rx }) in peers.into_iter().enumerate() {
        let event_tx = event_tx.clone();
        std::thread::spawn(move || read_peer(peer, rx, event_tx));
        let last_seen = Instant::now();
        links.push(Link {
            spec,
            tx,
            last_seen,
            held: None,
        });
    }
    drop(event_tx);

    // --- Head loop: serve the pool until every peer shipped or lost. It
    // wakes on the next frame, the earliest open peer's loss deadline or
    // the earliest held request's bound. ---
    loop {
        let open = (0..links.len()).filter(|&peer| wire.head.is_open(peer));
        let Some(lost_at) = open.map(|peer| links[peer].last_seen + grace).min() else {
            break;
        };
        let bounds = links
            .iter()
            .filter_map(|link| link.held.map(|(_, until)| until));
        let deadline = bounds.fold(lost_at, Instant::min);
        match event_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok((peer, Ok((msg, bytes)))) => {
                let bytes = bytes as u64;
                wire.record(peer, EventKind::NetRecv { bytes });
                // Forfeiture is final. A lost-but-alive peer's leases
                // and completions were re-enqueued at loss and may
                // already be re-granted or re-done by survivors:
                // banking its late robj would count that work twice,
                // and resolving its late leases would corrupt the
                // pool. Count the bytes, drop the frame.
                if wire.head.is_lost(peer) {
                    let name = &links[peer].spec.name;
                    match msg {
                        Message::Goodbye | Message::Heartbeat { .. } => {}
                        // Its `Debug` form would dump the encoded robj.
                        Message::RobjShip { .. } => {
                            eprintln!("head: dropping late RobjShip from lost worker {name}")
                        }
                        dropped => {
                            eprintln!("head: dropping late {dropped:?} from lost worker {name}")
                        }
                    }
                    // Fall through to the loss sweep so a frame flood
                    // from a lost peer cannot delay detecting *other*
                    // peers' losses.
                } else {
                    links[peer].last_seen = Instant::now();
                    wire.handle(peer, &mut links[peer], msg);
                }
            }
            Ok((peer, Err(error))) => {
                if wire.head.is_open(peer) {
                    let name = &links[peer].spec.name;
                    wire.lose(
                        peer,
                        format!("worker {name} disconnected before shipping: {error}"),
                    );
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Loss sweep: an open peer silent up to its deadline is lost.
        let now = Instant::now();
        for (peer, link) in links.iter().enumerate() {
            if wire.head.is_open(peer) && now >= link.last_seen + grace {
                let (name, misses) = (&link.spec.name, net.heartbeat_misses);
                wire.lose(peer, format!("worker {name} missed {misses} heartbeat(s)"));
            }
        }
        wire.answer_held(&mut links, now);
    }
    // Wake every reader still blocked on a silent peer.
    for link in &links {
        link.tx.close();
    }

    // --- Global reduction: decode the banked robjs and merge them in
    // cluster-index order (the same canonical order as in-process). ---
    let WireHead { head, stats, .. } = wire;
    let mut out = head.finish(|peer, robj: Vec<u8>| {
        let name = &links[peer].spec.name;
        let decoded = R::decode_robj(&robj)
            .map_err(|e| RuntimeError::Io(format!("decoding robj from {name}: {e}")))?;
        let bytes = robj.len() as u64;
        cfg.sink.emit(
            Some(peer as u32),
            None,
            EventKind::RobjMerge { bytes, ns: 0 },
        );
        Ok(decoded)
    })?;
    out.report.net = stats;
    Ok(out)
}

/// The head core plus the wire's accounting of its traffic. `stats` counts
/// the joins at the start, because `PeerJoined` is emitted at accept time;
/// every later counter is a fold of the events recorded here.
struct WireHead<'a> {
    head: Head<Vec<u8>>,
    cfg: &'a RuntimeConfig,
    /// The longest a request is held: half the worker's grant deadline.
    hold: Duration,
    stats: NetStats,
}

impl WireHead<'_> {
    /// One protocol frame from live (non-lost) peer `peer`.
    fn handle(&mut self, peer: usize, link: &mut Link, msg: Message) {
        match msg {
            // Answered, or held, by `answer_held` straight after.
            Message::JobRequest { seq } => link.held = Some((seq, Instant::now() + self.hold)),
            Message::Resolve(what) => {
                // This input crosses a process boundary, so a violated
                // invariant is the *peer's* bug — record it, don't panic.
                if let Err(e) = self.head.resolve(link.spec.location, what) {
                    let name = &link.spec.name;
                    self.head.note_error(format!(
                        "peer {name} resolved a lease it does not hold: {e}"
                    ));
                }
            }
            Message::Heartbeat { .. } | Message::Goodbye => {}
            Message::RobjShip { robj, report } => {
                let done = self.head.now();
                self.head.bank(peer, Some(robj), report, done);
                self.send(peer, link, &Message::ShipAck);
            }
            other => {
                let name = &link.spec.name;
                self.head
                    .note_error(format!("peer {name} sent unexpected {other:?}"));
            }
        }
    }

    /// Answer each open peer's request that the pool can answer now, or
    /// whose hold bound has passed by `now` (then empty, not exhausted).
    /// Only a `Resolve` or a loss changes what the pool can answer.
    fn answer_held(&mut self, links: &mut [Link], now: Instant) {
        for (peer, link) in links.iter_mut().enumerate() {
            let Some((seq, until)) = link.held.take() else {
                continue;
            };
            if !self.head.is_open(peer) {
                continue;
            }
            let answer = self.head.request(link.spec.location);
            if now < until && self.head.should_hold(link.spec.location, &answer) {
                link.held = Some((seq, until));
                continue;
            }
            let (grant, exhausted) = answer;
            let reply = Message::JobGrant {
                seq,
                jobs: grant.jobs.iter().map(|c| c.0).collect(),
                stolen: grant.stolen,
                exhausted,
            };
            self.send(peer, link, &reply);
        }
    }

    /// Record an event about `peer`: fold it into the net stats, then emit
    /// it.
    fn record(&mut self, peer: usize, kind: EventKind) {
        self.stats.observe(&kind);
        self.cfg.sink.emit(Some(peer as u32), None, kind);
    }

    /// Send a frame to a peer, recording it. A send failure is not handled
    /// here: the peer's reader will surface `Gone` and the loss path takes
    /// over.
    fn send(&mut self, peer: usize, link: &mut Link, msg: &Message) {
        if let Ok(bytes) = link.tx.send(msg) {
            let bytes = bytes as u64;
            self.record(peer, EventKind::NetSent { bytes });
        }
    }

    /// Forfeit everything an unshipped peer held and mark it lost, noting
    /// `why` as a run error.
    fn lose(&mut self, peer: usize, why: String) {
        self.head.note_error(why);
        let jobs = self.head.lose(peer) as u64;
        self.record(peer, EventKind::PeerLost { jobs });
    }
}
