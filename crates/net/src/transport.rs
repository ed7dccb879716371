//! Framed links: one abstraction, two transports.
//!
//! A *link* is a unidirectional framed message stream — [`LinkTx`] sends
//! [`Message`]s, [`LinkRx`] receives them — with two implementations:
//!
//! * **Tcp** — a real socket (split into try-cloned halves, `TCP_NODELAY`,
//!   read/write deadlines). Frames are reassembled across arbitrary read
//!   boundaries, so short reads and coalesced writes are handled.
//! * **Chan** — an in-process channel carrying *encoded frame bytes*, so
//!   loopback traffic exercises the exact same codec path as TCP; only the
//!   copy differs. [`loopback_pair`] builds a duplex pair of endpoints.
//!
//! Every receive ends on an event: a complete frame, EOF, a link error or
//! the caller's deadline. Nothing polls. A reader blocked on a TCP link is
//! woken by [`LinkTx::close`] on the other half of the same socket; a
//! channel link ends when its peer's endpoint drops.
//!
//! Both report the frame size they moved, so callers can emit
//! `NetSent`/`NetRecv` observability events with true byte counts.

use crate::wire::{decode_framed, Message, MAX_FRAME_BYTES};
use cb_storage::retrieve::backoff_schedule;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Tuning knobs for the networked runtime. The defaults suit localhost
/// integration runs; real deployments raise the timeouts.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Read/write deadline on blocking socket operations, and how long a
    /// worker waits for a `JobGrant` or `ShipAck` before declaring the head
    /// unreachable. The head holds a job request for at most half of it.
    pub io_timeout: Duration,
    /// Connection attempts before a worker gives up on the head.
    pub connect_attempts: u32,
    /// Base sleep between connection attempts; grows per
    /// [`backoff_schedule`] (capped + jittered), same policy as storage
    /// retries.
    pub connect_backoff: Duration,
    /// Ceiling on the per-attempt reconnect sleep.
    pub connect_backoff_cap: Duration,
    /// Worker heartbeat cadence (announced by the head in `Welcome`).
    pub heartbeat: Duration,
    /// Consecutive missed heartbeats before the head declares a worker
    /// lost and forfeits its leases.
    pub heartbeat_misses: u32,
    /// How long the head's accept loop waits for the full complement of
    /// workers to join before giving up the run.
    pub accept_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_timeout: Duration::from_secs(10),
            connect_attempts: 20,
            connect_backoff: Duration::from_millis(50),
            connect_backoff_cap: Duration::from_secs(2),
            heartbeat: Duration::from_millis(500),
            heartbeat_misses: 3,
            accept_timeout: Duration::from_secs(30),
        }
    }
}

/// Sending half of a link.
pub enum LinkTx {
    Tcp(TcpStream),
    Chan(Sender<Vec<u8>>),
}

/// Receiving half of a link.
pub enum LinkRx {
    Tcp {
        stream: TcpStream,
        /// Bytes read but not yet consumed as a complete frame — carries
        /// partial frames across reads (and across timeouts).
        buf: Vec<u8>,
    },
    Chan {
        rx: Receiver<Vec<u8>>,
        buf: Vec<u8>,
    },
}

impl LinkTx {
    /// Send one message as a frame; returns the frame size in bytes.
    ///
    /// A message whose payload exceeds [`MAX_FRAME_BYTES`] fails here with
    /// `InvalidInput` — the receiver would kill the link over it, so the
    /// sender gets the clear error instead.
    pub fn send(&mut self, msg: &Message) -> io::Result<usize> {
        let frame = msg
            .encode_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let n = frame.len();
        match self {
            LinkTx::Tcp(stream) => stream.write_all(&frame)?,
            LinkTx::Chan(tx) => tx
                .send(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))?,
        }
        Ok(n)
    }

    /// Shut a TCP link down in both directions. A reader blocked on the
    /// socket's other half wakes with EOF. A channel link closes when its
    /// endpoint drops, so this is a no-op for it.
    pub fn close(&self) {
        if let LinkTx::Tcp(stream) = self {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl LinkRx {
    /// Receive one message, waiting up to `timeout`.
    ///
    /// `Ok(None)` means the timeout elapsed with no *complete* frame (any
    /// partial bytes stay buffered for the next call). `Err(UnexpectedEof)`
    /// means the peer closed the connection; `Err(InvalidData)` wraps a
    /// codec failure — corrupt frames are fatal to the link, never skipped.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<Option<(Message, usize)>> {
        self.recv_by(Some(Instant::now() + timeout))
    }

    /// Block until one message arrives, or the link ends with EOF or an
    /// error.
    pub(crate) fn next(&mut self) -> io::Result<(Message, usize)> {
        loop {
            if let Some(got) = self.recv_by(None)? {
                return Ok(got);
            }
        }
    }

    /// [`LinkRx::recv`] until `deadline`, or with no deadline at all.
    fn recv_by(&mut self, deadline: Option<Instant>) -> io::Result<Option<(Message, usize)>> {
        loop {
            // A frame may already be complete in the buffer.
            let buf = match self {
                LinkRx::Tcp { buf, .. } => buf,
                LinkRx::Chan { buf, .. } => buf,
            };
            match decode_framed(buf) {
                Ok(Some((msg, used))) => {
                    buf.drain(..used);
                    return Ok(Some((msg, used)));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }

            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Ok(None);
            }
            match self {
                LinkRx::Tcp { stream, buf } => {
                    stream.set_read_timeout(left.map(|l| l.max(Duration::from_millis(1))))?;
                    let mut chunk = [0u8; 16 * 1024];
                    match stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "peer closed connection",
                            ))
                        }
                        Ok(n) => {
                            if buf.len() + n > MAX_FRAME_BYTES + 4 {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "frame reassembly buffer overflow",
                                ));
                            }
                            buf.extend_from_slice(&chunk[..n]);
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            return Ok(None)
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                LinkRx::Chan { rx, buf } => {
                    let frame = left.map_or_else(
                        || rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                        |left| rx.recv_timeout(left),
                    );
                    match frame {
                        Ok(frame) => buf.extend_from_slice(&frame),
                        Err(RecvTimeoutError::Timeout) => return Ok(None),
                        Err(RecvTimeoutError::Disconnected) => {
                            let eof = io::ErrorKind::UnexpectedEof;
                            return Err(io::Error::new(eof, "peer hung up"));
                        }
                    }
                }
            }
        }
    }
}

/// One duplex endpoint of an in-process link.
pub struct Endpoint {
    pub tx: LinkTx,
    pub rx: LinkRx,
}

/// Build a connected pair of in-process duplex endpoints. Traffic crosses
/// the same encode/decode path as TCP.
pub fn loopback_pair() -> (Endpoint, Endpoint) {
    let (a_tx, b_rx) = unbounded::<Vec<u8>>();
    let (b_tx, a_rx) = unbounded::<Vec<u8>>();
    (
        Endpoint {
            tx: LinkTx::Chan(a_tx),
            rx: LinkRx::Chan {
                rx: a_rx,
                buf: Vec::new(),
            },
        },
        Endpoint {
            tx: LinkTx::Chan(b_tx),
            rx: LinkRx::Chan {
                rx: b_rx,
                buf: Vec::new(),
            },
        },
    )
}

/// Split a connected socket into framed halves (`TCP_NODELAY`, write
/// deadline applied; the read deadline is managed per-`recv`).
pub fn split_tcp(stream: TcpStream, cfg: &NetConfig) -> io::Result<(LinkTx, LinkRx)> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    let read_half = stream.try_clone()?;
    Ok((
        LinkTx::Tcp(stream),
        LinkRx::Tcp {
            stream: read_half,
            buf: Vec::new(),
        },
    ))
}

/// Dial the head, retrying with the same capped + jittered exponential
/// backoff the storage layer uses for ranged-GET retries.
pub fn connect_with_backoff(addr: SocketAddr, cfg: &NetConfig, seed: u64) -> io::Result<TcpStream> {
    let mut last_err = None;
    for attempt in 1..=cfg.connect_attempts.max(1) {
        match TcpStream::connect_timeout(&addr, cfg.io_timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
        if attempt < cfg.connect_attempts {
            std::thread::sleep(backoff_schedule(
                cfg.connect_backoff,
                cfg.connect_backoff_cap,
                seed,
                attempt,
            ));
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no connect attempts")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::layout::ChunkId;
    use cloudburst_core::Resolution;

    #[test]
    fn loopback_round_trips_messages() {
        let (mut a, mut b) = loopback_pair();
        let msg = Message::Resolve(Resolution::Completed(ChunkId(17)));
        let sent = a.tx.send(&msg).unwrap();
        let (got, recvd) = b.rx.recv(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got, msg);
        assert_eq!(sent, recvd);
    }

    #[test]
    fn oversized_frame_rejected_at_send_not_at_peer() {
        let (mut a, _b) = loopback_pair();
        let msg = Message::RobjShip {
            robj: vec![0u8; MAX_FRAME_BYTES],
            report: cloudburst_core::ClusterAccount::default(),
        };
        let err = a.tx.send(&msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn loopback_timeout_returns_none() {
        let (_a, mut b) = loopback_pair();
        assert!(b.rx.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn loopback_eof_on_peer_drop() {
        let (a, mut b) = loopback_pair();
        drop(a);
        let err = b.rx.recv(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_reassembles_split_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = NetConfig::default();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let frame = Message::Heartbeat { seq: 99 }.encode_frame().unwrap();
            // Dribble the frame one byte at a time to force reassembly.
            for b in frame {
                s.write_all(&[b]).unwrap();
                s.flush().unwrap();
            }
        });
        let (conn, _) = listener.accept().unwrap();
        let (_tx, mut rx) = split_tcp(conn, &cfg).unwrap();
        let (msg, _) = rx.recv(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(msg, Message::Heartbeat { seq: 99 });
        writer.join().unwrap();
    }

    #[test]
    fn connect_backoff_gives_up_with_last_error() {
        // A port nothing listens on: bind then drop to find a free one.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = NetConfig {
            connect_attempts: 2,
            connect_backoff: Duration::from_millis(1),
            connect_backoff_cap: Duration::from_millis(2),
            io_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        };
        assert!(connect_with_backoff(addr, &cfg, 7).is_err());
    }
}
