//! Framed links over TCP.
//!
//! A *link* is a unidirectional framed message stream over one half of a
//! connected socket: [`LinkTx`] sends [`Message`]s, [`LinkRx`] receives
//! them. [`split_tcp`] splits a socket into try-cloned halves
//! (`TCP_NODELAY`, write deadline). Frames are reassembled across
//! arbitrary read boundaries, so short reads and coalesced writes are
//! handled.
//!
//! Every receive ends on an event: a complete frame, EOF, a link error or
//! the caller's deadline. Nothing polls. A reader blocked on a link is
//! woken by [`LinkTx::close`] on the other half of the same socket.
//!
//! Both halves report the frame size they moved, so callers can emit
//! `NetSent`/`NetRecv` observability events with true byte counts.

use crate::wire::{decode_framed, Message, MAX_FRAME_BYTES};
use cb_storage::retrieve::backoff_schedule;
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
pub struct LinkTx(TcpStream);

/// Receiving half of a link.
pub struct LinkRx {
    stream: TcpStream,
    /// Bytes read but not yet consumed as a complete frame — carries
    /// partial frames across reads (and across timeouts).
    buf: Vec<u8>,
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
        self.0.write_all(&frame)?;
        Ok(frame.len())
    }

    /// Shut the socket down in both directions. A reader blocked on its
    /// other half wakes with EOF.
    pub fn close(&self) {
        let _ = self.0.shutdown(Shutdown::Both);
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
            match decode_framed(&self.buf) {
                Ok(Some((msg, used))) => {
                    self.buf.drain(..used);
                    return Ok(Some((msg, used)));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }

            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Ok(None);
            }
            let read_timeout = left.map(|l| l.max(Duration::from_millis(1)));
            self.stream.set_read_timeout(read_timeout)?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed connection",
                    ))
                }
                Ok(n) => {
                    if self.buf.len() + n > MAX_FRAME_BYTES + 4 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "frame reassembly buffer overflow",
                        ));
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
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
    }
}

/// Split a connected socket into framed halves (`TCP_NODELAY`, write
/// deadline applied; the read deadline is managed per-`recv`).
pub fn split_tcp(stream: TcpStream, cfg: &NetConfig) -> io::Result<(LinkTx, LinkRx)> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    let read_half = stream.try_clone()?;
    let rx = LinkRx {
        stream: read_half,
        buf: Vec::new(),
    };
    Ok((LinkTx(stream), rx))
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

    /// A connected 127.0.0.1 socket, split into framed halves at both ends.
    fn socket_pair() -> ((LinkTx, LinkRx), (LinkTx, LinkRx)) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let cfg = NetConfig::default();
        (
            split_tcp(dialed, &cfg).unwrap(),
            split_tcp(accepted, &cfg).unwrap(),
        )
    }

    #[test]
    fn loopback_round_trips_messages() {
        let ((mut a_tx, _a_rx), (_b_tx, mut b_rx)) = socket_pair();
        let msg = Message::Resolve(Resolution::Completed(ChunkId(17)));
        let sent = a_tx.send(&msg).unwrap();
        let (got, recvd) = b_rx.recv(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got, msg);
        assert_eq!(sent, recvd);
    }

    #[test]
    fn oversized_frame_rejected_at_send_not_at_peer() {
        let ((mut a_tx, _a_rx), _b) = socket_pair();
        let msg = Message::RobjShip {
            robj: vec![0u8; MAX_FRAME_BYTES],
            report: cloudburst_core::ClusterAccount::default(),
        };
        let err = a_tx.send(&msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn loopback_timeout_returns_none() {
        let (_a, (_b_tx, mut b_rx)) = socket_pair();
        assert!(b_rx.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn loopback_eof_on_peer_drop() {
        let (a, (_b_tx, mut b_rx)) = socket_pair();
        drop(a);
        let err = b_rx.recv(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// `run_head` joins no reader: at the end of a run it closes each
    /// link's sending half, and that must wake the reader blocked on the
    /// same socket even while the peer stays connected and silent.
    #[test]
    fn close_wakes_a_reader_blocked_on_the_same_socket() {
        let ((a_tx, mut a_rx), _silent_peer) = socket_pair();
        let (woke, woken) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let _ = woke.send(a_rx.next().map(|_| ()).map_err(|e| e.kind()));
        });
        // Give the reader time to block; a close before it reads ends it
        // with the same EOF, so the assertion holds in either order.
        std::thread::sleep(Duration::from_millis(50));
        a_tx.close();
        let ended = woken
            .recv_timeout(Duration::from_secs(1))
            .expect("the blocked reader woke within 1 s");
        assert_eq!(ended, Err(io::ErrorKind::UnexpectedEof));
        reader.join().unwrap();
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
