//! The control-plane wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` length
//! prefix followed by that many payload bytes. The payload starts with a
//! one-byte message tag; the remaining fields are encoded with fixed-width
//! little-endian integers and `u32`-length-prefixed UTF-8 strings. The
//! format is hand-rolled rather than derived so the byte layout is an
//! explicit, documented contract (`docs/NETWORKING.md` tabulates it) and
//! decoding failures are precise ([`WireError`]).
//!
//! Versioning: the handshake's [`Message::Hello`] opens with a 4-byte
//! magic and carries [`PROTOCOL_VERSION`]; the head answers `Welcome` on a
//! match and `Reject { reason }` otherwise, so mixed-version deployments
//! fail loudly at connect time instead of corrupting a run.

use cb_storage::layout::ChunkId;
use cloudburst_core::report::{ClusterAccount, RecoveryStats, SlaveStats};
use cloudburst_core::Resolution;
use std::time::Duration;

/// First bytes of a `Hello` payload after the tag — weeds out strangers
/// (an HTTP client, an old build with a different layout) before any field
/// is interpreted.
pub const MAGIC: [u8; 4] = *b"CBW1";

/// Bumped on any incompatible change to the messages or the exchange; in 2,
/// a worker relies on the head holding a `JobRequest` it cannot answer yet.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a frame's payload size. Larger announced lengths are
/// rejected before allocation: a corrupt or hostile length prefix must not
/// OOM the peer. Generous enough for any reduction object the paper's
/// workloads produce.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Decoding failures. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field was complete.
    Truncated,
    /// Bytes remained after the last field of the message.
    Trailing(usize),
    /// Unknown message tag.
    BadTag(u8),
    /// A `Hello` that does not open with [`MAGIC`].
    BadMagic,
    /// A frame length prefix exceeding [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
    /// A string field holding invalid UTF-8.
    BadString,
    /// Fields that decode but break the value's own rules, e.g. a NaN
    /// score or entries out of their canonical order.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadMagic => write!(f, "bad protocol magic (not a cloudburst peer?)"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds cap of {MAX_FRAME_BYTES}")
            }
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::Invalid(why) => write!(f, "invalid value: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Every message of the head↔worker control plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → head, first message on a fresh connection.
    Hello {
        version: u16,
        /// Cluster index this worker runs (its report slot).
        cluster: u32,
        /// The worker's site (`LocationId.0`): the pool's locality key.
        location: u16,
        cores: u32,
        name: String,
        /// Application tag; both sides must run the same app+params.
        app: String,
        /// Fingerprint over layout/placement/app so a worker pointed at a
        /// different dataset is rejected instead of corrupting the run.
        fingerprint: u64,
    },
    /// Head → worker: handshake accepted; heartbeat cadence to use.
    Welcome {
        version: u16,
        heartbeat_ms: u64,
        fingerprint: u64,
    },
    /// Head → worker: handshake refused; the connection closes after this.
    Reject { reason: String },
    /// Worker → head: the master wants a job batch. `seq` increments per
    /// request; the head echoes it in `JobGrant` so the worker can pair
    /// replies to requests and reject a stale grant from a request it has
    /// already given up on.
    JobRequest { seq: u64 },
    /// Head → worker: reply to `JobRequest`, echoing its `seq`.
    /// `exhausted` carries the head's verdict observed atomically with the
    /// grant.
    JobGrant {
        seq: u64,
        jobs: Vec<u32>,
        stolen: bool,
        exhausted: bool,
    },
    /// Worker → head: one lease resolved (fire-and-forget). On the wire:
    /// the chunk id, then 0 completed / 1 failed / 2 released.
    Resolve(Resolution),
    /// Worker → head, periodic liveness beacon.
    Heartbeat { seq: u64 },
    /// Worker → head: the cluster finished; encoded reduction object plus
    /// final account. After the head acks, the worker's completions are
    /// durable and its death no longer costs anything.
    RobjShip {
        robj: Vec<u8>,
        report: ClusterAccount,
    },
    /// Head → worker: `RobjShip` received and banked.
    ShipAck,
    /// Worker → head: clean goodbye; the socket closes next.
    Goodbye,
}

// Message tags. Stable — append only.
const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_JOB_REQUEST: u8 = 4;
const TAG_JOB_GRANT: u8 = 5;
const TAG_RESOLVE: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_ROBJ_SHIP: u8 = 8;
const TAG_SHIP_ACK: u8 = 9;
const TAG_GOODBYE: u8 = 10;

/// Append-only payload writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        // The `u32` length prefix would silently truncate past 4 GiB; any
        // such payload also blows MAX_FRAME_BYTES, which `encode_frame`
        // rejects — this assert just catches misuse closer to the source.
        debug_assert!(v.len() <= u32::MAX as usize, "field too large for wire");
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked payload reader.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        // A length field can claim more than the frame holds; `take`
        // bounds-checks, so a lying length is Truncated, not a panic.
        self.take(n)
    }

    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadString)
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(left))
        }
    }
}

/// A cluster account on the wire. Durations travel as integer
/// nanoseconds so encoding is exact; the head's `jobs_reenqueued` does not
/// travel.
fn put_report(w: &mut WireWriter, r: &ClusterAccount) {
    let ns = |d: Duration| d.as_nanos() as u64;
    w.put_u32(r.slaves.len() as u32);
    for s in &r.slaves {
        w.put_u64(ns(s.processing));
        w.put_u64(ns(s.retrieval));
        w.put_u64(ns(s.fetch_stall));
        w.put_u64(s.jobs);
        w.put_u64(s.stolen_jobs);
        w.put_u64(s.units);
        w.put_u64(s.bytes_local);
        w.put_u64(s.bytes_remote);
    }
    w.put_u64(r.recovery.fetch_failures);
    w.put_u64(r.recovery.retries);
    w.put_u64(r.recovery.slaves_retired);
    w.put_u64(r.recovery.slaves_killed);
    w.put_u64(ns(r.wall));
    match &r.error {
        Some(e) => {
            w.put_bool(true);
            w.put_str(e);
        }
        None => w.put_bool(false),
    }
}

fn get_report(r: &mut WireReader<'_>) -> Result<ClusterAccount, WireError> {
    let n = r.u32()? as usize;
    // Cap preallocation by what the frame could possibly hold (8 u64s per
    // slave), so a lying count cannot OOM.
    let mut slaves = Vec::with_capacity(n.min(MAX_FRAME_BYTES / 64));
    for _ in 0..n {
        slaves.push(SlaveStats {
            processing: Duration::from_nanos(r.u64()?),
            retrieval: Duration::from_nanos(r.u64()?),
            fetch_stall: Duration::from_nanos(r.u64()?),
            jobs: r.u64()?,
            stolen_jobs: r.u64()?,
            units: r.u64()?,
            bytes_local: r.u64()?,
            bytes_remote: r.u64()?,
        });
    }
    let recovery = RecoveryStats {
        fetch_failures: r.u64()?,
        retries: r.u64()?,
        slaves_retired: r.u64()?,
        slaves_killed: r.u64()?,
        jobs_reenqueued: 0,
    };
    let wall = Duration::from_nanos(r.u64()?);
    let error = if r.bool()? {
        Some(r.str()?.to_owned())
    } else {
        None
    };
    Ok(ClusterAccount {
        slaves,
        recovery,
        wall,
        error,
    })
}

/// Exact encoded size of [`put_report`]'s output.
fn report_len(r: &ClusterAccount) -> usize {
    let error = r.error.as_ref().map_or(0, |e| 4 + e.len());
    4 + 64 * r.slaves.len() + 5 * 8 + 1 + error
}

impl Message {
    /// Encode the payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.put(&mut w);
        w.into_payload()
    }

    /// Append the payload to `w`: the one body behind [`Message::encode`]
    /// and [`Message::encode_frame`].
    fn put(&self, w: &mut WireWriter) {
        match self {
            Message::Hello {
                version,
                cluster,
                location,
                cores,
                name,
                app,
                fingerprint,
            } => {
                w.put_u8(TAG_HELLO);
                w.buf.extend_from_slice(&MAGIC);
                w.put_u16(*version);
                w.put_u32(*cluster);
                w.put_u16(*location);
                w.put_u32(*cores);
                w.put_str(name);
                w.put_str(app);
                w.put_u64(*fingerprint);
            }
            Message::Welcome {
                version,
                heartbeat_ms,
                fingerprint,
            } => {
                w.put_u8(TAG_WELCOME);
                w.put_u16(*version);
                w.put_u64(*heartbeat_ms);
                w.put_u64(*fingerprint);
            }
            Message::Reject { reason } => {
                w.put_u8(TAG_REJECT);
                w.put_str(reason);
            }
            Message::JobRequest { seq } => {
                w.put_u8(TAG_JOB_REQUEST);
                w.put_u64(*seq);
            }
            Message::JobGrant {
                seq,
                jobs,
                stolen,
                exhausted,
            } => {
                w.put_u8(TAG_JOB_GRANT);
                w.put_u64(*seq);
                w.put_u32(jobs.len() as u32);
                for j in jobs {
                    w.put_u32(*j);
                }
                w.put_bool(*stolen);
                w.put_bool(*exhausted);
            }
            Message::Resolve(what) => {
                let (chunk, disposition) = match *what {
                    Resolution::Completed(c) => (c, 0),
                    Resolution::Failed(c) => (c, 1),
                    Resolution::Released(c) => (c, 2),
                };
                w.put_u8(TAG_RESOLVE);
                w.put_u32(chunk.0);
                w.put_u8(disposition);
            }
            Message::Heartbeat { seq } => {
                w.put_u8(TAG_HEARTBEAT);
                w.put_u64(*seq);
            }
            Message::RobjShip { robj, report } => {
                // One allocation of the final size: a pagerank robj is
                // 16 MB, and regrowing a buffer that size faults in fresh
                // pages on every doubling.
                w.buf.reserve(1 + 4 + robj.len() + report_len(report));
                w.put_u8(TAG_ROBJ_SHIP);
                w.put_bytes(robj);
                put_report(w, report);
            }
            Message::ShipAck => w.put_u8(TAG_SHIP_ACK),
            Message::Goodbye => w.put_u8(TAG_GOODBYE),
        }
    }

    /// Decode a payload (no length prefix). Rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(payload);
        let tag = r.u8()?;
        let msg = match tag {
            TAG_HELLO => {
                let magic = r.take(4)?;
                if magic != MAGIC {
                    return Err(WireError::BadMagic);
                }
                Message::Hello {
                    version: r.u16()?,
                    cluster: r.u32()?,
                    location: r.u16()?,
                    cores: r.u32()?,
                    name: r.str()?.to_owned(),
                    app: r.str()?.to_owned(),
                    fingerprint: r.u64()?,
                }
            }
            TAG_WELCOME => Message::Welcome {
                version: r.u16()?,
                heartbeat_ms: r.u64()?,
                fingerprint: r.u64()?,
            },
            TAG_REJECT => Message::Reject {
                reason: r.str()?.to_owned(),
            },
            TAG_JOB_REQUEST => Message::JobRequest { seq: r.u64()? },
            TAG_JOB_GRANT => {
                let seq = r.u64()?;
                let n = r.u32()? as usize;
                let mut jobs = Vec::with_capacity(n.min(MAX_FRAME_BYTES / 4));
                for _ in 0..n {
                    jobs.push(r.u32()?);
                }
                Message::JobGrant {
                    seq,
                    jobs,
                    stolen: r.bool()?,
                    exhausted: r.bool()?,
                }
            }
            TAG_RESOLVE => {
                let chunk = ChunkId(r.u32()?);
                Message::Resolve(match r.u8()? {
                    0 => Resolution::Completed(chunk),
                    1 => Resolution::Failed(chunk),
                    2 => Resolution::Released(chunk),
                    t => return Err(WireError::BadTag(t)),
                })
            }
            TAG_HEARTBEAT => Message::Heartbeat { seq: r.u64()? },
            TAG_ROBJ_SHIP => Message::RobjShip {
                robj: r.bytes()?.to_vec(),
                report: get_report(&mut r)?,
            },
            TAG_SHIP_ACK => Message::ShipAck,
            TAG_GOODBYE => Message::Goodbye,
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Encode as a complete frame: `u32` LE length prefix + payload.
    ///
    /// Fails with [`WireError::FrameTooLarge`] when the payload exceeds
    /// [`MAX_FRAME_BYTES`]: the receiver would kill the link over such a
    /// frame anyway, so the sender must get a clear error (e.g. "robj too
    /// large to ship") instead of a confusing peer loss. The cap also
    /// guards the `u32` length prefix (`MAX_FRAME_BYTES` < `u32::MAX`).
    ///
    /// The payload is written behind 4 placeholder bytes in the same buffer
    /// and the prefix patched in after, so a frame is never copied.
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        let mut w = WireWriter::new();
        w.put_u32(0);
        self.put(&mut w);
        let mut frame = w.into_payload();
        let len = frame.len() - 4;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge(len));
        }
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(frame)
    }
}

/// Try to pull one frame off the front of `buf`.
///
/// `Ok(None)` means "incomplete — read more bytes". On success returns the
/// message and the number of bytes consumed (prefix + payload); the caller
/// drains that many from its buffer.
pub fn decode_framed(buf: &[u8]) -> Result<Option<(Message, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let msg = Message::decode(&buf[4..4 + len])?;
    Ok(Some((msg, 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let m = Message::Heartbeat { seq: 42 };
        let frame = m.encode_frame().unwrap();
        let (back, used) = decode_framed(&frame).unwrap().unwrap();
        assert_eq!(back, m);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn incomplete_frames_ask_for_more() {
        let frame = Message::Goodbye.encode_frame().unwrap();
        for cut in 0..frame.len() {
            assert_eq!(decode_framed(&frame[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut frame = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_framed(&frame),
            Err(WireError::FrameTooLarge(MAX_FRAME_BYTES + 1))
        );
    }

    #[test]
    fn oversized_payload_rejected_at_encode() {
        let m = Message::RobjShip {
            robj: vec![0u8; MAX_FRAME_BYTES],
            report: ClusterAccount::default(),
        };
        match m.encode_frame() {
            Err(WireError::FrameTooLarge(n)) => assert!(n > MAX_FRAME_BYTES),
            other => panic!("expected FrameTooLarge, got {:?}", other.map(|f| f.len())),
        }
    }

    /// A `RobjShip` frame is reserved at its final size, so encoding a
    /// large robj never regrows the buffer. (`crates/net/tests/codec.rs`
    /// checks every variant's frame against its payload.)
    #[test]
    fn robj_ship_frame_is_sized_exactly() {
        let report = ClusterAccount {
            slaves: vec![SlaveStats::default(); 2],
            error: Some("chunk 3 of f: bad".into()),
            ..ClusterAccount::default()
        };
        for (robj, report) in [
            (vec![7u8; 100_000], report),
            (Vec::new(), ClusterAccount::default()),
        ] {
            let frame = Message::RobjShip { robj, report }.encode_frame().unwrap();
            assert_eq!(frame.capacity(), frame.len());
        }
    }

    #[test]
    fn hello_requires_magic() {
        let m = Message::Hello {
            version: PROTOCOL_VERSION,
            cluster: 0,
            location: 0,
            cores: 1,
            name: "w".into(),
            app: "wordcount".into(),
            fingerprint: 7,
        };
        let mut payload = m.encode();
        payload[1] = b'X'; // corrupt first magic byte
        assert_eq!(Message::decode(&payload), Err(WireError::BadMagic));
    }
}
