//! # Observability: structured events, traces, and metrics
//!
//! The paper's claims — within-cluster load balance, sequential-read
//! locality, contention-minimizing stealing — were originally only
//! *visible* in the simulator's Gantt charts. This module gives the real
//! runtime the same span-level visibility: every scheduling decision,
//! fetch, fold, retry, and reduction-object merge is emitted as a
//! structured [`EventRecord`] through a lock-cheap [`EventSink`].
//!
//! The design invariant is **RunReport-as-derived-view**: each event
//! carries the *same* measured duration / byte count that feeds the
//! aggregate [`RunReport`], so every report
//! field (jobs, steals, retrieval time, fetch stall, cache hits,
//! recovery counters) can be re-derived from the event stream alone —
//! [`TraceSummary::reconcile`] checks this exactly. The simulator emits
//! the same event kinds, so calibration can diff real-vs-simulated
//! *event streams*, not just aggregate reports.
//!
//! Pieces:
//!
//! * [`EventKind`] / [`EventRecord`] — the event taxonomy (timestamps are
//!   monotonic nanoseconds since run start; simulated runs use virtual
//!   nanoseconds, making the two directly comparable). One table, the
//!   `event_kinds!` invocation below, is the one place a kind is added: its
//!   row gives the variant, the `ev` name and the JSONL payload fields.
//! * [`EventSink`] + [`SinkHandle`] — the emission interface. A disabled
//!   handle (the default) costs one branch per call site.
//! * [`Clock`] + [`RecordingSink`] — the sink buffers events in memory,
//!   stamped from the run's clock: wall time in the runtime, virtual time
//!   in the simulator, which shares the one clock with its head.
//! * [`encode_jsonl`] / [`decode_jsonl`] — the versioned JSONL trace
//!   format written by `cloudburst run --trace-out` (schema documented in
//!   `docs/OBSERVABILITY.md`).
//! * [`Timeline`] — the one Gantt renderer: live and simulated runs are
//!   drawn from their event streams alike ([`GANTT_LEGEND`]).
//! * [`TraceSummary`] / [`MetricsRegistry`] — counters and histograms
//!   folded from the stream.
//!
//! ## Example
//!
//! ```
//! use cloudburst_core::obs::{
//!     decode_jsonl, encode_jsonl, EventKind, RecordingSink, SinkHandle,
//! };
//!
//! let sink = RecordingSink::new();
//! let handle = SinkHandle::new(sink.clone());
//! handle.emit(Some(0), Some(1), EventKind::FetchStart { chunk: 7 });
//! handle.emit(
//!     Some(0),
//!     Some(1),
//!     EventKind::FetchEnd { chunk: 7, bytes: 4096, remote: true, ns: 1_500 },
//! );
//!
//! let events = sink.take();
//! let jsonl = encode_jsonl(&events);
//! let back = decode_jsonl(&jsonl).unwrap();
//! assert_eq!(back, events);
//! ```

use crate::report::{ClusterBreakdown, NetStats, RecoveryStats, RunReport, SlaveStats};
use parking_lot::Mutex;
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier written in the JSONL header line.
pub const SCHEMA_NAME: &str = "cloudburst-trace";
/// Version of the JSONL trace schema (bump on incompatible change).
pub const SCHEMA_VERSION: u64 = 1;
/// The one Gantt legend shared by live runs, simulated runs, and docs.
pub const GANTT_LEGEND: &str = "█ process, ▒ fetch, ░ stall, ◆ robj, · idle";

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

/// Declares the event taxonomy from one table. A row reads
/// `Kind "ev_name" { field: u64, flag: bool }` (no braces: no payload)
/// and yields the [`EventKind`] variant, its [`EventKind::name`], and its
/// arms of the JSONL codec, which writes and reads the payload fields in
/// declaration order.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident $name:literal $({ $($field:ident: $ty:ty),* $(,)? })?
    ),* $(,)?) => {
        /// What happened. Payload integers are the *same* measured values that
        /// feed [`RunReport`], so aggregates derived
        /// from events match the report exactly (see [`TraceSummary::reconcile`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$doc])* $kind $({ $($field: $ty),* })?, )*
        }

        impl EventKind {
            /// Stable snake_case name used in the JSONL `ev` field.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$kind { .. } => $name, )*
                }
            }

            /// Append the payload fields, in declaration order.
            fn write_fields(self, pairs: &mut Vec<(String, Value)>) {
                match self {
                    $( EventKind::$kind { $($($field,)*)? } => {
                        $($( pairs.push((stringify!($field).into(), $field.value())); )*)?
                    } )*
                }
            }

            /// The kind named `ev`, its payload read from `v`.
            fn read_fields(ev: &str, v: &Value) -> Result<EventKind, String> {
                Ok(match ev {
                    $( $name => EventKind::$kind {
                        $($($field: <$ty as Field>::get(v, stringify!($field))?,)*)?
                    }, )*
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }
        }
    };
}

event_kinds! {
    /// The head granted a job lease (cluster/slave = the grantee's master).
    JobAssigned "job_assigned" { chunk: u64, stolen: bool },
    /// A remote-file grant: the grantee will read a chunk homed elsewhere.
    Steal "steal" { chunk: u64 },
    /// A lease went back to the pool. `charged` means the job's failure
    /// budget was debited (a real failure); uncharged releases are
    /// never-attempted prefetch leases returned at retirement.
    LeaseReleased "lease_released" { chunk: u64, charged: bool },
    /// A slave's fetcher began retrieving a chunk.
    FetchStart "fetch_start" { chunk: u64 },
    /// Retrieval finished: `bytes` delivered, `remote` = crossed the
    /// cluster boundary, `ns` = retrieval duration.
    FetchEnd "fetch_end" { chunk: u64, bytes: u64, remote: bool, ns: u64 },
    /// Retrieval failed terminally (all retries exhausted / deadline hit);
    /// `ns` is the time the fetcher spent before giving up (it still counts
    /// toward the cluster's retrieval time, exactly as in the report).
    FetchFailed "fetch_failed" { chunk: u64, ns: u64 },
    /// Retrieval completed but the retiring slave never folded the chunk;
    /// its lease goes back uncharged. Terminal for fetch pairing, counted
    /// in no aggregate.
    FetchDiscarded "fetch_discarded" { chunk: u64 },
    /// The fold thread waited `ns` for the fetch pipeline to deliver
    /// (the per-cluster `fetch_stall_s` is the per-core mean of these).
    Stall "stall" { ns: u64 },
    /// Local reduction over a chunk began. A `ProcessStart` with no
    /// `ProcessEnd` is a chunk the app rejected before folding any of it
    /// (`DecodeError`); its lease goes back charged.
    ProcessStart "process_start" { chunk: u64 },
    /// Local reduction finished: `units` folded in `ns`. `stolen` tags
    /// jobs that were granted off another cluster's files.
    ProcessEnd "process_end" { chunk: u64, units: u64, ns: u64, stolen: bool },
    /// A ranged GET is being retried (`attempt` starts at 1).
    Retry "retry" { attempt: u64 },
    /// A slave stopped pulling work; `killed` distinguishes scheduled
    /// fail-stops from failure-threshold retirements.
    SlaveRetired "slave_retired" { killed: bool },
    /// A cluster's reduction object reached the head: `bytes` shipped,
    /// `ns` spent on the (WAN) transfer.
    RobjMerge "robj_merge" { bytes: u64, ns: u64 },
    /// Iterative-run chunk cache served `bytes` from memory.
    CacheHit "cache_hit" { bytes: u64 },
    /// Iterative-run chunk cache went to the backing store for `bytes`.
    CacheMiss "cache_miss" { bytes: u64 },
    /// The storage fault-injection layer forced a failure.
    FaultInjected "fault_injected",
    /// An iterative run crossed into pass `pass` (0-based).
    PassBoundary "pass_boundary" { pass: u64 },
    /// A master asked the head for more work with `queue_len` jobs left.
    MasterRefill "master_refill" { queue_len: u64 },
    /// A control-plane frame of `bytes` was written to a network peer
    /// (distributed runs only; `cluster` identifies the peer on the head
    /// side, the emitting cluster on the worker side).
    NetSent "net_sent" { bytes: u64 },
    /// A control-plane frame of `bytes` was read from a network peer.
    NetRecv "net_recv" { bytes: u64 },
    /// A worker completed the handshake and joined the run with `cores`
    /// slave cores.
    PeerJoined "peer_joined" { cores: u64 },
    /// A worker was declared lost (socket error or missed heartbeats);
    /// `jobs` of its work — leases *and* unshipped completions — were
    /// returned to the pool.
    PeerLost "peer_lost" { jobs: u64 },
}

/// One timestamped event. `cluster`/`slave` are omitted where the event
/// has no such scope (e.g. cache traffic observed below the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic nanoseconds since run start (virtual ns in the sim).
    pub t_ns: u64,
    pub cluster: Option<u32>,
    pub slave: Option<u32>,
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives events from emission points. Implementations stamp the
/// timestamp themselves (wall clock for live runs, virtual clock for the
/// simulator) so call sites stay trivial.
pub trait EventSink: Send + Sync {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind);
}

/// A cheaply clonable, possibly-disabled handle to an [`EventSink`].
///
/// The default handle is disabled: [`SinkHandle::emit`] is then a single
/// `Option` branch, which is what the `obs` criterion bench holds to <2%
/// overhead on the fold hot path.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<dyn EventSink>>);

impl SinkHandle {
    /// A handle that drops every event (the default).
    pub fn disabled() -> Self {
        SinkHandle(None)
    }

    /// A handle delivering to `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle(Some(sink))
    }

    /// Whether events go anywhere. Emission sites may use this to skip
    /// payload preparation that is not already free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        if let Some(sink) = &self.0 {
            sink.emit(cluster, slave, kind);
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkHandle(enabled)"
        } else {
            "SinkHandle(disabled)"
        })
    }
}

/// A run's clock: the time since the run started.
///
/// The runtime and the net head read the wall clock; the simulator hands
/// the same shared counter to its sink and its head and advances it to
/// each event's virtual time. Sharing one clock is what makes live and
/// simulated event streams, and the reports built beside them, comparable.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Wall time since the instant the run started.
    Wall(Instant),
    /// Virtual nanoseconds, set by the simulator.
    Virtual(Arc<AtomicU64>),
}

impl Clock {
    /// Time since the run started.
    pub fn now(&self) -> Duration {
        match self {
            Clock::Wall(t0) => t0.elapsed(),
            Clock::Virtual(ns) => Duration::from_nanos(ns.load(Ordering::Relaxed)),
        }
    }
}

/// Buffers events in memory, stamping each with its [`Clock`]'s time.
pub struct RecordingSink {
    clock: Clock,
    events: Mutex<Vec<EventRecord>>,
}

impl RecordingSink {
    /// Record wall-clock timestamps relative to now.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<RecordingSink> {
        RecordingSink::with_clock(Clock::Wall(Instant::now()))
    }

    /// Record timestamps read from `clock`.
    pub fn with_clock(clock: Clock) -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            clock,
            events: Mutex::new(Vec::new()),
        })
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.events.lock().clone()
    }

    /// Drain everything recorded so far.
    pub fn take(&self) -> Vec<EventRecord> {
        std::mem::take(&mut *self.events.lock())
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl EventSink for RecordingSink {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        // Stamp under the lock: a time read before it could land behind a
        // later stamp pushed by a concurrent emitter.
        let mut events = self.events.lock();
        events.push(EventRecord {
            t_ns: self.clock.now().as_nanos() as u64,
            cluster,
            slave,
            kind,
        });
    }
}

// ---------------------------------------------------------------------------
// JSONL encode / decode
// ---------------------------------------------------------------------------

/// A payload field type of the JSONL codec.
trait Field: Sized {
    fn value(self) -> Value;
    /// Read `key` from the object `v`.
    fn get(v: &Value, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn value(self) -> Value {
        Value::Number(Number::U64(self))
    }

    fn get(v: &Value, key: &str) -> Result<u64, String> {
        let field = v.get(key).ok_or_else(|| format!("missing `{key}`"))?;
        match field.as_number().map_err(|e| e.to_string())? {
            Number::U64(n) => Ok(*n),
            Number::I64(n) if *n >= 0 => Ok(*n as u64),
            _ => Err(format!("`{key}` is not a non-negative integer")),
        }
    }
}

impl Field for bool {
    fn value(self) -> Value {
        Value::Bool(self)
    }

    fn get(v: &Value, key: &str) -> Result<bool, String> {
        match v.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            Some(other) => Err(format!("`{key}` should be bool, got {}", other.kind())),
            None => Err(format!("missing `{key}`")),
        }
    }
}

impl EventRecord {
    /// The event as a JSON object (one JSONL line, sans newline).
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![("t_ns".into(), self.t_ns.value())];
        if let Some(c) = self.cluster {
            pairs.push(("cluster".into(), (c as u64).value()));
        }
        if let Some(s) = self.slave {
            pairs.push(("slave".into(), (s as u64).value()));
        }
        pairs.push(("ev".into(), Value::String(self.kind.name().into())));
        self.kind.write_fields(&mut pairs);
        Value::Object(pairs)
    }

    /// Parse one JSONL line's object back into an event.
    pub fn from_value(v: &Value) -> Result<EventRecord, String> {
        let scope = |key| match v.get(key) {
            Some(_) => u32::try_from(u64::get(v, key)?)
                .map(Some)
                .map_err(|_| format!("`{key}` is above {}", u32::MAX)),
            None => Ok(None),
        };
        let t_ns = u64::get(v, "t_ns")?;
        let cluster = scope("cluster")?;
        let slave = scope("slave")?;
        let ev = match v.get("ev") {
            Some(Value::String(s)) => s.as_str(),
            _ => return Err("missing or non-string `ev`".into()),
        };
        Ok(EventRecord {
            t_ns,
            cluster,
            slave,
            kind: EventKind::read_fields(ev, v)?,
        })
    }
}

/// Encode a trace: a header line
/// `{"schema":"cloudburst-trace","v":1}` followed by one event per line.
pub fn encode_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::new();
    let header = Value::Object(vec![
        ("schema".into(), Value::String(SCHEMA_NAME.into())),
        ("v".into(), SCHEMA_VERSION.value()),
    ]);
    out.push_str(&header.render_compact());
    out.push('\n');
    for e in events {
        out.push_str(&e.to_value().render_compact());
        out.push('\n');
    }
    out
}

/// Decode a JSONL trace, validating the schema header. Errors carry the
/// offending line number.
pub fn decode_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let hv: Value =
        serde_json::from_str(header).map_err(|e| format!("line 1: bad header JSON: {e}"))?;
    match hv.get("schema") {
        Some(Value::String(s)) if s == SCHEMA_NAME => {}
        _ => {
            return Err(format!(
                "line 1: header is not a `{SCHEMA_NAME}` schema line"
            ))
        }
    }
    match hv.get("v").map(|v| v.as_number()) {
        Some(Ok(Number::U64(n))) if *n == SCHEMA_VERSION => {}
        _ => {
            return Err(format!(
                "line 1: unsupported trace schema version (want {SCHEMA_VERSION})"
            ))
        }
    }
    let mut events = Vec::new();
    for (i, line) in lines {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(EventRecord::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Stream invariants
// ---------------------------------------------------------------------------

/// Structural invariants every well-formed stream satisfies: each
/// `FetchStart` on a slave is terminated by a `FetchEnd` or `FetchFailed`
/// for the same chunk before the stream ends, and durations never precede
/// run start. Returns the first violation found.
pub fn check_invariants(events: &[EventRecord]) -> Result<(), String> {
    let mut open: BTreeMap<(Option<u32>, Option<u32>), Vec<u64>> = BTreeMap::new();
    for e in events {
        let key = (e.cluster, e.slave);
        match e.kind {
            EventKind::FetchStart { chunk } => open.entry(key).or_default().push(chunk),
            EventKind::FetchEnd { chunk, .. }
            | EventKind::FetchFailed { chunk, .. }
            | EventKind::FetchDiscarded { chunk } => {
                let inflight = open.entry(key).or_default();
                match inflight.iter().rposition(|&c| c == chunk) {
                    Some(i) => {
                        inflight.remove(i);
                    }
                    None => {
                        return Err(format!(
                            "{} for chunk {chunk} on {key:?} without fetch_start",
                            e.kind.name()
                        ))
                    }
                }
                if let EventKind::FetchEnd { ns, .. } = e.kind {
                    if ns > e.t_ns {
                        return Err(format!(
                            "fetch_end duration {ns}ns precedes run start (t_ns={})",
                            e.t_ns
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    for (key, inflight) in open {
        if !inflight.is_empty() {
            return Err(format!(
                "{} fetch(es) on {key:?} never terminated (chunks {inflight:?})",
                inflight.len()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Timeline (the shared Gantt renderer)
// ---------------------------------------------------------------------------

/// What a slave was doing during a [`TimelineSpan`] (glyphs:
/// [`GANTT_LEGEND`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Fetch,
    Stall,
    Process,
    RobjTransfer,
}

impl SpanKind {
    /// The Gantt cell glyph (see [`GANTT_LEGEND`]).
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Fetch => '▒',
            SpanKind::Stall => '░',
            SpanKind::Process => '█',
            SpanKind::RobjTransfer => '◆',
        }
    }
}

/// One activity interval of one slave, in nanoseconds since run start.
#[derive(Debug, Clone, Copy)]
pub struct TimelineSpan {
    pub cluster: u32,
    pub slave: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-slave activity spans reconstructed from an event stream; renders
/// a textual Gantt chart. Live and simulated runs both draw through it.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub spans: Vec<TimelineSpan>,
    /// End of the observed run, ns.
    pub horizon_ns: u64,
}

impl Timeline {
    /// Rebuild spans from duration-carrying events (`fetch_end`, `stall`,
    /// `process_end`, `robj_merge` each close a span of length `ns`).
    pub fn from_events(events: &[EventRecord]) -> Timeline {
        let mut tl = Timeline::default();
        for e in events {
            let (cluster, slave) = match (e.cluster, e.slave) {
                (Some(c), s) => (c, s.unwrap_or(0)),
                _ => continue,
            };
            let kind_ns = match e.kind {
                EventKind::FetchEnd { ns, .. } | EventKind::FetchFailed { ns, .. } => {
                    Some((SpanKind::Fetch, ns))
                }
                EventKind::Stall { ns } => Some((SpanKind::Stall, ns)),
                EventKind::ProcessEnd { ns, .. } => Some((SpanKind::Process, ns)),
                EventKind::RobjMerge { ns, .. } => Some((SpanKind::RobjTransfer, ns)),
                _ => None,
            };
            if let Some((kind, ns)) = kind_ns {
                tl.record(cluster, slave, kind, e.t_ns.saturating_sub(ns), e.t_ns);
            }
            tl.horizon_ns = tl.horizon_ns.max(e.t_ns);
        }
        tl
    }

    /// Record one span and extend the horizon.
    pub fn record(&mut self, cluster: u32, slave: u32, kind: SpanKind, start_ns: u64, end_ns: u64) {
        debug_assert!(end_ns >= start_ns, "span ends before it starts");
        self.spans.push(TimelineSpan {
            cluster,
            slave,
            kind,
            start_ns,
            end_ns,
        });
        self.horizon_ns = self.horizon_ns.max(end_ns);
    }

    /// Busy fraction of one slave over the whole run (fetch + process;
    /// stall and robj shipping are not "busy" slave work).
    pub fn utilization(&self, cluster: u32, slave: u32) -> f64 {
        if self.horizon_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self
            .spans
            .iter()
            .filter(|s| {
                s.cluster == cluster
                    && s.slave == slave
                    && matches!(s.kind, SpanKind::Fetch | SpanKind::Process)
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        busy as f64 / self.horizon_ns as f64
    }

    /// Mean busy fraction across all slaves of `cluster`.
    pub fn cluster_utilization(&self, cluster: u32) -> f64 {
        let slaves: std::collections::BTreeSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.cluster == cluster)
            .map(|s| s.slave)
            .collect();
        if slaves.is_empty() {
            return 0.0;
        }
        slaves
            .iter()
            .map(|&s| self.utilization(cluster, s))
            .sum::<f64>()
            / slaves.len() as f64
    }

    /// Render the textual Gantt chart: one row per (cluster, slave),
    /// `width` columns spanning the run, later spans overwriting earlier
    /// ones in a cell.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width > 0);
        let horizon = (self.horizon_ns as f64).max(1.0);
        let mut rows: BTreeMap<(u32, u32), Vec<char>> = BTreeMap::new();
        for s in &self.spans {
            let row = rows
                .entry((s.cluster, s.slave))
                .or_insert_with(|| vec!['·'; width]);
            let a = ((s.start_ns as f64 / horizon) * width as f64) as usize;
            let b = ((s.end_ns as f64 / horizon) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                *cell = s.kind.glyph();
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gantt over {:.2}s  ({GANTT_LEGEND})",
            self.horizon_ns as f64 / 1e9
        );
        for ((c, s), row) in rows {
            let _ = writeln!(
                out,
                "c{c}/s{s:<3} |{}|",
                row.into_iter().collect::<String>()
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Summary (RunReport as a derived view)
// ---------------------------------------------------------------------------

/// Everything [`RunReport`] reports, re-derived from the event stream
/// alone by the report's own folds ([`SlaveStats::observe`],
/// [`RecoveryStats::observe`], [`NetStats::observe`]).
/// [`TraceSummary::reconcile`] asserts the two agree — the observability
/// layer's core invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Per cluster, per slave index: the stats of every slave that emitted
    /// an event.
    pub slaves: BTreeMap<u32, Vec<SlaveStats>>,
    pub recovery: RecoveryStats,
    /// Control-plane traffic (distributed runs; idle for in-process runs).
    pub net: NetStats,
    pub assignments: u64,
    pub steals: u64,
    /// Lease releases that debited a job's failure budget.
    pub charged_releases: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_bytes: u64,
    pub robj_bytes: u64,
    pub robj_merges: u64,
    pub faults_injected: u64,
    pub passes: u64,
}

impl TraceSummary {
    /// Fold an event stream into aggregates.
    pub fn from_events(events: &[EventRecord]) -> TraceSummary {
        let mut s = TraceSummary::default();
        for e in events {
            if let (Some(c), Some(si)) = (e.cluster, e.slave) {
                let row = s.slaves.entry(c).or_default();
                let si = si as usize;
                if row.len() <= si {
                    row.resize(si + 1, SlaveStats::default());
                }
                row[si].observe(&e.kind);
            }
            s.recovery.observe(&e.kind);
            s.net.observe(&e.kind);
            match e.kind {
                EventKind::JobAssigned { .. } => s.assignments += 1,
                EventKind::Steal { .. } => s.steals += 1,
                EventKind::LeaseReleased { charged, .. } => s.charged_releases += charged as u64,
                EventKind::RobjMerge { bytes, .. } => {
                    s.robj_merges += 1;
                    s.robj_bytes += bytes;
                }
                EventKind::CacheHit { bytes } => {
                    s.cache_hits += 1;
                    s.cache_hit_bytes += bytes;
                }
                EventKind::CacheMiss { .. } => s.cache_misses += 1,
                EventKind::FaultInjected => s.faults_injected += 1,
                EventKind::PassBoundary { pass } => s.passes = s.passes.max(pass + 1),
                _ => {}
            }
        }
        s
    }

    /// Jobs processed across all clusters.
    pub fn total_jobs(&self) -> u64 {
        self.slaves.values().flatten().map(|s| s.jobs).sum()
    }

    /// Stolen jobs processed across all clusters.
    pub fn total_stolen(&self) -> u64 {
        self.slaves.values().flatten().map(|s| s.stolen_jobs).sum()
    }

    /// Check that this summary and `report` agree. Each report row is
    /// rebuilt from the folded stats of its slaves (padded to the row's
    /// cores) by the report's own builder: counts must match exactly,
    /// per-core mean durations within `eps_s` seconds. Then the recovery,
    /// cache and network counters must match. Returns the first
    /// disagreement found.
    pub fn reconcile(&self, report: &RunReport, eps_s: f64) -> Result<(), String> {
        fn eq(name: &str, a: u64, b: u64) -> Result<(), String> {
            if a == b {
                Ok(())
            } else {
                Err(format!("{name}: events say {a}, report says {b}"))
            }
        }
        for (i, row) in report.clusters.iter().enumerate() {
            let mut slaves = self.slaves.get(&(i as u32)).cloned().unwrap_or_default();
            if slaves.len() < row.cores {
                slaves.resize(row.cores, SlaveStats::default());
            }
            let zero = Duration::ZERO;
            let ev = ClusterBreakdown::from_slaves(String::new(), row.cores, &slaves, zero, zero);
            let name = &row.name;
            for (field, a, b) in [
                ("jobs_processed", ev.jobs_processed, row.jobs_processed),
                ("jobs_stolen", ev.jobs_stolen, row.jobs_stolen),
                ("bytes_local", ev.bytes_local, row.bytes_local),
                ("bytes_remote", ev.bytes_remote, row.bytes_remote),
            ] {
                eq(&format!("{name}.{field}"), a, b)?;
            }
            for (field, a, b) in [
                ("processing_s", ev.processing_s, row.processing_s),
                ("retrieval_s", ev.retrieval_s, row.retrieval_s),
                ("fetch_stall_s", ev.fetch_stall_s, row.fetch_stall_s),
                ("overlap_saved_s", ev.overlap_saved_s, row.overlap_saved_s),
            ] {
                if (a - b).abs() > eps_s {
                    return Err(format!(
                        "{name}.{field}: events say {a:.6}, report says {b:.6}"
                    ));
                }
            }
        }
        let rec = |f: fn(&RecoveryStats) -> u64| (f(&self.recovery), f(&report.recovery));
        let net = |f: fn(&NetStats) -> u64| (f(&self.net), f(&report.net));
        for (field, (a, b)) in [
            ("recovery.fetch_failures", rec(|r| r.fetch_failures)),
            ("recovery.jobs_reenqueued", rec(|r| r.jobs_reenqueued)),
            ("recovery.retries", rec(|r| r.retries)),
            ("recovery.slaves_retired", rec(|r| r.slaves_retired)),
            ("recovery.slaves_killed", rec(|r| r.slaves_killed)),
            ("cache_hits", (self.cache_hits, report.cache_hits)),
            ("cache_misses", (self.cache_misses, report.cache_misses)),
            ("net.frames_sent", net(|n| n.frames_sent)),
            ("net.frames_recv", net(|n| n.frames_recv)),
            ("net.bytes_sent", net(|n| n.bytes_sent)),
            ("net.bytes_recv", net(|n| n.bytes_recv)),
            ("net.peers_joined", net(|n| n.peers_joined)),
            ("net.peers_lost", net(|n| n.peers_lost)),
        ] {
            eq(field, a, b)?;
        }
        Ok(())
    }
}

/// The `n` slowest completed fetches, slowest first (for `inspect trace`).
pub fn slowest_fetches(events: &[EventRecord], n: usize) -> Vec<EventRecord> {
    let mut fetches: Vec<EventRecord> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FetchEnd { .. }))
        .copied()
        .collect();
    fetches.sort_by_key(|e| match e.kind {
        EventKind::FetchEnd { ns, .. } => std::cmp::Reverse(ns),
        _ => std::cmp::Reverse(0),
    });
    fetches.truncate(n);
    fetches
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A log₂-bucketed latency histogram (nanosecond samples).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `ns < 2^i` (and `>= 2^(i-1)`).
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Record one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// `q`-quantile sample (within 2× of the true value by construction).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { 1u64 << i };
            }
        }
        self.max_ns
    }
}

/// Counters and histograms folded from an event stream: the queryable
/// face of the metrics layer (`fetch_latency`, `stall`, `process`
/// histograms; job/steal/retry/cache counters).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Fold `events` into counters and histograms.
    pub fn from_events(events: &[EventRecord]) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for e in events {
            m.count(e.kind.name(), 1);
            match e.kind {
                EventKind::FetchEnd {
                    bytes, remote, ns, ..
                } => {
                    m.observe("fetch_latency", ns);
                    m.count(
                        if remote {
                            "bytes_remote"
                        } else {
                            "bytes_local"
                        },
                        bytes,
                    );
                }
                EventKind::Stall { ns } => m.observe("stall", ns),
                EventKind::ProcessEnd { units, ns, .. } => {
                    m.observe("process", ns);
                    m.count("units_folded", units);
                }
                EventKind::RobjMerge { bytes, ns } => {
                    m.observe("robj_transfer", ns);
                    m.count("robj_bytes", bytes);
                }
                _ => {}
            }
        }
        m
    }

    fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    fn observe(&mut self, name: &'static str, ns: u64) {
        self.histograms.entry(name).or_default().record(ns);
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if any sample was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Render counters and histogram summaries as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:>12}", "counter", "value");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<16} {v:>12}");
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<16} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    h.count(),
                    h.mean_ns() / 1e6,
                    h.quantile_ns(0.5) as f64 / 1e6,
                    h.quantile_ns(0.99) as f64 / 1e6,
                    h.max_ns() as f64 / 1e6,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, cluster: u32, slave: u32, kind: EventKind) -> EventRecord {
        EventRecord {
            t_ns,
            cluster: Some(cluster),
            slave: Some(slave),
            kind,
        }
    }

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::JobAssigned {
                chunk: 3,
                stolen: true,
            },
            EventKind::Steal { chunk: 3 },
            EventKind::LeaseReleased {
                chunk: 4,
                charged: false,
            },
            EventKind::FetchStart { chunk: 5 },
            EventKind::FetchEnd {
                chunk: 5,
                bytes: 1 << 20,
                remote: true,
                ns: 12_345,
            },
            EventKind::FetchFailed { chunk: 6, ns: 42 },
            EventKind::FetchDiscarded { chunk: 8 },
            EventKind::Stall { ns: 99 },
            EventKind::ProcessStart { chunk: 5 },
            EventKind::ProcessEnd {
                chunk: 5,
                units: 4096,
                ns: 777,
                stolen: false,
            },
            EventKind::Retry { attempt: 2 },
            EventKind::SlaveRetired { killed: true },
            EventKind::RobjMerge {
                bytes: 64,
                ns: 1_000,
            },
            EventKind::CacheHit { bytes: 512 },
            EventKind::CacheMiss { bytes: 512 },
            EventKind::FaultInjected,
            EventKind::PassBoundary { pass: 1 },
            EventKind::MasterRefill { queue_len: 2 },
            EventKind::NetSent { bytes: 48 },
            EventKind::NetRecv { bytes: 37 },
            EventKind::PeerJoined { cores: 4 },
            EventKind::PeerLost { jobs: 7 },
        ]
    }

    /// One record per kind, with and without `cluster` / `slave`.
    fn every_kind_events() -> Vec<EventRecord> {
        all_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, k)| EventRecord {
                t_ns: 1_000_000 + i as u64,
                cluster: if i % 3 == 0 { None } else { Some(i as u32) },
                slave: if i % 2 == 0 { None } else { Some(1) },
                kind: k,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let events = every_kind_events();
        let text = encode_jsonl(&events);
        assert!(text.starts_with("{\"schema\":\"cloudburst-trace\",\"v\":1}"));
        let back = decode_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    /// The exact trace bytes, field order included: a renamed or
    /// reordered field would still round-trip, but breaks every reader of
    /// traces already written.
    #[test]
    fn jsonl_bytes_are_pinned_for_every_kind() {
        let want = r#"{"schema":"cloudburst-trace","v":1}
{"t_ns":1000000,"ev":"job_assigned","chunk":3,"stolen":true}
{"t_ns":1000001,"cluster":1,"slave":1,"ev":"steal","chunk":3}
{"t_ns":1000002,"cluster":2,"ev":"lease_released","chunk":4,"charged":false}
{"t_ns":1000003,"slave":1,"ev":"fetch_start","chunk":5}
{"t_ns":1000004,"cluster":4,"ev":"fetch_end","chunk":5,"bytes":1048576,"remote":true,"ns":12345}
{"t_ns":1000005,"cluster":5,"slave":1,"ev":"fetch_failed","chunk":6,"ns":42}
{"t_ns":1000006,"ev":"fetch_discarded","chunk":8}
{"t_ns":1000007,"cluster":7,"slave":1,"ev":"stall","ns":99}
{"t_ns":1000008,"cluster":8,"ev":"process_start","chunk":5}
{"t_ns":1000009,"slave":1,"ev":"process_end","chunk":5,"units":4096,"ns":777,"stolen":false}
{"t_ns":1000010,"cluster":10,"ev":"retry","attempt":2}
{"t_ns":1000011,"cluster":11,"slave":1,"ev":"slave_retired","killed":true}
{"t_ns":1000012,"ev":"robj_merge","bytes":64,"ns":1000}
{"t_ns":1000013,"cluster":13,"slave":1,"ev":"cache_hit","bytes":512}
{"t_ns":1000014,"cluster":14,"ev":"cache_miss","bytes":512}
{"t_ns":1000015,"slave":1,"ev":"fault_injected"}
{"t_ns":1000016,"cluster":16,"ev":"pass_boundary","pass":1}
{"t_ns":1000017,"cluster":17,"slave":1,"ev":"master_refill","queue_len":2}
{"t_ns":1000018,"ev":"net_sent","bytes":48}
{"t_ns":1000019,"cluster":19,"slave":1,"ev":"net_recv","bytes":37}
{"t_ns":1000020,"cluster":20,"ev":"peer_joined","cores":4}
{"t_ns":1000021,"slave":1,"ev":"peer_lost","jobs":7}
"#;
        assert_eq!(encode_jsonl(&every_kind_events()), want);
    }

    /// `docs/OBSERVABILITY.md`'s taxonomy table names every kind, each with
    /// the payload keys `to_value` writes after `ev` (`—`: no payload).
    #[test]
    fn docs_taxonomy_table_matches_the_codec() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc.split("## Event taxonomy").nth(1).expect("taxonomy");
        let ticked = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_owned)
                .collect()
        };
        let mut documented = BTreeMap::new();
        let rows = section.lines().skip_while(|l| !l.starts_with("|---"));
        for row in rows.skip(1).take_while(|l| l.starts_with('|')) {
            let cells: Vec<&str> = row.split('|').collect();
            let payload = ticked(cells[2]);
            if payload.is_empty() {
                assert_eq!(cells[2].trim(), "—", "{row}");
            }
            for ev in ticked(cells[1]) {
                assert!(documented.insert(ev, payload.clone()).is_none(), "{row}");
            }
        }
        let coded: BTreeMap<String, Vec<String>> = all_kinds()
            .into_iter()
            .map(|kind| {
                let rec = EventRecord {
                    t_ns: 0,
                    cluster: None,
                    slave: None,
                    kind,
                };
                let Value::Object(pairs) = rec.to_value() else {
                    panic!("an event encodes as an object")
                };
                let keys = pairs.into_iter().map(|(k, _)| k);
                let payload = keys.skip_while(|k| k != "ev").skip(1).collect();
                (kind.name().to_owned(), payload)
            })
            .collect();
        assert_eq!(documented, coded);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_jsonl("").is_err());
        assert!(decode_jsonl("{\"schema\":\"other\",\"v\":1}\n").is_err());
        assert!(decode_jsonl("{\"schema\":\"cloudburst-trace\",\"v\":99}\n").is_err());
        let bad_event = format!(
            "{}\n{{\"t_ns\":1,\"ev\":\"no_such_event\"}}\n",
            "{\"schema\":\"cloudburst-trace\",\"v\":1}"
        );
        let err = decode_jsonl(&bad_event).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("no_such_event"), "{err}");
        for (event, want) in [
            (r#"{"t_ns":1}"#, "missing or non-string `ev`"),
            (r#"{"t_ns":1,"ev":"steal"}"#, "missing `chunk`"),
            (
                r#"{"t_ns":1,"ev":"steal","chunk":-1}"#,
                "`chunk` is not a non-negative integer",
            ),
            (
                r#"{"t_ns":1,"ev":"slave_retired","killed":1}"#,
                "`killed` should be bool, got number",
            ),
        ] {
            let text = format!("{{\"schema\":\"cloudburst-trace\",\"v\":1}}\n{event}\n");
            assert_eq!(decode_jsonl(&text), Err(format!("line 2: {want}")));
        }
    }

    /// The aliasing trace: a `fetch_start` of cluster (or slave) 2^32 and
    /// a `fetch_end` of 0. Truncated, the two would pair up and the trace
    /// pass `check_invariants`; the first line is an error instead, and
    /// `u32::MAX` itself still decodes.
    #[test]
    fn decode_rejects_a_scope_above_u32_max() {
        let header = r#"{"schema":"cloudburst-trace","v":1}"#;
        for key in ["cluster", "slave"] {
            let trace = |scope: u64| {
                format!(
                    "{header}\n\
                     {{\"t_ns\":1,\"{key}\":{scope},\"ev\":\"fetch_start\",\"chunk\":5}}\n\
                     {{\"t_ns\":2,\"{key}\":0,\"ev\":\"fetch_end\",\"chunk\":5,\
                     \"bytes\":1,\"remote\":false,\"ns\":1}}\n"
                )
            };
            assert_eq!(
                decode_jsonl(&trace(1 << 32)),
                Err(format!("line 2: `{key}` is above 4294967295"))
            );
            let max = trace(u32::MAX.into());
            let back = decode_jsonl(&max).unwrap();
            assert_eq!(encode_jsonl(&back), max);
        }
    }

    #[test]
    fn disabled_handle_is_a_noop() {
        let h = SinkHandle::default();
        assert!(!h.is_enabled());
        h.emit(Some(0), Some(0), EventKind::FaultInjected); // must not panic
        assert_eq!(format!("{h:?}"), "SinkHandle(disabled)");
    }

    #[test]
    fn recording_sink_orders_and_stamps() {
        let sink = RecordingSink::new();
        let h = SinkHandle::new(sink.clone());
        assert!(h.is_enabled());
        h.emit(Some(0), Some(0), EventKind::FetchStart { chunk: 1 });
        h.emit(
            Some(0),
            Some(0),
            EventKind::FetchEnd {
                chunk: 1,
                bytes: 10,
                remote: false,
                ns: 0,
            },
        );
        let evs = sink.snapshot();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].t_ns <= evs[1].t_ns, "timestamps are monotonic");
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn concurrent_emitters_record_in_time_order() {
        let sink = RecordingSink::new();
        let (threads, per_thread) = (4u32, 5_000u64);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = SinkHandle::new(sink.clone());
                scope.spawn(move || {
                    for chunk in 0..per_thread {
                        h.emit(Some(t), None, EventKind::FetchStart { chunk });
                    }
                });
            }
        });
        let evs = sink.take();
        assert_eq!(evs.len() as u64, threads as u64 * per_thread);
        assert!(
            evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "the stream is in timestamp order"
        );
    }

    #[test]
    fn manual_clock_stamps_virtual_time() {
        let clock = Arc::new(AtomicU64::new(42));
        let sink = RecordingSink::with_clock(Clock::Virtual(clock.clone()));
        let h = SinkHandle::new(sink.clone());
        h.emit(None, None, EventKind::FaultInjected);
        clock.store(1_000, Ordering::Relaxed);
        h.emit(None, None, EventKind::FaultInjected);
        let evs = sink.snapshot();
        assert_eq!(evs[0].t_ns, 42);
        assert_eq!(evs[1].t_ns, 1_000);
    }

    #[test]
    fn invariants_catch_unterminated_fetch() {
        let ok = vec![
            rec(10, 0, 0, EventKind::FetchStart { chunk: 1 }),
            rec(
                20,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 1,
                    remote: false,
                    ns: 10,
                },
            ),
            rec(30, 0, 1, EventKind::FetchStart { chunk: 2 }),
            rec(40, 0, 1, EventKind::FetchFailed { chunk: 2, ns: 10 }),
        ];
        assert_eq!(check_invariants(&ok), Ok(()));

        let dangling = vec![rec(10, 0, 0, EventKind::FetchStart { chunk: 1 })];
        assert!(check_invariants(&dangling).is_err());

        let orphan = vec![rec(
            10,
            0,
            0,
            EventKind::FetchEnd {
                chunk: 1,
                bytes: 1,
                remote: false,
                ns: 5,
            },
        )];
        assert!(check_invariants(&orphan).is_err());
    }

    #[test]
    fn timeline_builds_spans_and_renders() {
        let mut events = vec![
            rec(
                2_000_000_000,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 1,
                    remote: true,
                    ns: 2_000_000_000,
                },
            ),
            rec(
                6_000_000_000,
                0,
                0,
                EventKind::ProcessEnd {
                    chunk: 1,
                    units: 10,
                    ns: 4_000_000_000,
                    stolen: false,
                },
            ),
            rec(
                10_000_000_000,
                1,
                0,
                EventKind::ProcessEnd {
                    chunk: 2,
                    units: 10,
                    ns: 10_000_000_000,
                    stolen: true,
                },
            ),
        ];
        events.push(rec(
            10_000_000_000,
            2,
            0,
            EventKind::RobjMerge {
                bytes: 8,
                ns: 4_000_000_000,
            },
        ));
        let tl = Timeline::from_events(&events);
        assert_eq!(tl.spans.len(), 4);
        assert_eq!(tl.horizon_ns, 10_000_000_000);
        assert!((tl.utilization(0, 0) - 0.6).abs() < 1e-12);
        assert!((tl.cluster_utilization(0) - 0.6).abs() < 1e-12);
        assert!((tl.utilization(1, 0) - 1.0).abs() < 1e-12);
        assert_eq!(tl.utilization(2, 0), 0.0, "shipping the robj is not busy");
        let g = tl.render_gantt(20);
        assert!(g.contains(GANTT_LEGEND));
        let row0 = g.lines().find(|l| l.starts_with("c0/s0")).unwrap();
        assert!(row0.contains('▒') && row0.contains('█'));
        let row1 = g.lines().find(|l| l.starts_with("c1/s0")).unwrap();
        assert_eq!(row1.matches('█').count(), 20, "fully busy row");
        let empty = Timeline::default();
        assert_eq!(empty.utilization(0, 0), 0.0);
        assert_eq!(empty.cluster_utilization(0), 0.0);
    }

    #[test]
    fn summary_folds_counters() {
        let events = vec![
            rec(
                1,
                0,
                0,
                EventKind::JobAssigned {
                    chunk: 1,
                    stolen: false,
                },
            ),
            rec(2, 0, 0, EventKind::Steal { chunk: 9 }),
            rec(
                5,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 100,
                    remote: false,
                    ns: 4,
                },
            ),
            rec(
                9,
                0,
                0,
                EventKind::ProcessEnd {
                    chunk: 1,
                    units: 50,
                    ns: 3,
                    stolen: false,
                },
            ),
            rec(
                12,
                1,
                0,
                EventKind::ProcessEnd {
                    chunk: 9,
                    units: 50,
                    ns: 3,
                    stolen: true,
                },
            ),
            rec(13, 1, 0, EventKind::Retry { attempt: 1 }),
            rec(14, 1, 0, EventKind::SlaveRetired { killed: false }),
            rec(15, 0, 0, EventKind::CacheHit { bytes: 10 }),
            rec(16, 0, 0, EventKind::PassBoundary { pass: 2 }),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.total_jobs(), 2);
        assert_eq!(s.total_stolen(), 1);
        assert_eq!(s.steals, 1);
        assert_eq!(s.recovery.retries, 1);
        assert_eq!(s.recovery.slaves_retired, 1);
        assert_eq!(s.recovery.slaves_killed, 0);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.passes, 3);
        assert_eq!(s.slaves[&0][0].bytes_local, 100);
        assert_eq!(s.slaves[&1][0].stolen_jobs, 1);
    }

    /// The fold table: exactly which report counters each event kind
    /// moves. The match has no catch-all, so a new kind must take a row.
    #[test]
    fn each_kind_moves_exactly_its_counters() {
        let ns = Duration::from_nanos;
        let extra = [
            EventKind::FetchEnd {
                chunk: 1,
                bytes: 10,
                remote: false,
                ns: 5,
            },
            EventKind::ProcessEnd {
                chunk: 1,
                units: 3,
                ns: 8,
                stolen: true,
            },
            EventKind::SlaveRetired { killed: false },
            EventKind::LeaseReleased {
                chunk: 1,
                charged: true,
            },
        ];
        for kind in all_kinds().into_iter().chain(extra) {
            let mut got = (
                SlaveStats::default(),
                RecoveryStats::default(),
                NetStats::default(),
            );
            got.0.observe(&kind);
            got.1.observe(&kind);
            got.2.observe(&kind);
            let (slave, recovery, net) = (
                SlaveStats::default(),
                RecoveryStats::default(),
                NetStats::default(),
            );
            let want = match kind {
                EventKind::FetchEnd {
                    bytes,
                    remote,
                    ns: t,
                    ..
                } => (
                    SlaveStats {
                        retrieval: ns(t),
                        bytes_local: if remote { 0 } else { bytes },
                        bytes_remote: if remote { bytes } else { 0 },
                        ..slave
                    },
                    recovery,
                    net,
                ),
                EventKind::FetchFailed { ns: t, .. } => (
                    SlaveStats {
                        retrieval: ns(t),
                        ..slave
                    },
                    RecoveryStats {
                        fetch_failures: 1,
                        ..recovery
                    },
                    net,
                ),
                EventKind::Stall { ns: t } => (
                    SlaveStats {
                        fetch_stall: ns(t),
                        ..slave
                    },
                    recovery,
                    net,
                ),
                EventKind::ProcessEnd {
                    units,
                    ns: t,
                    stolen,
                    ..
                } => (
                    SlaveStats {
                        processing: ns(t),
                        jobs: 1,
                        units,
                        stolen_jobs: stolen as u64,
                        ..slave
                    },
                    recovery,
                    net,
                ),
                EventKind::Retry { .. } => (
                    slave,
                    RecoveryStats {
                        retries: 1,
                        ..recovery
                    },
                    net,
                ),
                EventKind::SlaveRetired { killed } => (
                    slave,
                    RecoveryStats {
                        slaves_killed: killed as u64,
                        slaves_retired: !killed as u64,
                        ..recovery
                    },
                    net,
                ),
                EventKind::LeaseReleased { .. } => (
                    slave,
                    RecoveryStats {
                        jobs_reenqueued: 1,
                        ..recovery
                    },
                    net,
                ),
                EventKind::NetSent { bytes } => (
                    slave,
                    recovery,
                    NetStats {
                        frames_sent: 1,
                        bytes_sent: bytes,
                        ..net
                    },
                ),
                EventKind::NetRecv { bytes } => (
                    slave,
                    recovery,
                    NetStats {
                        frames_recv: 1,
                        bytes_recv: bytes,
                        ..net
                    },
                ),
                EventKind::PeerJoined { .. } => (
                    slave,
                    recovery,
                    NetStats {
                        peers_joined: 1,
                        ..net
                    },
                ),
                EventKind::PeerLost { .. } => (
                    slave,
                    recovery,
                    NetStats {
                        peers_lost: 1,
                        ..net
                    },
                ),
                // Scheduling, span starts and faults move no report
                // counter; robj, cache and pass events are the summary's
                // own counters.
                EventKind::FetchStart { .. }
                | EventKind::FetchDiscarded { .. }
                | EventKind::ProcessStart { .. }
                | EventKind::FaultInjected
                | EventKind::JobAssigned { .. }
                | EventKind::Steal { .. }
                | EventKind::MasterRefill { .. }
                | EventKind::RobjMerge { .. }
                | EventKind::CacheHit { .. }
                | EventKind::CacheMiss { .. }
                | EventKind::PassBoundary { .. } => (slave, recovery, net),
            };
            assert_eq!(got, want, "{}", kind.name());
        }
    }

    #[test]
    fn slowest_fetches_sorts_desc() {
        let mk = |ns| {
            rec(
                ns,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: ns,
                    bytes: 1,
                    remote: false,
                    ns,
                },
            )
        };
        let events = vec![
            mk(5),
            mk(50),
            mk(20),
            rec(1, 0, 0, EventKind::FaultInjected),
        ];
        let top = slowest_fetches(&events, 2);
        assert_eq!(top.len(), 2);
        assert!(matches!(top[0].kind, EventKind::FetchEnd { ns: 50, .. }));
        assert!(matches!(top[1].kind, EventKind::FetchEnd { ns: 20, .. }));
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for ns in [10, 20, 40, 80, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_ns(), 10);
        assert_eq!(h.max_ns(), 1_000_000);
        let p50 = h.quantile_ns(0.5);
        assert!((16..=64).contains(&p50), "p50 bucket bound {p50}");
        assert!(h.quantile_ns(1.0) >= 1_000_000);
        let empty = Histogram::default();
        assert_eq!(empty.quantile_ns(0.5), 0);
        assert_eq!(empty.min_ns(), 0);
    }

    #[test]
    fn metrics_registry_folds_events() {
        let events = vec![
            rec(
                5,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 100,
                    remote: true,
                    ns: 4,
                },
            ),
            rec(6, 0, 0, EventKind::CacheHit { bytes: 1 }),
            rec(7, 0, 0, EventKind::CacheHit { bytes: 1 }),
            rec(8, 0, 0, EventKind::CacheMiss { bytes: 1 }),
        ];
        let m = MetricsRegistry::from_events(&events);
        assert_eq!(m.counter("fetch_end"), 1);
        assert_eq!(m.counter("bytes_remote"), 100);
        assert_eq!(m.histogram("fetch_latency").unwrap().count(), 1);
        assert_eq!(m.counter("cache_hit"), 2);
        assert_eq!(m.counter("cache_miss"), 1);
        let table = m.render();
        assert!(table.contains("cache_hit"));
        assert!(table.contains("fetch_latency"));
    }
}
