//! Run reports: the measurement schema shared by the real runtime and the
//! discrete-event simulator.
//!
//! Mirrors the paper's presentation: per-cluster *processing*, *data
//! retrieval*, and *sync* time (the stacked bars of Figs. 3–4), plus the
//! Table I job counters and the Table II global-reduction / idle / slowdown
//! decomposition.
//!
//! Every slave, recovery and network aggregate here is a *fold of the
//! emitted events*: [`SlaveStats::observe`], [`RecoveryStats::observe`] and
//! [`NetStats::observe`] are the one rule for which event moves which
//! counter. Each substrate counts by recording an event (observe, then
//! emit), and [`TraceSummary`](crate::obs::TraceSummary) applies the same
//! folds to a recorded trace, so
//! [`TraceSummary::reconcile`](crate::obs::TraceSummary::reconcile) checks
//! one rule against itself. See `docs/OBSERVABILITY.md`.

use crate::obs::EventKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-slave accumulated timings and counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlaveStats {
    pub processing: Duration,
    pub retrieval: Duration,
    /// Time the fold loop actually *blocked* waiting for its fetcher to
    /// deliver chunk data. Without prefetching this equals `retrieval`;
    /// with it, `retrieval - fetch_stall` is what the pipeline hid.
    pub fetch_stall: Duration,
    pub jobs: u64,
    pub stolen_jobs: u64,
    pub units: u64,
    pub bytes_local: u64,
    pub bytes_remote: u64,
}

impl SlaveStats {
    /// Fold one of this slave's events into its stats. Durations are the
    /// events' own nanosecond payloads.
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::FetchEnd {
                bytes, remote, ns, ..
            } => {
                self.retrieval += Duration::from_nanos(ns);
                if remote {
                    self.bytes_remote += bytes;
                } else {
                    self.bytes_local += bytes;
                }
            }
            EventKind::FetchFailed { ns, .. } => self.retrieval += Duration::from_nanos(ns),
            EventKind::Stall { ns } => self.fetch_stall += Duration::from_nanos(ns),
            EventKind::ProcessEnd {
                units, ns, stolen, ..
            } => {
                self.processing += Duration::from_nanos(ns);
                self.jobs += 1;
                self.units += units;
                self.stolen_jobs += stolen as u64;
            }
            _ => {}
        }
    }
}

/// One cluster's final accounting as it reaches the head, beside its
/// reduction object: everything the head needs for the cluster's report row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterAccount {
    pub slaves: Vec<SlaveStats>,
    /// Fetch failures, retries and retired/killed slaves.
    /// `jobs_reenqueued` stays zero: the head's pool counts re-enqueues.
    pub recovery: RecoveryStats,
    /// From the run's start to the cluster's local combination done.
    pub wall: Duration,
    /// First failure message observed (diagnostics; non-fatal unless jobs
    /// die permanently).
    pub error: Option<String>,
}

/// Per-cluster execution breakdown.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ClusterBreakdown {
    /// Cluster name ("local", "EC2", ...).
    pub name: String,
    /// Worker cores in this cluster.
    pub cores: usize,
    /// Mean per-core time spent in local reduction (decode + fold).
    pub processing_s: f64,
    /// Mean per-core time spent retrieving chunk data.
    pub retrieval_s: f64,
    /// Mean per-core time spent waiting: job waits, stragglers, end-of-run
    /// barrier — `wall - processing - retrieval`.
    pub sync_s: f64,
    /// Wall time from run start to this cluster finishing its last job
    /// (including handing its reduction object to the head).
    pub wall_s: f64,
    /// Time this cluster sat idle at the end waiting for the other
    /// cluster(s) to finish (Table II "Idle Time").
    pub idle_end_s: f64,
    /// Jobs this cluster processed in total (Table I).
    pub jobs_processed: u64,
    /// Of those, jobs whose data was homed at another site (Table I
    /// "stolen").
    pub jobs_stolen: u64,
    /// Bytes read from this cluster's own site.
    pub bytes_local: u64,
    /// Bytes retrieved from remote sites.
    pub bytes_remote: u64,
    /// Mean per-core retrieval time *hidden* behind computation by the
    /// prefetch pipeline: `retrieval_s - fetch_stall_s`. Zero when
    /// `prefetch_depth == 0` (serial slaves hide nothing).
    #[serde(default)]
    pub overlap_saved_s: f64,
    /// Mean per-core time a slave's fold loop actually *stalled* waiting on
    /// its fetcher. With prefetching this is the un-hidden remainder of
    /// `retrieval_s`; without it, it equals `retrieval_s`.
    #[serde(default)]
    pub fetch_stall_s: f64,
}

/// `d` in report seconds: nanoseconds over 1e9, the one conversion every
/// report time goes through (`Duration::as_secs_f64` can differ in the
/// last bit).
pub(crate) fn secs(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e9
}

impl ClusterBreakdown {
    /// One cluster's report row from its slaves' stats, its wall time and
    /// its idle time at the end of the run. Times are per-core means;
    /// `sync_s` is what the wall leaves after processing and retrieval.
    pub fn from_slaves(
        name: String,
        cores: usize,
        slaves: &[SlaveStats],
        wall: Duration,
        idle_end: Duration,
    ) -> Self {
        let (wall_s, idle_end_s) = (secs(wall), secs(idle_end));
        let n = slaves.len().max(1) as f64;
        let mean = |f: &dyn Fn(&SlaveStats) -> f64| slaves.iter().map(f).sum::<f64>() / n;
        let processing_s = mean(&|s| secs(s.processing));
        let retrieval_s = mean(&|s| secs(s.retrieval));
        let sum = |f: fn(&SlaveStats) -> u64| slaves.iter().map(f).sum();
        ClusterBreakdown {
            name,
            cores,
            processing_s,
            retrieval_s,
            sync_s: (wall_s - processing_s - retrieval_s).max(0.0),
            wall_s,
            idle_end_s,
            jobs_processed: sum(|s| s.jobs),
            jobs_stolen: sum(|s| s.stolen_jobs),
            bytes_local: sum(|s| s.bytes_local),
            bytes_remote: sum(|s| s.bytes_remote),
            overlap_saved_s: mean(&|s| (secs(s.retrieval) - secs(s.fetch_stall)).max(0.0)),
            fetch_stall_s: mean(&|s| secs(s.fetch_stall)),
        }
    }
}

/// Fault-recovery accounting for one run. All zeros on a failure-free run.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct RecoveryStats {
    /// Retrieval failures surfaced to slaves after the storage layer's own
    /// retries were exhausted.
    pub fetch_failures: u64,
    /// Jobs returned to the head pool and granted again (slave failures
    /// plus reclaimed leases).
    pub jobs_reenqueued: u64,
    /// Storage-level GET retry attempts (transient faults absorbed below
    /// the scheduler).
    pub retries: u64,
    /// Slaves that retired early after too many consecutive failures.
    pub slaves_retired: u64,
    /// Slaves fail-stopped by the injected kill schedule.
    pub slaves_killed: u64,
}

impl RecoveryStats {
    /// Fold one event into the recovery counters. Only the head's pool
    /// emits `LeaseReleased`, so a cluster's account never counts one.
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::FetchFailed { .. } => self.fetch_failures += 1,
            EventKind::Retry { .. } => self.retries += 1,
            EventKind::SlaveRetired { killed: true } => self.slaves_killed += 1,
            EventKind::SlaveRetired { killed: false } => self.slaves_retired += 1,
            EventKind::LeaseReleased { .. } => self.jobs_reenqueued += 1,
            _ => {}
        }
    }

    /// Add `other`'s counters to these.
    pub fn add(&mut self, other: &RecoveryStats) {
        self.fetch_failures += other.fetch_failures;
        self.jobs_reenqueued += other.jobs_reenqueued;
        self.retries += other.retries;
        self.slaves_retired += other.slaves_retired;
        self.slaves_killed += other.slaves_killed;
    }

    /// True when the run saw no failure events at all.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Control-plane network accounting for one run. All zeros for in-process
/// runs (the loopback head exchanges no frames); folded by the `cb-net`
/// head from the `NetSent`/`NetRecv`/`PeerLost` events it records.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct NetStats {
    /// Wire frames written to peers.
    pub frames_sent: u64,
    /// Wire frames read from peers.
    pub frames_recv: u64,
    /// Bytes written (length prefixes included).
    pub bytes_sent: u64,
    /// Bytes read (length prefixes included).
    pub bytes_recv: u64,
    /// Workers that completed the handshake.
    pub peers_joined: u64,
    /// Workers declared lost (socket error or missed heartbeats).
    pub peers_lost: u64,
}

impl NetStats {
    /// Fold one event into the network counters.
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::NetSent { bytes } => {
                self.frames_sent += 1;
                self.bytes_sent += bytes;
            }
            EventKind::NetRecv { bytes } => {
                self.frames_recv += 1;
                self.bytes_recv += bytes;
            }
            EventKind::PeerJoined { .. } => self.peers_joined += 1,
            EventKind::PeerLost { .. } => self.peers_lost += 1,
            _ => {}
        }
    }

    /// True for a run that never touched the network (in-process loopback).
    pub fn is_idle(&self) -> bool {
        *self == NetStats::default()
    }
}

/// A full run: per-cluster breakdowns plus global phases.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RunReport {
    /// End-to-end wall time.
    pub total_s: f64,
    /// Time spent combining the per-cluster reduction objects at the head,
    /// including their inter-cluster transfer (Table II "Global Reduction").
    pub global_reduction_s: f64,
    /// Final reduction-object size in bytes (drives the transfer cost the
    /// paper highlights for pagerank).
    pub robj_bytes: u64,
    /// One entry per cluster.
    pub clusters: Vec<ClusterBreakdown>,
    /// Failure-injection and recovery accounting (zeros when clean).
    #[serde(default)]
    pub recovery: RecoveryStats,
    /// Chunk-cache hits across the run (iterative runs with
    /// `cache_bytes > 0`; zero otherwise).
    #[serde(default)]
    pub cache_hits: u64,
    /// Chunk-cache misses across the run.
    #[serde(default)]
    pub cache_misses: u64,
    /// Control-plane network accounting (zeros for in-process runs).
    #[serde(default)]
    pub net: NetStats,
}

impl RunReport {
    /// Total jobs processed across clusters.
    pub fn total_jobs(&self) -> u64 {
        self.clusters.iter().map(|c| c.jobs_processed).sum()
    }

    /// Total stolen jobs across clusters.
    pub fn total_stolen(&self) -> u64 {
        self.clusters.iter().map(|c| c.jobs_stolen).sum()
    }

    /// The paper's "Total Slowdown" (Table II): this run's execution time
    /// minus the baseline's, in seconds.
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        self.total_s - baseline.total_s
    }

    /// Slowdown as a fraction of the baseline ("the average slowdown of our
    /// system ... is only 15.55%").
    pub fn slowdown_ratio_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.total_s == 0.0 {
            return 0.0;
        }
        (self.total_s - baseline.total_s) / baseline.total_s
    }

    /// Find a cluster by name.
    pub fn cluster(&self, name: &str) -> Option<&ClusterBreakdown> {
        self.clusters.iter().find(|c| c.name == name)
    }

    /// Render as an aligned text table (one row per cluster) — the format
    /// the `repro` harness prints for each figure.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8}",
            "cluster", "cores", "processing", "retrieval", "sync", "wall", "jobs", "stolen"
        );
        for c in &self.clusters {
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>11.2}s {:>11.2}s {:>9.2}s {:>9.2}s {:>8} {:>8}",
                c.name,
                c.cores,
                c.processing_s,
                c.retrieval_s,
                c.sync_s,
                c.wall_s,
                c.jobs_processed,
                c.jobs_stolen
            );
        }
        let _ = writeln!(
            out,
            "total {:.2}s   global-reduction {:.3}s   robj {} bytes",
            self.total_s, self.global_reduction_s, self.robj_bytes
        );
        if !self.recovery.is_clean() {
            let r = &self.recovery;
            let _ = writeln!(
                out,
                "recovery: {} fetch failures, {} jobs re-enqueued, {} retries, \
                 {} slaves retired, {} slaves killed",
                r.fetch_failures, r.jobs_reenqueued, r.retries, r.slaves_retired, r.slaves_killed
            );
        }
        if !self.net.is_idle() {
            let n = &self.net;
            let _ = writeln!(
                out,
                "network: {} peers joined ({} lost), {} frames / {} bytes sent, \
                 {} frames / {} bytes received",
                n.peers_joined,
                n.peers_lost,
                n.frames_sent,
                n.bytes_sent,
                n.frames_recv,
                n.bytes_recv
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            total_s: 100.0,
            global_reduction_s: 0.5,
            robj_bytes: 1024,
            clusters: vec![
                ClusterBreakdown {
                    name: "local".into(),
                    cores: 16,
                    processing_s: 60.0,
                    retrieval_s: 30.0,
                    sync_s: 10.0,
                    wall_s: 100.0,
                    idle_end_s: 0.0,
                    jobs_processed: 480,
                    jobs_stolen: 0,
                    bytes_local: 1 << 30,
                    bytes_remote: 0,
                    overlap_saved_s: 0.0,
                    fetch_stall_s: 30.0,
                },
                ClusterBreakdown {
                    name: "EC2".into(),
                    cores: 16,
                    processing_s: 55.0,
                    retrieval_s: 25.0,
                    sync_s: 15.0,
                    wall_s: 95.0,
                    idle_end_s: 5.0,
                    jobs_processed: 480,
                    jobs_stolen: 64,
                    bytes_local: 1 << 29,
                    bytes_remote: 1 << 28,
                    overlap_saved_s: 5.0,
                    fetch_stall_s: 20.0,
                },
            ],
            recovery: RecoveryStats::default(),
            cache_hits: 0,
            cache_misses: 0,
            net: NetStats::default(),
        }
    }

    #[test]
    fn from_slaves_takes_per_core_means() {
        let ms = Duration::from_millis;
        let slave = |proc, retr, stall, jobs| SlaveStats {
            processing: ms(proc),
            retrieval: ms(retr),
            fetch_stall: ms(stall),
            jobs,
            stolen_jobs: 1,
            bytes_local: 10,
            bytes_remote: 5,
            ..Default::default()
        };
        // The second slave's stall exceeds its retrieval: nothing hidden.
        let slaves = [slave(600, 200, 50, 3), slave(200, 100, 300, 2)];
        let c = ClusterBreakdown::from_slaves("EC2".into(), 2, &slaves, ms(1000), ms(250));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(c.processing_s, 0.4) && close(c.retrieval_s, 0.15));
        assert!(close(c.fetch_stall_s, 0.175));
        assert!(close(c.overlap_saved_s, 0.075), "(0.15 + 0) / 2");
        assert!(close(c.sync_s, 0.45));
        assert_eq!((c.wall_s, c.idle_end_s), (1.0, 0.25));
        assert_eq!((c.jobs_processed, c.jobs_stolen), (5, 2));
        assert_eq!((c.bytes_local, c.bytes_remote), (20, 10));
        // A wall shorter than the busy time clamps sync at zero.
        let short = ClusterBreakdown::from_slaves("EC2".into(), 2, &slaves, ms(100), ms(0));
        assert_eq!(short.sync_s, 0.0);
    }

    #[test]
    fn totals() {
        let r = sample();
        assert_eq!(r.total_jobs(), 960);
        assert_eq!(r.total_stolen(), 64);
        assert_eq!(r.cluster("EC2").unwrap().cores, 16);
        assert!(r.cluster("nope").is_none());
    }

    #[test]
    fn slowdowns() {
        let base = RunReport {
            total_s: 80.0,
            ..sample()
        };
        let r = sample();
        assert!((r.slowdown_vs(&base) - 20.0).abs() < 1e-12);
        assert!((r.slowdown_ratio_vs(&base) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let s = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&s).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn render_contains_rows() {
        let text = sample().render();
        assert!(text.contains("local"));
        assert!(text.contains("EC2"));
        assert!(text.contains("global-reduction"));
        assert!(
            !text.contains("recovery:"),
            "clean runs omit the recovery row"
        );
    }

    #[test]
    fn render_shows_recovery_when_dirty() {
        let mut r = sample();
        r.recovery.jobs_reenqueued = 3;
        r.recovery.slaves_killed = 1;
        let text = r.render();
        assert!(text.contains("3 jobs re-enqueued"));
        assert!(text.contains("1 slaves killed"));
    }

    #[test]
    fn json_without_prefetch_or_cache_fields_defaults_zero() {
        // Reports serialized before the prefetch pipeline existed must
        // still load, with the overlap/stall/cache fields defaulting to 0.
        let r = sample();
        let s = serde_json::to_string(&r).unwrap();
        let stripped = s
            .replace(",\"overlap_saved_s\":0,\"fetch_stall_s\":30", "")
            .replace(",\"overlap_saved_s\":5,\"fetch_stall_s\":20", "")
            .replace(",\"cache_hits\":0,\"cache_misses\":0", "");
        assert_ne!(s, stripped, "new fields were serialized");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.clusters[1].overlap_saved_s, 0.0);
        assert_eq!(back.clusters[1].fetch_stall_s, 0.0);
        assert_eq!(back.cache_hits, 0);
        assert_eq!(back.cache_misses, 0);
    }

    #[test]
    fn json_without_net_field_defaults_idle() {
        // Reports serialized before the network subsystem existed must
        // still load, with net counters defaulting to an idle NetStats.
        let r = sample();
        let s = serde_json::to_string(&r).unwrap();
        let stripped = s.replace(
            ",\"net\":{\"frames_sent\":0,\"frames_recv\":0,\"bytes_sent\":0,\
             \"bytes_recv\":0,\"peers_joined\":0,\"peers_lost\":0}",
            "",
        );
        assert_ne!(s, stripped, "net field was serialized");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert!(back.net.is_idle());
        assert_eq!(back, r);
    }

    #[test]
    fn render_shows_network_when_distributed() {
        let mut r = sample();
        assert!(!r.render().contains("network:"), "idle net row omitted");
        r.net.peers_joined = 2;
        r.net.frames_sent = 10;
        r.net.bytes_sent = 420;
        let text = r.render();
        assert!(text.contains("2 peers joined"));
        assert!(text.contains("10 frames / 420 bytes sent"));
    }

    #[test]
    fn json_without_recovery_field_defaults_clean() {
        // Reports serialized before RecoveryStats existed must still load.
        let r = sample();
        let s = serde_json::to_string(&r).unwrap();
        let stripped = s.replace(
            ",\"recovery\":{\"fetch_failures\":0,\"jobs_reenqueued\":0,\"retries\":0,\"slaves_retired\":0,\"slaves_killed\":0}",
            "",
        );
        assert_ne!(s, stripped, "recovery field was serialized");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert!(back.recovery.is_clean());
        assert_eq!(back, r);
    }
}
