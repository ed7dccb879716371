//! Simulation parameters: topology, link capacities, and cost model.
//!
//! The simulator charges three kinds of cost, all configurable here:
//!
//! * **transfer** — every chunk fetch is a flow on one bottleneck link
//!   (fair-shared with everything else on that link, capped at
//!   `per_conn_bps × streams` — the multi-threaded retrieval model, which
//!   the real runtime reads from `ObjectStore::streams`), after a fixed
//!   per-request latency;
//! * **compute** — `units × ns_per_unit × jitter` per job, per slave core;
//! * **reduction** — local combination and the final global reduction move
//!   `robj_bytes` at `merge_bps`, and remote clusters ship their reduction
//!   object over a single WAN connection.

use cb_simnet::time::SimDur;
use cb_storage::layout::{DatasetLayout, LocationId, Placement};
use cloudburst_core::config::SlaveKill;
use cloudburst_core::sched::pool::PoolConfig;
use std::collections::BTreeMap;

/// Fault-injection plan for a simulated run, mirroring the real runtime's
/// `kill_schedule` / flaky-store knobs. The default plan is failure-free.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scheduled slave fail-stops (taken at job boundaries, like the
    /// runtime: the slave's reduction object survives as a checkpoint).
    pub kill_schedule: Vec<SlaveKill>,
    /// Probability that a chunk fetch fails *after* transport — the
    /// simulated analogue of a flaky store exhausting the retriever's
    /// retries. Decided per fetch from the slave's seeded RNG stream.
    pub fetch_failure_prob: f64,
    /// A slave retires after this many consecutive fetch failures
    /// (mirror of `RuntimeConfig::slave_failure_threshold`).
    pub slave_failure_threshold: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            kill_schedule: Vec::new(),
            fetch_failure_prob: 0.0,
            slave_failure_threshold: 3,
        }
    }
}

/// One shared bottleneck link (disk array, S3 frontend, WAN pipe).
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Diagnostic name.
    pub name: String,
    /// Aggregate capacity in bytes/sec.
    pub bps: f64,
}

/// How a (cluster site → data site) access flows.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// Index into [`SimParams::links`] of the bottleneck for this path.
    pub link: usize,
    /// Per-request latency (time to first byte).
    pub latency: SimDur,
    /// Bytes/sec one connection can stream on this path.
    pub per_conn_bps: f64,
    /// Parallel connections one chunk fetch opens on this path — 1 for the
    /// paper's continuous local reads, more on S3 and WAN paths whose
    /// connections are capped ("multiple retrieval threads"); the real
    /// runtime reads it from `ObjectStore::streams`.
    pub streams: usize,
}

/// One simulated compute cluster.
#[derive(Debug, Clone)]
pub struct SimCluster {
    pub name: String,
    pub location: LocationId,
    pub cores: usize,
    /// Compute cost per data unit on one of this cluster's cores.
    pub ns_per_unit: f64,
    /// Coefficient of variation of per-job compute time (virtualization
    /// noise; 0 = deterministic).
    pub jitter_cv: f64,
    /// Round-trip time of a master↔head job-request exchange.
    pub rtt_to_head: SimDur,
    /// Link the cluster's reduction object travels on to reach the head
    /// (`None` = colocated, transfer is free).
    pub robj_link: Option<usize>,
    /// Single-connection bandwidth for that reduction-object transfer.
    pub robj_conn_bps: f64,
    /// Per-slave slowdown factors for straggler injection: `(slave index,
    /// multiplicative compute slowdown)`.
    pub stragglers: Vec<(usize, f64)>,
}

impl SimCluster {
    pub fn new(
        name: impl Into<String>,
        location: LocationId,
        cores: usize,
        ns_per_unit: f64,
    ) -> Self {
        SimCluster {
            name: name.into(),
            location,
            cores,
            ns_per_unit,
            jitter_cv: 0.0,
            rtt_to_head: SimDur::ZERO,
            robj_link: None,
            robj_conn_bps: f64::INFINITY,
            stragglers: Vec::new(),
        }
    }

    pub fn with_jitter(mut self, cv: f64) -> Self {
        self.jitter_cv = cv;
        self
    }

    pub fn with_rtt(mut self, rtt: SimDur) -> Self {
        self.rtt_to_head = rtt;
        self
    }

    pub fn with_robj_path(mut self, link: usize, conn_bps: f64) -> Self {
        self.robj_link = Some(link);
        self.robj_conn_bps = conn_bps;
        self
    }

    pub fn with_straggler(mut self, slave: usize, slowdown: f64) -> Self {
        self.stragglers.push((slave, slowdown));
        self
    }

    fn straggler_factor(&self, slave: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|(s, _)| *s == slave)
            .map(|(_, f)| *f)
            .unwrap_or(1.0)
    }

    /// Compute duration of one job of `units` units on `slave`.
    pub fn proc_time(&self, slave: usize, units: u64, jitter: f64) -> SimDur {
        SimDur::from_secs_f64(
            units as f64 * self.ns_per_unit * 1e-9 * jitter * self.straggler_factor(slave),
        )
    }
}

/// Full simulation input.
#[derive(Debug, Clone)]
pub struct SimParams {
    pub layout: DatasetLayout,
    pub placement: Placement,
    pub clusters: Vec<SimCluster>,
    pub links: Vec<LinkSpec>,
    /// (cluster site, data site) → path.
    pub paths: BTreeMap<(LocationId, LocationId), PathSpec>,
    /// Head-side assignment policy.
    pub pool: PoolConfig,
    /// Master refill low-water mark.
    pub master_low_water: usize,
    /// Jobs a slave prefetches ahead of the one it is processing (mirror of
    /// `RuntimeConfig::prefetch_depth`): with depth `d` a slave holds up to
    /// `1 + d` leases, its serial background fetch pipeline overlapping the
    /// compute of the job in hand. `0` models the paper's strictly serial
    /// fetch-then-process slave.
    pub prefetch_depth: usize,
    /// Reduction-object wire size.
    pub robj_bytes: u64,
    /// Merge throughput for combining reduction objects (bytes/sec of robj
    /// traversed).
    pub merge_bps: f64,
    /// Fixed overhead of the global reduction (control messages etc.).
    pub global_reduction_base: SimDur,
    /// Request-latency multiplier for a chunk fetch that does NOT continue
    /// a sequential scan (disk seek / fresh request setup). 1.0 = off.
    pub nonseq_latency_mult: f64,
    /// Per-connection bandwidth factor for non-sequential fetches (lost
    /// readahead). 1.0 = off.
    pub nonseq_bw_factor: f64,
    /// Per-connection bandwidth factor applied when another fetch is
    /// already active on the same file (head-contention on one spindle /
    /// object). 1.0 = off. This is what the head's minimum-readers stealing
    /// heuristic exists to avoid.
    pub file_contention_bw_factor: f64,
    /// RNG seed (jitter streams).
    pub seed: u64,
    /// Injected failures (kills, fetch faults). Default: failure-free.
    pub faults: FaultPlan,
}

impl SimParams {
    /// Path used when a cluster at `from` reads data homed at `to`.
    pub fn path(&self, from: LocationId, to: LocationId) -> PathSpec {
        *self
            .paths
            .get(&(from, to))
            .unwrap_or_else(|| panic!("no path from {from} to {to}"))
    }

    /// Validate what only the model reads. The layout, the pool config and
    /// the fault plan's kill schedule and threshold are the head's to check,
    /// as in every substrate.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters.is_empty() {
            return Err("no clusters".into());
        }
        if self.merge_bps <= 0.0 {
            return Err("merge_bps must be positive".into());
        }
        for (name, v) in [
            ("nonseq_latency_mult", self.nonseq_latency_mult),
            ("nonseq_bw_factor", self.nonseq_bw_factor),
            ("file_contention_bw_factor", self.file_contention_bw_factor),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite"));
            }
        }
        let data_sites: std::collections::BTreeSet<LocationId> = (0..self.placement.n_files())
            .map(|i| self.placement.home(cb_storage::layout::FileId(i as u32)))
            .collect();
        for c in &self.clusters {
            if c.cores == 0 {
                return Err(format!("cluster {} has zero cores", c.name));
            }
            if c.ns_per_unit < 0.0 {
                return Err(format!("cluster {} has negative compute cost", c.name));
            }
            for &site in &data_sites {
                let p = self
                    .paths
                    .get(&(c.location, site))
                    .ok_or_else(|| format!("no path from {} to {site}", c.name))?;
                if p.link >= self.links.len() {
                    return Err(format!("path from {} references unknown link", c.name));
                }
                if p.per_conn_bps <= 0.0 {
                    return Err("per_conn_bps must be positive".into());
                }
                if p.streams == 0 {
                    return Err("path streams must be >= 1".into());
                }
            }
            if let Some(l) = c.robj_link {
                if l >= self.links.len() {
                    return Err(format!("cluster {} robj link out of range", c.name));
                }
            }
        }
        for l in &self.links {
            if l.bps <= 0.0 {
                return Err(format!("link {} has nonpositive bandwidth", l.name));
            }
        }
        if !(0.0..1.0).contains(&self.faults.fetch_failure_prob) {
            return Err("fetch_failure_prob must be in [0, 1)".into());
        }
        Ok(())
    }

    /// Total worker cores.
    pub fn total_cores(&self) -> usize {
        self.clusters.iter().map(|c| c.cores).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_storage::organizer::organize_even;

    fn base() -> SimParams {
        let layout = organize_even(4, 1024, 256, 8).unwrap();
        let placement = Placement::split_fraction(4, 0.5, LocationId(0), LocationId(1));
        let mut paths = BTreeMap::new();
        let p = PathSpec {
            link: 0,
            latency: SimDur::from_millis(1),
            per_conn_bps: 1e6,
            streams: 4,
        };
        for from in [LocationId(0), LocationId(1)] {
            for to in [LocationId(0), LocationId(1)] {
                paths.insert((from, to), p);
            }
        }
        SimParams {
            layout,
            placement,
            clusters: vec![
                SimCluster::new("local", LocationId(0), 2, 10.0),
                SimCluster::new("EC2", LocationId(1), 2, 12.0),
            ],
            links: vec![LinkSpec {
                name: "net".into(),
                bps: 1e8,
            }],
            paths,
            pool: PoolConfig::default(),
            master_low_water: 1,
            prefetch_depth: 0,
            robj_bytes: 1024,
            merge_bps: 1e9,
            global_reduction_base: SimDur::from_millis(50),
            nonseq_latency_mult: 1.0,
            nonseq_bw_factor: 1.0,
            file_contention_bw_factor: 1.0,
            seed: 1,
            faults: FaultPlan::default(),
        }
    }

    #[test]
    fn valid_params_pass() {
        assert_eq!(base().validate(), Ok(()));
        assert_eq!(base().total_cores(), 4);
    }

    #[test]
    fn missing_path_detected() {
        let mut p = base();
        p.paths.remove(&(LocationId(0), LocationId(1)));
        assert!(p.validate().is_err());
    }

    #[test]
    fn bad_link_index_detected() {
        let mut p = base();
        p.paths
            .get_mut(&(LocationId(0), LocationId(0)))
            .unwrap()
            .link = 9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_cores_detected() {
        let mut p = base();
        p.clusters[0].cores = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn straggler_factor_applies() {
        let c = SimCluster::new("x", LocationId(0), 4, 100.0).with_straggler(2, 3.0);
        let normal = c.proc_time(0, 1000, 1.0);
        let slow = c.proc_time(2, 1000, 1.0);
        assert_eq!(slow.as_nanos(), normal.as_nanos() * 3);
    }

    #[test]
    fn proc_time_scales_with_units_and_jitter() {
        let c = SimCluster::new("x", LocationId(0), 1, 50.0);
        assert_eq!(c.proc_time(0, 1_000_000, 1.0), SimDur::from_millis(50));
        assert_eq!(c.proc_time(0, 1_000_000, 2.0), SimDur::from_millis(100));
    }
}
