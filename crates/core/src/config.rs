//! Runtime configuration knobs.

use crate::sched::pool::PoolConfig;

/// A scheduled slave failure: slave `slave` of cluster `cluster` fail-stops
/// after processing `after_jobs` jobs.
///
/// The kill is taken at a job boundary (the generalized-reduction model's
/// natural checkpoint): the slave's accumulated reduction object survives —
/// it merges into the cluster result exactly as at normal shutdown — while
/// every lease it still holds goes back to the pool uncharged. This
/// models the paper's observation that GR needs only the tiny reduction
/// object plus the set of unprocessed chunks to recover, rather than
/// MapReduce-style re-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveKill {
    /// Index of the cluster in the deployment.
    pub cluster: usize,
    /// Slave (core) index within that cluster.
    pub slave: usize,
    /// Jobs the slave completes before dying.
    pub after_jobs: u64,
}

/// Configuration of the in-process cloud-bursting runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Head-side assignment policy.
    pub pool: PoolConfig,
    /// Master refills from the head when its queue drops to this size.
    pub master_low_water: usize,
    /// Extra attempts per ranged GET after the first (transient remote
    /// failures happen against real object services).
    pub retrieval_retries: u32,
    /// Initial backoff before a retry (doubles per attempt).
    pub retrieval_backoff: std::time::Duration,
    /// Artificial extra compute, in nanoseconds per data unit, applied on
    /// top of the real fold. Lets tests and examples shape an application's
    /// compute-to-I/O ratio (e.g. make a scaled-down k-means behave
    /// "compute-bound" like the 120 GB original) without gigabytes of data.
    /// Zero disables it.
    pub synthetic_compute_ns_per_unit: u64,
    /// Per-GET deadline. A retrieval that takes longer than this (e.g. a
    /// hung connection, modelled by `FaultMode::Stall`) is classified as
    /// failed and retried, rather than blocking the slave forever.
    /// `None` disables the deadline.
    pub retrieval_deadline: Option<std::time::Duration>,
    /// A slave that fails this many *consecutive* jobs retires gracefully:
    /// its partial reduction object still merges into the cluster result,
    /// and it stops pulling work, leaving the remaining jobs to healthier
    /// slaves and clusters. Must be >= 1.
    pub slave_failure_threshold: u32,
    /// Deterministic fault-injection hook: scheduled slave fail-stops.
    pub kill_schedule: Vec<SlaveKill>,
    /// How many jobs a slave prefetches ahead of the one it is folding.
    /// With depth `d`, a slave holds up to `1 + d` leases: the chunk being
    /// processed plus up to `d` being retrieved by its background fetcher,
    /// so retrieval overlaps computation (the FREERIDE-style double buffer
    /// at depth 1). `0` restores strictly serial fetch-then-fold behaviour.
    pub prefetch_depth: usize,
    /// Byte budget for a per-location read-through chunk cache
    /// ([`cb_storage::cache::CachedStore`]) wrapped around every fabric
    /// path during *iterative* runs ([`crate::iterate::run_iterative`]):
    /// passes after the first hit memory instead of the wire. `0` disables
    /// caching. Single-pass [`crate::runtime::run`] ignores this knob.
    pub cache_bytes: usize,
    /// Observability sink: every scheduling / retrieval / reduction event
    /// is emitted here (see [`crate::obs`]). The default is a disabled
    /// handle — one branch per emission site, nothing recorded.
    pub sink: crate::obs::SinkHandle,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            pool: PoolConfig::default(),
            master_low_water: 2,
            retrieval_retries: 2,
            retrieval_backoff: std::time::Duration::from_millis(5),
            synthetic_compute_ns_per_unit: 0,
            retrieval_deadline: None,
            slave_failure_threshold: 3,
            kill_schedule: Vec::new(),
            prefetch_depth: 1,
            cache_bytes: 0,
            sink: crate::obs::SinkHandle::disabled(),
        }
    }
}

impl RuntimeConfig {
    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.pool.local_batch == 0 {
            return Err("pool.local_batch must be >= 1".into());
        }
        if self.pool.remote_batch == 0 {
            return Err("pool.remote_batch must be >= 1".into());
        }
        if self.slave_failure_threshold == 0 {
            return Err("slave_failure_threshold must be >= 1".into());
        }
        if let Some(d) = self.retrieval_deadline {
            if d.is_zero() {
                return Err("retrieval_deadline must be > 0 when set".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(RuntimeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_knobs_rejected() {
        for (local, remote) in [(0, 1), (1, 0)] {
            let mut c = RuntimeConfig::default();
            c.pool.local_batch = local;
            c.pool.remote_batch = remote;
            assert!(c.validate().is_err());
        }

        let c = RuntimeConfig {
            slave_failure_threshold: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = RuntimeConfig {
            retrieval_deadline: Some(std::time::Duration::ZERO),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
