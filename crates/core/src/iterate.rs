//! Iterative execution driver.
//!
//! k-means and PageRank — two of the paper's three applications — are
//! iterative: each pass is one full framework run, and the pass's reduction
//! object determines the next pass's broadcast parameters. This module
//! packages that loop (convergence policy, iteration cap, per-pass reports)
//! so applications only supply the `robj → next params` step.

use crate::api::GRApp;
use crate::config::RuntimeConfig;
use crate::deploy::Deployment;
use crate::obs::{EventKind, SinkHandle};
use crate::report::RunReport;
use crate::runtime::{run, RuntimeError};
use cb_storage::cache::CachedStore;
use cb_storage::layout::{DatasetLayout, LocationId, Placement};
use std::collections::BTreeSet;
use std::sync::Arc;

/// What an application's update step tells the driver to do next.
pub enum Step<P> {
    /// Run another pass with these parameters.
    Continue(P),
    /// Converged (or otherwise done); stop with these final parameters.
    Done(P),
}

/// Outcome of an iterative run.
#[derive(Debug)]
pub struct IterativeOutcome<P> {
    /// Final parameters (e.g. converged centroids / ranks).
    pub params: P,
    /// Whether the update step declared convergence (vs. hitting the cap).
    pub converged: bool,
    /// Number of passes executed.
    pub iterations: usize,
    /// Per-pass run reports, in order.
    pub reports: Vec<RunReport>,
}

impl<P> IterativeOutcome<P> {
    /// Total wall time across passes.
    pub fn total_s(&self) -> f64 {
        self.reports.iter().map(|r| r.total_s).sum()
    }
}

/// Wrap every fabric path of a copy of `deployment` in a [`CachedStore`]
/// with `capacity_bytes` budget each, returning the cached deployment plus
/// handles to the caches (for hit/miss accounting). Iterative runs re-read
/// the same chunks every pass, so a read-through cache turns passes after
/// the first into memory reads.
fn cached_deployment(
    deployment: &Deployment,
    capacity_bytes: usize,
    sink: &SinkHandle,
) -> (Deployment, Vec<Arc<CachedStore>>) {
    let mut d = deployment.clone();
    let sites: BTreeSet<LocationId> = d.fabric.paths().map(|(_, to, _)| to).collect();
    let mut caches = Vec::new();
    for site in sites {
        d.fabric.wrap_paths_to(site, |inner| {
            let mut store = CachedStore::new(inner, capacity_bytes);
            if sink.is_enabled() {
                // Observed at the same points the hit/miss counters
                // increment, so event counts equal the report's cache stats.
                let sink = sink.clone();
                store = store.with_observer(Arc::new(move |hit, bytes| {
                    let kind = if hit {
                        EventKind::CacheHit { bytes }
                    } else {
                        EventKind::CacheMiss { bytes }
                    };
                    sink.emit(None, None, kind);
                }));
            }
            let cache = Arc::new(store);
            caches.push(Arc::clone(&cache));
            cache
        });
    }
    (d, caches)
}

/// Run `app` repeatedly: after each pass, `update(pass_index, robj, params)`
/// produces the next parameters or declares convergence. At most
/// `max_iterations` passes (0 is rejected — it would mean never running).
///
/// When `cfg.cache_bytes > 0`, every fabric path is wrapped in a
/// [`CachedStore`] shared across passes; each pass's report carries that
/// pass's cache hit/miss deltas.
///
/// The reduction object is handed to `update` by value; parameters flow
/// through the driver so the caller keeps no mutable state of their own.
#[allow(clippy::too_many_arguments)] // mirrors `runtime::run` plus the loop knobs
pub fn run_iterative<A, F>(
    app: &A,
    initial: A::Params,
    layout: &DatasetLayout,
    placement: &Placement,
    deployment: &Deployment,
    cfg: &RuntimeConfig,
    max_iterations: usize,
    mut update: F,
) -> Result<IterativeOutcome<A::Params>, RuntimeError>
where
    A: GRApp,
    F: FnMut(usize, A::RObj, &A::Params) -> Step<A::Params>,
{
    assert!(max_iterations > 0, "max_iterations must be >= 1");
    let (cached, caches) = if cfg.cache_bytes > 0 {
        let (d, caches) = cached_deployment(deployment, cfg.cache_bytes, &cfg.sink);
        (Some(d), caches)
    } else {
        (None, Vec::new())
    };
    let deployment = cached.as_ref().unwrap_or(deployment);
    let (mut prev_hits, mut prev_misses) = (0u64, 0u64);
    let mut params = initial;
    let mut reports = Vec::new();
    for iter in 0..max_iterations {
        cfg.sink
            .emit(None, None, EventKind::PassBoundary { pass: iter as u64 });
        let mut out = run(app, &params, layout, placement, deployment, cfg)?;
        let hits: u64 = caches.iter().map(|c| c.hits()).sum();
        let misses: u64 = caches.iter().map(|c| c.misses()).sum();
        out.report.cache_hits = hits - prev_hits;
        out.report.cache_misses = misses - prev_misses;
        (prev_hits, prev_misses) = (hits, misses);
        reports.push(out.report);
        match update(iter, out.result, &params) {
            Step::Done(p) => {
                return Ok(IterativeOutcome {
                    params: p,
                    converged: true,
                    iterations: iter + 1,
                    reports,
                })
            }
            Step::Continue(p) => params = p,
        }
    }
    let iterations = reports.len();
    Ok(IterativeOutcome {
        params,
        converged: false,
        iterations,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GRApp, ReductionObject};
    use crate::deploy::{ClusterSpec, DataFabric, Deployment};
    use cb_storage::builder::materialize;
    use cb_storage::layout::{ChunkMeta, LocationId, Placement};
    use cb_storage::organizer::organize_even;
    use cb_storage::store::{MemStore, ObjectStore};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Counts units >= a threshold that tightens each pass: a toy iterative
    /// computation whose trajectory is fully predictable.
    struct ThresholdCount;

    #[derive(Debug)]
    struct Count(u64);

    impl ReductionObject for Count {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
        }
        fn size_bytes(&self) -> usize {
            8
        }
    }

    impl GRApp for ThresholdCount {
        type Unit = u8;
        type RObj = Count;
        type Params = u8; // threshold

        fn decode_chunk(&self, _m: &ChunkMeta, bytes: &[u8]) -> Vec<u8> {
            bytes.to_vec()
        }
        fn init(&self, _: &u8) -> Count {
            Count(0)
        }
        fn local_reduce(&self, thr: &u8, robj: &mut Count, unit: &u8) {
            if unit >= thr {
                robj.0 += 1;
            }
        }
    }

    fn env() -> (cb_storage::layout::DatasetLayout, Placement, Deployment) {
        let layout = organize_even(2, 256, 64, 1).unwrap();
        let placement = Placement::all_at(2, LocationId(0));
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new("m"));
        let mut stores = BTreeMap::new();
        stores.insert(LocationId(0), Arc::clone(&store));
        materialize(&layout, &placement, &stores, |_c, buf| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i % 7) as u8;
            }
        })
        .unwrap();
        let fabric = DataFabric::direct(&stores);
        let deployment = Deployment::new(vec![ClusterSpec::new("local", LocationId(0), 2)], fabric);
        (layout, placement, deployment)
    }

    #[test]
    fn iterates_until_convergence() {
        let (layout, placement, deployment) = env();
        // Raise the threshold until fewer than 100 units qualify.
        let out = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &RuntimeConfig::default(),
            20,
            |_i, robj, thr| {
                if robj.0 < 100 {
                    Step::Done(*thr)
                } else {
                    Step::Continue(thr + 1)
                }
            },
        )
        .unwrap();
        assert!(out.converged);
        // 512 bytes cycling 0..7: counts 512, ~439, ~366, ... < 100 at thr 6.
        assert_eq!(out.params, 6);
        assert_eq!(out.iterations, 7, "thresholds 0..=6");
        assert_eq!(out.reports.len(), 7);
        assert!(out.total_s() > 0.0);
    }

    #[test]
    fn stops_at_iteration_cap() {
        let (layout, placement, deployment) = env();
        let out = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &RuntimeConfig::default(),
            3,
            |_i, _robj, thr| Step::Continue(thr + 1),
        )
        .unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.params, 3);
    }

    #[test]
    fn update_sees_pass_indices_in_order() {
        let (layout, placement, deployment) = env();
        let mut seen = Vec::new();
        let _ = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &RuntimeConfig::default(),
            4,
            |i, _robj, thr| {
                seen.push(i);
                Step::Continue(*thr)
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cache_turns_later_passes_into_hits() {
        let (layout, placement, deployment) = env();
        let cfg = RuntimeConfig {
            cache_bytes: 1 << 20,
            ..Default::default()
        };
        let step = |_i: usize, _robj: Count, thr: &u8| Step::Continue(thr + 1);
        let out = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &cfg,
            3,
            step,
        )
        .unwrap();
        assert_eq!(out.iterations, 3);
        assert!(out.reports[0].cache_misses > 0, "first pass is cold");
        assert_eq!(out.reports[0].cache_hits, 0, "nothing cached before pass 0");
        for r in &out.reports[1..] {
            assert!(r.cache_hits > 0, "later passes re-read from the cache");
            assert_eq!(r.cache_misses, 0, "the dataset fits; no re-misses");
        }

        // Caching must not change the computation, and an uncached run
        // reports no cache traffic at all.
        let base = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &RuntimeConfig::default(),
            3,
            step,
        )
        .unwrap();
        assert_eq!(out.params, base.params);
        for r in &base.reports {
            assert_eq!((r.cache_hits, r.cache_misses), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "max_iterations")]
    fn zero_iterations_rejected() {
        let (layout, placement, deployment) = env();
        let _ = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &RuntimeConfig::default(),
            0,
            |_i, _r, thr| Step::Continue(*thr),
        );
    }

    #[test]
    fn runtime_errors_propagate() {
        let (layout, placement, deployment) = env();
        let cfg = RuntimeConfig {
            slave_failure_threshold: 0, // invalid
            ..Default::default()
        };
        let err = run_iterative(
            &ThresholdCount,
            0u8,
            &layout,
            &placement,
            &deployment,
            &cfg,
            5,
            |_i, _r, thr| Step::Continue(*thr),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Validation(_)));
    }
}
