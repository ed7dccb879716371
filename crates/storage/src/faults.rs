//! Fault injection: a store decorator that fails requests on a
//! deterministic schedule.
//!
//! 2011-era S3 served bulk workloads with a small but real transient-error
//! rate, which is why production retrievers retry. [`FlakyStore`] lets
//! tests and examples reproduce that: each GET fails with probability `p`
//! (seeded, so runs are reproducible), deterministically for the first
//! `n` attempts on each key, or by *stalling* (a hung connection that
//! eventually answers — the case a per-GET deadline exists for).

use crate::store::ObjectStore;
use bytes::Bytes;
use cb_simnet::DetRng;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When a [`FlakyStore`] injects failures.
#[derive(Debug, Clone, Copy)]
pub enum FaultMode {
    /// Every GET fails independently with this probability.
    Random { probability: f64 },
    /// The first `n` GETs of each key fail, then the key works forever —
    /// the worst case a bounded retry policy must survive.
    FirstNPerKey { n: u32 },
    /// Every GET hangs for `delay` before answering — a stalled connection.
    /// The data still arrives, so only a retriever with a per-GET deadline
    /// (see `Retriever::with_deadline`) notices anything is wrong.
    Stall { delay: Duration },
}

/// An [`ObjectStore`] decorator that injects transient GET failures.
/// Writes and metadata operations are never failed (they are test
/// scaffolding).
pub struct FlakyStore {
    inner: Arc<dyn ObjectStore>,
    mode: FaultMode,
    rng: Mutex<DetRng>,
    per_key_attempts: Mutex<HashMap<String, u32>>,
    injected: AtomicU64,
    name: String,
    observer: Option<FaultObserver>,
}

/// Callback invoked once per injected fault; see [`FlakyStore::with_observer`].
pub type FaultObserver = Arc<dyn Fn() + Send + Sync>;

impl FlakyStore {
    pub fn new(inner: Arc<dyn ObjectStore>, mode: FaultMode, seed: u64) -> Self {
        FlakyStore {
            name: format!("flaky({})", inner.name()),
            inner,
            mode,
            rng: Mutex::new(DetRng::new(seed)),
            per_key_attempts: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
            observer: None,
        }
    }

    /// Call `observer()` every time a fault is injected, at the same point
    /// the `injected_failures` counter increments — lets the observability
    /// layer record injected faults without this crate knowing its types.
    pub fn with_observer(mut self, observer: FaultObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Number of failures injected so far (stalls count too).
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// `Some(delay)` if this GET should stall, `None` to fail hard, or
    /// pass-through. Encoded as a tri-state to keep one decision point.
    fn decide(&self, key: &str) -> FaultDecision {
        match self.mode {
            FaultMode::Random { probability } => {
                if self.rng.lock().chance(probability) {
                    FaultDecision::Fail
                } else {
                    FaultDecision::Pass
                }
            }
            FaultMode::FirstNPerKey { n } => {
                let mut m = self.per_key_attempts.lock();
                let c = m.entry(key.to_owned()).or_insert(0);
                *c += 1;
                if *c <= n {
                    FaultDecision::Fail
                } else {
                    FaultDecision::Pass
                }
            }
            FaultMode::Stall { delay } => FaultDecision::Stall(delay),
        }
    }
}

enum FaultDecision {
    Pass,
    Fail,
    Stall(Duration),
}

impl ObjectStore for FlakyStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        self.inner.put(key, data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        match self.decide(key) {
            FaultDecision::Pass => {}
            FaultDecision::Fail => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.observer {
                    obs();
                }
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected transient failure on {key}"),
                ));
            }
            FaultDecision::Stall(delay) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.observer {
                    obs();
                }
                std::thread::sleep(delay);
            }
        }
        self.inner.get_range(key, offset, len)
    }

    fn size_of(&self, key: &str) -> io::Result<u64> {
        self.inner.size_of(key)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> io::Result<bool> {
        self.inner.delete(key)
    }

    fn streams(&self) -> usize {
        self.inner.streams()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn backing() -> Arc<MemStore> {
        let s = Arc::new(MemStore::new("m"));
        s.put("k", Bytes::from_static(b"0123456789")).unwrap();
        s
    }

    #[test]
    fn first_n_mode_fails_then_recovers() {
        let s = FlakyStore::new(backing(), FaultMode::FirstNPerKey { n: 2 }, 0);
        assert!(s.get_range("k", 0, 4).is_err());
        assert!(s.get_range("k", 0, 4).is_err());
        let ok = s.get_range("k", 0, 4).unwrap();
        assert_eq!(ok.as_ref(), b"0123");
        assert_eq!(s.injected_failures(), 2);
        // Independent counters per key.
        s.put("other", Bytes::from_static(b"xy")).unwrap();
        assert!(s.get_range("other", 0, 1).is_err());
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let run = |seed| {
            let s = FlakyStore::new(backing(), FaultMode::Random { probability: 0.5 }, seed);
            (0..32)
                .map(|_| s.get_range("k", 0, 1).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn probability_zero_never_fails() {
        let s = FlakyStore::new(backing(), FaultMode::Random { probability: 0.0 }, 1);
        for _ in 0..100 {
            assert!(s.get_range("k", 0, 10).is_ok());
        }
        assert_eq!(s.injected_failures(), 0);
    }

    #[test]
    fn stall_mode_delays_but_delivers() {
        let s = FlakyStore::new(
            backing(),
            FaultMode::Stall {
                delay: Duration::from_millis(20),
            },
            0,
        );
        let t0 = std::time::Instant::now();
        let got = s.get_range("k", 0, 4).unwrap();
        assert_eq!(got.as_ref(), b"0123");
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "GET must hang for the configured delay"
        );
        assert_eq!(s.injected_failures(), 1);
    }

    #[test]
    fn observer_fires_per_injected_fault() {
        let fired = Arc::new(AtomicU64::new(0));
        let obs_fired = Arc::clone(&fired);
        let s = FlakyStore::new(backing(), FaultMode::FirstNPerKey { n: 2 }, 0).with_observer(
            Arc::new(move || {
                obs_fired.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let _ = s.get_range("k", 0, 1);
        let _ = s.get_range("k", 0, 1);
        let _ = s.get_range("k", 0, 1); // passes: no fault left
        assert_eq!(fired.load(Ordering::Relaxed), 2);
        assert_eq!(s.injected_failures(), 2);
    }

    #[test]
    fn metadata_ops_pass_through() {
        let s = FlakyStore::new(backing(), FaultMode::FirstNPerKey { n: 99 }, 1);
        assert_eq!(s.size_of("k").unwrap(), 10);
        assert_eq!(s.streams(), 1);
        let capped = crate::s3sim::RemoteStore::new(
            "capped",
            backing(),
            crate::s3sim::RemoteProfile {
                request_latency: Duration::ZERO,
                aggregate_bps: 100.0e6,
                per_conn_bps: 10.0e6,
            },
        );
        let flaky = FlakyStore::new(Arc::new(capped), FaultMode::FirstNPerKey { n: 0 }, 1);
        assert_eq!(flaky.streams(), crate::s3sim::REMOTE_STREAMS);
        assert_eq!(s.list(), vec!["k".to_string()]);
        assert!(s.name().starts_with("flaky("));
    }
}
