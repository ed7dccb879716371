//! Real-time bandwidth/latency throttling for the in-process runtime.
//!
//! Where the discrete-event simulator models transfers in virtual time, the
//! *real* multi-threaded runtime needs actual wall-clock backpressure so that
//! a "remote" store genuinely behaves like one. [`Throttle`] models a shared
//! serial bottleneck: each acquisition reserves a slot on a single virtual
//! wire (`next_free` advances by `bytes / bandwidth`) and the calling thread
//! sleeps until its reservation completes, plus a fixed per-request latency.
//!
//! The reservation scheme (rather than per-caller sleeping) means concurrent
//! callers correctly *queue* behind each other: ten threads pulling through a
//! 10 MB/s throttle observe ~1 MB/s each, exactly like a shared uplink.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Shared-bottleneck wall-clock throttle.
#[derive(Debug)]
pub struct Throttle {
    bytes_per_sec: f64,
    latency: Duration,
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    /// Wall-clock instant at which the virtual wire becomes idle.
    next_free: Option<Instant>,
    /// Total bytes ever acquired (for tests / reporting).
    total_bytes: u64,
    /// Total requests.
    total_requests: u64,
}

impl Throttle {
    /// A throttle enforcing `bytes_per_sec` aggregate bandwidth and adding
    /// `latency` to the front of every request. `f64::INFINITY` disables the
    /// bandwidth limit; `Duration::ZERO` disables latency.
    pub fn new(bytes_per_sec: f64, latency: Duration) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Throttle {
            bytes_per_sec,
            latency,
            state: Mutex::new(State {
                next_free: None,
                total_bytes: 0,
                total_requests: 0,
            }),
        }
    }

    /// An unthrottled instance (no bandwidth cap, no latency): useful for
    /// modelling an infinitely fast local medium in tests.
    pub fn unlimited() -> Self {
        Self::new(f64::INFINITY, Duration::ZERO)
    }

    /// Configured bandwidth in bytes/sec.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Configured per-request latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Block the calling thread for as long as transferring `bytes` through
    /// this bottleneck takes. Returns the time actually slept.
    pub fn acquire(&self, bytes: u64) -> Duration {
        let now = Instant::now();
        let xfer = if self.bytes_per_sec.is_finite() {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
        } else {
            Duration::ZERO
        };
        let wake = {
            let mut st = self.state.lock();
            st.total_bytes += bytes;
            st.total_requests += 1;
            // Reserve our slice of the wire *after* whoever is already queued.
            let start = match st.next_free {
                Some(nf) if nf > now => nf,
                _ => now,
            };
            let end = start + xfer;
            st.next_free = Some(end);
            end + self.latency
        };
        let sleep_for = wake.saturating_duration_since(now);
        if !sleep_for.is_zero() {
            std::thread::sleep(sleep_for);
        }
        sleep_for
    }

    /// Total bytes acquired through this throttle so far.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().total_bytes
    }

    /// Total number of acquisitions.
    pub fn total_requests(&self) -> u64 {
        self.state.lock().total_requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_does_not_sleep() {
        let t = Throttle::unlimited();
        let start = Instant::now();
        t.acquire(10_000_000);
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(t.total_bytes(), 10_000_000);
    }

    #[test]
    fn bandwidth_enforced_roughly() {
        // 1 MB/s, 100 KB transfer => ~100 ms.
        let t = Throttle::new(1_000_000.0, Duration::ZERO);
        let start = Instant::now();
        t.acquire(100_000);
        let el = start.elapsed();
        assert!(
            el >= Duration::from_millis(90),
            "too fast: {el:?} (throttle not enforcing)"
        );
        assert!(el < Duration::from_millis(400), "too slow: {el:?}");
    }

    #[test]
    fn latency_applied_per_request() {
        let t = Throttle::new(f64::INFINITY, Duration::from_millis(20));
        let start = Instant::now();
        t.acquire(1);
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn concurrent_callers_share_bandwidth() {
        // 4 threads, each moving 50 KB through a 1 MB/s pipe: serialized
        // total is 200 KB => >= ~200ms overall.
        let t = Arc::new(Throttle::new(1_000_000.0, Duration::ZERO));
        let start = Instant::now();
        let mut handles = vec![];
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                t.acquire(50_000);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let el = start.elapsed();
        assert!(
            el >= Duration::from_millis(170),
            "shared queueing missing: {el:?}"
        );
        assert_eq!(t.total_bytes(), 200_000);
        assert_eq!(t.total_requests(), 4);
    }
}
