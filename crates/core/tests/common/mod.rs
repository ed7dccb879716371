//! Helpers shared by the runtime's integration tests (and included by the
//! repository-root `tests/observability.rs`).

use cloudburst_core::config::{RuntimeConfig, SlaveKill};
use cloudburst_core::obs::{EventKind, EventSink, SinkHandle};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A sink that makes a kill schedule certain: it holds back every other
/// slave's fetches until each kill target has completed its `after_jobs`
/// jobs or retired, and passes every event on to the sink it wraps.
/// Without it, a loaded host can leave a target thread unscheduled while
/// its siblings drain the work, and the kill never fires. A fetcher emits
/// `FetchStart` holding one lease and no lock, so the targets can still
/// take the rest of the work; the timeout only turns a gate bug into a
/// failed assertion instead of a hang.
pub struct KillGate {
    kills: Vec<SlaveKill>,
    /// Jobs each target has completed; `u64::MAX` once it retired.
    done: Mutex<Vec<u64>>,
    progressed: Condvar,
    inner: SinkHandle,
}

impl KillGate {
    /// `cfg` with a gate on its kill schedule in front of its sink.
    pub fn install(cfg: RuntimeConfig) -> RuntimeConfig {
        let gate = KillGate {
            kills: cfg.kill_schedule.clone(),
            done: Mutex::new(vec![0; cfg.kill_schedule.len()]),
            progressed: Condvar::new(),
            inner: cfg.sink.clone(),
        };
        RuntimeConfig {
            sink: SinkHandle::new(Arc::new(gate)),
            ..cfg
        }
    }
}

impl EventSink for KillGate {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        let who = cluster.zip(slave).map(|(c, s)| (c as usize, s as usize));
        let target = self
            .kills
            .iter()
            .position(|k| Some((k.cluster, k.slave)) == who);
        let mut done = self.done.lock().unwrap();
        match (target, kind) {
            (Some(i), EventKind::ProcessEnd { .. }) => done[i] = done[i].saturating_add(1),
            (Some(i), EventKind::SlaveRetired { .. }) => done[i] = u64::MAX,
            (None, EventKind::FetchStart { .. }) => {
                let pending = |d: &mut Vec<u64>| {
                    self.kills
                        .iter()
                        .zip(d.iter())
                        .any(|(k, &n)| n < k.after_jobs)
                };
                let timeout = Duration::from_secs(10);
                done = self
                    .progressed
                    .wait_timeout_while(done, timeout, pending)
                    .unwrap()
                    .0;
            }
            _ => {}
        }
        drop(done);
        self.progressed.notify_all();
        self.inner.emit(cluster, slave, kind);
    }
}
