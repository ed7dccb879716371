//! Distributed-runtime integration: runs over localhost TCP must reproduce
//! the in-process runtime's result *byte for byte*; silent workers must be
//! detected by heartbeat and their work recovered; bad handshakes must be
//! rejected with a reason; a chunk whose bytes disagree with its index
//! entry must fail the run with a typed error in every substrate.

use cb_apps::gen::WordsSpec;
use cb_apps::scenario::{build_hybrid, HybridEnv, HybridOpts};
use cb_apps::wordcount::WordCountApp;
use cb_net::wire::{Message, PROTOCOL_VERSION};
use cb_net::{
    connect_with_backoff, fingerprint, run_worker, serve_head, split_tcp, LinkRx, LinkTx,
    NetConfig, RobjCodec, WorkerSpec,
};
use cb_storage::layout::{ChunkId, ChunkMeta};
use cloudburst_core::api::{DecodeError, GRApp};
use cloudburst_core::combine::KeyedSum;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::runtime::{run, RunOutcome, RuntimeError};
use cloudburst_core::{ClusterSpec, Resolution};
use proptest::prelude::*;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const APP: &str = "wordcount";

fn env_for(spec: &WordsSpec, frac_local: f64, local_cores: usize, cloud_cores: usize) -> HybridEnv {
    build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local,
            local_cores,
            cloud_cores,
            throttle: None,
        },
    )
    .expect("build env")
}

fn single_process_bytes(env: &HybridEnv, cfg: &RuntimeConfig) -> Vec<u8> {
    run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        cfg,
    )
    .expect("single-process run")
    .result
    .encode_robj()
}

fn worker_spec(ci: usize, cluster: &ClusterSpec, fp: u64) -> WorkerSpec {
    WorkerSpec {
        cluster: ci as u32,
        name: cluster.name.clone(),
        app_tag: APP.into(),
        fingerprint: fp,
    }
}

/// One pass over real localhost TCP: `serve_head` plus one `run_worker`
/// thread per cluster.
fn run_over_tcp(
    env: &HybridEnv,
    cfg: &RuntimeConfig,
) -> Result<RunOutcome<KeyedSum>, RuntimeError> {
    let net = NetConfig::default();
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
    std::thread::scope(|scope| {
        for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
            let net = &net;
            scope.spawn(move || {
                let wspec = worker_spec(ci, cluster, fp);
                run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    addr,
                )
                .expect("worker run");
            });
        }
        let n = env.deployment.clusters.len();
        serve_head::<KeyedSum>(&listener, n, layout, placement, cfg, &net, fp, APP)
    })
}

/// A scripted head's end of one worker's connection: the next dialer
/// accepted on `listener`.
fn accept_one(listener: &TcpListener) -> (LinkTx, LinkRx) {
    let (stream, _) = listener.accept().unwrap();
    split_tcp(stream, &NetConfig::default()).unwrap()
}

/// Three OS-thread "processes" over real localhost TCP produce the same
/// final reduction-object bytes as the in-process loopback runtime.
#[test]
fn tcp_three_node_matches_single_process() {
    let spec = WordsSpec {
        vocabulary: 300,
        n_files: 4,
        words_per_file: 4_000,
        words_per_chunk: 500,
        seed: 7,
    };
    let env = env_for(&spec, 0.5, 2, 2);
    let cfg = RuntimeConfig::default();
    let expected = single_process_bytes(&env, &cfg);

    let out = run_over_tcp(&env, &cfg).expect("head run");

    assert_eq!(out.result.encode_robj(), expected, "robj bytes must match");
    assert_eq!(out.report.net.peers_joined, 2);
    assert_eq!(out.report.net.peers_lost, 0);
    assert!(out.report.net.frames_recv > 0 && out.report.net.frames_sent > 0);
    assert_eq!(out.report.clusters.len(), 2);
    let jobs: u64 = out.report.clusters.iter().map(|c| c.jobs_processed).sum();
    assert_eq!(
        jobs as usize,
        env.layout.n_jobs(),
        "every job ran exactly once"
    );
}

/// Once the last worker ships, nothing waits out a poll: the head merges
/// and returns without joining readers on a timer, and each worker says
/// goodbye right after its `ShipAck` and returns. Timed as the minimum of
/// three runs, so one descheduled thread cannot fail it.
#[test]
fn a_shipped_run_ends_without_waiting_out_a_poll() {
    let spec = WordsSpec {
        vocabulary: 300,
        n_files: 4,
        words_per_file: 4_000,
        words_per_chunk: 500,
        seed: 7,
    };
    let env = env_for(&spec, 0.5, 2, 2);
    let cfg = RuntimeConfig::default();
    let net = NetConfig::default();
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let (mut reduction_s, mut exit) = (f64::INFINITY, Duration::MAX);
    for _ in 0..3 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (out, served) = std::thread::scope(|scope| {
            let workers: Vec<_> = env
                .deployment
                .clusters
                .iter()
                .enumerate()
                .map(|(ci, cluster)| {
                    let (net, cfg) = (&net, &cfg);
                    let (layout, placement) = (&env.layout, &env.placement);
                    let fabric = &env.deployment.fabric;
                    scope.spawn(move || {
                        let wspec = WorkerSpec {
                            cluster: ci as u32,
                            name: cluster.name.clone(),
                            app_tag: APP.into(),
                            fingerprint: fp,
                        };
                        run_worker(
                            &WordCountApp,
                            &(),
                            layout,
                            placement,
                            fabric,
                            cluster,
                            &wspec,
                            cfg,
                            net,
                            addr,
                        )
                        .expect("worker run");
                    })
                })
                .collect();
            let out = serve_head::<KeyedSum>(
                &listener,
                2,
                &env.layout,
                &env.placement,
                &cfg,
                &net,
                fp,
                APP,
            )
            .expect("head run");
            let served = Instant::now();
            for worker in workers {
                worker.join().unwrap();
            }
            (out, served.elapsed())
        });
        assert_eq!(out.report.net.peers_lost, 0);
        reduction_s = reduction_s.min(out.report.global_reduction_s);
        exit = exit.min(served);
    }
    assert!(
        reduction_s < 0.040,
        "global reduction took {:.1} ms at best",
        reduction_s * 1e3
    );
    assert!(
        exit < Duration::from_millis(40),
        "workers exited {exit:?} after the head returned, at best"
    );
}

/// A grant that echoes an older request's sequence number is stale: the
/// worker reads past it to the grant for its current request and runs
/// exactly that grant's jobs.
#[test]
fn stale_grant_is_skipped_not_consumed() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 17,
    };
    let env = env_for(&spec, 1.0, 1, 0);
    let cfg = RuntimeConfig::default();
    let net = NetConfig::default();
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let grant = |seq: u64, jobs: Vec<u32>, exhausted: bool| Message::JobGrant {
        seq,
        jobs,
        stolen: false,
        exhausted,
    };

    let (resolved, outcome) = std::thread::scope(|scope| {
        // A head that answers request 1 with nothing yet, request 2 with a
        // stale seq-1 grant before the real one, and every later request
        // with "exhausted".
        let head = scope.spawn(move || {
            let (mut tx, mut rx) = accept_one(&listener);
            let (hello, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("hello");
            assert!(matches!(hello, Message::Hello { .. }));
            tx.send(&Message::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_ms: 500,
                fingerprint: fp,
            })
            .unwrap();
            let mut resolved = Vec::new();
            loop {
                let (msg, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("a frame");
                match msg {
                    Message::JobRequest { seq: 1 } => tx.send(&grant(1, vec![], false)),
                    Message::JobRequest { seq: 2 } => tx
                        .send(&grant(1, vec![0, 1], false))
                        .and_then(|_| tx.send(&grant(2, vec![2, 3], false))),
                    Message::JobRequest { seq } => tx.send(&grant(seq, vec![], true)),
                    Message::Resolve(what) => {
                        resolved.push(what);
                        continue;
                    }
                    Message::RobjShip { .. } => tx.send(&Message::ShipAck),
                    Message::Heartbeat { .. } => continue,
                    Message::Goodbye => return resolved,
                    other => panic!("unexpected frame {other:?}"),
                }
                .unwrap();
            }
        });
        let wspec = WorkerSpec {
            cluster: 0,
            name: "paired".into(),
            app_tag: APP.into(),
            fingerprint: fp,
        };
        let outcome = run_worker(
            &WordCountApp,
            &(),
            &env.layout,
            &env.placement,
            &env.deployment.fabric,
            &env.deployment.clusters[0],
            &wspec,
            &cfg,
            &net,
            addr,
        )
        .expect("worker run");
        (head.join().unwrap(), outcome)
    });

    let done = [2, 3].map(|c| Resolution::Completed(ChunkId(c)));
    assert_eq!(resolved, done, "only the seq-2 grant's jobs ran");
    let slaves = &outcome.outcome.account.slaves;
    assert_eq!(slaves.iter().map(|s| s.jobs).sum::<u64>(), 2);
    assert_eq!(slaves.iter().map(|s| s.units).sum::<u64>(), 800);
}

/// The head holds a `JobRequest` it cannot answer yet. Peer B, holding no
/// lease while peer A holds every job, gets no answer until A fails a job
/// back, and then gets that job. Its next request, with nothing changing,
/// is answered empty, not exhausted, at the hold bound (half `io_timeout`).
#[test]
fn a_held_request_is_answered_by_a_fail_back_or_at_the_hold_bound() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 1,
        words_per_file: 800,
        words_per_chunk: 200,
        seed: 23,
    };
    let env = env_for(&spec, 1.0, 1, 1);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        io_timeout: Duration::from_millis(400),
        ..NetConfig::default()
    };
    let hold = net.io_timeout / 2;
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (layout, placement) = (&env.layout, &env.placement);
    std::thread::scope(|scope| {
        let (cfg, net) = (&cfg, &net);
        let head = scope.spawn(move || {
            serve_head::<KeyedSum>(&listener, 2, layout, placement, cfg, net, fp, APP)
        });
        let mut ends = Vec::new();
        for (ci, name) in ["a", "b"].into_iter().enumerate() {
            let stream = connect_with_backoff(addr, net, ci as u64).unwrap();
            let (mut tx, mut rx) = split_tcp(stream, net).unwrap();
            let hello = Message::Hello {
                version: PROTOCOL_VERSION,
                cluster: ci as u32,
                location: ci as u16,
                cores: 1,
                name: name.into(),
                app: APP.into(),
                fingerprint: fp,
            };
            tx.send(&hello).unwrap();
            let (welcome, _) = rx.recv(Duration::from_secs(5)).unwrap().unwrap();
            assert!(
                matches!(welcome, Message::Welcome { .. }),
                "got {welcome:?}"
            );
            ends.push((tx, rx));
        }
        let [a, b] = &mut ends[..] else {
            unreachable!()
        };
        let answer = |rx: &mut LinkRx, within: Duration| match rx.recv(within).unwrap() {
            Some((
                Message::JobGrant {
                    seq,
                    jobs,
                    exhausted,
                    ..
                },
                _,
            )) => Some((seq, jobs, exhausted)),
            Some((other, _)) => panic!("expected JobGrant, got {other:?}"),
            None => None,
        };
        a.0.send(&Message::JobRequest { seq: 1 }).unwrap();
        let (_, held_by_a, _) = answer(&mut a.1, Duration::from_secs(5)).expect("A's grant");
        assert_eq!(held_by_a.len(), env.layout.n_jobs(), "A holds every job");

        b.0.send(&Message::JobRequest { seq: 1 }).unwrap();
        assert_eq!(answer(&mut b.1, hold / 4), None, "B's request is held");
        let failed = ChunkId(held_by_a[0]);
        a.0.send(&Message::Resolve(Resolution::Failed(failed)))
            .unwrap();
        let got = answer(&mut b.1, Duration::from_secs(5)).expect("B's held request answered");
        assert_eq!(
            got,
            (1, vec![failed.0], false),
            "B gets the failed-back job"
        );

        b.0.send(&Message::Resolve(Resolution::Completed(failed)))
            .unwrap();
        let t = Instant::now();
        b.0.send(&Message::JobRequest { seq: 2 }).unwrap();
        let got = answer(&mut b.1, net.io_timeout).expect("answered within io_timeout");
        let waited = t.elapsed();
        assert_eq!(got, (2, vec![], false), "answered empty, not exhausted");
        assert!(
            waited >= hold - Duration::from_millis(20),
            "answered after {waited:?}, before the {hold:?} hold bound"
        );
        // Hanging up loses both peers and ends the run.
        ends.clear();
        assert!(
            head.join().unwrap().is_err(),
            "forfeited work fails the run"
        );
    });
}

/// One listener serves three consecutive runs (as a benchmark that reuses
/// its listener does). Each run admits every worker, joining blocks in
/// `accept` rather than on a poll tick, and no run leaves a thread or a
/// connection behind on the listener.
#[test]
fn one_listener_serves_consecutive_runs_without_a_poll_tick() {
    let spec = WordsSpec {
        vocabulary: 100,
        n_files: 2,
        words_per_file: 1_000,
        words_per_chunk: 500,
        seed: 19,
    };
    let env = env_for(&spec, 0.5, 1, 1);
    let net = NetConfig::default();
    let expected = single_process_bytes(&env, &RuntimeConfig::default());
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
    let mut join = Duration::MAX;
    for _ in 0..3 {
        let rec = cloudburst_core::obs::RecordingSink::new();
        let cfg = RuntimeConfig {
            sink: cloudburst_core::obs::SinkHandle::new(std::sync::Arc::clone(&rec) as _),
            ..RuntimeConfig::default()
        };
        let out = std::thread::scope(|scope| {
            for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
                let (net, cfg) = (&net, &cfg);
                scope.spawn(move || {
                    let wspec = worker_spec(ci, cluster, fp);
                    run_worker(
                        &WordCountApp,
                        &(),
                        layout,
                        placement,
                        fabric,
                        cluster,
                        &wspec,
                        cfg,
                        net,
                        addr,
                    )
                    .expect("worker run");
                });
            }
            serve_head::<KeyedSum>(&listener, 2, layout, placement, &cfg, &net, fp, APP)
        })
        .expect("head run");
        assert_eq!(out.report.net.peers_joined, 2);
        assert_eq!(out.result.encode_robj(), expected);
        let joined = rec.snapshot().into_iter().filter_map(|e| match e.kind {
            cloudburst_core::obs::EventKind::PeerJoined { .. } => Some(e.t_ns),
            _ => None,
        });
        join = join.min(Duration::from_nanos(joined.max().unwrap()));
    }
    assert!(
        join < Duration::from_millis(5),
        "joining took {join:?} at best"
    );
    listener.set_nonblocking(true).unwrap();
    let left = listener.accept().map(|(_, from)| from);
    assert!(
        matches!(&left, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "a connection was left on the listener: {left:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The in-process runtime is the loopback special case: running the
    /// full wire protocol over TCP on the loopback interface reproduces
    /// `runtime::run` byte for byte across random workload shapes, splits,
    /// and core counts.
    fn loopback_wire_matches_in_process_runtime(
        vocab in 50u64..300,
        n_files in 2usize..5,
        chunks_per_file in 2u64..5,
        frac_sel in 0u8..3,
        local_cores in 1usize..3,
        cloud_cores in 1usize..3,
        seed in any::<u64>(),
    ) {
        let words_per_chunk = 400usize;
        let spec = WordsSpec {
            vocabulary: vocab,
            n_files,
            words_per_file: words_per_chunk * chunks_per_file as usize,
            words_per_chunk,
            seed,
        };
        let frac_local = [0.0, 0.5, 1.0][frac_sel as usize];
        let env = env_for(&spec, frac_local, local_cores, cloud_cores);
        let cfg = RuntimeConfig::default();
        let expected = single_process_bytes(&env, &cfg);

        let out = run_over_tcp(&env, &cfg).expect("head over tcp");
        prop_assert_eq!(out.result.encode_robj(), expected);
    }
}

/// The chunk [`env_with_bad_chunk`] corrupts.
const BAD: ChunkId = ChunkId(5);

/// A words corpus whose chunk [`BAD`] is indexed with one unit more than
/// its bytes hold, as a stale index or a wrong unit size would leave it.
fn env_with_bad_chunk() -> HybridEnv {
    let spec = WordsSpec {
        vocabulary: 200,
        n_files: 4,
        words_per_file: 2_000,
        words_per_chunk: 500,
        seed: 5,
    };
    let mut env = env_for(&spec, 0.5, 2, 2);
    env.layout.chunks[BAD.0 as usize].units += 1;
    env
}

/// Slaves never retire on failures, so the bad chunk alone spends its
/// failure budget and every good chunk completes.
fn bad_chunk_cfg() -> RuntimeConfig {
    RuntimeConfig {
        slave_failure_threshold: 1_000,
        ..RuntimeConfig::default()
    }
}

/// The run failed on [`BAD`] alone, and the error names it and its file.
fn assert_failed_on_bad_chunk(env: &HybridEnv, result: Result<RunOutcome<KeyedSum>, RuntimeError>) {
    let Err(RuntimeError::JobsFailed {
        dead,
        unfinished,
        last_error,
    }) = result
    else {
        panic!("expected JobsFailed, got {result:?}");
    };
    assert_eq!(dead, vec![BAD]);
    assert_eq!(unfinished, 0, "every good chunk completes");
    let file = &env.layout.file(env.layout.chunk(BAD).file).name;
    let error = last_error.expect("the decode error is reported");
    assert!(
        error.contains(&format!("chunk {} of {file}: unit count mismatch", BAD.0)),
        "{error}"
    );
}

#[test]
fn bad_chunk_fails_the_run_in_process() {
    let env = env_with_bad_chunk();
    let cfg = bad_chunk_cfg();
    let result = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    );
    assert_failed_on_bad_chunk(&env, result);
}

#[test]
fn bad_chunk_fails_the_run_over_tcp() {
    let env = env_with_bad_chunk();
    assert_failed_on_bad_chunk(&env, run_over_tcp(&env, &bad_chunk_cfg()));
}

/// `WordCountApp` with a bug: folding chunk [`BAD`] panics, on every
/// attempt or on the first one only.
struct PanicsOnBad {
    once: bool,
    fired: AtomicBool,
}

impl GRApp for PanicsOnBad {
    type Unit = u64;
    type RObj = KeyedSum;
    type Params = ();

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<u64> {
        WordCountApp.decode_chunk(meta, bytes)
    }
    fn init(&self, params: &()) -> KeyedSum {
        WordCountApp.init(params)
    }
    fn local_reduce(&self, params: &(), robj: &mut KeyedSum, unit: &u64) {
        WordCountApp.local_reduce(params, robj, unit)
    }
    fn fold_chunk(
        &self,
        params: &(),
        robj: &mut KeyedSum,
        meta: &ChunkMeta,
        bytes: &[u8],
    ) -> Result<u64, DecodeError> {
        if meta.id == BAD && !(self.once && self.fired.swap(true, Ordering::SeqCst)) {
            panic!("bug folding chunk {}", BAD.0);
        }
        WordCountApp.fold_chunk(params, robj, meta, bytes)
    }
}

/// The wordcount env at 2+2 over TCP on the loopback interface with a
/// `PanicsOnBad` app, on a watchdog thread so that a hang fails the test.
/// A worker whose app panics dies with its thread, and its socket closes
/// with it. Returns the head's result as robj bytes beside the
/// single-process bytes.
fn run_panicking_over_loopback(once: bool) -> (Result<Vec<u8>, RuntimeError>, Vec<u8>) {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let spec = WordsSpec {
            vocabulary: 200,
            n_files: 4,
            words_per_file: 2_000,
            words_per_chunk: 500,
            seed: 5,
        };
        let env = env_for(&spec, 0.5, 2, 2);
        let (cfg, net) = (RuntimeConfig::default(), NetConfig::default());
        let app = PanicsOnBad {
            once,
            fired: AtomicBool::new(false),
        };
        let fp = fingerprint(&env.layout, &env.placement, APP);
        let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let out = std::thread::scope(|scope| {
            for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
                let (app, cfg, net) = (&app, &cfg, &net);
                scope.spawn(move || {
                    let wspec = worker_spec(ci, cluster, fp);
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        run_worker(
                            app,
                            &(),
                            layout,
                            placement,
                            fabric,
                            cluster,
                            &wspec,
                            cfg,
                            net,
                            addr,
                        )
                    }));
                });
            }
            let n = env.deployment.clusters.len();
            serve_head::<KeyedSum>(&listener, n, layout, placement, &cfg, &net, fp, APP)
        });
        let out = out.map(|o| o.result.encode_robj());
        let _ = done.send((out, single_process_bytes(&env, &cfg)));
    });
    result
        .recv_timeout(Duration::from_secs(60))
        .expect("the run ended within 60 s")
}

/// A worker whose app code panics is a lost worker: when every attempt
/// panics the run fails, and when one does the other worker redoes the
/// lost worker's work and the result is exact.
#[test]
fn a_panicking_worker_is_a_lost_worker_over_loopback() {
    match run_panicking_over_loopback(false).0 {
        Err(RuntimeError::JobsFailed { .. }) => {}
        other => panic!("expected JobsFailed, got {other:?}"),
    }
    let (got, want) = run_panicking_over_loopback(true);
    assert_eq!(got.expect("one panic is survivable"), want);
}

/// A worker that goes silent (socket open, no heartbeats, never ships) is
/// declared lost; the completions it reported are forfeited and re-run by
/// the surviving worker, and the final result is still exactly right.
#[test]
fn silent_worker_is_lost_and_its_work_recovered() {
    let spec = WordsSpec {
        vocabulary: 200,
        n_files: 4,
        words_per_file: 6_000,
        words_per_chunk: 1_000,
        seed: 13,
    };
    let env = env_for(&spec, 0.5, 2, 1);
    // Stretch real processing (~50 ms/job, 24 jobs on 2 cores) so the head
    // declares the ghost lost (grace = 40 ms × 2) while the survivor is
    // still busy and can absorb the forfeited jobs.
    let cfg = RuntimeConfig {
        synthetic_compute_ns_per_unit: 50_000,
        ..RuntimeConfig::default()
    };
    let expected = single_process_bytes(&env, &RuntimeConfig::default());

    let net = NetConfig {
        heartbeat: Duration::from_millis(40),
        heartbeat_misses: 2,
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|scope| {
        // The survivor: a real worker on the local cluster.
        {
            let (net, cfg) = (&net, &cfg);
            let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
            let cluster = &env.deployment.clusters[0];
            scope.spawn(move || {
                let wspec = WorkerSpec {
                    cluster: 0,
                    name: cluster.name.clone(),
                    app_tag: APP.into(),
                    fingerprint: fp,
                };
                run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    addr,
                )
                .expect("surviving worker");
            });
        }
        // The ghost: handshakes as cluster 1, grabs a batch, *claims* to
        // complete it, then goes silent with the socket held open — the
        // worst case, detectable only by heartbeat.
        {
            let net = &net;
            let done = &done;
            scope.spawn(move || {
                let stream = connect_with_backoff(addr, net, 99).unwrap();
                let (mut tx, mut rx) = split_tcp(stream, net).unwrap();
                tx.send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    cluster: 1,
                    location: 1,
                    cores: 1,
                    name: "ghost".into(),
                    app: APP.into(),
                    fingerprint: fp,
                })
                .unwrap();
                let (welcome, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("welcome");
                assert!(matches!(welcome, Message::Welcome { .. }));
                tx.send(&Message::JobRequest { seq: 1 }).unwrap();
                let (grant, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("grant");
                let Message::JobGrant { jobs, .. } = grant else {
                    panic!("expected JobGrant, got {grant:?}");
                };
                assert!(!jobs.is_empty(), "ghost should get a real batch");
                for chunk in &jobs {
                    tx.send(&Message::Resolve(Resolution::Completed(ChunkId(*chunk))))
                        .unwrap();
                }
                // Silence. Hold the socket open until the run is over.
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        let out = serve_head::<KeyedSum>(
            &listener,
            2,
            &env.layout,
            &env.placement,
            &cfg,
            &net,
            fp,
            APP,
        )
        .expect("head survives peer loss");
        done.store(true, Ordering::Relaxed);
        out
    });

    assert_eq!(
        out.result.encode_robj(),
        expected,
        "result exact despite losing a worker that had completed jobs"
    );
    assert_eq!(out.report.net.peers_joined, 2);
    assert_eq!(out.report.net.peers_lost, 1);
    assert!(
        out.report.recovery.jobs_reenqueued > 0,
        "the ghost's forfeited jobs were re-enqueued"
    );
    assert!(
        out.report.clusters[1].name.contains("lost"),
        "lost peer marked in the report"
    );
}

/// Forfeiture is final: a worker that stalls past the grace window, is
/// declared lost, and *then* wakes up and delivers late `Resolve`s and its
/// `RobjShip` must have those frames dropped — banking them would count
/// the forfeited (and re-run) work twice, and resolving leases that were
/// re-enqueued (or re-granted) would corrupt or panic the pool.
#[test]
fn lost_peer_late_frames_are_dropped() {
    let spec = WordsSpec {
        vocabulary: 200,
        n_files: 4,
        words_per_file: 6_000,
        words_per_chunk: 1_000,
        seed: 29,
    };
    let env = env_for(&spec, 0.5, 2, 1);
    // ~100 ms/job × 24 jobs on 2 cores keeps the head busy well past the
    // ghost's wake-up, so its late frames arrive mid-run.
    let cfg = RuntimeConfig {
        synthetic_compute_ns_per_unit: 100_000,
        ..RuntimeConfig::default()
    };
    let expected = single_process_bytes(&env, &RuntimeConfig::default());

    let net = NetConfig {
        heartbeat: Duration::from_millis(40),
        heartbeat_misses: 2,
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|scope| {
        {
            let (net, cfg) = (&net, &cfg);
            let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
            let cluster = &env.deployment.clusters[0];
            scope.spawn(move || {
                let wspec = WorkerSpec {
                    cluster: 0,
                    name: cluster.name.clone(),
                    app_tag: APP.into(),
                    fingerprint: fp,
                };
                run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    addr,
                )
                .expect("surviving worker");
            });
        }
        // The zombie: handshakes, takes a batch, claims completions, goes
        // silent past the grace window (40 ms × 2), then *wakes up* and
        // replays its resolutions and ships a bogus robj.
        {
            let net = &net;
            let done = &done;
            scope.spawn(move || {
                let stream = connect_with_backoff(addr, net, 31).unwrap();
                let (mut tx, mut rx) = split_tcp(stream, net).unwrap();
                tx.send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    cluster: 1,
                    location: 1,
                    cores: 1,
                    name: "zombie".into(),
                    app: APP.into(),
                    fingerprint: fp,
                })
                .unwrap();
                let (welcome, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("welcome");
                assert!(matches!(welcome, Message::Welcome { .. }));
                tx.send(&Message::JobRequest { seq: 1 }).unwrap();
                let (grant, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("grant");
                let Message::JobGrant { jobs, .. } = grant else {
                    panic!("expected JobGrant, got {grant:?}");
                };
                assert!(!jobs.is_empty(), "zombie should get a real batch");
                for chunk in &jobs {
                    tx.send(&Message::Resolve(Resolution::Completed(ChunkId(*chunk))))
                        .unwrap();
                }
                // Silence well past the grace window: declared lost.
                std::thread::sleep(Duration::from_millis(500));
                // Wake up and replay everything — all of it must be dropped.
                for chunk in &jobs {
                    let _ = tx.send(&Message::Resolve(Resolution::Completed(ChunkId(*chunk))));
                }
                let _ = tx.send(&Message::RobjShip {
                    robj: vec![0xDE, 0xAD, 0xBE, 0xEF],
                    report: cloudburst_core::ClusterAccount::default(),
                });
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        let out = serve_head::<KeyedSum>(
            &listener,
            2,
            &env.layout,
            &env.placement,
            &cfg,
            &net,
            fp,
            APP,
        )
        .expect("head survives a lost peer's late frames");
        done.store(true, Ordering::Relaxed);
        out
    });

    assert_eq!(
        out.result.encode_robj(),
        expected,
        "late frames from the lost peer must not perturb the result"
    );
    assert_eq!(out.report.net.peers_lost, 1);
    assert!(
        out.report.clusters[1].name.contains("lost"),
        "the zombie's late robj must not be banked"
    );
}

/// A missed `JobGrant` poisons the link: the worker stops heartbeating and
/// refuses to ship, so the head declares it lost and forfeits its leases —
/// instead of the worker consuming a stale grant (desynchronizing the
/// pairing) or shipping + saying goodbye with leases still assigned, which
/// would strand them forever and fail the run.
#[test]
fn missed_grant_poisons_link_and_withholds_robj() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 11,
    };
    let env = env_for(&spec, 1.0, 1, 1);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        io_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        // A head that welcomes the worker and then never answers its job
        // requests — the worst kind of stall, invisible to the socket.
        let deaf_head = scope.spawn(move || {
            let (mut tx, mut rx) = accept_one(&listener);
            let (hello, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("hello");
            assert!(matches!(hello, Message::Hello { .. }));
            tx.send(&Message::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_ms: 50,
                fingerprint: fp,
            })
            .unwrap();
            let mut saw_request = false;
            loop {
                match rx.recv(Duration::from_secs(5)) {
                    Ok(Some((Message::JobRequest { .. }, _))) => saw_request = true,
                    Ok(Some((Message::Heartbeat { .. }, _))) => {}
                    Ok(Some((Message::RobjShip { .. }, _))) => {
                        panic!("worker shipped over a poisoned link")
                    }
                    Ok(Some((Message::Goodbye, _))) => {
                        panic!("worker said goodbye over a poisoned link")
                    }
                    Ok(Some((other, _))) => panic!("unexpected frame {other:?}"),
                    Ok(None) => panic!("worker neither died nor spoke within 5 s"),
                    // The worker gave up and dropped the link — exactly
                    // what the head's loss path needs to reclaim leases.
                    Err(_) => break,
                }
            }
            assert!(saw_request, "worker should have requested jobs");
        });

        let wspec = WorkerSpec {
            cluster: 0,
            name: "starved".into(),
            app_tag: APP.into(),
            fingerprint: fp,
        };
        let err = run_worker(
            &WordCountApp,
            &(),
            &env.layout,
            &env.placement,
            &env.deployment.fabric,
            &env.deployment.clusters[0],
            &wspec,
            &cfg,
            &net,
            addr,
        )
        .expect_err("a worker whose grant never arrives must fail, not ship");
        assert!(
            err.to_string().contains("poisoned"),
            "error should name the poisoned link: {err}"
        );
        deaf_head.join().unwrap();
    });
}

/// A dialer that connects but never sends `Hello` (a port-scanner, a hung
/// client) must not stall legitimate workers: Hellos are read on
/// short-lived threads, so the real worker joins immediately while the
/// silent socket times out in the background.
#[test]
fn silent_dialer_does_not_block_real_worker_join() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 5,
    };
    let env = env_for(&spec, 1.0, 1, 0);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        io_timeout: Duration::from_secs(5),
        accept_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Connect (the backlog accepts it before the head does) and say nothing.
    let _silent = std::net::TcpStream::connect(addr).unwrap();

    std::thread::scope(|scope| {
        let net_ref = &net;
        scope.spawn(move || {
            let stream = connect_with_backoff(addr, net_ref, 3).unwrap();
            let (mut tx, mut rx) = split_tcp(stream, net_ref).unwrap();
            tx.send(&Message::Hello {
                version: PROTOCOL_VERSION,
                cluster: 0,
                location: 0,
                cores: 1,
                name: "prompt".into(),
                app: APP.into(),
                fingerprint: fp,
            })
            .unwrap();
            let (reply, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("reply");
            assert!(matches!(reply, Message::Welcome { .. }), "got {reply:?}");
        });

        let t0 = std::time::Instant::now();
        let peers = cb_net::head::accept_workers(&listener, 1, &cfg, &net, fp, APP)
            .expect("real worker admitted");
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].spec.name, "prompt");
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "silent dialer stalled the join for {:?} (io_timeout is 5 s)",
            t0.elapsed()
        );
    });
}

/// Handshake rejection: wrong protocol version and wrong dataset
/// fingerprint both get an explanatory `Reject`, and the head then accepts
/// a well-formed worker on the same slot.
#[test]
fn bad_handshakes_rejected_with_reason() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 3,
    };
    let env = env_for(&spec, 1.0, 1, 0);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        accept_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let dial = |hello: Message| -> Message {
        let stream = connect_with_backoff(addr, &net, 1).unwrap();
        let (mut tx, mut rx) = split_tcp(stream, &net).unwrap();
        tx.send(&hello).unwrap();
        rx.recv(Duration::from_secs(5)).unwrap().expect("reply").0
    };
    let hello = |version: u16, fingerprint: u64| Message::Hello {
        version,
        cluster: 0,
        location: 0,
        cores: 1,
        name: "w".into(),
        app: APP.into(),
        fingerprint,
    };

    std::thread::scope(|scope| {
        let (net, cfg) = (&net, &cfg);
        let peers = scope.spawn(move || {
            cb_net::head::accept_workers(&listener, 1, cfg, net, fp, APP).expect("accept")
        });

        match dial(hello(PROTOCOL_VERSION + 1, fp)) {
            Message::Reject { reason } => assert!(
                reason.contains("version"),
                "reason should name the version: {reason}"
            ),
            other => panic!("expected Reject, got {other:?}"),
        }
        match dial(hello(PROTOCOL_VERSION, fp ^ 1)) {
            Message::Reject { reason } => assert!(
                reason.contains("fingerprint"),
                "reason should name the fingerprint: {reason}"
            ),
            other => panic!("expected Reject, got {other:?}"),
        }
        match dial(hello(PROTOCOL_VERSION, fp)) {
            Message::Welcome { heartbeat_ms, .. } => {
                assert_eq!(heartbeat_ms, net.heartbeat.as_millis() as u64)
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
        let peers = peers.join().unwrap();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].spec.name, "w");
    });
}
