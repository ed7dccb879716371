//! Observability invariants, end to end: the event stream emitted by a
//! live run (and by the simulator) must be self-consistent — every fetch
//! paired with a terminal — and must *reconcile* with the `RunReport`, i.e.
//! the report is a pure derived view of the events (DESIGN.md §7). A
//! property test pins down that installing a sink never changes the
//! computation itself.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use cb_apps::gen::{PointMode, PointsSpec, WordsSpec};
use cb_apps::scenario::{build_hybrid, HybridOpts};
use cb_apps::selection::{BoxQuery, SelectionApp};
use cb_apps::wordcount::WordCountApp;
use cb_storage::layout::LocationId;
use cloudburst_core::config::{RuntimeConfig, SlaveKill};
use cloudburst_core::obs::{self, EventKind, EventRecord, RecordingSink, SinkHandle, TraceSummary};
use cloudburst_core::runtime::run;
use cloudburst_core::RunReport;
use common::KillGate;
use std::sync::Arc;

fn points_spec(seed: u64) -> PointsSpec {
    PointsSpec {
        n_files: 6,
        points_per_file: 2_000,
        points_per_chunk: 400,
        dim: 3,
        seed,
        mode: PointMode::Uniform,
    }
}

fn words_spec() -> WordsSpec {
    WordsSpec {
        vocabulary: 500,
        n_files: 4,
        words_per_file: 6_000,
        words_per_chunk: 1_500,
        seed: 42,
    }
}

/// Observed runtime config: a fresh recording sink plus the config that
/// carries it.
fn observed_cfg(base: RuntimeConfig) -> (Arc<RecordingSink>, RuntimeConfig) {
    let rec = RecordingSink::new();
    let cfg = RuntimeConfig {
        sink: SinkHandle::new(Arc::clone(&rec) as _),
        ..base
    };
    (rec, cfg)
}

/// A clean multi-cluster run with prefetching: events are well-formed and
/// every report aggregate is re-derivable from them, exactly.
#[test]
fn live_events_reconcile_with_report() {
    let spec = points_spec(7);
    let env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.33,
            local_cores: 2,
            cloud_cores: 3,
            throttle: None,
        },
    )
    .unwrap();
    let (rec, cfg) = observed_cfg(RuntimeConfig {
        prefetch_depth: 2,
        ..Default::default()
    });
    let app = SelectionApp::new(spec.dim);
    let query = BoxQuery::new(vec![0.0; spec.dim], vec![0.4; spec.dim]);
    let out = run(
        &app,
        &query,
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    )
    .unwrap();

    let events = rec.take();
    assert!(!events.is_empty());
    obs::check_invariants(&events).unwrap();
    let summary = TraceSummary::from_events(&events);
    summary.reconcile(&out.report, 1e-6).unwrap();
    assert_eq!(summary.total_jobs(), env.layout.n_jobs() as u64);
    assert_eq!(summary.robj_merges, out.report.clusters.len() as u64);
}

/// `reconcile` is a check that can fail: perturb one field of a reconciled
/// report at a time and it names that field.
#[test]
fn reconcile_names_the_field_that_disagrees() {
    let spec = words_spec();
    let env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.5,
            local_cores: 2,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .unwrap();
    let (rec, cfg) = observed_cfg(RuntimeConfig::default());
    let out = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    )
    .unwrap();
    let summary = TraceSummary::from_events(&rec.take());
    summary.reconcile(&out.report, 1e-6).unwrap();

    let perturbed = |perturb: &dyn Fn(&mut RunReport)| {
        let mut report = out.report.clone();
        perturb(&mut report);
        report
    };
    for (field, report) in [
        (
            "processing_s",
            perturbed(&|r| r.clusters[0].processing_s += 1e-3),
        ),
        (
            "jobs_stolen",
            perturbed(&|r| r.clusters[1].jobs_stolen += 1),
        ),
        ("recovery.retries", perturbed(&|r| r.recovery.retries += 1)),
        ("net.frames_sent", perturbed(&|r| r.net.frames_sent += 1)),
    ] {
        let err = summary.reconcile(&report, 1e-6).unwrap_err();
        assert!(err.contains(field), "perturbed {field}, got: {err}");
    }
}

/// Faults + a kill schedule: retries, lease releases, and the kill are all
/// visible in the stream and still reconcile with the recovery stats.
#[test]
fn faulty_run_events_reconcile_with_recovery_stats() {
    use cb_storage::faults::{FaultMode, FlakyStore};

    let spec = points_spec(11);
    let mut env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.5,
            local_cores: 2,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .unwrap();
    let kill = SlaveKill {
        cluster: 1,
        slave: 0,
        after_jobs: 2,
    };
    let (rec, cfg) = observed_cfg(RuntimeConfig {
        prefetch_depth: 1,
        retrieval_retries: 3,
        retrieval_backoff: std::time::Duration::ZERO,
        kill_schedule: vec![kill],
        slave_failure_threshold: 1_000, // keep retirement out of the picture
        ..Default::default()
    });
    let cfg = KillGate::install(cfg);
    // Every GET fails twice per key before succeeding: absorbed by retries,
    // each attempt surfacing as a Retry event (plus the FlakyStore's own
    // FaultInjected when observed, as the CLI wires it).
    for site in [LocationId(0), LocationId(1)] {
        let sink = cfg.sink.clone();
        env.deployment.fabric.wrap_paths_to(site, |s| {
            let sink = sink.clone();
            Arc::new(
                FlakyStore::new(s, FaultMode::FirstNPerKey { n: 2 }, 13).with_observer(Arc::new(
                    move || sink.emit(None, None, EventKind::FaultInjected),
                )),
            )
        });
    }

    let app = SelectionApp::new(spec.dim);
    let query = BoxQuery::new(vec![0.0; spec.dim], vec![0.4; spec.dim]);
    let out = run(
        &app,
        &query,
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    )
    .unwrap();

    let events = rec.take();
    obs::check_invariants(&events).unwrap();
    let summary = TraceSummary::from_events(&events);
    summary.reconcile(&out.report, 1e-6).unwrap();
    assert!(summary.recovery.retries > 0, "faults must actually fire");
    assert_eq!(summary.faults_injected, summary.recovery.retries);
    assert_eq!(summary.recovery.slaves_killed, 1);
    assert_eq!(
        summary.recovery.jobs_reenqueued, out.report.recovery.jobs_reenqueued,
        "every re-enqueue is a LeaseReleased event"
    );
}

/// The JSONL exporter round-trips a real run's stream byte-exactly at the
/// record level, with the documented schema header up front.
#[test]
fn jsonl_round_trips_live_events() {
    let spec = words_spec();
    let env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.5,
            local_cores: 2,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .unwrap();
    let (rec, cfg) = observed_cfg(RuntimeConfig::default());
    let _ = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    )
    .unwrap();

    let events = rec.take();
    let text = obs::encode_jsonl(&events);
    let header = text.lines().next().unwrap();
    assert_eq!(
        header,
        format!(
            "{{\"schema\":\"{}\",\"v\":{}}}",
            obs::SCHEMA_NAME,
            obs::SCHEMA_VERSION
        )
    );
    let back = obs::decode_jsonl(&text).unwrap();
    assert_eq!(back, events);
}

/// Iterative runs: pass boundaries and cache traffic in the stream match
/// the per-pass reports summed together.
#[test]
fn iterative_cache_events_match_per_pass_reports() {
    use cloudburst_core::iterate::{run_iterative, Step};

    let spec = words_spec();
    let env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 1.0,
            local_cores: 2,
            cloud_cores: 0,
            throttle: None,
        },
    )
    .unwrap();
    let (rec, cfg) = observed_cfg(RuntimeConfig {
        cache_bytes: 64 << 20,
        ..Default::default()
    });
    let out = run_iterative(
        &WordCountApp,
        (),
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
        3,
        |_i, _robj, _p| Step::Continue(()),
    )
    .unwrap();
    assert_eq!(out.iterations, 3);

    let events = rec.take();
    obs::check_invariants(&events).unwrap();
    let summary = TraceSummary::from_events(&events);
    assert_eq!(summary.passes, 3, "one PassBoundary per pass");
    let hits: u64 = out.reports.iter().map(|r| r.cache_hits).sum();
    let misses: u64 = out.reports.iter().map(|r| r.cache_misses).sum();
    assert_eq!(summary.cache_hits, hits);
    assert_eq!(summary.cache_misses, misses);
    assert!(summary.cache_hits > 0, "passes 2..3 re-read from the cache");
    let jobs: u64 = out.reports.iter().map(|r| r.total_jobs()).sum();
    assert_eq!(summary.total_jobs(), jobs);
}

/// The simulator mirrors the taxonomy: its virtual-time stream passes the
/// same invariant checks and reconciles against its own report, including
/// under injected faults and kills.
#[test]
fn sim_events_reconcile_with_sim_report() {
    use cb_sim::calib::{self, App, NetConstants};

    let app = App::ALL
        .into_iter()
        .find(|a| a.name() == "knn")
        .expect("knn profile");
    let envs = calib::fig3_envs(app);
    let env = envs.iter().find(|e| e.name == "env-33/67").unwrap();
    let mut params = calib::build_params(app, env, &NetConstants::default(), 2011);
    params.prefetch_depth = 2;
    params.faults.fetch_failure_prob = 0.02;
    params.faults.kill_schedule = vec![SlaveKill {
        cluster: 1,
        slave: 3,
        after_jobs: 5,
    }];

    let (report, events) = cb_sim::simulate_observed(params).unwrap();
    assert!(!events.is_empty());
    obs::check_invariants(&events).unwrap();
    let summary = TraceSummary::from_events(&events);
    summary.reconcile(&report, 1e-6).unwrap();
    assert_eq!(summary.recovery.slaves_killed, 1);
    assert!(
        summary.recovery.fetch_failures > 0,
        "fault injection must fire"
    );

    // Virtual timestamps are monotone non-decreasing.
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
}

/// Event timestamps from the live runtime are monotone per emission order.
#[test]
fn live_timestamps_are_monotone() {
    let spec = words_spec();
    let env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.5,
            local_cores: 2,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .unwrap();
    let (rec, cfg) = observed_cfg(RuntimeConfig::default());
    let _ = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    )
    .unwrap();
    let events: Vec<EventRecord> = rec.take();
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Observation is passive: enabling the sink never changes the
        /// reduction result, whatever the placement skew, parallelism, or
        /// prefetch depth.
        #[test]
        fn sink_never_changes_the_result(
            frac_pct in 0u64..=100,
            cores in 1usize..3,
            prefetch in 0usize..3,
            seed in 1u64..200,
        ) {
            let frac_local = frac_pct as f64 / 100.0;
            let spec = points_spec(seed);
            let app = SelectionApp::new(spec.dim);
            let query = BoxQuery::new(vec![0.0; spec.dim], vec![0.3; spec.dim]);

            let mut results = Vec::new();
            for observed in [false, true] {
                let env = build_hybrid(
                    spec.layout(),
                    spec.fill(),
                    HybridOpts {
                        frac_local,
                        local_cores: cores,
                        cloud_cores: cores,
                        throttle: None,
                    },
                )
                .unwrap();
                let base = RuntimeConfig {
                    prefetch_depth: prefetch,
                    ..Default::default()
                };
                let (rec, cfg) = if observed {
                    let (rec, cfg) = observed_cfg(base);
                    (Some(rec), cfg)
                } else {
                    (None, base)
                };
                let out = run(
                    &app, &query, &env.layout, &env.placement, &env.deployment, &cfg,
                )
                .unwrap();
                if let Some(rec) = rec {
                    obs::check_invariants(&rec.take()).unwrap();
                }
                results.push(out.result.into_sorted());
            }
            prop_assert_eq!(&results[0], &results[1]);
        }
    }
}
