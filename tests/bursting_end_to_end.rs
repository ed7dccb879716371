//! End-to-end integration: the full stack (generators → stores → index →
//! head/master/slave runtime → global reduction) on realistic scenarios,
//! checked against the sequential oracle.

use cb_apps::gen::{PointMode, PointsSpec, WordsSpec};
use cb_apps::kmeans::{next_centroids, Centroids, KMeansApp};
use cb_apps::scenario::{build_hybrid, HybridOpts, ThrottleOpts, CLOUD, LOCAL};
use cb_apps::wordcount::{wordcount_reference, WordCountApp};
use cb_sim::calib::{self, App, EnvSpec, NetConstants};
use cloudburst_core::api::run_sequential;
use cloudburst_core::config::{RuntimeConfig, SlaveKill};
use cloudburst_core::runtime::{run, RuntimeError};

fn points_spec() -> PointsSpec {
    PointsSpec {
        n_files: 8,
        points_per_file: 3_000,
        points_per_chunk: 500,
        dim: 4,
        seed: 1234,
        mode: PointMode::Blobs {
            centers: 5,
            spread: 0.4,
        },
    }
}

fn words_spec() -> WordsSpec {
    WordsSpec {
        vocabulary: 2_000,
        n_files: 6,
        words_per_file: 20_000,
        words_per_chunk: 4_000,
        seed: 99,
    }
}

/// One full k-means pass distributed across a hybrid deployment equals the
/// same pass run sequentially on the same generated data.
#[test]
fn kmeans_pass_matches_oracle_across_skews() {
    let spec = points_spec();
    let app = KMeansApp::new(spec.dim, 5);
    let init = Centroids::new(
        spec.dim,
        (0..5)
            .flat_map(|c| PointsSpec::blob_center(spec.seed, c, spec.dim))
            .collect(),
    );

    for frac_local in [1.0, 0.5, 0.17, 0.0] {
        let layout = spec.layout();
        let env = build_hybrid(
            layout.clone(),
            spec.fill(),
            HybridOpts {
                frac_local,
                local_cores: 3,
                cloud_cores: 3,
                throttle: None,
            },
        )
        .unwrap();
        let out = run(
            &app,
            &init,
            &env.layout,
            &env.placement,
            &env.deployment,
            &RuntimeConfig::default(),
        )
        .unwrap();

        // Oracle over the identical generated chunks.
        let chunks: Vec<_> = layout
            .chunks
            .iter()
            .map(|c| {
                let mut buf = vec![0u8; c.len as usize];
                (spec.fill())(c, &mut buf);
                (*c, buf)
            })
            .collect();
        let oracle = run_sequential(&app, &init, chunks);

        for (a, b) in out.result.values().iter().zip(oracle.values()) {
            assert!(
                (a - b).abs() < 1e-9,
                "frac_local={frac_local}: distributed {a} vs oracle {b}"
            );
        }
        let next = next_centroids(&app, &out.result, &init);
        assert_eq!(next.k(), 5);
    }
}

/// Iterative k-means over the framework converges like the reference.
#[test]
fn kmeans_iterates_to_convergence_on_hybrid() {
    let spec = PointsSpec {
        n_files: 4,
        points_per_file: 2_000,
        points_per_chunk: 500,
        dim: 3,
        seed: 5,
        mode: PointMode::Blobs {
            centers: 3,
            spread: 0.05,
        },
    };
    let app = KMeansApp::new(3, 3);
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

    // Init near (but off) each blob center: tests the iteration machinery
    // without fighting k-means' genuine local optima.
    let init_flat: Vec<f64> = (0..3)
        .flat_map(|c| {
            PointsSpec::blob_center(spec.seed, c, 3)
                .into_iter()
                .map(|x| x + 0.8)
        })
        .collect();
    let mut params = Centroids::new(3, init_flat);
    let mut last_shift = f64::INFINITY;
    for _ in 0..15 {
        let out = run(
            &app,
            &params,
            &env.layout,
            &env.placement,
            &env.deployment,
            &RuntimeConfig::default(),
        )
        .unwrap();
        let next = next_centroids(&app, &out.result, &params);
        last_shift = cb_apps::kmeans::centroid_shift(&params, &next);
        params = next;
        if last_shift < 1e-9 {
            break;
        }
    }
    assert!(
        last_shift < 1e-6,
        "k-means should converge on tight blobs, final shift {last_shift}"
    );
    // Each converged centroid sits near some blob center.
    for c in 0..3 {
        let got = params.centroid(c);
        let best = (0..3)
            .map(|b| {
                let center = PointsSpec::blob_center(spec.seed, b, 3);
                got.iter()
                    .zip(&center)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.2, "centroid {c} far from every blob: {best}");
    }
}

/// Wordcount across a throttled (wall-clock realistic) hybrid environment.
#[test]
fn wordcount_on_throttled_hybrid_matches_reference() {
    let spec = words_spec();
    let layout = spec.layout();
    let env = build_hybrid(
        layout.clone(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.33,
            local_cores: 2,
            cloud_cores: 2,
            throttle: Some(ThrottleOpts::scaled_default()),
        },
    )
    .unwrap();
    let out = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();

    let expect = wordcount_reference(&spec.all_words(&layout));
    assert_eq!(out.result.len(), expect.len());
    for (w, n) in &expect {
        let (_, cnt) = out.result.get(*w).unwrap();
        assert_eq!(cnt, *n, "word {w}");
    }

    // With throttling, remote retrieval actually costs wall time.
    let local = out.report.cluster("local").unwrap();
    let ec2 = out.report.cluster("EC2").unwrap();
    assert!(local.retrieval_s + ec2.retrieval_s > 0.0);
    assert!(out.report.total_s > 0.0);
}

/// The report's job accounting matches the pool exactly, under stealing.
#[test]
fn job_accounting_is_exact() {
    let spec = words_spec();
    let env = build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.17,
            local_cores: 3,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .unwrap();
    let n_jobs = env.layout.n_jobs() as u64;
    let out = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert_eq!(out.report.total_jobs(), n_jobs);
    // Bytes: every chunk read exactly once, attributed somewhere.
    let moved: u64 = out
        .report
        .clusters
        .iter()
        .map(|c| c.bytes_local + c.bytes_remote)
        .sum();
    assert_eq!(moved, env.layout.total_bytes());
    // Stolen jobs only where placement says the data was remote.
    for c in &out.report.clusters {
        if c.name == "EC2" {
            // 17% local placement: the cloud owns most data, steals little.
            assert!(c.jobs_stolen * 4 <= c.jobs_processed, "{c:?}");
        }
    }
}

/// Cluster-free sites still work: data at two sites, compute at one.
#[test]
fn compute_only_at_one_site_processes_remote_data() {
    let spec = words_spec();
    let layout = spec.layout();
    let env = build_hybrid(
        layout.clone(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.5,
            local_cores: 4,
            cloud_cores: 0, // no cloud compute: all S3 data must be stolen
            throttle: None,
        },
    )
    .unwrap();
    let out = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    let expect = wordcount_reference(&spec.all_words(&layout));
    assert_eq!(out.result.len(), expect.len());
    let local = out.report.cluster("local").unwrap();
    assert_eq!(local.jobs_processed, layout.n_jobs() as u64);
    assert!(local.jobs_stolen > 0, "S3-homed jobs count as stolen");
}

/// Sabotaged dataset (file deleted from the cloud store) surfaces a
/// `JobsFailed` error naming the loss rather than a wrong answer or a hang.
#[test]
fn failure_injection_missing_remote_file() {
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
    // Remove a cloud-homed file.
    let victim = env
        .placement
        .files_at(CLOUD)
        .next()
        .map(|f| env.layout.file(f).name.clone())
        .unwrap();
    env.backing[&CLOUD].delete(&victim).unwrap();

    let err = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .unwrap_err();
    match err {
        cloudburst_core::runtime::RuntimeError::JobsFailed {
            dead,
            unfinished,
            last_error,
        } => {
            assert!(
                !dead.is_empty() || unfinished > 0,
                "some chunks must be reported lost"
            );
            let msg = last_error.expect("a last error is recorded");
            assert!(msg.contains(&victim), "error names the missing file: {msg}");
        }
        other => panic!("expected JobsFailed, got {other:?}"),
    }
    let _ = LOCAL;
}

/// The head validates a run whichever substrate drives it, so the
/// in-process runtime and the simulator reject the same configurations and
/// deployments — both on 4 + 4 cores.
#[test]
fn every_substrate_rejects_the_same_invalid_config() {
    fn kill(cluster: usize, slave: usize) -> Vec<SlaveKill> {
        vec![SlaveKill {
            cluster,
            slave,
            after_jobs: 1,
        }]
    }
    let with = |edit: fn(&mut RuntimeConfig)| {
        let mut cfg = RuntimeConfig::default();
        edit(&mut cfg);
        cfg
    };
    // (case, config, whether the two clusters share one location)
    let cases = [
        ("local_batch = 0", with(|c| c.pool.local_batch = 0), false),
        ("remote_batch = 0", with(|c| c.pool.remote_batch = 0), false),
        (
            "a kill naming a missing cluster",
            with(|c| c.kill_schedule = kill(2, 0)),
            false,
        ),
        (
            "a kill naming slave 4 of 4",
            with(|c| c.kill_schedule = kill(1, 4)),
            false,
        ),
        (
            "two clusters at one location",
            RuntimeConfig::default(),
            true,
        ),
    ];
    let spec = words_spec();
    let opts = HybridOpts {
        frac_local: 0.5,
        local_cores: 4,
        cloud_cores: 4,
        throttle: None,
    };
    let env = build_hybrid(spec.layout(), spec.fill(), opts).unwrap();
    let sim_env = EnvSpec {
        name: "env-50/50".into(),
        frac_local: 0.5,
        local_cores: 4,
        cloud_cores: 4,
    };
    for (case, cfg, shared) in cases {
        let (layout, placement) = (&env.layout, &env.placement);
        let mut deployment = env.deployment.clone();
        let mut params = calib::build_params(App::Knn, &sim_env, &NetConstants::default(), 7);
        if shared {
            deployment.clusters[1].location = deployment.clusters[0].location;
            params.clusters[1].location = params.clusters[0].location;
        }
        let real = run(&WordCountApp, &(), layout, placement, &deployment, &cfg);
        let real = real.map(|out| out.report);
        assert!(
            matches!(real, Err(RuntimeError::Validation(_))),
            "run with {case}: {real:?}"
        );
        params.pool = cfg.pool;
        params.faults.kill_schedule = cfg.kill_schedule;
        let sim = cb_sim::simulate(params);
        assert!(
            matches!(sim, Err(RuntimeError::Validation(_))),
            "simulate with {case}: {sim:?}"
        );
    }
}
