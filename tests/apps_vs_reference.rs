//! Every evaluation application, distributed across the hybrid runtime,
//! must produce exactly what its sequential reference produces on the same
//! generated dataset.

use cb_apps::gen::{GraphSpec, PointMode, PointsSpec};
use cb_apps::knn::{knn_reference, KnnApp, KnnQuery};
use cb_apps::pagerank::{next_ranks, pagerank_reference_pass, rank_delta, PageRankApp, RankParams};
use cb_apps::scenario::{build_hybrid, HybridOpts};
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::runtime::run;
use std::sync::Arc;

#[test]
fn knn_distributed_equals_brute_force() {
    let spec = PointsSpec {
        n_files: 6,
        points_per_file: 2_000,
        points_per_chunk: 250,
        dim: 3,
        seed: 31,
        mode: PointMode::Uniform,
    };
    let layout = spec.layout();
    let app = KnnApp::new(spec.dim, 25);
    let query = KnnQuery {
        query: vec![0.5, 0.5, 0.5],
    };

    let env = build_hybrid(
        layout.clone(),
        spec.fill(),
        HybridOpts {
            frac_local: 0.33,
            local_cores: 3,
            cloud_cores: 3,
            throttle: None,
        },
    )
    .unwrap();
    let out = run(
        &app,
        &query,
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    let got = out.result.into_sorted();

    // Brute force with the same global ids.
    let mut ref_pts = Vec::new();
    for chunk in &layout.chunks {
        let flat = spec.chunk_points(chunk);
        for (i, p) in flat.chunks_exact(spec.dim).enumerate() {
            ref_pts.push((KnnApp::unit_id(chunk, spec.dim, i), p.to_vec()));
        }
    }
    let expect = knn_reference(&ref_pts, &query.query, 25);

    assert_eq!(got.len(), expect.len());
    for ((gd, gid), (ed, eid)) in got.iter().zip(&expect) {
        assert!((gd - ed).abs() < 1e-9, "distance mismatch: {gd} vs {ed}");
        assert_eq!(gid, eid, "neighbor id mismatch");
    }
}

#[test]
fn knn_result_is_independent_of_deployment_shape() {
    let spec = PointsSpec {
        n_files: 4,
        points_per_file: 1_500,
        points_per_chunk: 300,
        dim: 2,
        seed: 8,
        mode: PointMode::Uniform,
    };
    let app = KnnApp::new(2, 10);
    let query = KnnQuery {
        query: vec![0.25, 0.75],
    };

    let mut results = Vec::new();
    for (frac, lc, cc) in [(1.0, 4, 0), (0.0, 0, 4), (0.5, 2, 2), (0.25, 3, 1)] {
        let env = build_hybrid(
            spec.layout(),
            spec.fill(),
            HybridOpts {
                frac_local: frac,
                local_cores: lc,
                cloud_cores: cc,
                throttle: None,
            },
        )
        .unwrap();
        let out = run(
            &app,
            &query,
            &env.layout,
            &env.placement,
            &env.deployment,
            &RuntimeConfig::default(),
        )
        .unwrap();
        results.push(out.result.into_sorted());
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0], "result depends on deployment shape");
    }
}

#[test]
fn pagerank_multipass_matches_reference() {
    let spec = GraphSpec {
        n_pages: 500,
        n_files: 6,
        edges_per_file: 5_000,
        edges_per_chunk: 1_000,
        seed: 17,
    };
    let layout = spec.layout();
    let app = PageRankApp::new(spec.n_pages);
    let out_degree = Arc::new(spec.out_degrees(&layout));
    let edges = spec.all_edges(&layout);

    let env = build_hybrid(
        layout,
        spec.fill(),
        HybridOpts {
            frac_local: 0.5,
            local_cores: 2,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .unwrap();

    let mut dist_params = RankParams::uniform(Arc::clone(&out_degree));
    let mut ref_params = RankParams::uniform(Arc::clone(&out_degree));
    for pass in 0..5 {
        let out = run(
            &app,
            &dist_params,
            &env.layout,
            &env.placement,
            &env.deployment,
            &RuntimeConfig::default(),
        )
        .unwrap();
        let dist_ranks = next_ranks(&out.result, &dist_params);
        let ref_ranks = pagerank_reference_pass(&edges, &ref_params);
        let delta = rank_delta(&dist_ranks, &ref_ranks);
        assert!(delta < 1e-9, "pass {pass}: distributed diverged by {delta}");
        let total: f64 = dist_ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "pass {pass}: mass {total}");
        dist_params = RankParams::new(Arc::new(dist_ranks), Arc::clone(&out_degree));
        ref_params = RankParams::new(Arc::new(ref_ranks), Arc::clone(&out_degree));
    }
}

#[test]
fn pagerank_robj_size_reflects_graph() {
    let spec = GraphSpec {
        n_pages: 2_000,
        n_files: 2,
        edges_per_file: 4_000,
        edges_per_chunk: 1_000,
        seed: 3,
    };
    let layout = spec.layout();
    let app = PageRankApp::new(spec.n_pages);
    let out_degree = Arc::new(spec.out_degrees(&layout));
    let env = build_hybrid(
        layout,
        spec.fill(),
        HybridOpts {
            frac_local: 1.0,
            local_cores: 2,
            cloud_cores: 0,
            throttle: None,
        },
    )
    .unwrap();
    let params = RankParams::uniform(out_degree);
    let out = run(
        &app,
        &params,
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .unwrap();
    // The paper's point: the pagerank robj is proportional to the page set.
    assert_eq!(out.report.robj_bytes, 2_000 * 8);
}
