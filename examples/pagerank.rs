//! PageRank with cloud bursting — the paper's large-reduction-object
//! application. The rank accumulator is proportional to the page set, so
//! the global reduction (shipping reduction objects between clusters)
//! becomes the interesting cost — exactly the effect the paper measures in
//! Table II.
//!
//! ```text
//! cargo run -p cb-apps --release --example pagerank
//! ```

use cb_apps::gen::GraphSpec;
use cb_apps::pagerank::{next_ranks, rank_delta, PageRankApp, RankParams};
use cb_apps::scenario::{build_hybrid, HybridOpts, ThrottleOpts};
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::runtime::run;
use std::sync::Arc;

fn main() {
    let spec = GraphSpec {
        n_pages: 20_000,
        n_files: 8,
        edges_per_file: 100_000,
        edges_per_chunk: 12_500,
        seed: 7,
    };
    let layout = spec.layout();
    println!(
        "graph: {} pages, {} edges, {} files, {} jobs",
        spec.n_pages,
        spec.n_edges(),
        layout.files.len(),
        layout.n_jobs()
    );

    let app = PageRankApp::new(spec.n_pages);
    let out_degree = Arc::new(spec.out_degrees(&layout));

    // Data mostly in the cloud, throttled fabric: the reduction object's
    // WAN trip shows up in the global-reduction time.
    let env = build_hybrid(
        layout,
        spec.fill(),
        HybridOpts {
            frac_local: 0.33,
            local_cores: 3,
            cloud_cores: 3,
            throttle: Some(ThrottleOpts::scaled_default()),
        },
    )
    .expect("environment");

    let mut params = RankParams::uniform(out_degree);
    println!("\npass  delta(L1)     total(s)  global-red(s)  robj(MB)");
    for pass in 1..=10 {
        let out = run(
            &app,
            &params,
            &env.layout,
            &env.placement,
            &env.deployment,
            &RuntimeConfig::default(),
        )
        .expect("run");
        let ranks = next_ranks(&out.result, &params);
        let delta = rank_delta(&ranks, params.ranks());
        println!(
            "{pass:>4}  {delta:<12.6e}  {:>7.3}  {:>13.3}  {:>8.2}",
            out.report.total_s,
            out.report.global_reduction_s,
            out.report.robj_bytes as f64 / 1e6,
        );
        params = RankParams::new(Arc::new(ranks), Arc::clone(params.out_degree()));
        if delta < 1e-6 {
            println!("converged after {pass} passes");
            break;
        }
    }

    // Top pages. (The generator skews *out*-degree, not in-degree, so
    // ranks are fairly flat — the interesting output of this example is the
    // cost table above, not the ranking itself.)
    let mut indexed: Vec<(usize, f64)> = params.ranks().iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop 10 pages by rank:");
    for (page, rank) in indexed.iter().take(10) {
        println!("  page {page:>6}  rank {rank:.6}");
    }
    let mass: f64 = params.ranks().iter().sum();
    println!("total rank mass: {mass:.9} (must be 1)");
    assert!((mass - 1.0).abs() <= 1e-9, "rank mass {mass} is not 1");
}
