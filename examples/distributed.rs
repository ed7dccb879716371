//! Distributed wordcount over real TCP, checked against the in-process run.
//!
//! Spawns the three roles of the paper's architecture as independent actors
//! connected only by localhost sockets — one head (global job pool + global
//! reduction) and two workers (a "local" and a "cloud" cluster) — then runs
//! the identical workload through the single-process runtime and diffs the
//! canonical bytes of the two final reduction objects. They must be
//! identical: the wire is an implementation detail, not a semantics change.
//!
//! ```sh
//! cargo run --release --example distributed
//! ```
//!
//! For actual separate OS processes, see `scripts/run_distributed.sh`,
//! which drives `cloudburst head` / `cloudburst worker`.

use cb_apps::gen::WordsSpec;
use cb_apps::scenario::{build_hybrid, HybridOpts};
use cb_apps::wordcount::WordCountApp;
use cb_net::{fingerprint, run_worker, serve_head, NetConfig, RobjCodec, WorkerSpec};
use cloudburst_core::combine::KeyedSum;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::runtime::run;
use std::net::TcpListener;

fn main() {
    let spec = WordsSpec {
        vocabulary: 500,
        n_files: 4,
        words_per_file: 6_000,
        words_per_chunk: 1_000,
        seed: 42,
    };
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
    .expect("build env");
    let cfg = RuntimeConfig::default();

    // Reference: the whole thing in one process (the loopback special case).
    let single = run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        &cfg,
    )
    .expect("single-process run");
    let single_bytes = single.result.encode_robj();

    // Distributed: one head + two workers over 127.0.0.1.
    let net = NetConfig::default();
    let fp = fingerprint(&env.layout, &env.placement, "wordcount");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    println!("head listening on {addr}");

    let distributed = std::thread::scope(|scope| {
        for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
            let (net, fabric) = (&net, &env.deployment.fabric);
            let (layout, placement, cfg) = (&env.layout, &env.placement, &cfg);
            scope.spawn(move || {
                let spec = WorkerSpec {
                    cluster: ci as u32,
                    name: cluster.name.clone(),
                    app_tag: "wordcount".into(),
                    fingerprint: fp,
                };
                let out = run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &spec,
                    cfg,
                    net,
                    addr,
                )
                .expect("worker run");
                println!(
                    "worker {} shipped {} robj bytes ({} jobs)",
                    cluster.name,
                    out.robj_bytes,
                    out.outcome
                        .account
                        .slaves
                        .iter()
                        .map(|s| s.jobs)
                        .sum::<u64>()
                );
            });
        }
        serve_head::<KeyedSum>(
            &listener,
            env.deployment.clusters.len(),
            &env.layout,
            &env.placement,
            &cfg,
            &net,
            fp,
            "wordcount",
        )
        .expect("head run")
    });

    let distributed_bytes = distributed.result.encode_robj();
    println!(
        "single-process: {} distinct words, {} robj bytes",
        single.result.len(),
        single_bytes.len()
    );
    println!(
        "distributed:    {} distinct words, {} robj bytes, {} frames exchanged",
        distributed.result.len(),
        distributed_bytes.len(),
        distributed.report.net.frames_sent + distributed.report.net.frames_recv
    );
    let identical = single_bytes == distributed_bytes;
    println!("identical: {identical}");
    if !identical {
        std::process::exit(1);
    }
}
