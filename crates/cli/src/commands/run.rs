//! `cloudburst run` — execute an analysis over one or two disk-backed
//! sites with the real head/master/slave runtime.
//!
//! With `--data2`, the dataset is treated as split: files listed in the
//! index are homed at site 0 (`--data`) for the first `--frac-local`
//! fraction and at site 1 (`--data2`) for the rest — mirroring the paper's
//! skewed placements. The corresponding data files must exist in the
//! respective directories (e.g. from two `generate` runs split by hand, or
//! one directory copied and pruned).

use super::{CmdError, TraceOpts};
use crate::args::Args;
use cb_apps::knn::{KnnApp, KnnQuery};
use cb_apps::pagerank::{edge, next_ranks, rank_delta, PageRankApp, RankParams};
use cb_apps::selection::{BoxQuery, SelectionApp};
use cb_apps::wordcount::WordCountApp;
use cb_net::RobjCodec;
use cb_storage::builder::StoreMap;
use cb_storage::layout::{LocationId, Placement};
use cb_storage::store::{DiskStore, ObjectStore};
use cloudburst_core::api::ReductionObject;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::deploy::{ClusterSpec, DataFabric, Deployment};
use cloudburst_core::obs::EventKind;
use cloudburst_core::runtime::run as run_gr;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

pub const USAGE: &str = "cloudburst run --app wordcount|knn|selection|pagerank \
--index <file> --data <dir> [--data2 <dir>] [--frac-local <0..1>] [--cores <n>] \
[--cores2 <n>] [--dim <d>] [--k <n>] [--passes <n>] [--fault-rate <0..1>] \
[--kill-slave <cluster:slave:after_jobs>[,..]] [--prefetch-depth <n>] \
[--trace-out <trace.jsonl>] [--timeline true]";

/// Parse a `--kill-slave` list: `cluster:slave:after_jobs`, comma-separated.
pub(crate) fn parse_kill_schedule(
    spec: &str,
) -> Result<Vec<cloudburst_core::config::SlaveKill>, CmdError> {
    spec.split(',')
        .map(|item| {
            let parts: Vec<&str> = item.split(':').collect();
            let err = || {
                CmdError::Other(format!(
                    "--kill-slave: expected cluster:slave:after_jobs, got {item:?}"
                ))
            };
            if parts.len() != 3 {
                return Err(err());
            }
            Ok(cloudburst_core::config::SlaveKill {
                cluster: parts[0].parse().map_err(|_| err())?,
                slave: parts[1].parse().map_err(|_| err())?,
                after_jobs: parts[2].parse().map_err(|_| err())?,
            })
        })
        .collect()
}

pub fn run(args: &Args) -> Result<String, CmdError> {
    args.check_known(&[
        "app",
        "index",
        "data",
        "data2",
        "frac-local",
        "cores",
        "cores2",
        "dim",
        "k",
        "passes",
        "fault-rate",
        "kill-slave",
        "prefetch-depth",
        "trace-out",
        "timeline",
        "robj-out",
        "compute-ns",
    ])?;
    let app_name = args.require("app")?;
    let index_path = args.require("index")?;
    let data = args.require("data")?;
    let cores: usize = args.get_or("cores", 4)?;

    let bytes = std::fs::read(index_path)?;
    let layout = cb_storage::index::decode(&bytes).map_err(|e| CmdError::Other(e.to_string()))?;

    let site0 = LocationId(0);
    let mut stores: StoreMap = BTreeMap::new();
    stores.insert(
        site0,
        Arc::new(DiskStore::open("site0", data)?) as Arc<dyn ObjectStore>,
    );

    let mut clusters = vec![ClusterSpec::new("local", site0, cores)];
    let placement = if let Some(data2) = args.get("data2") {
        let site1 = LocationId(1);
        let frac: f64 = args.get_or("frac-local", 0.5)?;
        let cores2: usize = args.get_or("cores2", cores)?;
        stores.insert(
            site1,
            Arc::new(DiskStore::open("site1", data2)?) as Arc<dyn ObjectStore>,
        );
        clusters.push(ClusterSpec::new("remote", site1, cores2));
        Placement::split_fraction(layout.files.len(), frac, site0, site1)
    } else {
        Placement::all_at(layout.files.len(), site0)
    };
    let mut deployment = Deployment::new(clusters, DataFabric::direct(&stores));

    // Tracing: a recording sink captures the run's event stream, written as
    // JSONL (`--trace-out`) and/or rendered as a live Gantt (`--timeline`).
    // Built before fault wiring so injected faults are observed too.
    let trace = TraceOpts::from_args(args)?;
    let sink = trace.sink();

    // Fault injection: drop a fraction of GETs on every path, so the
    // retry/re-enqueue machinery is exercised against real disk stores.
    let fault_rate: f64 = args.get_or("fault-rate", 0.0)?;
    if !(0.0..1.0).contains(&fault_rate) {
        return Err(CmdError::Other("--fault-rate must be in [0, 1)".into()));
    }
    if fault_rate > 0.0 {
        use cb_storage::faults::{FaultMode, FlakyStore};
        for &site in stores.keys() {
            deployment.fabric.wrap_paths_to(site, |s| {
                let mut flaky = FlakyStore::new(
                    s,
                    FaultMode::Random {
                        probability: fault_rate,
                    },
                    2011,
                );
                if sink.is_enabled() {
                    let sink = sink.clone();
                    flaky = flaky.with_observer(Arc::new(move || {
                        sink.emit(None, None, EventKind::FaultInjected);
                    }));
                }
                Arc::new(flaky)
            });
        }
    }

    let mut cfg = RuntimeConfig::default();
    cfg.sink = sink;
    cfg.prefetch_depth = args.get_or("prefetch-depth", cfg.prefetch_depth)?;
    cfg.synthetic_compute_ns_per_unit = args.get_or("compute-ns", 0)?;
    // `--robj-out` dumps the canonical wire encoding of the final reduction
    // object, so a distributed run's `head --robj-out` can be diffed
    // byte-for-byte against the single-process answer.
    let robj_out = args.get("robj-out").map(str::to_owned);
    if let Some(spec) = args.get("kill-slave") {
        cfg.kill_schedule = parse_kill_schedule(spec)?;
    }

    let mut s = String::new();
    match app_name {
        "wordcount" => {
            let out = run_gr(&WordCountApp, &(), &layout, &placement, &deployment, &cfg)
                .map_err(|e| CmdError::Other(e.to_string()))?;
            let _ = writeln!(s, "wordcount: {} distinct words", out.result.len());
            if let Some(p) = &robj_out {
                std::fs::write(p, out.result.encode_robj())?;
            }
            let mut top: Vec<(u64, u64)> = out.result.iter().map(|(w, (_, n))| (w, n)).collect();
            top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            for (w, n) in top.into_iter().take(10) {
                let _ = writeln!(s, "  word {w:>8}  count {n}");
            }
            let _ = write!(s, "{}", out.report.render());
        }
        "knn" => {
            let dim: usize = args.get_or("dim", 4)?;
            let k: usize = args.get_or("k", 10)?;
            let app = KnnApp::new(dim, k);
            let query = KnnQuery {
                query: vec![0.5; dim],
            };
            let out = run_gr(&app, &query, &layout, &placement, &deployment, &cfg)
                .map_err(|e| CmdError::Other(e.to_string()))?;
            let _ = writeln!(s, "knn: {k} nearest to the center point");
            if let Some(p) = &robj_out {
                std::fs::write(p, out.result.encode_robj())?;
            }
            for (d2, id) in out.result.into_sorted() {
                let _ = writeln!(s, "  id {id:>14}  distance² {d2:.6}");
            }
            let _ = write!(s, "{}", out.report.render());
        }
        "selection" => {
            let dim: usize = args.get_or("dim", 4)?;
            let app = SelectionApp::new(dim);
            let query = BoxQuery::new(vec![0.0; dim], vec![0.25; dim]);
            let out = run_gr(&app, &query, &layout, &placement, &deployment, &cfg)
                .map_err(|e| CmdError::Other(e.to_string()))?;
            let robj_bytes = out.result.size_bytes();
            if let Some(p) = &robj_out {
                std::fs::write(p, out.result.encode_robj())?;
            }
            let hits = out.result.into_sorted();
            let _ = writeln!(
                s,
                "selection: {} records inside [0, 0.25)^{dim} ({} robj bytes)",
                hits.len(),
                robj_bytes
            );
            let _ = write!(s, "{}", out.report.render());
        }
        "pagerank" => {
            if robj_out.is_some() {
                return Err(CmdError::Other(
                    "--robj-out is not supported for pagerank (iterative; no single \
                     final reduction object)"
                        .into(),
                ));
            }
            let passes: usize = args.get_or("passes", 10)?;
            // First scan: edge list -> page universe and out-degrees. Edges
            // are read through the same fabric the runtime will use.
            let mut max_page = 0u32;
            let mut edges_per_chunk: Vec<Vec<(u32, u32)>> = Vec::new();
            for chunk in &layout.chunks {
                let file = layout.file(chunk.file);
                let home = placement.home(chunk.file);
                let store = deployment
                    .fabric
                    .store_for(cb_storage::layout::LocationId(0), home)
                    .ok_or_else(|| CmdError::Other("no fabric path for degree scan".into()))?;
                let bytes = store.get_range(&file.name, chunk.offset, chunk.len)?;
                let edges: Vec<(u32, u32)> = cb_apps::records(chunk, &bytes, 8)
                    .map_err(|e| {
                        CmdError::Other(format!("chunk {} of {}: {e}", chunk.id.0, file.name))
                    })?
                    .map(edge)
                    .collect();
                for &(src, dst) in &edges {
                    max_page = max_page.max(src).max(dst);
                }
                edges_per_chunk.push(edges);
            }
            let n_pages = max_page + 1;
            let mut deg = vec![0u32; n_pages as usize];
            for edges in &edges_per_chunk {
                for &(src, _) in edges {
                    deg[src as usize] += 1;
                }
            }
            drop(edges_per_chunk);

            let app = PageRankApp::new(n_pages);
            let mut params = RankParams::uniform(Arc::new(deg));
            let _ = writeln!(s, "pagerank: {n_pages} pages, up to {passes} passes");
            let mut last_report = None;
            for pass in 1..=passes {
                let out = run_gr(&app, &params, &layout, &placement, &deployment, &cfg)
                    .map_err(|e| CmdError::Other(e.to_string()))?;
                let ranks = next_ranks(&out.result, &params);
                let delta = rank_delta(&ranks, params.ranks());
                let _ = writeln!(s, "  pass {pass}: delta {delta:.3e}");
                params = RankParams::new(Arc::new(ranks), Arc::clone(params.out_degree()));
                last_report = Some(out.report);
                if delta < 1e-8 {
                    let _ = writeln!(s, "  converged");
                    break;
                }
            }
            let mut top: Vec<(usize, f64)> = params.ranks().iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            for (page, rank) in top.into_iter().take(5) {
                let _ = writeln!(s, "  page {page:>8}  rank {rank:.6}");
            }
            if let Some(r) = last_report {
                let _ = write!(s, "{}", r.render());
            }
        }
        other => {
            return Err(CmdError::Other(format!(
                "unknown --app {other:?}; expected wordcount, knn, selection, or pagerank"
            )))
        }
    }
    trace.finish(&mut s)?;
    Ok(s)
}
