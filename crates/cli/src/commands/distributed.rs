//! `cloudburst head` / `cloudburst worker` — the multi-process deployment.
//!
//! One `head` process owns the global job pool and the final reduction; each
//! `worker` process runs one cluster (master + slaves) and reaches the head
//! over TCP. Head and workers independently load the same index and compute
//! the same dataset fingerprint; a worker built against different data,
//! chunking, split, or app parameters is rejected at handshake.
//!
//! The split placement convention matches `cloudburst run`: the head takes
//! `--frac-local` to declare how the file list divides between site 0 and
//! site 1, and each worker passes the same value (plus `--data2` for the
//! site-1 directory when it needs a path to it).

use super::{CmdError, TraceOpts};
use crate::args::Args;
use cb_apps::knn::{KnnApp, KnnQuery};
use cb_apps::selection::{BoxQuery, SelectionApp};
use cb_apps::wordcount::WordCountApp;
use cb_net::{fingerprint, run_worker, serve_head, NetConfig, RobjCodec, WorkerSpec};
use cb_storage::builder::StoreMap;
use cb_storage::layout::{DatasetLayout, LocationId, Placement};
use cb_storage::store::{DiskStore, ObjectStore};
use cloudburst_core::api::ReductionObject;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::deploy::{ClusterSpec, DataFabric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

pub const HEAD_USAGE: &str = "cloudburst head --listen <addr:port> \
--app wordcount|knn|selection --index <file> --workers <n> \
[--frac-local <0..1>] [--dim <d>] [--k <n>] [--heartbeat-ms <ms>] \
[--timeout <secs>] [--compute-ns <ns>] [--robj-out <file>] \
[--trace-out <trace.jsonl>] [--timeline true]";

pub const WORKER_USAGE: &str = "cloudburst worker --connect <addr:port> \
--app wordcount|knn|selection --index <file> --data <dir> [--data2 <dir>] \
[--frac-local <0..1>] --cluster <n> [--location <site>] [--cores <n>] \
[--name <s>] [--dim <d>] [--k <n>] [--compute-ns <ns>] [--prefetch-depth <n>]";

/// Which app, with its parameters folded into the handshake tag so that a
/// worker launched with, say, a different `--k` than the head is rejected
/// instead of shipping an incompatible reduction object.
enum AppKind {
    WordCount,
    Knn { dim: usize, k: usize },
    Selection { dim: usize },
}

fn app_kind(args: &Args) -> Result<(AppKind, String), CmdError> {
    let name = args.require("app")?;
    match name {
        "wordcount" => Ok((AppKind::WordCount, "wordcount".into())),
        "knn" => {
            let dim: usize = args.get_or("dim", 4)?;
            let k: usize = args.get_or("k", 10)?;
            Ok((AppKind::Knn { dim, k }, format!("knn/dim={dim}/k={k}")))
        }
        "selection" => {
            let dim: usize = args.get_or("dim", 4)?;
            Ok((AppKind::Selection { dim }, format!("selection/dim={dim}")))
        }
        other => Err(CmdError::Other(format!(
            "unknown --app {other:?}; distributed runs support wordcount, knn, \
             or selection (pagerank iterates and is single-process only)"
        ))),
    }
}

fn load_layout(args: &Args) -> Result<DatasetLayout, CmdError> {
    let bytes = std::fs::read(args.require("index")?)?;
    cb_storage::index::decode(&bytes).map_err(|e| CmdError::Other(e.to_string()))
}

/// Site-0/site-1 placement from `--frac-local`; all-at-site-0 without it.
fn placement_for(args: &Args, layout: &DatasetLayout) -> Result<Placement, CmdError> {
    Ok(match args.get("frac-local") {
        Some(_) => {
            let frac: f64 = args.get_or("frac-local", 0.5)?;
            Placement::split_fraction(layout.files.len(), frac, LocationId(0), LocationId(1))
        }
        None => Placement::all_at(layout.files.len(), LocationId(0)),
    })
}

fn net_config(args: &Args) -> Result<NetConfig, CmdError> {
    let mut net = NetConfig::default();
    let hb: u64 = args.get_or("heartbeat-ms", net.heartbeat.as_millis() as u64)?;
    net.heartbeat = Duration::from_millis(hb.max(1));
    let timeout: u64 = args.get_or("timeout", net.accept_timeout.as_secs())?;
    net.accept_timeout = Duration::from_secs(timeout.max(1));
    Ok(net)
}

pub fn head(args: &Args) -> Result<String, CmdError> {
    args.check_known(&[
        "listen",
        "app",
        "index",
        "workers",
        "frac-local",
        "dim",
        "k",
        "heartbeat-ms",
        "timeout",
        "compute-ns",
        "robj-out",
        "trace-out",
        "timeline",
    ])?;
    let (kind, tag) = app_kind(args)?;
    let layout = load_layout(args)?;
    let placement = placement_for(args, &layout)?;
    let workers: usize = args.require_parsed("workers")?;
    if workers == 0 {
        return Err(CmdError::Other("--workers must be at least 1".into()));
    }
    let net = net_config(args)?;
    let fp = fingerprint(&layout, &placement, &tag);

    let trace = TraceOpts::from_args(args)?;
    let cfg = RuntimeConfig {
        sink: trace.sink(),
        synthetic_compute_ns_per_unit: args.get_or("compute-ns", 0)?,
        ..RuntimeConfig::default()
    };

    let listener = TcpListener::bind(args.require("listen")?)?;
    // Announced on stderr (stdout carries the result) so launch scripts know
    // the head is accepting before they start workers.
    eprintln!(
        "head: listening on {} for {workers} worker(s), app {tag}",
        listener.local_addr()?
    );

    let mut s = String::new();
    let report = match kind {
        AppKind::WordCount => {
            let out = serve_head::<cloudburst_core::combine::KeyedSum>(
                &listener, workers, &layout, &placement, &cfg, &net, fp, &tag,
            )
            .map_err(|e| CmdError::Other(e.to_string()))?;
            let _ = writeln!(s, "wordcount: {} distinct words", out.result.len());
            write_robj(args, &out.result)?;
            out.report
        }
        AppKind::Knn { k, .. } => {
            let out = serve_head::<cloudburst_core::combine::TopK>(
                &listener, workers, &layout, &placement, &cfg, &net, fp, &tag,
            )
            .map_err(|e| CmdError::Other(e.to_string()))?;
            let _ = writeln!(
                s,
                "knn: {k} nearest ({} robj bytes)",
                out.result.size_bytes()
            );
            write_robj(args, &out.result)?;
            out.report
        }
        AppKind::Selection { dim } => {
            let out = serve_head::<cloudburst_core::combine::Concat<u64>>(
                &listener, workers, &layout, &placement, &cfg, &net, fp, &tag,
            )
            .map_err(|e| CmdError::Other(e.to_string()))?;
            let _ = writeln!(
                s,
                "selection: {} records inside [0, 0.25)^{dim}",
                out.result.items().len()
            );
            write_robj(args, &out.result)?;
            out.report
        }
    };
    let _ = write!(s, "{}", report.render());
    trace.finish(&mut s)?;
    Ok(s)
}

fn write_robj<R: RobjCodec>(args: &Args, robj: &R) -> Result<(), CmdError> {
    if let Some(path) = args.get("robj-out") {
        std::fs::write(path, robj.encode_robj())?;
    }
    Ok(())
}

pub fn worker(args: &Args) -> Result<String, CmdError> {
    args.check_known(&[
        "connect",
        "app",
        "index",
        "data",
        "data2",
        "frac-local",
        "cluster",
        "location",
        "cores",
        "name",
        "dim",
        "k",
        "compute-ns",
        "prefetch-depth",
        "timeout",
    ])?;
    let (kind, tag) = app_kind(args)?;
    let layout = load_layout(args)?;
    let placement = placement_for(args, &layout)?;
    let cluster_ix: u32 = args.require_parsed("cluster")?;
    let location: u16 = args.get_or("location", cluster_ix as u16)?;
    let cores: usize = args.get_or("cores", 2)?;
    let name = args
        .get("name")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("worker-{cluster_ix}"));
    let addr = args
        .require("connect")?
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| CmdError::Other("--connect did not resolve to an address".into()))?;

    let mut stores: StoreMap = BTreeMap::new();
    stores.insert(
        LocationId(0),
        Arc::new(DiskStore::open("site0", args.require("data")?)?) as Arc<dyn ObjectStore>,
    );
    if let Some(data2) = args.get("data2") {
        stores.insert(
            LocationId(1),
            Arc::new(DiskStore::open("site1", data2)?) as Arc<dyn ObjectStore>,
        );
    }
    let fabric = DataFabric::direct(&stores);
    let cluster = ClusterSpec::new(&name, LocationId(location), cores);

    let defaults = RuntimeConfig::default();
    let cfg = RuntimeConfig {
        prefetch_depth: args.get_or("prefetch-depth", defaults.prefetch_depth)?,
        synthetic_compute_ns_per_unit: args.get_or("compute-ns", 0)?,
        ..defaults
    };
    let net = net_config_worker(args)?;
    let fp = fingerprint(&layout, &placement, &tag);
    let spec = WorkerSpec {
        cluster: cluster_ix,
        name: name.clone(),
        app_tag: tag.clone(),
        fingerprint: fp,
    };

    let (jobs, robj_bytes) = match kind {
        AppKind::WordCount => {
            let out = run_worker(
                &WordCountApp,
                &(),
                &layout,
                &placement,
                &fabric,
                &cluster,
                &spec,
                &cfg,
                &net,
                addr,
            )
            .map_err(|e| CmdError::Other(e.to_string()))?;
            (jobs_of(&out.outcome.account.slaves), out.robj_bytes)
        }
        AppKind::Knn { dim, k } => {
            let app = KnnApp::new(dim, k);
            let query = KnnQuery {
                query: vec![0.5; dim],
            };
            let out = run_worker(
                &app, &query, &layout, &placement, &fabric, &cluster, &spec, &cfg, &net, addr,
            )
            .map_err(|e| CmdError::Other(e.to_string()))?;
            (jobs_of(&out.outcome.account.slaves), out.robj_bytes)
        }
        AppKind::Selection { dim } => {
            let app = SelectionApp::new(dim);
            let query = BoxQuery::new(vec![0.0; dim], vec![0.25; dim]);
            let out = run_worker(
                &app, &query, &layout, &placement, &fabric, &cluster, &spec, &cfg, &net, addr,
            )
            .map_err(|e| CmdError::Other(e.to_string()))?;
            (jobs_of(&out.outcome.account.slaves), out.robj_bytes)
        }
    };
    Ok(format!(
        "worker {name} (cluster {cluster_ix}): {jobs} jobs, shipped {robj_bytes} robj bytes\n"
    ))
}

/// Worker side reuses the head's heartbeat default; the actual cadence is
/// dictated by the head in `Welcome`, so only the connect/accept patience
/// flags matter here.
fn net_config_worker(args: &Args) -> Result<NetConfig, CmdError> {
    let mut net = NetConfig::default();
    let timeout: u64 = args.get_or("timeout", net.accept_timeout.as_secs())?;
    net.accept_timeout = Duration::from_secs(timeout.max(1));
    Ok(net)
}

fn jobs_of(stats: &[cloudburst_core::SlaveStats]) -> u64 {
    stats.iter().map(|s| s.jobs).sum()
}
