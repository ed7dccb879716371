//! `cloudburst inspect` — decode, validate, and summarize an index file,
//! or (`inspect trace`) an event trace captured with `--trace-out`.

use super::CmdError;
use crate::args::Args;
use cb_storage::index;
use cloudburst_core::obs::{self, EventKind, MetricsRegistry, Timeline, TraceSummary};
use cloudburst_core::SlaveStats;
use std::fmt::Write as _;
use std::time::Duration;

pub const USAGE: &str = "cloudburst inspect <index-file> [--chunks true] | \
cloudburst inspect trace <trace.jsonl> [--top <n>] [--width <cols>]";

/// `inspect trace <file>`: validate a JSONL event trace against the schema
/// and its pairing invariants, then print the derived views — per-cluster
/// aggregates, the Gantt timeline with utilization, the slowest fetches,
/// and the metrics registry. Everything shown is computed from the event
/// stream alone (see docs/OBSERVABILITY.md).
fn run_trace(args: &Args) -> Result<String, CmdError> {
    args.check_known(&["top", "width"])?;
    let path = args
        .positional()
        .get(2)
        .ok_or_else(|| CmdError::Other(format!("usage: {USAGE}")))?;
    let top: usize = args.get_or("top", 5)?;
    let width: usize = args.get_or("width", 100)?;
    if width == 0 {
        return Err(CmdError::Other("--width must be >= 1".into()));
    }

    let text = std::fs::read_to_string(path)?;
    let events = obs::decode_jsonl(&text).map_err(CmdError::Other)?;
    obs::check_invariants(&events)
        .map_err(|e| CmdError::Other(format!("{path}: invariant violation: {e}")))?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "trace {path}: VALID ({} schema v{}, {} events)",
        obs::SCHEMA_NAME,
        obs::SCHEMA_VERSION,
        events.len()
    );

    let summary = TraceSummary::from_events(&events);
    for (c, slaves) in &summary.slaves {
        let sum = |f: fn(&SlaveStats) -> u64| slaves.iter().map(f).sum::<u64>();
        let secs = |f: fn(&SlaveStats) -> Duration| {
            slaves.iter().map(f).sum::<Duration>().as_nanos() as f64 / 1e9
        };
        let _ = writeln!(
            s,
            "  cluster {c}: {} jobs ({} stolen), process {:.3}s, fetch {:.3}s, \
             stall {:.3}s, {} B local / {} B remote",
            sum(|st| st.jobs),
            sum(|st| st.stolen_jobs),
            secs(|st| st.processing),
            secs(|st| st.retrieval),
            secs(|st| st.fetch_stall),
            sum(|st| st.bytes_local),
            sum(|st| st.bytes_remote),
        );
    }

    let tl = Timeline::from_events(&events);
    let _ = write!(s, "{}", tl.render_gantt(width));
    for &c in summary.slaves.keys() {
        let _ = writeln!(
            s,
            "  cluster {c} utilization: {:.1}%",
            tl.cluster_utilization(c) * 100.0
        );
    }

    let slowest = obs::slowest_fetches(&events, top);
    if !slowest.is_empty() {
        let _ = writeln!(s, "slowest fetches (top {}):", slowest.len());
        for e in slowest {
            if let EventKind::FetchEnd {
                chunk,
                bytes,
                remote,
                ns,
            } = e.kind
            {
                let _ = writeln!(
                    s,
                    "  chunk {chunk:>6}  {:.3}s  {bytes} B  {}  c{}/s{}",
                    ns as f64 / 1e9,
                    if remote { "remote" } else { "local " },
                    e.cluster.map_or("?".into(), |c| c.to_string()),
                    e.slave.map_or("?".into(), |v| v.to_string()),
                );
            }
        }
    }

    let _ = write!(s, "{}", MetricsRegistry::from_events(&events).render());
    Ok(s)
}

pub fn run(args: &Args) -> Result<String, CmdError> {
    if args.positional().get(1).map(String::as_str) == Some("trace") {
        return run_trace(args);
    }
    args.check_known(&["chunks"])?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| CmdError::Other(format!("usage: {USAGE}")))?;
    let show_chunks: bool = args.get_or("chunks", false)?;

    let bytes = std::fs::read(path)?;
    let layout = index::decode(&bytes).map_err(|e| CmdError::Other(e.to_string()))?;

    let mut s = String::new();
    let _ = writeln!(s, "index {path}: VALID");
    let _ = writeln!(
        s,
        "  {} files, {} chunks (jobs), {} bytes, {} data units",
        layout.files.len(),
        layout.n_jobs(),
        layout.total_bytes(),
        layout.total_units(),
    );
    let min = layout.chunks.iter().map(|c| c.len).min().unwrap_or(0);
    let max = layout.chunks.iter().map(|c| c.len).max().unwrap_or(0);
    let _ = writeln!(s, "  chunk sizes: min {min} / max {max} bytes");
    for f in &layout.files {
        let n = layout.chunks_of_file(f.id).count();
        let _ = writeln!(s, "  {}  {} bytes  {} chunks", f.name, f.size, n);
    }
    if show_chunks {
        for c in &layout.chunks {
            let _ = writeln!(
                s,
                "    {} file{} offset {} len {} units {}",
                c.id, c.file.0, c.offset, c.len, c.units
            );
        }
    }
    Ok(s)
}
