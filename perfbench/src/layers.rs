//! Per-layer numbers of one traced pass, and the pass's self-checks.

use crate::probe::GetRecord;
use crate::workload::{Checked, Ran, Traced};
use cb_storage::layout::DatasetLayout;
use cloudburst_core::obs::{check_invariants, EventKind, TraceSummary};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Tolerance for `TraceSummary::reconcile`'s per-core mean durations.
const RECONCILE_EPS_S: f64 = 1e-6;

/// What one traced pass measured.
pub struct Sample {
    /// Wall time of the traced pass.
    pub wall_s: f64,
    /// Per-layer metrics measured on this pass, by name.
    pub values: Vec<(&'static str, f64)>,
    /// The pass wall split along the blocking path, in per-core seconds;
    /// the last row is the remainder no other row explains.
    pub split: Vec<(&'static str, f64)>,
}

/// Check a traced pass and measure its layers. Slave-side times are
/// per-core means (summed over slave threads, divided by slave cores), the
/// convention `RunReport` uses, so they compare directly with wall time.
pub fn analyse<R: Checked>(
    tr: &Traced<R>,
    layout: &DatasetLayout,
    oracle: &R,
    in_process: bool,
) -> Result<Sample, String> {
    let ran = tr.pass.result.as_ref().map_err(Clone::clone)?;
    ran.robj.check(oracle)?;
    check_invariants(&tr.events).map_err(|e| format!("trace invariants: {e}"))?;
    if in_process {
        TraceSummary::from_events(&tr.events)
            .reconcile(&ran.report, RECONCILE_EPS_S)
            .map_err(|e| format!("trace does not reconcile with the report: {e}"))?;
    }
    tr.counters.check_folded_once(layout.total_units())?;

    let mut fetch_ns = 0u64;
    let (mut fetches, mut remote) = (0u64, 0u64);
    let (mut stall_ns, mut process_ns, mut units) = (0u64, 0u64, 0u64);
    let (mut retries, mut jobs, mut stolen, mut refills) = (0u64, 0u64, 0u64, 0u64);
    let (mut frames, mut net_bytes, mut join_ns) = (0u64, 0u64, 0u64);
    // Over TCP a shipment shows twice (the worker's event and the head's),
    // so each cluster's robj counts once, at its largest reported size.
    let mut robj_bytes: BTreeMap<Option<u32>, u64> = BTreeMap::new();
    for e in &tr.events {
        match e.kind {
            EventKind::FetchEnd { ns, remote: r, .. } => {
                fetch_ns += ns;
                fetches += 1;
                remote += u64::from(r);
            }
            EventKind::Stall { ns } => stall_ns += ns,
            EventKind::ProcessEnd { ns, units: u, .. } => {
                process_ns += ns;
                units += u;
            }
            EventKind::Retry { .. } => retries += 1,
            EventKind::JobAssigned { .. } => jobs += 1,
            EventKind::Steal { .. } => stolen += 1,
            EventKind::MasterRefill { .. } => refills += 1,
            EventKind::RobjMerge { bytes, .. } => {
                let b = robj_bytes.entry(e.cluster).or_default();
                *b = (*b).max(bytes);
            }
            EventKind::NetSent { bytes } => {
                frames += 1;
                net_bytes += bytes;
            }
            EventKind::PeerJoined { .. } => join_ns = join_ns.max(e.t_ns),
            _ => {}
        }
    }
    let report = &ran.report;
    let cores = report
        .clusters
        .iter()
        .map(|c| c.cores)
        .sum::<usize>()
        .max(1) as f64;
    let per_core = |ns: u64| ns as f64 / 1e9 / cores;
    let core_mean = |f: fn(&cloudburst_core::ClusterBreakdown) -> f64| {
        report
            .clusters
            .iter()
            .map(|c| f(c) * c.cores as f64)
            .sum::<f64>()
            / cores
    };
    let c = &tr.counters;
    let decode_ns = c.decode_ns.load(Ordering::Relaxed);
    let chunks = c.chunks.load(Ordering::Relaxed);
    let allocs = c.decode_allocs.load(Ordering::Relaxed);
    let fold_ns = process_ns.saturating_sub(decode_ns);
    let get_s = per_core(get_union_ns(&tr.gets, layout));
    let fetch_s = per_core(fetch_ns);
    let (merge_s, encode_s, decode_robj_s) = time_combine(ran)?;

    let wall_s = tr.pass.wall.as_secs_f64();
    let stall_s = per_core(stall_ns);
    let idle_end_s = core_mean(|c| c.idle_end_s);
    let join_s = join_ns as f64 / 1e9;
    let ship_s = report.global_reduction_s;
    let mut split = vec![
        ("retrieve stall", stall_s),
        ("apps decode", per_core(decode_ns)),
        ("apps fold", per_core(fold_ns)),
        ("runtime idle_end", idle_end_s),
        ("net join", join_s),
        ("net ship (global reduction)", ship_s),
    ];
    let wait_s = wall_s - split.iter().map(|(_, s)| s).sum::<f64>();
    split.push(("runtime wait (remainder)", wait_s));

    let values = vec![
        ("retrieve.fetch_s", fetch_s),
        ("retrieve.get_s", get_s),
        ("retrieve.overhead_s", fetch_s - get_s),
        (
            "retrieve.remote_share",
            crate::stats::ratio(remote as f64, fetches as f64),
        ),
        ("retrieve.retries", retries as f64),
        ("apps.decode_s", per_core(decode_ns)),
        (
            "apps.decode_allocs_per_chunk",
            crate::stats::ratio(allocs as f64, chunks as f64),
        ),
        ("apps.fold_s", per_core(fold_ns)),
        (
            "apps.fold_ns_per_unit",
            crate::stats::ratio(fold_ns as f64, units as f64),
        ),
        ("runtime.stall_s", stall_s),
        ("runtime.sync_s", core_mean(|c| c.sync_s)),
        ("runtime.idle_end_s", idle_end_s),
        ("runtime.wait_s", wait_s),
        ("sched.jobs", jobs as f64),
        ("sched.stolen", stolen as f64),
        ("sched.refills", refills as f64),
        ("combine.merge_s", merge_s),
        (
            "combine.robj_bytes",
            robj_bytes.values().sum::<u64>() as f64,
        ),
        ("net.join_s", join_s),
        ("net.frames", frames as f64),
        ("net.bytes", net_bytes as f64),
        ("net.robj_encode_s", encode_s),
        ("net.robj_decode_s", decode_robj_s),
        ("net.ship_s", ship_s),
        ("net.worker_exit_s", tr.pass.worker_exit.as_secs_f64()),
        ("obs.events", tr.events.len() as f64),
    ];
    Ok(Sample {
        wall_s,
        values,
        split,
    })
}

/// Wall time the store spent serving each chunk's GETs (the union of the
/// GET intervals inside the chunk's byte range, so parallel sub-range GETs
/// count once), summed over chunks.
fn get_union_ns(gets: &[GetRecord], layout: &DatasetLayout) -> u64 {
    let mut by_key: HashMap<&str, Vec<&GetRecord>> = HashMap::new();
    for g in gets {
        by_key.entry(g.key.as_str()).or_default().push(g);
    }
    for v in by_key.values_mut() {
        v.sort_by_key(|g| g.offset);
    }
    let mut total = 0u64;
    for c in &layout.chunks {
        let Some(v) = by_key.get(layout.file(c.file).name.as_str()) else {
            continue;
        };
        let lo = v.partition_point(|g| g.offset < c.offset);
        let hi = v.partition_point(|g| g.offset < c.offset + c.len);
        let mut spans: Vec<(u64, u64)> = v[lo..hi].iter().map(|g| (g.start_ns, g.end_ns)).collect();
        spans.sort_unstable();
        let mut covered_to = 0u64;
        for (start, end) in spans {
            let start = start.max(covered_to);
            if end > start {
                total += end - start;
                covered_to = end;
            }
        }
    }
    total
}

/// Time the global reduction's merges and, over TCP, the robj codec, on
/// this pass's own robjs: `(merge_s, encode_s, decode_s)`. Over TCP the
/// workers' shipped robjs are merged and coded exactly as the head did; in
/// process no robj crosses a wire (codec 0) and one merge per extra
/// cluster is timed on copies of the result.
fn time_combine<R: Checked>(ran: &Ran<R>) -> Result<(f64, f64, f64), String> {
    if ran.shipped.is_empty() {
        let merges = ran.report.clusters.len().saturating_sub(1);
        let mut merge_s = 0.0;
        for _ in 0..merges {
            let (mut a, b) = (ran.robj.clone(), ran.robj.clone());
            let t = Instant::now();
            a.merge(b);
            merge_s += t.elapsed().as_secs_f64();
            std::hint::black_box(a);
        }
        return Ok((merge_s, 0.0, 0.0));
    }
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    for r in &ran.shipped {
        let t = Instant::now();
        let bytes = r.encode_robj();
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = R::decode_robj(&bytes).map_err(|e| format!("robj codec: {e}"))?;
        decode_s += t.elapsed().as_secs_f64();
        std::hint::black_box(back);
    }
    let mut copies: Vec<R> = ran.shipped.clone();
    let rest = copies.split_off(1);
    let mut acc = copies.pop().expect("at least one shipped robj");
    let t = Instant::now();
    for r in rest {
        acc.merge(r);
    }
    let merge_s = t.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    Ok((merge_s, encode_s, decode_s))
}
