//! The benchmark of the cloud-bursting runtime: three workloads run
//! against the real runtime from one process, every result checked against
//! a sequential oracle, end-to-end metrics from untraced passes and
//! per-layer metrics from a separate traced run.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod host;
mod layers;
pub mod probe;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::time::Instant;
use workload::{Checked, Substrate, Workload};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["knn-steal", "kmeans-fold", "pagerank-tcp"];

/// The seed to measure with, and a second one to check a claim on a seed
/// not used while writing the change.
pub const DEFAULT_SEED: u64 = 42;
pub const CHECK_SEED: u64 = 7;

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 9;
const SMOKE_SETUPS: usize = 3;
/// Timed passes at least, whatever the time budget.
const MIN_TIMED: usize = 3;
/// Traced passes at least.
const MIN_TRACED: usize = 2;

/// A metric: its name and unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed with `--trace 0`, from the untraced passes.
pub const END_TO_END: [MetricDef; 4] = [
    m("throughput_mb_s", "MB/s"),
    m("cpu_s_per_gb", "s/GB"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`, from the traced passes (medians across them)
/// unless noted in `README.md`.
pub const PER_LAYER: [MetricDef; 31] = [
    m("retrieve.fetch_s", "s"),
    m("retrieve.get_s", "s"),
    m("retrieve.overhead_s", "s"),
    m("retrieve.remote_share", "ratio"),
    m("retrieve.retries", "count"),
    m("apps.decode_s", "s"),
    m("apps.decode_allocs_per_chunk", "allocs/chunk"),
    m("apps.fold_s", "s"),
    m("apps.fold_ns_per_unit", "ns/unit"),
    m("runtime.stall_s", "s"),
    m("runtime.sync_s", "s"),
    m("runtime.idle_end_s", "s"),
    m("runtime.wait_s", "s"),
    m("runtime.pass_tail_s", "s"),
    m("sched.jobs", "count"),
    m("sched.stolen", "count"),
    m("sched.refills", "count"),
    m("combine.merge_s", "s"),
    m("combine.robj_bytes", "bytes"),
    m("net.join_s", "s"),
    m("net.frames", "count"),
    m("net.bytes", "bytes"),
    m("net.robj_encode_s", "s"),
    m("net.robj_decode_s", "s"),
    m("net.ship_s", "s"),
    m("net.worker_exit_s", "s"),
    m("obs.events", "count"),
    m("obs.trace_overhead", "ratio"),
    m("setup.materialize_s", "s"),
    m("setup.index_s", "s"),
    m("host.steal_share", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or("?", |d| d.unit)
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Time budget of the measured passes. With `trace`, half goes to
    /// untraced passes and half to traced ones.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs (the benchmark's own tests).
    pub smoke: bool,
    /// Corrupt the robj of this timed pass (0-based) before checking it.
    pub corrupt_pass: Option<usize>,
}

/// One invocation's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`, in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The human-readable report.
    pub report: String,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        use serde_json::{Number, Value};
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Number(Number::F64(value))),
                    ("unit".into(), Value::String(unit.into())),
                ]);
                (name.to_owned(), v)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            (
                "attempted".into(),
                Value::Number(Number::U64(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::U64(self.failed))),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .render_compact()
    }
}

/// Generate the named workload's input from `opts.seed` and run it.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (seed, smoke) = (opts.seed, opts.smoke);
    match opts.workload.as_str() {
        "knn-steal" => bench(workload::knn_steal(seed, smoke), opts),
        "kmeans-fold" => bench(workload::kmeans_fold(seed, smoke), opts),
        "pagerank-tcp" => bench(workload::pagerank_tcp(seed, smoke), opts),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Passes attempted and failed, with the first failures' reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.record_sample(outcome).is_some()
    }

    fn record_sample<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(t) => Some(t),
            Err(e) => {
                self.failed += 1;
                if self.reasons.len() < 5 {
                    self.reasons.push(e);
                }
                None
            }
        }
    }
}

fn bench<A>(mut w: Workload<A>, opts: &Options) -> Result<Outcome, String>
where
    A: cloudburst_core::GRApp + Clone,
    A::RObj: Checked,
{
    let ticks0 = host::cpu_ticks();
    let spin_start = host::spin_ns_per_iter();
    let mb = w.bytes() as f64 / 1e6;
    let oracle = w.oracle();

    // Set-up, several times; the last environment is kept.
    let n_setups = if opts.smoke { SMOKE_SETUPS } else { SETUPS };
    let mut setups = Vec::with_capacity(n_setups);
    let mut env = None;
    for _ in 0..n_setups {
        drop(env.take());
        let (e, t) = w.setup()?;
        setups.push(t);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    w.input = Vec::new();
    let rss_reset = host::reset_peak_rss();

    let cfg = cloudburst_core::RuntimeConfig::default();
    let mut tally = Tally::default();
    let check = |p: &workload::Pass<A::RObj>| -> Result<(), String> {
        let ran = p.result.as_ref().map_err(Clone::clone)?;
        ran.robj.check(&oracle)
    };

    // Warm-up: checked, not timed.
    let warm = workload::pass(&w.app, &w.params, &env, &cfg);
    tally.record(check(&warm));

    // Untraced passes.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut walls, mut cpu_per_gb, mut exits) = (Vec::new(), Vec::new(), Vec::new());
    let cpu0 = host::process_cpu_s();
    let t_timed = Instant::now();
    let mut timed = 0usize;
    while timed < MIN_TIMED || t_timed.elapsed().as_secs_f64() < budget {
        let c0 = host::process_cpu_s();
        let mut p = workload::pass(&w.app, &w.params, &env, &cfg);
        let c1 = host::process_cpu_s();
        if opts.corrupt_pass == Some(timed) {
            if let Ok(ran) = p.result.as_mut() {
                ran.robj.corrupt();
            }
        }
        if tally.record(check(&p)) {
            walls.push(p.wall.as_secs_f64());
            cpu_per_gb.push((c1 - c0) / (mb / 1e3));
            exits.push(p.worker_exit.as_secs_f64());
        }
        timed += 1;
    }
    let cpu_s = host::process_cpu_s() - cpu0;
    let peak_rss = host::peak_rss_mb();

    // Traced passes.
    let mut samples = Vec::new();
    if opts.trace {
        let in_process = w.substrate == Substrate::InProcess;
        probe::set_alloc_counting(true);
        let t_traced = Instant::now();
        let mut traced = 0usize;
        while traced < MIN_TRACED || t_traced.elapsed().as_secs_f64() < budget {
            let tr = workload::traced_pass(&w.app, &w.params, &env, &cfg)?;
            let sample = layers::analyse(&tr, &env.layout, &oracle, in_process);
            if let Some(s) = tally.record_sample(sample) {
                samples.push(s);
            }
            traced += 1;
        }
        probe::set_alloc_counting(false);
    }
    let steal = host::steal_share(ticks0, host::cpu_ticks());
    let spin_end = host::spin_ns_per_iter();

    // --- Metrics. ---
    let wall_med = stats::median(&walls);
    let setup_total: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64| metrics.push((name, unit_of(name), value));
    if opts.trace {
        for def in &PER_LAYER {
            let value = match def.name {
                "runtime.pass_tail_s" => stats::tail(&walls).0,
                "obs.trace_overhead" => {
                    let traced: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
                    stats::ratio(stats::median(&traced), wall_med) - 1.0
                }
                "setup.materialize_s" => {
                    stats::median(&setups.iter().map(|t| t.materialize_s).collect::<Vec<_>>())
                }
                "setup.index_s" => {
                    stats::median(&setups.iter().map(|t| t.index_s).collect::<Vec<_>>())
                }
                "host.steal_share" => steal,
                name => stats::median(&sample_values(&samples, name)),
            };
            put(def.name, value);
        }
    } else {
        put("throughput_mb_s", stats::ratio(mb, wall_med));
        put("cpu_s_per_gb", stats::ratio(cpu_s, timed as f64 * mb / 1e3));
        put("setup_s", stats::median(&setup_total));
        put("peak_rss_mb", peak_rss);
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());

    // --- Human-readable report. ---
    let mut r = String::new();
    let _ = writeln!(
        r,
        "# perfbench {} seed={} seconds={} trace={} smoke={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.smoke
    );
    let _ = writeln!(
        r,
        "# git={} nproc={} host.steal_share={:.4} dataset={:.1} MB ({} chunks) substrate={:?}",
        host::git_sha(std::path::Path::new(".")),
        host::nproc(),
        steal,
        mb,
        env.layout.chunks.len(),
        w.substrate,
    );
    let _ = writeln!(
        r,
        "# host speed: fixed spin loop {spin_start:.3} ns/iter before set-up, {spin_end:.3} after the passes"
    );
    if let Err(e) = rss_reset {
        let _ = writeln!(
            r,
            "# note: could not reset VmHWM ({e}); peak_rss_mb includes set-up"
        );
    }
    let _ = writeln!(
        r,
        "# passes: 1 warm-up, {timed} timed ({} ok), {} traced; attempted={} failed={}",
        walls.len(),
        samples.len(),
        tally.attempted,
        tally.failed
    );
    for reason in &tally.reasons {
        let _ = writeln!(r, "# FAILED pass: {reason}");
    }
    let _ = writeln!(
        r,
        "# {:<32} {:>14} {:>14} {:>14}  unit",
        "per-pass metric", "q1", "median", "q3"
    );
    quart(&mut r, "pass wall", "s", &walls);
    let per_pass_tp: Vec<f64> = walls.iter().map(|w| mb / w).collect();
    quart(&mut r, "throughput_mb_s (per pass)", "MB/s", &per_pass_tp);
    quart(&mut r, "cpu_s_per_gb (per pass)", "s/GB", &cpu_per_gb);
    quart(&mut r, "setup_s (per set-up)", "s", &setup_total);
    if w.substrate == Substrate::Tcp {
        quart(&mut r, "net.worker_exit_s (untraced)", "s", &exits);
    }
    let (tail, pct, n) = stats::tail(&walls);
    let _ = writeln!(
        r,
        "# runtime.pass_tail_s = {tail:.6} s: p{pct:.0} of n={n} untraced passes"
    );
    if opts.trace && !samples.is_empty() {
        for def in PER_LAYER.iter() {
            let xs = sample_values(&samples, def.name);
            if !xs.is_empty() {
                quart(&mut r, def.name, def.unit, &xs);
            }
        }
        // The split of the traced pass with the median wall.
        let mut by_wall: Vec<&layers::Sample> = samples.iter().collect();
        by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let mid = by_wall[by_wall.len() / 2];
        let _ = writeln!(
            r,
            "# layer split of the median traced pass: wall {:.6} s, per-core seconds",
            mid.wall_s
        );
        for (row, s) in &mid.split {
            let _ = writeln!(
                r,
                "#   {row:<30} {s:>10.6} s  {:>6.1}%",
                100.0 * stats::ratio(*s, mid.wall_s)
            );
        }
        let wait = mid.split.last().map_or(0.0, |(_, s)| *s);
        let _ = writeln!(
            r,
            "#   unexplained share (|wait| / wall): {:.1}%",
            100.0 * stats::ratio(wait.abs(), mid.wall_s)
        );
    }
    if !finite {
        let _ = writeln!(r, "# FAILED: a metric is not finite");
    }

    Ok(Outcome {
        correct: tally.failed == 0 && finite,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report: r,
    })
}

/// Print one metric's quartiles across a run's samples.
fn quart(r: &mut String, name: &str, unit: &str, xs: &[f64]) {
    let [q1, q2, q3] = stats::quartiles(xs);
    let _ = writeln!(
        r,
        "# {name:<32} {q1:>14.6} {q2:>14.6} {q3:>14.6}  {unit} (n={})",
        xs.len()
    );
}

/// One per-layer metric across the traced passes.
fn sample_values(samples: &[layers::Sample], name: &str) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| s.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
        .collect()
}
