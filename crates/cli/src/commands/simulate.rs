//! `cloudburst simulate` — run one paper-scale environment on the
//! calibrated discrete-event simulator and print its report (optionally
//! with a per-slave timeline).

use super::{render_events, CmdError};
use crate::args::Args;
use cb_sim::calib::{self, App, NetConstants};
use cb_sim::model::{simulate, simulate_observed};
use cb_sim::params::SimParams;
use serde::Deserialize;
use std::fmt::Write as _;

pub const USAGE: &str = "cloudburst simulate --app knn|kmeans|pagerank \
[--env local|cloud|50/50|33/67|17/83] [--seed <n>] [--timeline true] \
[--wan-mult <x>] [--fault-rate <0..1>] \
[--kill-slave <cluster:slave:after_jobs>[,..]] [--prefetch-depth <n>] \
[--trace-out <trace.jsonl>] | --config <scenario.json>";

/// Run `params`, rendering the report plus (optionally) a Gantt timeline
/// and a JSONL event trace — the same knobs `run` has, on virtual time.
fn render_sim(
    params: SimParams,
    timeline: bool,
    trace_out: Option<&str>,
) -> Result<String, CmdError> {
    let mut s = String::new();
    if timeline || trace_out.is_some() {
        let (report, events) =
            simulate_observed(params).map_err(|e| CmdError::Other(e.to_string()))?;
        let _ = write!(s, "{}", report.render());
        render_events(&mut s, &events, timeline, trace_out)?;
    } else {
        let report = simulate(params).map_err(|e| CmdError::Other(e.to_string()))?;
        let _ = write!(s, "{}", report.render());
    }
    Ok(s)
}

/// A custom scenario file: every field optional except `app`.
///
/// ```json
/// {
///   "app": "pagerank",
///   "frac_local": 0.33,
///   "local_cores": 16,
///   "cloud_cores": 16,
///   "seed": 2011,
///   "wan_multiplier": 2.0,
///   "robj_mb": 300.0,
///   "cloud_jitter_cv": 0.08,
///   "allow_stealing": true
/// }
/// ```
#[derive(Debug, Deserialize)]
#[serde(deny_unknown_fields)]
struct Scenario {
    app: String,
    #[serde(default = "default_frac")]
    frac_local: f64,
    #[serde(default = "default_cores")]
    local_cores: usize,
    #[serde(default = "default_cores")]
    cloud_cores: usize,
    #[serde(default = "default_seed")]
    seed: u64,
    #[serde(default = "default_mult")]
    wan_multiplier: f64,
    /// Override the app profile's reduction-object size, in megabytes.
    robj_mb: Option<f64>,
    cloud_jitter_cv: Option<f64>,
    allow_stealing: Option<bool>,
    /// Slave prefetch lookahead; 0 (the default) is the paper's serial slave.
    #[serde(default)]
    prefetch_depth: usize,
    #[serde(default)]
    timeline: bool,
}

fn default_frac() -> f64 {
    0.5
}
fn default_cores() -> usize {
    16
}
fn default_seed() -> u64 {
    2011
}
fn default_mult() -> f64 {
    1.0
}

/// Run a scenario file.
fn run_config(path: &str, trace_out: Option<&str>) -> Result<String, CmdError> {
    let text = std::fs::read_to_string(path)?;
    let sc: Scenario =
        serde_json::from_str(&text).map_err(|e| CmdError::Other(format!("{path}: {e}")))?;
    let app = parse_app(&sc.app)?;

    let mut net = NetConstants::default();
    net.wan_bps *= sc.wan_multiplier;
    net.wan_conn_bps *= sc.wan_multiplier;
    net.robj_conn_bps *= sc.wan_multiplier;

    let env = calib::EnvSpec {
        name: format!(
            "custom-{:.0}/{:.0}",
            sc.frac_local * 100.0,
            (1.0 - sc.frac_local) * 100.0
        ),
        frac_local: sc.frac_local,
        local_cores: sc.local_cores,
        cloud_cores: sc.cloud_cores,
    };
    let mut params = calib::build_params(app, &env, &net, sc.seed);
    if let Some(mb) = sc.robj_mb {
        params.robj_bytes = (mb * 1e6) as u64;
    }
    if let Some(cv) = sc.cloud_jitter_cv {
        for c in &mut params.clusters {
            if c.name == "EC2" {
                c.jitter_cv = cv;
            }
        }
    }
    if let Some(st) = sc.allow_stealing {
        params.pool.allow_stealing = st;
    }
    params.prefetch_depth = sc.prefetch_depth;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "simulating {} from {path}: {} ({} local + {} cloud cores, WAN x{})",
        app.name(),
        env.name,
        env.local_cores,
        env.cloud_cores,
        sc.wan_multiplier
    );
    let _ = write!(s, "{}", render_sim(params, sc.timeline, trace_out)?);
    Ok(s)
}

fn parse_app(name: &str) -> Result<App, CmdError> {
    App::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| {
            CmdError::Other(format!(
                "unknown --app {name:?}; expected knn, kmeans, or pagerank"
            ))
        })
}

pub fn run(args: &Args) -> Result<String, CmdError> {
    args.check_known(&[
        "app",
        "env",
        "seed",
        "timeline",
        "wan-mult",
        "config",
        "fault-rate",
        "kill-slave",
        "prefetch-depth",
        "trace-out",
    ])?;
    if let Some(path) = args.get("config") {
        return run_config(path, args.get("trace-out"));
    }
    let app = parse_app(args.require("app")?)?;
    let env_name = args.get("env").unwrap_or("50/50");
    let seed: u64 = args.get_or("seed", 2011)?;
    let timeline: bool = args.get_or("timeline", false)?;
    let wan_mult: f64 = args.get_or("wan-mult", 1.0)?;
    let fault_rate: f64 = args.get_or("fault-rate", 0.0)?;

    let envs = calib::fig3_envs(app);
    let env = envs
        .iter()
        .find(|e| e.name == format!("env-{env_name}"))
        .ok_or_else(|| {
            CmdError::Other(format!(
                "unknown --env {env_name:?}; expected one of: {}",
                envs.iter()
                    .map(|e| e.name.trim_start_matches("env-"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;

    let mut net = NetConstants::default();
    net.wan_bps *= wan_mult;
    net.wan_conn_bps *= wan_mult;
    net.robj_conn_bps *= wan_mult;
    let mut params = calib::build_params(app, env, &net, seed);
    params.prefetch_depth = args.get_or("prefetch-depth", 0)?;
    params.faults.fetch_failure_prob = fault_rate;
    if let Some(spec) = args.get("kill-slave") {
        params.faults.kill_schedule = crate::commands::run::parse_kill_schedule(spec)?;
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "simulating {} on {} ({} local + {} cloud cores, 120 GB, 960 jobs, WAN x{wan_mult})",
        app.name(),
        env.name,
        env.local_cores,
        env.cloud_cores
    );
    let _ = write!(
        s,
        "{}",
        render_sim(params, timeline, args.get("trace-out"))?
    );
    Ok(s)
}
