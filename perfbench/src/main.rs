//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints a human-readable report, then one JSON line with the result.
//! Exits non-zero, printing no result, when the benchmark cannot run.

use perfbench::{Options, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt_pass: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
