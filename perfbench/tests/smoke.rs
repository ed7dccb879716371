//! Smoke-size runs of every workload: every named metric is printed,
//! finite and carries its unit, and a corrupted result counts as a failed
//! pass.

use perfbench::{Options, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

/// A smoke-size run measuring for `seconds` (at least three timed passes).
fn smoke(workload: &str, seconds: f64, trace: bool, corrupt_pass: Option<usize>) -> Outcome {
    let opts = Options {
        workload: workload.into(),
        seed: perfbench::DEFAULT_SEED,
        seconds,
        trace,
        smoke: true,
        corrupt_pass,
    };
    perfbench::run(&opts).expect("smoke run")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Value::String(s)) => s.clone(),
                other => panic!("metric field {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The printed JSON line, parsed back.
fn printed_metrics(outcome: &Outcome) -> Vec<(String, String, f64)> {
    let doc: Value = serde_json::from_str(&outcome.json()).expect("result line is JSON");
    let Value::Object(top) = &doc else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Value::Number(n)) => match *n {
                    serde_json::Number::F64(x) => x,
                    serde_json::Number::U64(x) => x as f64,
                    serde_json::Number::I64(x) => x as f64,
                },
                other => panic!("{name}: value {other:?}"),
            };
            let unit = match m.get("unit") {
                Some(Value::String(u)) => u.clone(),
                other => panic!("{name}: unit {other:?}"),
            };
            (name.clone(), unit, value)
        })
        .collect()
}

#[test]
fn every_metric_is_printed_finite_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!(
        e2e,
        END_TO_END.map(|d| (d.name.to_owned(), d.unit.to_owned())),
        "END_TO_END matches BENCHMARK.json"
    );
    assert_eq!(
        layers,
        PER_LAYER.map(|d| (d.name.to_owned(), d.unit.to_owned())),
        "PER_LAYER matches BENCHMARK.json"
    );
    // One test, run in sequence: the traced passes switch the process-wide
    // allocation counter on and off.
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &e2e), (true, &layers)] {
            // Long enough for the CPU clock (10 ms ticks) to advance.
            let out = smoke(workload, 0.5, trace, None);
            assert!(
                out.correct && out.failed == 0,
                "{workload} trace={trace}:\n{}",
                out.report
            );
            assert!(out.attempted >= 1);
            let printed = printed_metrics(&out);
            let names: Vec<(String, String)> = printed
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(&names, expected, "{workload} trace={trace}");
            for (name, _, value) in &printed {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            if !trace {
                for (name, _, value) in &printed {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_robj_is_a_failed_pass() {
    for workload in WORKLOADS {
        let out = smoke(workload, 0.0, false, Some(1));
        assert_eq!(out.failed, 1, "{workload}:\n{}", out.report);
        assert!(!out.correct);
        assert!(
            out.attempted >= 4,
            "warm-up plus at least three timed passes"
        );
        assert!(out.report.contains("FAILED pass"), "{}", out.report);
    }
}
