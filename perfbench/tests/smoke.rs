//! Smoke test of the benchmark itself: every workload at its smallest
//! size (one iteration), untraced and traced.
//!
//! Asserts that every metric `BENCHMARK.json` names is printed with its
//! unit, that every output check of the workload runs and passes, and
//! that the traced run writes its spans and attributes at least 90% of
//! its thread time to named layers or publishes the remainder.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use perfbench::json::{self, Value};

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

struct Run {
    result: Value,
    stderr: String,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    Run {
        result: json::parse(last).expect("result line is JSON"),
        stderr,
    }
}

fn assert_metrics(workload: &str, run: &Run, list: &Value) {
    let r = &run.result;
    let keys: Vec<&str> = r.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{}", run.stderr);
    assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0));
    assert!(r.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let metrics = r.get("metrics").unwrap();
    let names: Vec<&str> = list
        .as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        metrics.as_obj().len(),
        names.len(),
        "{workload}: extra metrics"
    );
    for m in list.as_arr() {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        let printed = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} not printed"));
        assert_eq!(
            printed.get("unit"),
            m.get("unit"),
            "{workload}: {name} unit"
        );
        let v = printed.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

/// The output checks each workload must run, as the benchmark names them.
fn expected_checks(workload: &str) -> &'static [&'static str] {
    match workload {
        "eval-grid" => &[
            "build.ok",
            "cache.repeat",
            "engine",
            "fig2.checks",
            "fig3a.flash",
            "fig3b.sram",
            "fig3c.duty",
            "repeat.identical",
        ],
        "fleet-surge" => &["engine", "fleet.pinned_rows", "repeat.identical"],
        "diff-oracle" => &[
            "diff.ok",
            "difftest.committed_divergences",
            "difftest.cured_parity",
            "difftest.no_miscompile",
            "engine",
            "repeat.identical",
        ],
        other => panic!("no expected checks for workload {other}"),
    }
}

fn assert_checks(workload: &str, mode: &str, stderr: &str) {
    for check in expected_checks(workload) {
        let prefix = format!("perfbench: {mode} check {check}: ");
        let line = stderr
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("{workload}: {mode} check {check} did not run:\n{stderr}"));
        assert!(line.ends_with(", ok"), "{line}");
        assert!(!line.contains(": 0 compared"), "{line}");
    }
}

#[test]
fn every_workload_prints_its_metrics_and_runs_its_checks() {
    let manifest = manifest();
    let e2e = manifest.get("end_to_end").expect("end_to_end");
    let per_layer = manifest.get("per_layer").expect("per_layer");
    let workloads = manifest.get("workloads").expect("workloads").as_arr();
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();

        let untraced = run(name, 0);
        assert_metrics(name, &untraced, e2e);
        assert_checks(name, "run", &untraced.stderr);

        let traced = run(name, 1);
        assert_metrics(name, &traced, per_layer);
        assert_checks(name, "run", &traced.stderr);
        assert_checks(name, "traced", &traced.stderr);
        assert!(
            traced
                .stderr
                .contains("perfbench: traced check replay.outputs: "),
            "{name}: traced outputs not compared with the untraced run"
        );

        let m = traced.result.get("metrics").unwrap();
        let value = |k: &str| {
            m.get(k)
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert!(value("trace.spans") > 0.0, "{name}: no spans");
        let spans_file = traced
            .stderr
            .lines()
            .find_map(|l| l.split(" spans written to ").nth(1))
            .unwrap_or_else(|| panic!("{name}: no span file reported"));
        let spans = json::parse(&std::fs::read_to_string(spans_file).unwrap()).unwrap();
        assert_eq!(
            spans.get("traceEvents").unwrap().as_arr().len() as f64,
            value("trace.spans")
        );
        let (thread, unattributed) = (value("trace.thread_ms"), value("trace.unattributed_ms"));
        assert!(thread > 0.0);
        assert!(
            value("trace.attributed_pct") >= 90.0 || unattributed > 0.0,
            "{name}: less than 90% attributed and no remainder published"
        );
        let attributed = thread - unattributed;
        assert!((100.0 * attributed / thread - value("trace.attributed_pct")).abs() < 1e-6);
    }
}
