//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <eval-grid|fleet-surge|diff-oracle> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in processes of its own, with its simulator engine
//! pinned through `STOS_ENGINE`: a few set-up-only processes time
//! process start to the first timed operation (`setup_s`, their median),
//! then one untraced process measures the end-to-end metrics for
//! `--seconds` and checks every output. With `--trace 1` a second,
//! traced process repeats the untraced run's inputs with a span around
//! each call into a layer's public functions, writes the spans as a
//! Chrome trace under the build directory, and the per-layer metrics
//! are printed instead; the two runs' outputs and cache counters must
//! agree. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `LAYERS.md` beside this package maps every metric to its layer and
//! workload.

mod common;
mod diff_oracle;
mod eval_grid;
mod fleet_surge;
mod replay;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{median, Budget, Ctx, Outcome};
use perfbench::json::{self, Value};

struct Workload {
    name: &'static str,
    engine: mcu::Engine,
    default_seed: u64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "eval-grid",
        engine: eval_grid::ENGINE,
        default_seed: 1,
    },
    Workload {
        name: "fleet-surge",
        engine: fleet_surge::ENGINE,
        default_seed: fleet_surge::PINNED_SEEDS[0],
    },
    Workload {
        name: "diff-oracle",
        engine: diff_oracle::ENGINE,
        default_seed: 1,
    },
];

/// Set-up-only processes per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;
const DEFAULT_SECONDS: u64 = 30;

/// End-to-end metrics: (name, unit), printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("warm_work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit), printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 79] = [
    ("nesc.compile_ms", "ms"),
    ("nesc.compiles", "count"),
    ("ccured.cure_ms", "ms"),
    ("ccured.prune_ms", "ms"),
    ("ccured.checks_inserted", "count"),
    ("cxprop.inline_ms", "ms"),
    ("cxprop.optimize_ms", "ms"),
    ("cxprop.checks_removed", "count"),
    ("cxprop.inlined", "count"),
    ("backend.prepare_ms", "ms"),
    ("backend.link_ms", "ms"),
    ("backend.links", "count"),
    ("backend.code_bytes", "bytes"),
    ("backend.sram_bytes", "bytes"),
    ("backend.checks_surviving", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("cache.digest_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.cure.hits", "count"),
    ("cache.cure.misses", "count"),
    ("cache.cure.bytes", "bytes"),
    ("cache.inline.hits", "count"),
    ("cache.inline.misses", "count"),
    ("cache.inline.bytes", "bytes"),
    ("cache.cxprop.hits", "count"),
    ("cache.cxprop.misses", "count"),
    ("cache.cxprop.bytes", "bytes"),
    ("cache.prune.hits", "count"),
    ("cache.prune.misses", "count"),
    ("cache.prune.bytes", "bytes"),
    ("cache.backend.hits", "count"),
    ("cache.backend.misses", "count"),
    ("cache.backend.bytes", "bytes"),
    ("service.requests", "count"),
    ("service.request_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.teardown_ms", "ms"),
    ("bbcache.build_ms", "ms"),
    ("bbcache.blocks", "count"),
    ("bbcache.fused", "count"),
    ("bbcache.slow_ops", "count"),
    ("machine.setup_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("machine.runs", "count"),
    ("machine.instructions", "count"),
    ("machine.instr_per_s", "1/s"),
    ("machine.duty_cycle_pct", "%"),
    ("fleet.build_ms", "ms"),
    ("fleet.run_s", "s"),
    ("fleet.cells", "count"),
    ("fleet.pops", "count"),
    ("fleet.instr_per_pop", "ratio"),
    ("fleet.ns_per_pop", "ns"),
    ("fleet.instr_per_s", "1/s"),
    ("fleet.delivered", "count"),
    ("fleet.dropped", "count"),
    ("fleet.sink_report_ms", "ms"),
    ("fleet.sink_delivery_pct", "%"),
    ("difftest.generate_ms", "ms"),
    ("difftest.diff_ms", "ms"),
    ("difftest.subjects", "count"),
    ("difftest.cases", "count"),
    ("difftest.builds", "count"),
    ("difftest.match", "count"),
    ("difftest.benign", "count"),
    ("difftest.csr", "count"),
    ("difftest.miscompile", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.thread_ms", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.replay_checks", "count"),
    ("untraced.op_p90_ms", "ms"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as a workload process (`setup`, `run`, `traced`).
    child: Option<String>,
    iterations: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child, mut iterations) =
        (None, DEFAULT_SECONDS, false, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WORKLOADS.iter().find(|w| w.name == v).ok_or(format!(
                    "unknown workload `{v}` (expected one of {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => {
                seconds = number(value()?)?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            "--child" => child = Some(value()?),
            "--iterations" => iterations = Some(number(value()?)?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed),
        seconds,
        trace,
        child,
        iterations,
    })
}

fn main() {
    let result = parse_args().and_then(|args| match args.child.clone() {
        Some(mode) => child(&args, &mode),
        None => orchestrate(&args),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

// ---------------------------------------------------------------------
// Workload processes.
// ---------------------------------------------------------------------

fn child(args: &Args, mode: &str) -> Result<(), String> {
    let traced = match mode {
        "setup" | "run" => false,
        "traced" => true,
        _ => return Err(format!("unknown process mode `{mode}`")),
    };
    if traced {
        trace::enable();
        trace::set_thread(0);
    }
    let budget = match args.iterations {
        Some(n) => Budget::Iterations(n),
        None => Budget::Time(Duration::from_secs(args.seconds)),
    };
    let ctx = Ctx {
        seed: args.seed,
        budget,
        traced,
    };
    let ready = || {
        if mode == "setup" {
            println!("ready");
            std::process::exit(0);
        }
    };
    let mut out = Outcome::default();
    match args.workload.name {
        "eval-grid" => {
            let s = eval_grid::setup()?;
            ready();
            eval_grid::run(&ctx, &s, &mut out);
        }
        "fleet-surge" => {
            let mut s = fleet_surge::setup(&ctx, &mut out)?;
            ready();
            fleet_surge::run(&ctx, &mut s, &mut out);
        }
        "diff-oracle" => {
            let mut s = diff_oracle::setup(&ctx)?;
            ready();
            diff_oracle::run(&ctx, &mut s, &mut out);
        }
        other => unreachable!("workload {other} validated by parse_args"),
    }
    let mut layers = out.layers.clone();
    let mut totals = [0u64; 3];
    for (pass, counters) in &out.cache {
        for (field, (total, v)) in ["hits", "misses", "bytes"]
            .iter()
            .zip(totals.iter_mut().zip(counters))
        {
            layers.insert(format!("cache.{pass}.{field}"), *v as f64);
            *total += v;
        }
    }
    if !out.cache.is_empty() {
        let [hits, misses, bytes] = totals;
        layers.insert("cache.hits".into(), hits as f64);
        layers.insert("cache.misses".into(), misses as f64);
        layers.insert("cache.bytes".into(), bytes as f64);
        layers.insert(
            "cache.hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    if traced {
        trace::flush();
        let spans = trace::take();
        let dir = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .parent()
            .ok_or("executable has no directory")?
            .join("perfbench-trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload.name, args.seed));
        trace::write_chrome(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
        span_layers(&spans, &mut layers);
    }
    let result = json::obj(vec![
        ("wall_s", json::num(out.wall_s)),
        ("iterations", json::int(out.iterations)),
        ("attempted", json::int(out.attempted)),
        ("failed", json::int(out.checks.failed())),
        ("checks", out.checks.to_json()),
        ("e2e", num_map(&out.e2e)),
        ("layers", num_map(&layers)),
        (
            "outputs",
            Value::Obj(
                out.outputs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "cache",
            Value::Obj(
                out.cache
                    .iter()
                    .map(|(k, c)| {
                        (
                            k.clone(),
                            Value::Arr(c.iter().map(|&x| json::int(x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("peak_rss_mb", json::num(common::peak_rss_mib())),
    ]);
    println!("{}", json::render(&result));
    Ok(())
}

fn num_map(m: &BTreeMap<String, f64>) -> Value {
    Value::Obj(m.iter().map(|(k, v)| (k.clone(), json::num(*v))).collect())
}

/// Folds span totals into per-layer metrics: each layer's self time,
/// and what no named layer accounts for.
fn span_layers(spans: &[trace::Span], layers: &mut BTreeMap<String, f64>) {
    let totals = trace::totals(spans);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64 / 1e6);
    let dur_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e6);
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64);
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set(
        "nesc.compile_ms",
        self_ms("nesc.parse") + self_ms("nesc.compile"),
    );
    for (metric, span) in [
        ("ccured.cure_ms", "ccured.cure"),
        ("ccured.prune_ms", "ccured.prune"),
        ("cxprop.inline_ms", "cxprop.inline"),
        ("cxprop.optimize_ms", "cxprop.optimize"),
        ("backend.prepare_ms", "backend.prepare"),
        ("backend.link_ms", "backend.link"),
        ("cache.digest_ms", "cache.digest"),
        ("cache.lookup_ms", "cache.lookup"),
        ("service.overhead_ms", "service.request"),
        ("service.teardown_ms", "service.teardown"),
        ("bbcache.build_ms", "bbcache.build"),
        ("machine.setup_ms", "machine.setup"),
        ("machine.run_ms", "machine.run"),
        ("fleet.build_ms", "fleet.build"),
        ("fleet.sink_report_ms", "fleet.sink_report"),
        ("difftest.generate_ms", "difftest.generate"),
        ("difftest.diff_ms", "difftest.diff"),
    ] {
        set(metric, self_ms(span));
    }
    set("service.requests", count("service.request"));
    set("service.request_ms", dur_ms("service.request"));
    set("difftest.subjects", count("bench.subject"));
    let run_s = self_ms("fleet.run") / 1e3;
    set("fleet.run_s", run_s);
    set("trace.spans", spans.len() as f64);

    let thread_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns as f64 / 1e6)
        .sum::<f64>()
        - dur_ms("bench.wait");
    let attributed_ms: f64 = totals
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, t)| t.2 as f64 / 1e6)
        .sum();
    set("trace.thread_ms", thread_ms);
    set("trace.unattributed_ms", thread_ms - attributed_ms);
    set("trace.attributed_pct", 100.0 * attributed_ms / thread_ms);

    let get = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let instr = get("machine.instructions");
    let machine_s = get("machine.run_ms") / 1e3;
    let fleet_instr = get("fleet.instructions");
    let pops = get("fleet.pops");
    let cells = get("fleet.cells");
    let delivery = get("fleet.sink_delivery_pct_sum");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    layers.insert("machine.instr_per_s".into(), ratio(instr, machine_s));
    layers.insert("fleet.instr_per_pop".into(), ratio(fleet_instr, pops));
    layers.insert("fleet.ns_per_pop".into(), ratio(run_s * 1e9, pops));
    layers.insert("fleet.instr_per_s".into(), ratio(fleet_instr, run_s));
    layers.insert("fleet.sink_delivery_pct".into(), ratio(delivery, cells));
}

// ---------------------------------------------------------------------
// The orchestrating process.
// ---------------------------------------------------------------------

fn command(args: &Args, mode: &str, iterations: Option<u64>) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        mode,
        "--workload",
        args.workload.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    if let Some(n) = iterations {
        cmd.args(["--iterations", &n.to_string()]);
    }
    cmd.env("STOS_ENGINE", args.workload.engine.name())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    Ok(cmd)
}

/// Spawns a set-up-only process; returns seconds from spawn to its
/// `ready` line.
fn time_setup(args: &Args) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = command(args, "setup", None)?
        .spawn()
        .map_err(|e| format!("spawning set-up process: {e}"))?;
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .map_err(|e| format!("reading set-up process: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() || line.trim() != "ready" {
        return Err(format!("set-up process failed ({status})"));
    }
    Ok(secs)
}

/// Runs a workload process to completion and parses its result line.
fn run_child(args: &Args, mode: &str, iterations: Option<u64>) -> Result<Value, String> {
    let mut child = command(args, mode, iterations)?
        .spawn()
        .map_err(|e| format!("spawning {mode} process: {e}"))?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("reading {mode} process: {e}"))?;
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{mode} process failed ({status})"));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{mode} process printed nothing"))?;
    json::parse(line).map_err(|e| format!("{mode} process result: {e}"))
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// Prints one output check's result; a check fails if it compared
/// nothing or found a mismatch.
fn report_check(mode: &str, name: &str, compared: u64, mismatches: &[String]) -> bool {
    let ok = compared > 0 && mismatches.is_empty();
    let verdict = if ok { "ok" } else { "FAILED" };
    eprintln!("perfbench: {mode} check {name}: {compared} compared, {verdict}");
    for m in mismatches {
        eprintln!("    {m}");
    }
    ok
}

/// Whether every check of a workload process passed.
fn checks_ok(mode: &str, result: &Value) -> bool {
    let mut ok = true;
    for (name, c) in result.get("checks").map_or(&[][..], Value::as_obj) {
        let compared = c.get("compared").and_then(Value::as_u64).unwrap_or(0);
        let mismatches: Vec<String> = c
            .get("mismatches")
            .map_or(&[][..], Value::as_arr)
            .iter()
            .map(|m| m.as_str().unwrap_or("?").to_string())
            .collect();
        ok &= report_check(mode, name, compared, &mismatches);
    }
    ok
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        setup.push(time_setup(args)?);
    }
    let run = run_child(args, "run", None)?;
    let mut correct = checks_ok("run", &run);
    let mut attempted = num(&run, &["attempted"]) as u64;
    let mut failed = num(&run, &["failed"]) as u64;

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if !args.trace {
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => median(&setup),
                "peak_rss_mb" => num(&run, &["peak_rss_mb"]),
                _ => num(&run, &["e2e", name]),
            };
            metrics.push((name, unit, v));
        }
    } else {
        let iterations = num(&run, &["iterations"]) as u64;
        let traced = run_child(args, "traced", Some(iterations))?;
        correct &= checks_ok("traced", &traced);
        attempted += num(&traced, &["attempted"]) as u64;
        failed += num(&traced, &["failed"]) as u64;

        // The traced run must describe the same work: identical outputs,
        // and per-pass cache counters equal to the service's.
        let mut replay_checks = 0;
        for key in ["outputs", "cache"] {
            let (a, b) = (run.get(key), traced.get(key));
            let compared = a.map_or(0, |v| v.as_obj().len()) as u64;
            replay_checks += compared;
            let mismatches = if a == b {
                Vec::new()
            } else {
                vec![format!(
                    "untraced {}\n    traced   {}",
                    a.map(json::render).unwrap_or_default(),
                    b.map(json::render).unwrap_or_default()
                )]
            };
            // Workloads without a build service have no cache counters.
            if key == "cache" && compared == 0 && mismatches.is_empty() {
                continue;
            }
            if !report_check("traced", &format!("replay.{key}"), compared, &mismatches) {
                correct = false;
                failed += 1;
            }
        }

        // Cache counters come from the untraced run's
        // `BuildService::cache_stats()`; everything else from the traced run.
        let layer = |name: &str| {
            let from = match name.strip_prefix("cache.") {
                Some(rest) if !rest.ends_with("_ms") => &run,
                _ => &traced,
            };
            let v = num(from, &["layers", name]);
            if v.is_nan() {
                0.0
            } else {
                v
            }
        };
        let wall = num(&traced, &["wall_s"]) * 1e3;
        let untraced_wall = num(&run, &["wall_s"]) * 1e3;
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.wall_ms" => wall,
                "trace.untraced_wall_ms" => untraced_wall,
                "trace.overhead_ms" => wall - untraced_wall,
                "trace.replay_checks" => replay_checks as f64,
                "untraced.op_p90_ms" => num(&run, &["e2e", "op_p90_ms"]),
                _ => layer(name),
            };
            metrics.push((name, unit, v));
        }
    }

    correct &= failed == 0 && metrics.iter().all(|(_, _, v)| v.is_finite());
    for (name, unit, v) in &metrics {
        eprintln!("perfbench: {:<28} {v:>16.4} {unit}", name);
    }
    let result = json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::int(attempted.max(1))),
        ("failed", json::int(failed)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, v)| {
                        (
                            name.to_string(),
                            json::obj(vec![
                                ("value", json::num(*v)),
                                ("unit", Value::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json::render(&result));
    Ok(())
}
