//! Figure 3(a): change in code size relative to the unsafe, unoptimized
//! baseline, across the seven configurations.
//!
//! The fig3 grid is also the canonical toolchain-speed benchmark: after
//! the cold grid is measured and emitted, the same grid runs a second
//! time against the warm frontend and pass caches, and the speed report
//! gains the `cache` section (warm wall/compile times plus the
//! cure-run census) that the `gate cache` row enforces from the
//! published bytes.

use std::collections::BTreeSet;

use bench::{emit_json, json, pct_change, row, ExperimentRunner, WarmCache};
use safe_tinyos::{pipelines_from_env_or, Metrics, Pipeline};

/// Renders the figure from a measured grid: the printable table rows
/// and the machine-readable body. Pure, so the warm re-run can be
/// byte-compared against the cold one.
fn render(bars: &[Pipeline], grid: &[Vec<Metrics>]) -> (Vec<String>, json::Value) {
    let mut lines = Vec::new();
    let mut app_rows = Vec::new();
    for (name, builds) in tosapps::APP_NAMES.iter().zip(grid) {
        let base_bytes = builds[0].flash_bytes as u64;
        let mut cells = Vec::new();
        let mut bar_obj = json::Obj::new();
        for (config, metrics) in bars.iter().zip(&builds[1..]) {
            let pct = pct_change(base_bytes, metrics.flash_bytes as u64);
            cells.push(format!("{pct:+.0}%"));
            bar_obj = bar_obj.num(config.name(), pct);
        }
        cells.push(format!("{base_bytes}"));
        lines.push(row(name, &cells));
        app_rows.push(
            json::Obj::new()
                .str("app", name)
                .int("baseline_flash_bytes", base_bytes as i64)
                .val("delta_pct", bar_obj.build())
                .build(),
        );
    }
    let body = json::Obj::new()
        .str("figure", "fig3a_code_size")
        .val("apps", json::arr(app_rows))
        .build();
    (lines, body)
}

fn main() {
    let runner = ExperimentRunner::from_env();
    let bars = pipelines_from_env_or(Pipeline::fig3_bars);
    // Column 0 of the grid is the baseline every bar is compared to.
    let mut configs = vec![Pipeline::unsafe_baseline()];
    configs.extend(bars.iter().cloned());
    let grid = runner.metrics_grid(tosapps::APP_NAMES, &configs);
    let labels: Vec<String> = bars.iter().map(|c| c.name().to_string()).collect();
    println!("Figure 3(a) — Δ code size vs. unsafe baseline (flash bytes)");
    println!(
        "{}",
        row("app", &[labels, vec!["baseline".into()]].concat())
    );
    let (lines, body) = render(&bars, &grid);
    for line in &lines {
        println!("{line}");
    }
    emit_json("fig3a_code_size", &body).expect("write BENCH_fig3a_code_size.json");
    let mut report = runner.take_speed("fig3a_code_size");

    // Cache-effectiveness census on the cold window: the cure pass must
    // have executed once per distinct (app, cure spec) pair, not once
    // per grid cell.
    let cure_specs: BTreeSet<String> = configs
        .iter()
        .filter_map(|p| {
            p.spec()
                .split('|')
                .find(|seg| seg.starts_with("cure"))
                .map(str::to_string)
        })
        .collect();
    let cure_runs = report.cache.get("cure").misses;
    let cure_unique = (tosapps::APP_NAMES.len() * cure_specs.len()) as u64;
    assert_eq!(
        cure_runs, cure_unique,
        "cure executed {cure_runs} times for {cure_unique} distinct (app, spec) inputs"
    );

    // Warm window: the same grid against the now-warm caches must
    // reproduce the figure byte-for-byte without re-running any pass.
    let warm_grid = runner.metrics_grid(tosapps::APP_NAMES, &configs);
    let (_, warm_body) = render(&bars, &warm_grid);
    assert_eq!(warm_body, body, "warm-cache grid drifted from the cold one");
    let warm = runner.take_speed("fig3a_code_size");
    assert_eq!(
        warm.cache.get("cure").misses,
        cure_runs,
        "the warm grid re-executed the cure pass"
    );
    report.warm = Some(WarmCache {
        wall: warm.wall,
        compile: warm.compile_time(),
        cure_runs,
        cure_unique,
    });

    // The fig3 grid is the canonical toolchain-speed benchmark.
    emit_json("toolchain_speed_fig3a_code_size", &report.to_json())
        .expect("write BENCH_toolchain_speed_fig3a_code_size.json");
    emit_json("toolchain_speed", &report.to_json()).expect("write BENCH_toolchain_speed.json");
    println!();
    println!("Expected shape (paper): naive safety costs 20–90% code; verbose-in-ROM");
    println!("is higher still; terse/FLID recover much of it; cXprop (esp. with");
    println!("inlining) brings safe code near the unsafe baseline; cXprop applied to");
    println!("the *unsafe* app shrinks it 10–25% (the 'new baseline').");
}
