//! The whole-program stack-bound harness.
//!
//! Builds every Mica2 app under all 12 presets with a `stackbound` pass
//! appended, runs each build in the simulator, and reports:
//!
//! * the certified worst-case stack bound per cell, decomposed into
//!   task depth + interrupt overhead, with the S00x diagnostic census
//!   (S001 unbounded-recursion, S002 unresolved-call-target, S003
//!   stack-budget-exceeded);
//! * the simulator-observed stack watermark per cell, and the
//!   bound-vs-watermark tightness under the full safe stack.
//!
//! Emits `BENCH_stack.json` — the `"analysis"` object is byte-pinned by
//! the `gate stack` row (identical for any worker count and either
//! engine), the `"dynamics"` object is self-gated here: every cell's
//! bound is finite, dominates the observed watermark, and stays inside
//! the SRAM budget, and every app wires at least one interrupt vector
//! somewhere in the grid.

use bench::stack::{analysis_json, dynamics_json, measure, FULL_STACK};
use bench::{emit_json, json, row, ExperimentRunner, Knobs};

fn main() {
    let runner = ExperimentRunner::from_env();
    let knobs = Knobs::from_env();
    let seconds = knobs.sim_seconds;
    let apps = tosapps::mica2_apps();

    println!(
        "Stack-bound analysis — {} apps × 12 presets, {seconds}s workloads",
        apps.len()
    );
    let rows = measure(&runner, &apps, seconds);

    println!(
        "{}",
        row(
            "app",
            &["bound", "task+isr", "watermark", "tight", "budget"].map(String::from)
        )
    );
    for r in &rows {
        let full = &r.cells[FULL_STACK];
        let bound = full
            .stats
            .bound_bytes
            .expect("finite bound (asserted below)");
        println!(
            "{}",
            row(
                &r.app,
                &[
                    format!("{bound}B"),
                    format!(
                        "{}+{}",
                        full.stats.task_bytes.unwrap_or(0),
                        full.stats.isr_bytes.unwrap_or(0)
                    ),
                    format!("{}B", full.watermark),
                    format!(
                        "{:.0}%",
                        f64::from(full.watermark) * 100.0 / f64::from(bound)
                    ),
                    format!("{}B", full.stats.budget_bytes),
                ]
            )
        );
    }

    let body = json::Obj::new()
        .str("figure", "stack_analysis")
        .val("analysis", analysis_json(&rows))
        .val("dynamics", dynamics_json(&rows, seconds))
        .build();
    emit_json("stack", &body).expect("write BENCH_stack.json");
    runner.emit_speed("stack_analysis");

    // Self-gates: the invariants CI relies on, checked at the source.
    for r in &rows {
        for c in &r.cells {
            let bound = c.stats.bound_bytes.unwrap_or_else(|| {
                panic!(
                    "{} / {}: no finite stack bound (S001×{})",
                    r.app, c.preset, c.s001
                )
            });
            assert!(
                u32::from(c.watermark) <= bound,
                "{} / {}: observed watermark {}B exceeds the certified bound {}B — \
                 the analysis is unsound",
                r.app,
                c.preset,
                c.watermark,
                bound
            );
            assert_eq!(
                (c.s001, c.s002, c.s003),
                (0, 0, 0),
                "{} / {}: unexpected S00x diagnostics on a stock app",
                r.app,
                c.preset
            );
            assert!(
                bound <= c.stats.budget_bytes,
                "{} / {}: bound {}B blows the {}B SRAM budget",
                r.app,
                c.preset,
                bound,
                c.stats.budget_bytes
            );
        }
        assert!(
            r.cells.iter().any(|c| c.stats.wired_vectors > 0),
            "{}: no preset wired an interrupt vector — the ISR composition went untested",
            r.app
        );
        assert!(
            r.max_watermark() > 0,
            "{}: the simulator never observed a stack frame",
            r.app
        );
    }
    let cells = rows.iter().map(|r| r.cells.len()).sum::<usize>();
    println!();
    println!(
        "all {cells} app × preset cells certified: static bound ≥ observed watermark, \
         within the SRAM budget, zero S00x findings."
    );
}
