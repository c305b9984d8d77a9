//! The fleet-scale network-simulation harness.
//!
//! Builds Surge under the full safe stack once, then:
//!
//! * sweeps the event-driven fleet simulator over `STOS_MOTES` ×
//!   `STOS_FLEET_SEEDS` cells — lossy unit-disk grids with one mote
//!   power-cycling mid-run — and reports duty cycle, sink delivery
//!   rate, and scheduler throughput per cell;
//! * checks the event-driven engine against the lockstep `Network`
//!   reference on a 3-mote lossless full mesh (byte-identical per-mote
//!   observations);
//! * runs the network-level fault campaign: a fixed 9-mote grid whose
//!   center mote gets its RAM corrupted at enumerated sites, with
//!   fleet-level verdicts (FLID detection at the victim vs. silent
//!   route poisoning observed at the sink).
//!
//! Emits `BENCH_fleet.json` — the `"pinned"` object is byte-pinned by
//! the `gate fleet` row (per-row subset comparison, so CI can sweep fewer
//! cells than the committed artifact), the `"dynamics"` object carries
//! wall times.

use bench::fleet::{dynamics_json, measure, pinned_json, run_campaign, sweep_cells, SWEEP_QUALITY};
use bench::{emit_json, json, row, ExperimentRunner, Knobs};
use safe_tinyos::fleet::{lockstep_matches_event_driven, FleetSpec};
use safe_tinyos::Pipeline;

fn main() {
    let runner = ExperimentRunner::from_env();
    let knobs = Knobs::from_env();
    let seconds = knobs.fleet_seconds;
    let motes = &knobs.fleet_motes;
    let cells = sweep_cells(motes, knobs.fleet_seeds);
    println!(
        "Fleet simulator — {} cells ({motes:?} motes × {} seeds), {seconds}s each, \
         loss {} ppm",
        cells.len(),
        knobs.fleet_seeds,
        SWEEP_QUALITY.loss_ppm
    );

    let spec = tosapps::spec("Surge_Mica2").expect("Surge app");
    let pipelines = vec![Pipeline::safe_flid_inline_cxprop()];
    let grid = runner.run_grid(&[spec.name], &pipelines, |job| job.build(job.item));
    let build = &grid[0][0];

    let rows = measure(&runner, build, &cells, seconds);
    println!(
        "{}",
        row(
            "motes/seed",
            &["duty%", "heard", "offered", "deliv%", "drop", "reboot", "wall ms"].map(String::from)
        )
    );
    for r in &rows {
        println!(
            "{}",
            row(
                &format!("{}/{}", r.motes, r.seed),
                &[
                    format!("{:.2}", r.duty_pct),
                    r.report.heard.to_string(),
                    r.report.offered.to_string(),
                    format!("{:.1}", r.report.delivery_rate_pct),
                    r.stats.dropped.to_string(),
                    r.stats.reboots.to_string(),
                    format!("{:.0}", r.wall_ms),
                ]
            )
        );
    }

    let equivalence_ok =
        lockstep_matches_event_driven(build, &FleetSpec::lossless_mesh(3, 2, 0x5EED));
    let campaign = run_campaign(&runner, build);
    let (counts, sites) = campaign;
    println!(
        "campaign: {sites} sites on the 9-mote grid — {} detected, {} crashed, \
         {} poisoned, {} contained, {} benign",
        counts.detected, counts.crashed, counts.poisoned, counts.contained, counts.benign
    );

    let body = json::Obj::new()
        .str("figure", "fleet")
        .val(
            "pinned",
            pinned_json(&rows, seconds, campaign, equivalence_ok),
        )
        .val("dynamics", dynamics_json(&rows, runner.threads()))
        .build();
    emit_json("fleet", &body).expect("write BENCH_fleet.json");
    runner.emit_speed("fleet");

    // Self-gates: the invariants CI relies on, checked at the source.
    assert!(
        equivalence_ok,
        "event-driven fleet diverged from the lockstep reference"
    );
    for r in &rows {
        assert!(
            r.report.offered > 0,
            "{} motes: nothing hit the air",
            r.motes
        );
        assert!(
            r.report.heard > 0,
            "{} motes: the sink heard no readings",
            r.motes
        );
        assert!(
            r.stats.dropped > 0,
            "{} motes: lossy links dropped nothing",
            r.motes
        );
        if r.motes >= 4 {
            assert!(
                r.stats.reboots >= 1,
                "{} motes: the churned mote never rebooted",
                r.motes
            );
        }
    }
    assert_eq!(counts.total(), sites, "campaign lost verdicts");
    assert!(sites > 0, "campaign enumerated no corruption sites");
    println!();
    println!(
        "event-driven engine matched lockstep byte-for-byte; \
         {} sweep cells delivered data to the sink.",
        rows.len()
    );
}
