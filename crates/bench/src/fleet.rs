//! The fleet harness's data model: the mote-count scaling sweep, the
//! network-level fault campaign, and the `BENCH_fleet.json` payload
//! (the `fleet` binary drives it, the `gate fleet` row diffs the
//! published artifact).
//!
//! The emitted JSON has two top-level objects with different CI
//! contracts:
//!
//! * `"pinned"` — per-cell simulation outcomes (duty cycle, sink
//!   delivery, traffic and churn tallies), the fleet campaign's verdict
//!   histogram, and the lockstep-equivalence flag. Every value is a
//!   pure function of the build and the seeds — wall time never leaks
//!   in — so CI byte-compares each fresh row against the committed row
//!   with the same `(motes, seed)` key (see [`crate::gate::GATES`]).
//!   CI sweeps a smaller mote population than the committed artifact;
//!   the gate compares the subset.
//! * `"dynamics"` — wall times, scheduler pops per second, thread
//!   count. Machine-dependent, never pinned.

use std::time::Instant;

use mcu::fleet::FleetStats;
use mcu::LinkQuality;
use safe_tinyos::fleet::{
    build_fleet, fleet_campaign_plans, fleet_golden, horizon_cycles, run_fleet_site, sink_report,
    FleetCampaignConfig, FleetSpec, FleetVerdictCounts, SinkReport,
};
use safe_tinyos::Build;

use crate::{json, ExperimentRunner};

/// Per-link quality of the sweep's unit-disk grid: 1% loss, 0.4%
/// reordering, 0.2% duplication per byte — lossy enough that multihop
/// delivery visibly degrades with depth, reliable enough that the
/// single-shot beacon flood still forms a routing tree (an 11-byte
/// beacon frame survives a link with probability `0.99^11 ≈ 0.90`;
/// at 3% loss that falls to 0.71 and tree formation becomes a coin
/// flip).
pub const SWEEP_QUALITY: LinkQuality = LinkQuality {
    loss_ppm: 10_000,
    dup_ppm: 2_000,
    reorder_ppm: 4_000,
};

/// First seed of the sweep (cell seeds count up from here).
pub const SWEEP_BASE_SEED: u64 = 0xF1EE7;

/// The `(motes, seed)` cells of a sweep: `seeds` consecutive seeds per
/// mote count, in mote-major order.
pub fn sweep_cells(motes: &[usize], seeds: u64) -> Vec<(usize, u64)> {
    motes
        .iter()
        .flat_map(|&m| (0..seeds).map(move |s| (m, SWEEP_BASE_SEED + s)))
        .collect()
}

/// The sweep's scenario for one cell.
pub fn sweep_spec(motes: usize, seconds: u64, seed: u64) -> FleetSpec {
    FleetSpec::grid(motes, seconds, seed, SWEEP_QUALITY)
}

/// One cell of the scaling sweep.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Fleet size.
    pub motes: usize,
    /// Cell seed.
    pub seed: u64,
    /// Mean duty cycle across the fleet, percent.
    pub duty_pct: f64,
    /// Sink-side delivery scoring.
    pub report: SinkReport,
    /// Scheduler and channel tallies.
    pub stats: FleetStats,
    /// Wall time of the cell (dynamics only — never pinned).
    pub wall_ms: f64,
}

/// Builds, churns, and runs one sweep cell. Every cell power-cycles one
/// mid-fleet mote through the middle third of the run (fleets of at
/// least 4), so the pinned rows keep the churn path honest.
pub fn measure_cell(build: &Build, motes: usize, seed: u64, seconds: u64) -> FleetRow {
    let spec = sweep_spec(motes, seconds, seed);
    let horizon = horizon_cycles(build, &spec);
    let start = Instant::now();
    let mut fleet = build_fleet(build, &spec);
    if motes >= 4 {
        fleet.schedule_power_cycle(motes / 2, horizon / 3, Some(horizon / 2));
    }
    fleet.run(horizon);
    FleetRow {
        motes,
        seed,
        duty_pct: fleet.mean_duty_cycle_percent(),
        report: sink_report(&fleet),
        stats: fleet.stats(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs every sweep cell across the runner's worker threads. Results
/// come back in cell order, and every pinned field is independent of
/// the thread count.
pub fn measure(
    runner: &ExperimentRunner,
    build: &Build,
    cells: &[(usize, u64)],
    seconds: u64,
) -> Vec<FleetRow> {
    runner.run_items(cells, |_, &(motes, seed)| {
        measure_cell(build, motes, seed, seconds)
    })
}

/// The fleet campaign's fixed scenario: a 9-mote lossy grid with the
/// center mote as the corruption victim. Constants (not knobs) on
/// purpose — the campaign's verdict histogram is byte-pinned, so CI and
/// the committed artifact must run the identical experiment.
pub fn campaign_config() -> FleetCampaignConfig {
    FleetCampaignConfig {
        spec: FleetSpec::grid(9, 3, SWEEP_BASE_SEED ^ 0xCA3, SWEEP_QUALITY),
        victim: 4,
        sites: 6,
        site_seed: 0x0D15_EA5E,
    }
}

/// Runs the fleet campaign sharded site-by-site across the runner's
/// threads. Returns the verdict histogram and the number of sites run.
pub fn run_campaign(runner: &ExperimentRunner, build: &Build) -> (FleetVerdictCounts, usize) {
    let cfg = campaign_config();
    let golden = fleet_golden(build, &cfg);
    let plans = fleet_campaign_plans(build, &cfg);
    let results = runner.run_items(&plans, |_, plan| run_fleet_site(build, &cfg, plan, &golden));
    let mut counts = FleetVerdictCounts::default();
    for r in &results {
        counts.record(&r.verdict);
    }
    (counts, results.len())
}

/// Serializes one byte-pinned sweep row (no wall time).
pub fn pinned_row_json(r: &FleetRow) -> json::Value {
    json::Obj::new()
        .int("motes", r.motes as i64)
        .int("seed", r.seed as i64)
        .num("duty_pct", r.duty_pct)
        .int("sink_frames", r.report.frames as i64)
        .int("crc_rejects", r.report.crc_rejects as i64)
        .int("heard", r.report.heard as i64)
        .int("offered", r.report.offered as i64)
        .num("delivery_rate_pct", r.report.delivery_rate_pct)
        .int("tx_bytes", r.stats.tx_bytes as i64)
        .int("delivered", r.stats.delivered as i64)
        .int("dropped", r.stats.dropped as i64)
        .int("duplicated", r.stats.duplicated as i64)
        .int("reordered", r.stats.reordered as i64)
        .int("dropped_offline", r.stats.dropped_offline as i64)
        .int("reboots", r.stats.reboots as i64)
        .build()
}

/// Serializes the byte-pinned `"pinned"` object.
pub fn pinned_json(
    rows: &[FleetRow],
    seconds: u64,
    campaign: (FleetVerdictCounts, usize),
    equivalence_ok: bool,
) -> json::Value {
    let cfg = campaign_config();
    let (counts, sites) = campaign;
    json::Obj::new()
        .int("fleet_seconds", seconds as i64)
        .val(
            "quality",
            json::Obj::new()
                .int("loss_ppm", SWEEP_QUALITY.loss_ppm as i64)
                .int("dup_ppm", SWEEP_QUALITY.dup_ppm as i64)
                .int("reorder_ppm", SWEEP_QUALITY.reorder_ppm as i64)
                .build(),
        )
        .val("rows", json::arr(rows.iter().map(pinned_row_json)))
        .val(
            "campaign",
            json::Obj::new()
                .int("motes", cfg.spec.motes as i64)
                .int("victim", cfg.victim as i64)
                .int("sites", sites as i64)
                .int("detected", counts.detected as i64)
                .int("crashed", counts.crashed as i64)
                .int("poisoned", counts.poisoned as i64)
                .int("contained", counts.contained as i64)
                .int("benign", counts.benign as i64)
                .build(),
        )
        .val("equivalence_ok", json::Value::Bool(equivalence_ok))
        .build()
}

/// Serializes the machine-dependent `"dynamics"` object.
pub fn dynamics_json(rows: &[FleetRow], threads: usize) -> json::Value {
    let cells = rows
        .iter()
        .map(|r| {
            let pops_per_sec = if r.wall_ms > 0.0 {
                r.stats.pops as f64 * 1e3 / r.wall_ms
            } else {
                0.0
            };
            json::Obj::new()
                .int("motes", r.motes as i64)
                .int("seed", r.seed as i64)
                .num("wall_ms", r.wall_ms)
                .int("pops", r.stats.pops as i64)
                .num("pops_per_sec", pops_per_sec)
                .build()
        })
        .collect::<Vec<_>>();
    json::Obj::new()
        .int("threads", threads as i64)
        .val("rows", json::arr(cells))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cells_cover_every_size_and_seed() {
        let cells = sweep_cells(&[10, 100], 2);
        assert_eq!(
            cells,
            vec![
                (10, SWEEP_BASE_SEED),
                (10, SWEEP_BASE_SEED + 1),
                (100, SWEEP_BASE_SEED),
                (100, SWEEP_BASE_SEED + 1),
            ]
        );
    }

    #[test]
    fn pinned_row_omits_wall_time() {
        let row = FleetRow {
            motes: 10,
            seed: 1,
            duty_pct: 2.5,
            report: SinkReport {
                frames: 8,
                crc_rejects: 0,
                heard: 6,
                offered: 9,
                delivery_rate_pct: 66.6667,
            },
            stats: FleetStats::default(),
            wall_ms: 123.4,
        };
        let j = pinned_row_json(&row);
        assert_eq!(j.get("motes").and_then(json::Value::as_f64), Some(10.0));
        assert_eq!(j.get("heard").and_then(json::Value::as_f64), Some(6.0));
        assert!(!j.to_string().contains("wall"), "{j}");
    }

    #[test]
    fn campaign_scenario_is_fixed() {
        let cfg = campaign_config();
        assert_eq!(cfg.spec.motes, 9);
        assert_eq!(cfg.victim, 4);
        assert!(cfg.victim < cfg.spec.motes);
    }
}
