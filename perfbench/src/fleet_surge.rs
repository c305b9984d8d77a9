//! `fleet-surge`: Surge fleets on the translating engine.
//!
//! One build of Surge under `safe-flid-inline-cxprop` (set-up, with its
//! basic-block cache), then iterations of 100-mote lossy unit-disk grid
//! cells, 4 simulated seconds each, with the middle mote power-cycled
//! through the middle third of the run as the committed sweep does. Each
//! iteration runs the two committed cells (seeds 990951 and 990952) and
//! one cell whose fleet seed derives from the workload seed, then runs
//! the same three cells again. One operation is one such pass over the
//! three cells, timed in CPU time of the client thread. The committed
//! cells must reproduce the `BENCH_fleet.json` pinned rows byte for
//! byte; every rerun must reproduce its first run.

use std::time::Instant;

use mcu::LinkQuality;
use safe_tinyos::fleet::{build_fleet, horizon_cycles, sink_report, FleetSpec};
use safe_tinyos::{Build, BuildService, Pipeline};

use crate::common::{self, committed, fixed4, median, quantile, Ctx, Outcome, SplitMix};
use crate::replay::{Plan, Replay};
use crate::trace::{root, span};
use perfbench::json::{self, Value};

pub const ENGINE: mcu::Engine = mcu::Engine::Bt;
const MOTES: usize = 100;
const APP: &str = "Surge_Mica2";
/// The committed sweep cells this workload reproduces.
pub const PINNED_SEEDS: [u64; 2] = [990_951, 990_952];

pub struct Setup {
    build: Build,
    seconds: u64,
    quality: LinkQuality,
    /// Committed rows for the pinned seeds, rendered.
    pinned: Vec<(u64, String)>,
    /// Fleet seeds derived from the workload seed, one per iteration.
    derived: SplitMix,
}

pub fn setup(ctx: &Ctx, out: &mut Outcome) -> Result<Setup, String> {
    let committed = committed("BENCH_fleet.json")?;
    let pinned = committed
        .get("pinned")
        .ok_or("BENCH_fleet.json has no pinned object")?;
    let seconds = pinned
        .get("fleet_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCH_fleet.json: fleet_seconds")?;
    let q = pinned.get("quality").ok_or("BENCH_fleet.json: quality")?;
    let ppm = |k: &str| {
        q.get(k)
            .and_then(Value::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(format!("BENCH_fleet.json: quality.{k}"))
    };
    let quality = LinkQuality {
        loss_ppm: ppm("loss_ppm")?,
        dup_ppm: ppm("dup_ppm")?,
        reorder_ppm: ppm("reorder_ppm")?,
    };
    let mut rows = Vec::new();
    for seed in PINNED_SEEDS {
        let row = pinned
            .get("rows")
            .map_or(&[][..], Value::as_arr)
            .iter()
            .find(|r| {
                r.get("motes").and_then(Value::as_u64) == Some(MOTES as u64)
                    && r.get("seed").and_then(Value::as_u64) == Some(seed)
            })
            .ok_or(format!("BENCH_fleet.json has no row for ({MOTES}, {seed})"))?;
        rows.push((seed, json::render(row)));
    }

    let spec = tosapps::spec(APP).ok_or("no Surge app")?;
    let pipeline = Pipeline::safe_flid_inline_cxprop();
    let build = {
        let _r = root("service.request", u64::MAX);
        if ctx.traced {
            Replay::new()
                .build(&spec, &Plan::of(&pipeline)?)
                .map_err(|e| e.to_string())?
        } else {
            BuildService::new()
                .build(&spec, &pipeline)
                .map_err(|e| e.to_string())?
        }
    };
    let cache = {
        let _s = span("bbcache.build");
        build.block_cache()
    };
    let stats = cache.stats();
    out.add_layer("bbcache.blocks", stats.blocks as f64);
    out.add_layer("bbcache.fused", stats.fused as f64);
    out.add_layer("bbcache.slow_ops", stats.slow as f64);
    out.add_layer("backend.code_bytes", build.image.code_bytes() as f64);
    out.add_layer("backend.sram_bytes", build.image.sram_bytes() as f64);
    out.add_layer(
        "backend.checks_surviving",
        build.image.surviving_checks() as f64,
    );
    out.outputs.insert(
        format!("{APP}/safe-flid-inline-cxprop"),
        common::image_digest(&build.image),
    );
    Ok(Setup {
        build,
        seconds,
        quality,
        pinned: rows,
        derived: SplitMix::new(ctx.seed),
    })
}

/// The pinned-row rendering of one cell, in `BENCH_fleet.json`'s field
/// order.
fn row(seed: u64, fleet: &mcu::Fleet, report: &safe_tinyos::SinkReport) -> String {
    let st = fleet.stats();
    let n = |x: u64| json::int(x);
    json::render(&json::obj(vec![
        ("motes", n(MOTES as u64)),
        ("seed", n(seed)),
        (
            "duty_pct",
            Value::Num(fixed4(fleet.mean_duty_cycle_percent())),
        ),
        ("sink_frames", n(report.frames)),
        ("crc_rejects", n(report.crc_rejects)),
        ("heard", n(report.heard as u64)),
        ("offered", n(report.offered as u64)),
        (
            "delivery_rate_pct",
            Value::Num(fixed4(report.delivery_rate_pct)),
        ),
        ("tx_bytes", n(st.tx_bytes)),
        ("delivered", n(st.delivered)),
        ("dropped", n(st.dropped)),
        ("duplicated", n(st.duplicated)),
        ("reordered", n(st.reordered)),
        ("dropped_offline", n(st.dropped_offline)),
        ("reboots", n(st.reboots)),
    ]))
}

/// Runs one cell; returns its row and the CPU seconds it took.
fn cell(s: &Setup, seed: u64, op: u64, out: &mut Outcome) -> (String, f64) {
    let _r = root("bench.cell", op);
    let t = common::thread_cpu_s();
    let spec = FleetSpec::grid(MOTES, s.seconds, seed, s.quality);
    let horizon = horizon_cycles(&s.build, &spec);
    let mut fleet = {
        let _s = span("fleet.build");
        build_fleet(&s.build, &spec)
    };
    fleet.schedule_power_cycle(MOTES / 2, horizon / 3, Some(horizon / 2));
    {
        let _s = span("fleet.run");
        fleet.run(horizon);
    }
    let report = {
        let _s = span("fleet.sink_report");
        sink_report(&fleet)
    };
    let secs = common::thread_cpu_s() - t;
    out.check_engine(ENGINE, fleet.machine(0));
    let st = fleet.stats();
    out.add_layer("fleet.cells", 1.0);
    out.add_layer("fleet.pops", st.pops as f64);
    out.add_layer("fleet.delivered", st.delivered as f64);
    out.add_layer("fleet.dropped", st.dropped as f64);
    out.add_layer(
        "fleet.instructions",
        (0..fleet.node_count())
            .map(|m| fleet.machine(m).instr_count as f64)
            .sum(),
    );
    out.add_layer("fleet.sink_delivery_pct_sum", report.delivery_rate_pct);
    (row(seed, &fleet, &report), secs)
}

pub fn run(ctx: &Ctx, s: &mut Setup, out: &mut Outcome) {
    for name in ["engine", "fleet.pinned_rows", "repeat.identical"] {
        out.checks.declare(name);
    }
    let mote_seconds = (MOTES as u64 * s.seconds) as f64;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let main = root("bench.main", 0);
    let mut op = 0;
    while ctx.budget.more(started, out.iterations) {
        let derived = s.derived.next_u64() % 1_000_000_000;
        let seeds = [PINNED_SEEDS[0], PINNED_SEEDS[1], derived];
        let mut first = Vec::new();
        for (pass, times) in [&mut cold, &mut warm].into_iter().enumerate() {
            let mut pass_s = 0.0;
            for (k, &seed) in seeds.iter().enumerate() {
                let (row, secs) = cell(s, seed, op, out);
                op += 1;
                out.attempted += 1;
                pass_s += secs;
                if let Some((_, pinned)) = s.pinned.iter().find(|(p, _)| *p == seed) {
                    out.checks.eq(
                        "fleet.pinned_rows",
                        &format!("({MOTES}, {seed})"),
                        pinned,
                        &row,
                    );
                }
                if pass == 0 {
                    out.outputs
                        .insert(format!("cell/{seed}"), common::digest(&row));
                    first.push(row);
                } else {
                    out.checks
                        .eq("repeat.identical", &format!("cell {seed}"), &first[k], &row);
                }
            }
            times.push(pass_s);
        }
        out.iterations += 1;
    }
    drop(main);
    out.wall_s = started.elapsed().as_secs_f64();
    // Medians over passes of each pass's rate: a burst of host
    // contention slows a few passes, and a pooled ratio would charge all
    // of it to the run. A pass, not a cell, is the unit because the two
    // pinned cells differ in cost by a third, so a median over cells
    // would jump between them with the seed-derived cell's cost.
    let pass_work = (PINNED_SEEDS.len() + 1) as f64 * mote_seconds;
    let rate = |t: &[f64]| median(&t.iter().map(|t| pass_work / t).collect::<Vec<_>>());
    out.e2e.insert("work_per_s".into(), rate(&cold));
    out.e2e.insert("warm_work_per_s".into(), rate(&warm));
    let ms: Vec<f64> = cold.iter().map(|t| t * 1e3).collect();
    out.e2e.insert("op_p50_ms".into(), quantile(&ms, 0.5));
    out.e2e.insert("op_p90_ms".into(), quantile(&ms, 0.9));
}
