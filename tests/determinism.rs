//! The parallel experiment runner must be a pure speedup: for the full
//! Figure 2 + Figure 3 grids, an 8-worker runner has to produce
//! byte-identical metrics (and therefore byte-identical `BENCH_*.json`
//! payloads) to a serial runner, and the frontend must compile each app
//! exactly once per runner however many configurations the grid spans.
//! The fault-injection campaign adds a stronger case: hundreds of
//! simulated corruption runs per grid cell, whose rendered JSON must
//! still be byte-identical for the same seed.

use bench::json::Value;
use bench::{fault, ExperimentRunner};
use safe_tinyos::{CampaignConfig, Metrics, Pipeline};
use safe_tinyos_suite as _;

/// The number at `path` of a rendered report.
fn num(v: &Value, path: &str) -> f64 {
    v.at(path)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number at `{path}` in {v}"))
}

/// The array at `path` of a rendered report.
fn items<'a>(v: &'a Value, path: &str) -> &'a [Value] {
    v.at(path)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no array at `{path}` in {v}"))
}

/// Every deterministic field of the metrics (stage wall times are
/// timing-dependent by nature and excluded).
fn fingerprint(app: &str, config: &str, m: &Metrics) -> String {
    format!(
        "{app}/{config}: code={} flash={} sram={} inserted={} surviving={} locks={} cure={:?} cxprop={:?}",
        m.code_bytes,
        m.flash_bytes,
        m.sram_bytes,
        m.checks_inserted,
        m.checks_surviving,
        m.locks_inserted,
        m.cure,
        m.cxprop,
    )
}

fn full_grid(threads: usize, configs: &[Pipeline]) -> (String, usize) {
    let runner = ExperimentRunner::with_threads(threads);
    let grid = runner.run_grid(tosapps::APP_NAMES, configs, |job| {
        fingerprint(job.spec.name, job.item.name(), &job.build(job.item).metrics)
    });
    let lines: Vec<String> = grid.into_iter().flatten().collect();
    (lines.join("\n"), runner.session().frontend_compiles())
}

#[test]
fn parallel_runner_matches_serial_on_fig2_and_fig3_grids() {
    let mut configs = Pipeline::fig2_stacks();
    configs.extend(Pipeline::fig3_bars());
    configs.push(Pipeline::unsafe_baseline());

    let (serial, serial_compiles) = full_grid(1, &configs);
    let (parallel, parallel_compiles) = full_grid(8, &configs);

    assert_eq!(
        serial, parallel,
        "parallel runner diverged from serial baseline"
    );
    // The frontend artifact cache: one nesc compile per app per harness
    // invocation, never one per grid cell.
    assert_eq!(serial_compiles, tosapps::APP_NAMES.len());
    assert_eq!(parallel_compiles, tosapps::APP_NAMES.len());
}

#[test]
fn fault_campaign_json_matches_serial_under_8_threads() {
    // A scaled-down fault_injection harness run: same seed, serial vs
    // 8 workers, over a 3-app × 4-pipeline × 8-site campaign. The
    // rendered BENCH_fault_injection.json body must be byte-identical.
    let apps = ["BlinkTask_Mica2", "RfmToLeds_Mica2", "Surge_Mica2"];
    let pipelines = fault::default_pipelines();
    let config = CampaignConfig {
        seconds: 2,
        sites: 8,
        seed: 0xC0DE,
    };
    let body_with = |threads: usize| {
        let runner = ExperimentRunner::with_threads(threads);
        let grid = fault::campaign_grid(&runner, &apps, &pipelines, &config);
        fault::render_json(&apps, &pipelines, &config, &grid)
    };
    let serial = body_with(1);
    let parallel = body_with(8);
    assert_eq!(
        serial, parallel,
        "fault campaign diverged between serial and 8-thread runs"
    );
    // The report is non-trivial: the cured stacks detect where the
    // uncured gcc baseline cannot.
    let pipelines = items(&serial, "pipelines");
    let gcc = pipelines
        .iter()
        .find(|p| p.get("pipeline") == Some(&Value::Str("gcc".into())))
        .expect("gcc row");
    assert_eq!((num(gcc, "injected"), num(gcc, "detected")), (24.0, 0.0));
    let detections: Vec<&Value> = pipelines
        .iter()
        .flat_map(|p| items(p, "apps"))
        .flat_map(|a| items(a, "detections"))
        .collect();
    assert!(!detections.is_empty(), "{serial}");
    assert!(
        detections.iter().all(|d| d.get("flid").is_some()),
        "{serial}"
    );
}

#[test]
fn difftest_json_matches_serial_under_8_threads() {
    // A scaled-down differential-oracle run: 6 generated seeds + 2 apps
    // across 3 presets, serial vs 8 workers. The rendered
    // BENCH_difftest.json body must be byte-identical — the oracle is a
    // pure function of (seeds, presets, config), whatever the schedule.
    let seeds: Vec<u64> = (1..=6).collect();
    let apps = ["BlinkTask_Mica2", "SenseToRfm_Mica2"];
    let presets = [
        Pipeline::unsafe_baseline(),
        Pipeline::safe_flid_cxprop(),
        Pipeline::safe_flid_inline_cxprop(),
    ];
    let cfg = safe_tinyos::DiffConfig::default();
    let body_with = |threads: usize| {
        let runner = ExperimentRunner::with_threads(threads);
        let mut reports = bench::diff::seed_reports(&runner, &seeds, &presets, &cfg);
        reports.extend(bench::diff::app_reports(&runner, &apps, &presets, 2, &cfg));
        let tallies = bench::diff::tally(&presets, &reports);
        bench::diff::render_json(&seeds, &apps, &presets, &cfg, 2, &tallies)
    };
    let serial = body_with(1);
    let parallel = body_with(8);
    assert_eq!(
        serial, parallel,
        "differential oracle diverged between serial and 8-thread runs"
    );
    assert_eq!(num(&serial, "total_miscompiles"), 0.0, "{serial}");
}

#[test]
fn race_analysis_matches_serial_under_8_threads() {
    // The race analyzer and auto-hardener over every app: the rendered
    // analysis object of BENCH_races.json (diagnostic censuses, section
    // counts, code-size deltas) plus every per-site diagnostic string
    // must be byte-identical between a serial and an 8-worker runner,
    // and every races(fix) build must reach the zero-diagnostic
    // fixpoint.
    let stacks = bench::races::stacks();
    let body_with = |threads: usize| {
        let runner = ExperimentRunner::with_threads(threads);
        let grid = runner.metrics_grid(tosapps::APP_NAMES, &stacks);
        let mut lines = Vec::new();
        for (app, row) in tosapps::APP_NAMES.iter().zip(&grid) {
            for (stack, m) in stacks.iter().zip(row) {
                lines.push(format!("{app}/{}: races={:?}", stack.name(), m.races));
                lines.extend(m.diagnostics.iter().map(|d| format!("  {d}")));
                if stack.spec().contains("races(fix)") {
                    assert!(
                        m.diagnostics.is_empty(),
                        "{app}: races(fix) left diagnostics: {:?}",
                        m.diagnostics
                    );
                }
            }
        }
        lines.join("\n")
    };
    let serial = body_with(1);
    let parallel = body_with(8);
    assert_eq!(
        serial, parallel,
        "race analysis diverged between serial and 8-thread runs"
    );
    // The analyzer stack reported per-site diagnostics (R001 at least).
    assert!(serial.contains("[R001]"), "{serial}");
}

#[test]
fn fleet_json_matches_serial_under_8_threads() {
    // A scaled-down fleet harness run: the mote-count sweep and the
    // network-level fault campaign, serial vs 8 workers. Every pinned
    // field of BENCH_fleet.json is a pure function of the build and the
    // seeds, so the rendered "pinned" object must be byte-identical
    // whatever the thread count or shard order.
    let spec = tosapps::spec("Surge_Mica2").expect("known app");
    let build = bench::must_build(&spec, &safe_tinyos::Pipeline::safe_flid_inline_cxprop());
    let cells = bench::fleet::sweep_cells(&[5, 12], 2);
    let body_with = |threads: usize| {
        let runner = ExperimentRunner::with_threads(threads);
        let rows = bench::fleet::measure(&runner, &build, &cells, 2);
        let campaign = bench::fleet::run_campaign(&runner, &build);
        bench::fleet::pinned_json(&rows, 2, campaign, true)
    };
    let serial = body_with(1);
    let parallel = body_with(8);
    assert_eq!(
        serial, parallel,
        "fleet sweep/campaign diverged between serial and 8-thread runs"
    );
    // Non-trivial: traffic flowed and the campaign reached verdicts.
    assert!(
        items(&serial, "rows")
            .iter()
            .all(|r| num(r, "offered") > 0.0),
        "{serial}"
    );
    assert_eq!(num(&serial, "campaign.sites"), 6.0, "{serial}");
}

#[test]
fn campaigns_trigger_identically_under_both_engines() {
    // The block-translation engine must take every observable exit —
    // trap, crash, torn-watch access count — exactly where the
    // interpreter does. Replay a scaled-down fault-injection campaign
    // (rendered JSON byte-compared) and a torn-update campaign (whose
    // watchpoint fires at a 16-bit *access count*, so a single
    // over- or under-counted access moves the verdict) under both
    // engines and require identical results.
    let apps = ["BlinkTask_Mica2", "Surge_Mica2"];
    let pipelines = fault::default_pipelines();
    let config = CampaignConfig {
        seconds: 2,
        sites: 6,
        seed: 0x7E57,
    };
    let torn_stack = bench::races::stacks().remove(0);
    let body_with = |engine: mcu::Engine| {
        mcu::Engine::set_global_override(Some(engine));
        assert_eq!(mcu::Engine::from_env(), engine);
        let runner = ExperimentRunner::with_threads(4);
        let grid = fault::campaign_grid(&runner, &apps, &pipelines, &config);
        let fault_json = fault::render_json(&apps, &pipelines, &config, &grid);
        // The torn campaign targets the first app whose baseline build
        // flags multi-byte globals (enumeration is deterministic).
        let mut torn_lines = Vec::new();
        for app in ["RfmToLeds_Mica2", "Surge_Mica2", "SenseToRfm_Mica2"] {
            let spec = tosapps::spec(app).expect("known app");
            let build = bench::must_build(&spec, &torn_stack);
            let names = safe_tinyos::torn_target_names(&build);
            if names.is_empty() {
                continue;
            }
            let rep = safe_tinyos::run_torn_campaign(&build, &spec, &names, 2, 2);
            torn_lines.extend(
                rep.results
                    .iter()
                    .map(|r| format!("{app}/{} @{}: {:?}", r.site, r.at_cycle, r.verdict)),
            );
            break;
        }
        mcu::Engine::set_global_override(None);
        assert!(
            !torn_lines.is_empty(),
            "no app offered torn targets — campaign exercised nothing"
        );
        (fault_json, torn_lines.join("\n"))
    };
    let (fault_interp, torn_interp) = body_with(mcu::Engine::Interp);
    let (fault_bt, torn_bt) = body_with(mcu::Engine::Bt);
    assert_eq!(
        fault_interp, fault_bt,
        "fault campaign diverged between interp and bt engines"
    );
    assert_eq!(
        torn_interp, torn_bt,
        "torn campaign diverged between interp and bt engines"
    );
    // Non-trivial: the campaign produced real detections.
    let detected: f64 = items(&fault_interp, "pipelines")
        .iter()
        .map(|p| num(p, "detected"))
        .sum();
    assert!(detected > 0.0, "{fault_interp}");
}

#[test]
fn shared_pass_cache_is_schedule_independent() {
    // The content-addressed pass cache must be invisible to scheduling:
    // a 1-worker and an 8-worker BuildService over the same batch have
    // to produce byte-identical images AND byte-identical cache
    // counters. Misses are exactly-once per distinct (digest, spec) key
    // (each slot is compute-once), hits are the remaining lookups, and
    // bytes accrue only on misses — so the whole CacheStats snapshot is
    // a pure function of the request set, never of thread interleaving.
    let mut configs = Pipeline::fig2_stacks();
    configs.extend(Pipeline::fig3_bars());
    let batch_with = |threads: usize| {
        let service = safe_tinyos::BuildService::with_threads(threads);
        let requests: Vec<safe_tinyos::BuildRequest> = tosapps::APP_NAMES
            .iter()
            .flat_map(|app| {
                let spec = tosapps::spec(app).expect("known app");
                configs
                    .iter()
                    .map(move |p| safe_tinyos::BuildRequest::new(spec.clone(), p.clone()))
            })
            .collect();
        let images: Vec<mcu::Image> = service
            .submit(requests)
            .into_iter()
            .map(|r| r.expect("batch build failed").image)
            .collect();
        (images, service.cache_stats())
    };
    let (serial_images, serial_stats) = batch_with(1);
    let (parallel_images, parallel_stats) = batch_with(8);
    assert_eq!(
        serial_images, parallel_images,
        "shared-cache batch images diverged between serial and 8-thread runs"
    );
    assert_eq!(
        serial_stats, parallel_stats,
        "cache hit/miss/byte counters diverged with thread count"
    );
    // Non-trivial: the grids overlap (the fig2 stacks and fig3 bars
    // share cure specs per app), so the cache actually deduplicated
    // work rather than computing one entry per grid cell.
    let cure = serial_stats.get("cure");
    assert!(cure.misses > 0, "cure never consulted the cache");
    assert!(
        cure.hits >= cure.misses,
        "fig2+fig3 grids share cure prefixes; expected hits ({}) >= misses ({})",
        cure.hits,
        cure.misses
    );
}

#[test]
fn grid_results_land_in_grid_order() {
    let configs = [Pipeline::unsafe_baseline(), Pipeline::safe_flid()];
    let runner = ExperimentRunner::with_threads(4);
    let grid = runner.run_grid(tosapps::APP_NAMES, &configs, |job| {
        (job.app_index, job.item_index, job.spec.name)
    });
    for (ai, row) in grid.iter().enumerate() {
        assert_eq!(row.len(), configs.len());
        for (ci, &(got_ai, got_ci, name)) in row.iter().enumerate() {
            assert_eq!((got_ai, got_ci), (ai, ci));
            assert_eq!(name, tosapps::APP_NAMES[ai]);
        }
    }
}
