//! `eval-grid`: the paper's evaluation grid through `BuildService`.
//!
//! Each iteration builds all 12 apps under all 12 presets (144 requests)
//! through a fresh service, so the frontend and pass caches start cold,
//! then resubmits the same 144 requests to the same service (warm).
//! Two clients each call `BuildService::build` one request at a time
//! (closed loop); the seed sets each iteration's request order. After the timed
//! iterations the 11 Mica2 apps are simulated for 10 s under `unsafe`
//! and `safe-flid-inline-cxprop` on the interpreter.
//!
//! Outputs are checked against the committed figure files: per-cell
//! flash and SRAM bytes (fig3a, fig3b), surviving checks (fig2) and
//! duty cycle (fig3c), and every iteration's images, cold and warm,
//! must equal the first iteration's.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use safe_tinyos::{prepare_machine, Build, BuildService, Pipeline, PRESET_NAMES};
use tosapps::AppSpec;

use crate::common::{self, committed, fixed4, median, quantile, Ctx, Outcome, SplitMix};
use crate::replay::{Plan, Replay};
use crate::trace::{self, root, span};
use perfbench::json::Value;

pub const ENGINE: mcu::Engine = mcu::Engine::Interp;
const CLIENTS: usize = 2;
const SIM_SECONDS: u64 = 10;
const SIM_PRESETS: [&str; 2] = ["unsafe", "safe-flid-inline-cxprop"];

struct Request {
    app: &'static str,
    preset: &'static str,
    spec: AppSpec,
    pipeline: Pipeline,
    plan: Plan,
}

pub struct Setup {
    requests: Vec<Request>,
    fig3a: Value,
    fig3b: Value,
    fig2: Value,
    fig3c: Value,
}

pub fn setup() -> Result<Setup, String> {
    let mut requests = Vec::new();
    for &app in tosapps::APP_NAMES {
        let spec = tosapps::spec(app).ok_or_else(|| format!("unknown app {app}"))?;
        for &preset in PRESET_NAMES.iter() {
            let pipeline =
                Pipeline::preset(preset).ok_or_else(|| format!("unknown preset {preset}"))?;
            let plan = Plan::of(&pipeline)?;
            requests.push(Request {
                app,
                preset,
                spec: spec.clone(),
                pipeline,
                plan,
            });
        }
    }
    Ok(Setup {
        requests,
        fig3a: committed("BENCH_fig3a_code_size.json")?,
        fig3b: committed("BENCH_fig3b_data_size.json")?,
        fig2: committed("BENCH_fig2_checks.json")?,
        fig3c: committed("BENCH_fig3c_duty_cycle.json")?,
    })
}

/// Builds one request (by index) and returns its result.
type Job<'e> = Arc<dyn Fn(usize) -> Built + Send + Sync + 'e>;

/// One pass: the job, the request order, and the first request's
/// operation id.
type Pass<'e> = (Job<'e>, Arc<Vec<usize>>, u64);

/// `CLIENTS` closed-loop client threads that live for the whole run.
/// For each pass the main thread hands them a job and a request order;
/// each client claims the next request, builds it, and claims again.
struct Clients<'e> {
    /// The current pass; `None` tells the clients to exit.
    pass: Mutex<Option<Pass<'e>>>,
    next: AtomicUsize,
    /// Latency (ms) and result of each request, by request index.
    slots: Mutex<Vec<Option<(f64, Built)>>>,
    start: Barrier,
    done: Barrier,
}

impl<'e> Clients<'e> {
    fn new() -> Clients<'e> {
        Clients {
            pass: Mutex::new(None),
            next: AtomicUsize::new(0),
            slots: Mutex::new(Vec::new()),
            start: Barrier::new(CLIENTS + 1),
            done: Barrier::new(CLIENTS + 1),
        }
    }

    fn serve(&self, client: usize) {
        trace::set_thread(client as u32 + 1);
        loop {
            self.start.wait();
            let Some((job, order, op_base)) = self.pass.lock().expect("pass lock").clone() else {
                break;
            };
            {
                let _c = root("bench.client", 0);
                loop {
                    let k = self.next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(k) else {
                        break;
                    };
                    let t = Instant::now();
                    let out = {
                        let _r = root("service.request", op_base + i as u64);
                        // A panicking build must not leave the main thread
                        // waiting for this client: it counts as failed.
                        std::panic::catch_unwind(AssertUnwindSafe(|| job(i)))
                            .unwrap_or_else(|p| Err(panic_message(p.as_ref())))
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    self.slots.lock().expect("slot lock")[i] = Some((ms, out));
                }
            }
            // Release this pass's service before reporting done, so the
            // main thread frees it.
            drop((job, order));
            self.done.wait();
        }
        trace::flush();
    }

    /// Runs one pass over every request in `order`. Returns its wall
    /// seconds, and each request's latency in ms and result, both by
    /// request index.
    fn pass(&self, job: Job<'e>, order: &[usize], op_base: u64) -> (f64, Vec<f64>, Vec<Built>) {
        *self.slots.lock().expect("slot lock") = (0..order.len()).map(|_| None).collect();
        self.next.store(0, Ordering::Relaxed);
        *self.pass.lock().expect("pass lock") = Some((job, Arc::new(order.to_vec()), op_base));
        let start = Instant::now();
        {
            let _wait = span("bench.wait");
            self.start.wait();
            self.done.wait();
        }
        let wall = start.elapsed().as_secs_f64();
        *self.pass.lock().expect("pass lock") = None;
        let (lat, out) = std::mem::take(&mut *self.slots.lock().expect("slot lock"))
            .into_iter()
            .map(|s| s.expect("every request ran"))
            .unzip();
        (wall, lat, out)
    }

    fn stop(&self) {
        *self.pass.lock().expect("pass lock") = None;
        self.start.wait();
    }
}

type Built = Result<Build, String>;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("build panicked: {msg}")
}

/// Output bytes of one cell, as the figures count them.
fn cell_values(b: &Build) -> [u64; 4] {
    [
        b.image.code_bytes() as u64,
        b.image.flash_bytes() as u64,
        b.image.sram_bytes() as u64,
        b.image.surviving_checks() as u64,
    ]
}

fn pct_change(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) * 100.0 / base as f64
}

pub fn run(ctx: &Ctx, s: &Setup, out: &mut Outcome) {
    for name in [
        "engine",
        "build.ok",
        "repeat.identical",
        "cache.repeat",
        "fig3a.flash",
        "fig3b.sram",
        "fig2.checks",
        "fig3c.duty",
    ] {
        out.checks.declare(name);
    }
    let n = s.requests.len();
    let mut first: Vec<Option<Build>> = (0..n).map(|_| None).collect();
    let mut first_cache: Option<BTreeMap<String, [u64; 3]>> = None;
    let (mut cold_rates, mut warm_rates) = (Vec::new(), Vec::new());
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut orders = SplitMix::new(ctx.seed);
    let clients = Clients::new();
    let started = Instant::now();
    let main = root("bench.main", 0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let clients = &clients;
            scope.spawn(move || clients.serve(client));
        }
        while ctx.budget.more(started, out.iterations) {
            let op_base = out.iterations * 2 * n as u64;
            let order = orders.permutation(n);
            let service = Arc::new(BuildService::new());
            let replay = ctx.traced.then(|| Arc::new(Replay::new()));
            let job: Job = {
                let (service, replay) = (service.clone(), replay.clone());
                Arc::new(move |i: usize| -> Built {
                    let r = &s.requests[i];
                    match &replay {
                        Some(replay) => replay.build(&r.spec, &r.plan),
                        None => service.build(&r.spec, &r.pipeline),
                    }
                    .map_err(|e| format!("{} / {}: {e}", r.app, r.preset))
                })
            };
            let (cold_wall, lat, cold) = clients.pass(job.clone(), &order, op_base);
            let (warm_wall, _, warm) = clients.pass(job, &order, op_base + n as u64);
            cold_rates.push(n as f64 / cold_wall);
            warm_rates.push(n as f64 / warm_wall);
            p50s.push(quantile(&lat, 0.5));
            p90s.push(quantile(&lat, 0.9));
            out.attempted += 2 * n as u64;

            let cache: BTreeMap<String, [u64; 3]> = if let Some(replay) = &replay {
                replay
                    .counters()
                    .into_iter()
                    .map(|(k, c)| (k.to_string(), [c.hits, c.misses, c.bytes]))
                    .collect()
            } else {
                service
                    .cache_stats()
                    .passes
                    .into_iter()
                    .map(|(k, c)| (k, [c.hits, c.misses, c.bytes]))
                    .collect()
            };
            for (pass, c) in &cache {
                let total = out.cache.entry(pass.clone()).or_default();
                for (t, v) in total.iter_mut().zip(c) {
                    *t += v;
                }
            }
            match &first_cache {
                None => first_cache = Some(cache),
                Some(f) => {
                    out.checks
                        .eq("cache.repeat", "per-pass cache counters", f, &cache);
                }
            }
            if let Some(replay) = &replay {
                let work = replay.work();
                out.add_layer("nesc.compiles", work.compiles as f64);
                out.add_layer("ccured.checks_inserted", work.checks_inserted as f64);
                out.add_layer("cxprop.checks_removed", work.checks_removed as f64);
                out.add_layer("cxprop.inlined", work.inlined as f64);
                out.add_layer("backend.links", work.links as f64);
            }

            for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
                let r = &s.requests[i];
                let (c, w) = match (c, w) {
                    (Ok(c), Ok(w)) => (c, w),
                    (c, w) => {
                        for e in [c, w].into_iter().filter_map(|b| b.as_ref().err()) {
                            out.checks.compare("build.ok", false, || e.clone());
                        }
                        continue;
                    }
                };
                out.checks.compare("build.ok", true, String::new);
                let what = || format!("{} / {}", r.app, r.preset);
                let ok = first[i].as_ref().is_none_or(|f| f.image == c.image) && c.image == w.image;
                out.checks.compare("repeat.identical", ok, what);
            }
            let cold = if out.iterations == 0 {
                first = cold.into_iter().map(Result::ok).collect();
                None
            } else {
                Some(cold)
            };
            {
                // Freeing what the service built and cached is its cost
                // too; the main thread pays it between iterations.
                let _s = span("service.teardown");
                drop((cold, warm, service, replay));
            }
            out.iterations += 1;
        }
        clients.stop();
    });

    // Simulation: the duty-cycle column of the evaluation.
    let mut duties: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    let mut op = out.iterations * 2 * n as u64;
    for (i, r) in s.requests.iter().enumerate() {
        if !r.app.ends_with("_Mica2") || !SIM_PRESETS.contains(&r.preset) {
            continue;
        }
        let Some(build) = first[i].as_ref() else {
            continue;
        };
        let _sim = root("bench.sim", op);
        op += 1;
        let (mut m, until) = {
            let _s = span("machine.setup");
            prepare_machine(build, &r.spec, SIM_SECONDS)
        };
        {
            let _s = span("machine.run");
            m.run(until);
        }
        out.check_engine(ENGINE, &m);
        out.attempted += 1;
        out.add_layer("machine.runs", 1.0);
        out.add_layer("machine.instructions", m.instr_count as f64);
        duties.insert((r.app, r.preset), m.duty_cycle_percent());
    }
    drop(main);
    out.wall_s = started.elapsed().as_secs_f64();

    out.e2e.insert("work_per_s".into(), median(&cold_rates));
    out.e2e
        .insert("warm_work_per_s".into(), median(&warm_rates));
    // Medians over iterations of each cold pass's percentiles, so a burst
    // of host contention moves a few samples, not the metric.
    out.e2e.insert("op_p50_ms".into(), median(&p50s));
    out.e2e.insert("op_p90_ms".into(), median(&p90s));

    // Everything below compares the first iteration's outputs.
    let cell = |app: &str, preset: &str| -> Option<&Build> {
        s.requests
            .iter()
            .position(|r| r.app == app && r.preset == preset)
            .and_then(|i| first[i].as_ref())
    };
    for (i, r) in s.requests.iter().enumerate() {
        if let Some(b) = first[i].as_ref() {
            out.outputs.insert(
                format!("{}/{}", r.app, r.preset),
                common::image_digest(&b.image),
            );
            let [code, _, sram, surviving] = cell_values(b);
            out.add_layer("backend.code_bytes", code as f64);
            out.add_layer("backend.sram_bytes", sram as f64);
            out.add_layer("backend.checks_surviving", surviving as f64);
        }
    }
    let safe_duties: Vec<f64> = duties
        .iter()
        .filter(|((_, p), _)| *p == "safe-flid-inline-cxprop")
        .map(|(_, d)| *d)
        .collect();
    if !safe_duties.is_empty() {
        out.add_layer(
            "machine.duty_cycle_pct",
            safe_duties.iter().sum::<f64>() / safe_duties.len() as f64,
        );
    }

    for (file, check, base_key, col, field) in [
        (
            &s.fig3a,
            "fig3a.flash",
            "baseline_flash_bytes",
            "delta_pct",
            1,
        ),
        (
            &s.fig3b,
            "fig3b.sram",
            "baseline_sram_bytes",
            "delta_pct",
            2,
        ),
    ] {
        for row in file.get("apps").map_or(&[][..], Value::as_arr) {
            let app = row.get("app").and_then(Value::as_str).unwrap_or("?");
            let Some(base) = cell(app, "unsafe").map(|b| cell_values(b)[field]) else {
                out.checks
                    .compare(check, false, || format!("{app}: no build"));
                continue;
            };
            let committed_base = row.get(base_key).and_then(Value::num_text);
            out.checks.eq(
                check,
                &format!("{app} {base_key}"),
                committed_base,
                Some(base.to_string().as_str()),
            );
            for (preset, v) in row.get(col).map_or(&[][..], Value::as_obj) {
                let got =
                    cell(app, preset).map(|b| fixed4(pct_change(base, cell_values(b)[field])));
                out.checks.eq(
                    check,
                    &format!("{app} / {preset}"),
                    v.num_text(),
                    got.as_deref(),
                );
            }
        }
    }
    for row in s.fig2.get("apps").map_or(&[][..], Value::as_arr) {
        let app = row.get("app").and_then(Value::as_str).unwrap_or("?");
        let inserted = row
            .get("checks_inserted")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        for (preset, v) in row.get("removed_pct").map_or(&[][..], Value::as_obj) {
            let Some(b) = cell(app, preset) else {
                out.checks.compare("fig2.checks", false, || {
                    format!("{app} / {preset}: no build")
                });
                continue;
            };
            if !ctx.traced {
                // The replay links images only; build metrics exist in
                // the untraced run.
                out.checks.eq(
                    "fig2.checks",
                    &format!("{app} / {preset} checks inserted"),
                    inserted,
                    b.metrics.checks_inserted as u64,
                );
            }
            let surviving = cell_values(b)[3];
            let removed = inserted.saturating_sub(surviving);
            let pct = fixed4(removed as f64 * 100.0 / inserted.max(1) as f64);
            out.checks.eq(
                "fig2.checks",
                &format!("{app} / {preset} removed_pct"),
                v.num_text(),
                Some(pct.as_str()),
            );
        }
    }
    out.checks.eq(
        "fig3c.duty",
        "simulated seconds",
        s.fig3c.get("seconds").and_then(Value::as_u64),
        Some(SIM_SECONDS),
    );
    for row in s.fig3c.get("apps").map_or(&[][..], Value::as_arr) {
        let app = row.get("app").and_then(Value::as_str).unwrap_or("?");
        let base = duties.get(&(app, "unsafe")).copied();
        let safe = duties.get(&(app, "safe-flid-inline-cxprop")).copied();
        out.checks.eq(
            "fig3c.duty",
            &format!("{app} baseline_duty_pct"),
            row.get("baseline_duty_pct").and_then(Value::num_text),
            base.map(fixed4).as_deref(),
        );
        let rel = base
            .zip(safe)
            .map(|(b, d)| fixed4(if b > 0.0 { (d - b) * 100.0 / b } else { 0.0 }));
        out.checks.eq(
            "fig3c.duty",
            &format!("{app} / safe-flid-inline-cxprop rel_delta_pct"),
            row.get("rel_delta_pct")
                .and_then(|r| r.get("safe-flid-inline-cxprop"))
                .and_then(Value::num_text),
            rel.as_deref(),
        );
    }
}
