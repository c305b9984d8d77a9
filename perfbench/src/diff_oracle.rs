//! `diff-oracle`: generated programs through the differential oracle.
//!
//! The subjects are the generated programs of the committed difftest
//! seed range (`BENCH_difftest.json`: generator seeds 1..=50), whose
//! divergences that file pins. The workload seed orders each pass over
//! them. Each iteration diffs one program against all 12 presets with
//! `DiffConfig::default()` on the interpreter, then diffs it again
//! (closed loop, one client), timed in CPU time of the client thread.
//! `diff_program` builds without the pass cache and never runs the nesC
//! frontend, so both are bypassed.
//!
//! A fixed corpus rather than fresh seeds per run: per-program cost is
//! heavy-tailed (a few programs take ten times the median), so a run's
//! throughput over a fresh draw of a few dozen programs varies by more
//! than any bound worth setting.
//!
//! Checks: no Miscompile verdict, no check-strength reduction under a
//! cured preset, every subject diverges exactly as committed, and every
//! rerun reproduces its first run.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use safe_tinyos::difftest::{diff_program, generate_program, DiffPhase, SubjectReport};
use safe_tinyos::{DiffConfig, DiffVerdict, Pipeline, PRESET_NAMES};

use crate::common::{committed, median, quantile, thread_cpu_s, Ctx, Outcome, SplitMix};
use crate::trace::{root, span};
use perfbench::json::Value;

pub const ENGINE: mcu::Engine = mcu::Engine::Interp;

pub struct Setup {
    presets: Vec<Pipeline>,
    /// Names of presets owed detection parity with the reference.
    cured: BTreeSet<String>,
    cfg: DiffConfig,
    /// The committed generator seeds `seed_base..seed_base + subjects`
    /// and their divergences, one line each.
    seed_base: u64,
    subjects: u64,
    committed: BTreeSet<String>,
    /// Orders each pass over the subjects.
    order: SplitMix,
    /// An image of the first subject: `diff_program` keeps its machines,
    /// so the engine check runs one of its own.
    probe: mcu::Image,
}

fn divergence_line(
    subject: &str,
    preset: &str,
    phase: &str,
    site: &str,
    verdict: &str,
    detail: &str,
) -> String {
    format!("{subject} | {preset} | {phase} | {site} | {verdict} | {detail}")
}

pub fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let presets: Vec<Pipeline> = PRESET_NAMES
        .iter()
        .map(|n| Pipeline::preset(n).ok_or(format!("unknown preset {n}")))
        .collect::<Result<_, _>>()?;
    let cured = presets
        .iter()
        .filter(|p| {
            let spec = p.spec();
            spec.contains("cure(") && !spec.contains("noharden")
        })
        .map(|p| p.name().to_string())
        .collect();
    let cfg = DiffConfig::default();
    let file = committed("BENCH_difftest.json")?;
    let field = |k: &str| {
        file.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("BENCH_difftest.json: {k}"))
    };
    for (k, v) in [
        ("budget_cycles", cfg.budget_cycles),
        ("fault_sites", cfg.fault_sites as u64),
        ("site_seed", cfg.seed),
    ] {
        if field(k)? != v {
            return Err(format!(
                "BENCH_difftest.json {k} differs from DiffConfig::default()"
            ));
        }
    }
    let mut lines = BTreeSet::new();
    for p in file.get("presets").map_or(&[][..], Value::as_arr) {
        let preset = p.get("preset").and_then(Value::as_str).unwrap_or("?");
        for d in p.get("divergences").map_or(&[][..], Value::as_arr) {
            let f = |k: &str| d.get(k).and_then(Value::as_str).unwrap_or("?");
            if f("subject").starts_with("seed:") {
                lines.insert(divergence_line(
                    f("subject"),
                    preset,
                    f("phase"),
                    f("site"),
                    f("verdict"),
                    f("detail"),
                ));
            }
        }
    }
    let seed_base = field("seed_base")?;
    let probe = Pipeline::unsafe_baseline()
        .build(
            generate_program(seed_base).map_err(|e| e.to_string())?,
            mcu::Profile::mica2(),
        )
        .map_err(|e| e.to_string())?
        .image;
    Ok(Setup {
        presets,
        cured,
        cfg,
        seed_base,
        subjects: field("seeds")?,
        committed: lines,
        order: SplitMix::new(ctx.seed),
        probe,
    })
}

fn diff(s: &Setup, seed: u64, op: u64) -> Result<SubjectReport, String> {
    let _r = root("bench.subject", op);
    let program = {
        let _s = span("difftest.generate");
        generate_program(seed)
    }
    .map_err(|e| format!("seed {seed}: generator: {e}"))?;
    let _s = span("difftest.diff");
    diff_program(&format!("seed:{seed}"), &program, &s.presets, &s.cfg)
        .map_err(|e| format!("seed {seed}: {e}"))
}

fn divergences(report: &SubjectReport) -> BTreeSet<String> {
    report
        .cases
        .iter()
        .filter(|c| c.verdict != DiffVerdict::Match)
        .map(|c| {
            let phase = match c.phase {
                DiffPhase::Golden => "golden",
                DiffPhase::Injected => "injected",
            };
            divergence_line(
                &c.subject,
                &c.preset,
                phase,
                &c.site,
                c.verdict.key(),
                &c.detail,
            )
        })
        .collect()
}

pub fn run(ctx: &Ctx, s: &mut Setup, out: &mut Outcome) {
    out.check_engine(ENGINE, &mcu::Machine::new(&s.probe));
    for name in [
        "diff.ok",
        "difftest.no_miscompile",
        "difftest.cured_parity",
        "difftest.committed_divergences",
        "repeat.identical",
    ] {
        out.checks.declare(name);
    }
    // Subject, CPU seconds and cases of each diff, first runs and
    // reruns apart.
    let (mut cold, mut warm) = (Vec::<(u64, f64, f64)>::new(), Vec::new());
    let mut queue: Vec<u64> = Vec::new();
    // Samples of complete passes over the corpus, first runs and reruns.
    let mut complete = (0, 0);
    let started = Instant::now();
    let main = root("bench.main", 0);
    while ctx.budget.more(started, out.iterations) {
        if queue.is_empty() {
            complete = (cold.len(), warm.len());
            queue = s
                .order
                .permutation(s.subjects as usize)
                .into_iter()
                .map(|k| s.seed_base + k as u64)
                .collect();
        }
        let seed = queue.pop().expect("refilled above");
        let mut first: Option<SubjectReport> = None;
        for pass in 0..2 {
            let op = 2 * out.iterations + pass;
            let t = thread_cpu_s();
            let result = diff(s, seed, op);
            let secs = thread_cpu_s() - t;
            out.attempted += 1;
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    out.checks.compare("diff.ok", false, || e);
                    continue;
                }
            };
            out.checks.compare("diff.ok", true, String::new);
            let cases = report.cases.len() as u64;
            let samples = if pass == 0 { &mut cold } else { &mut warm };
            samples.push((seed, secs, cases as f64));
            let counts = report.counts();
            out.add_layer("difftest.cases", cases as f64);
            out.add_layer("difftest.match", counts.matched as f64);
            out.add_layer("difftest.benign", counts.benign as f64);
            out.add_layer("difftest.csr", counts.check_strength_reduction as f64);
            out.add_layer("difftest.miscompile", counts.miscompile as f64);
            // `diff_program` builds the reference and then each preset.
            out.add_layer("difftest.builds", (s.presets.len() + 1) as f64);
            out.checks.eq(
                "difftest.no_miscompile",
                &format!("seed {seed} miscompiles"),
                0,
                counts.miscompile,
            );
            let cured_csr = report
                .cases
                .iter()
                .filter(|c| {
                    c.verdict == DiffVerdict::CheckStrengthReduction && s.cured.contains(&c.preset)
                })
                .count();
            out.checks.eq(
                "difftest.cured_parity",
                &format!("seed {seed} cured check-strength reductions"),
                0,
                cured_csr,
            );
            let prefix = format!("seed:{seed} |");
            let expected: BTreeSet<&String> = s
                .committed
                .iter()
                .filter(|l| l.starts_with(&prefix))
                .collect();
            out.checks.eq(
                "difftest.committed_divergences",
                &format!("seed {seed} divergences"),
                expected,
                divergences(&report).iter().collect(),
            );
            match &first {
                None => {
                    out.outputs.insert(
                        format!("subject/{seed}"),
                        crate::common::digest(&format!("{:?}", report.cases)),
                    );
                    first = Some(report);
                }
                Some(f) => {
                    out.checks.eq(
                        "repeat.identical",
                        &format!("seed {seed}"),
                        &f.cases,
                        &report.cases,
                    );
                }
            }
        }
        out.iterations += 1;
    }
    drop(main);
    out.wall_s = started.elapsed().as_secs_f64();
    // Metrics cover complete passes only, so every run weighs each
    // subject equally: a diff of one program can take ten times that of
    // another.
    if queue.is_empty() || complete.0 == 0 {
        complete = (cold.len(), warm.len());
    }
    // The rate is the corpus's cases over the sum of each subject's
    // median time across passes: a pass's time is dominated by its few
    // heaviest subjects, so one slow diff of one of them would move a
    // pooled ratio.
    let rate = |ops: &[(u64, f64, f64)]| {
        let mut by_subject = BTreeMap::<u64, (Vec<f64>, f64)>::new();
        for &(seed, secs, cases) in ops {
            let (times, c) = by_subject.entry(seed).or_default();
            times.push(secs);
            *c = cases;
        }
        let cases: f64 = by_subject.values().map(|(_, c)| c).sum();
        cases / by_subject.values().map(|(t, _)| median(t)).sum::<f64>()
    };
    let (cold, warm) = (&cold[..complete.0], &warm[..complete.1]);
    out.e2e.insert("work_per_s".into(), rate(cold));
    out.e2e.insert("warm_work_per_s".into(), rate(warm));
    let ms: Vec<f64> = cold.iter().map(|(_, t, _)| t * 1e3).collect();
    out.e2e.insert("op_p50_ms".into(), quantile(&ms, 0.5));
    out.e2e.insert("op_p90_ms".into(), quantile(&ms, 0.9));
}
