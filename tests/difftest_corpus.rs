//! The differential oracle's regression suite: replays the committed
//! seed corpus across the full preset registry (zero Miscompile
//! verdicts, full cured detection parity), and property-tests the
//! generator itself — every seed must yield a program that type-checks
//! through the ordinary frontend and terminates within the step budget
//! under both the reference and the most aggressive preset.

use proptest::prelude::*;
use safe_tinyos::difftest::{self, DiffConfig, DiffPhase, DiffVerdict};
use safe_tinyos_suite as _;

/// The committed corpus: seed per line, `#` comments.
fn corpus_seeds() -> Vec<u64> {
    let body = include_str!("difftest_corpus.txt");
    body.lines()
        .filter_map(|line| {
            let data = line.split('#').next().unwrap_or("").trim();
            if data.is_empty() {
                None
            } else {
                Some(data.parse().unwrap_or_else(|_| panic!("bad seed `{data}`")))
            }
        })
        .collect()
}

#[test]
fn corpus_replays_clean_across_all_presets() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 10, "corpus shrank to {}", seeds.len());
    let presets = bench::diff::default_presets();
    let cfg = DiffConfig::default();
    let runner = bench::ExperimentRunner::from_env();
    let reports = bench::diff::seed_reports(&runner, &seeds, &presets, &cfg);
    for report in &reports {
        for case in &report.cases {
            assert_ne!(
                case.verdict,
                DiffVerdict::Miscompile,
                "corpus regression: {case:?}"
            );
            // Cured presets owe the reference full detection parity
            // (the hardened check-elimination invariant).
            if case.phase == DiffPhase::Injected {
                let cured = presets
                    .iter()
                    .any(|p| p.name() == case.preset && bench::diff::is_cured(p));
                if cured {
                    assert_ne!(
                        case.verdict,
                        DiffVerdict::CheckStrengthReduction,
                        "cured preset lost coverage: {case:?}"
                    );
                }
            }
        }
    }
    // The corpus is not vacuous: it must exercise both comparison
    // phases and at least one trapping reference (uncured presets show
    // those as golden-phase CheckStrengthReduction).
    let all: Vec<_> = reports.iter().flat_map(|r| &r.cases).collect();
    assert!(all.iter().any(|c| c.phase == DiffPhase::Injected));
    assert!(all.iter().any(|c| c.phase == DiffPhase::Golden
        && c.verdict == DiffVerdict::CheckStrengthReduction
        && c.preset == "unsafe"));
}

/// The oracle shares builds and runs across the presets of one call —
/// by canonical spec and by identical image — so a preset list with
/// duplicated and reordered entries must still yield, case for case,
/// what one single-preset call per entry yields.
#[test]
fn shared_runs_match_single_preset_calls() {
    let cfg = DiffConfig::default();
    let mut presets = bench::diff::default_presets();
    presets.reverse();
    presets.extend([
        // Same spec as the reference and as the `safe-flid` preset.
        difftest::reference_pipeline().with_name("reference-again"),
        safe_tinyos::Pipeline::preset("gcc").unwrap(),
        // `safe-flid-cxprop` with its link-time backend spelled out: a
        // different spec, the same image.
        safe_tinyos::Pipeline::parse("cure(flid)|cxprop|prune|backend").unwrap(),
        safe_tinyos::Pipeline::preset("unsafe").unwrap(),
    ]);
    for seed in corpus_seeds() {
        let program = difftest::generate_program(seed).unwrap();
        let subject = format!("seed:{seed}");
        let together = difftest::diff_program(&subject, &program, &presets, &cfg).unwrap();
        let one_by_one: Vec<_> = presets
            .iter()
            .flat_map(|p| {
                difftest::diff_program(&subject, &program, std::slice::from_ref(p), &cfg)
                    .unwrap()
                    .cases
            })
            .collect();
        assert_eq!(together.cases, one_by_one, "seed {seed}");
    }
}

/// The app population rides the same core: two presets with different
/// specs that link one image share its runs and still report exactly
/// what separate calls report.
#[test]
fn app_presets_sharing_an_image_match_single_preset_calls() {
    let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
    let session = safe_tinyos::BuildSession::new();
    let presets = [
        safe_tinyos::Pipeline::safe_flid_cxprop(),
        safe_tinyos::Pipeline::parse("cure(flid)|cxprop|prune|backend").unwrap(),
    ];
    assert_ne!(presets[0].spec(), presets[1].spec());
    assert_eq!(
        session.build(&spec, &presets[0]).unwrap().image,
        session.build(&spec, &presets[1]).unwrap().image,
        "the pair must link one image"
    );
    let cfg = DiffConfig::default();
    let together = difftest::diff_app(&session, &spec, &presets, 2, &cfg).unwrap();
    let one_by_one: Vec<_> = presets
        .iter()
        .flat_map(|p| {
            difftest::diff_app(&session, &spec, std::slice::from_ref(p), 2, &cfg)
                .unwrap()
                .cases
        })
        .collect();
    assert_eq!(together.cases, one_by_one);
    assert!(
        together
            .cases
            .iter()
            .any(|c| c.phase == DiffPhase::Injected),
        "no injected comparison exercised the shared runs"
    );
}

proptest! {
    /// Generator validity: every seed's program passes the frontend
    /// (parse + type-check) — the generator may never emit source the
    /// toolchain rejects.
    #[test]
    fn every_seed_type_checks(seed in any::<u64>()) {
        difftest::generate_program(seed).unwrap_or_else(|e| {
            panic!("seed {seed}: {e}\n{}", difftest::generate_source(seed))
        });
    }

    /// Termination: under the reference pipeline and under the most
    /// aggressive optimizing preset alike, a generated program halts or
    /// traps within the step budget — never spins.
    #[test]
    fn every_seed_terminates_under_budget(seed in any::<u64>()) {
        let cfg = DiffConfig::default();
        let program = difftest::generate_program(seed).unwrap();
        for pipeline in [
            difftest::reference_pipeline(),
            safe_tinyos::Pipeline::safe_flid_inline_cxprop(),
        ] {
            let build = pipeline
                .build(program.clone(), mcu::Profile::mica2())
                .unwrap();
            let mut m = mcu::Machine::new(&build.image);
            m.run(cfg.budget_cycles);
            prop_assert!(
                m.state != mcu::RunState::Running,
                "seed {} still running after {} cycles under {}",
                seed,
                cfg.budget_cycles,
                pipeline.name()
            );
        }
    }
}
