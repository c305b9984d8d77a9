//! cXprop's whole-program analysis reaches a real fixpoint instead of
//! stopping at its round cap. Summaries that kept growing by one step per
//! round (a counter incremented once per call) used to be cut off at the
//! cap, and the transform then folded branches on ranges that did not
//! cover every execution. These tests pin two real guards that such folds
//! deleted, and check that every analysis over the app × preset grid and
//! a slice of generated programs ends with nothing changed, below the cap.

use cxprop::engine::MAX_ROUNDS;
use safe_tinyos::{difftest, Build, BuildSession, Pipeline, PRESET_NAMES};
use safe_tinyos_suite as _;

fn build(session: &BuildSession, app: &str, preset: &str) -> Build {
    let spec = tosapps::spec(app).expect("known app");
    let pipeline = Pipeline::preset(preset).expect("known preset");
    session.build(&spec, &pipeline).expect("build")
}

/// The final IR of every function of `build`, as C-like text.
fn functions_text(build: &Build) -> Vec<(String, String)> {
    build
        .program
        .functions
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                tcil::pretty::function_to_string(f, &build.program),
            )
        })
        .collect()
}

#[test]
fn uart_queue_full_guard_survives_cxprop() {
    // `count` grows by one per `put`; a capped analysis saw `[0,12]` and
    // folded `count < 16` to true, so `put` always reported success.
    let b = build(
        &BuildSession::new(),
        "MicaHWVerify_Mica2",
        "safe-flid-cxprop",
    );
    let text = functions_text(&b);
    let (_, put) = text
        .iter()
        .find(|(name, _)| name == "UartM__Uart__put")
        .expect("UartM__Uart__put survives");
    assert!(
        put.contains("UartM__count) < 16"),
        "queue-full guard folded away:\n{put}"
    );
}

#[test]
fn surge_keeps_the_sequence_high_byte_store() {
    // `seq` grows by one per reading; a capped analysis saw `[0,12]` and
    // stored a constant 0 for `seq >> 8`.
    let b = build(
        &BuildSession::new(),
        "Surge_Mica2",
        "safe-flid-inline-cxprop",
    );
    let text = functions_text(&b);
    assert!(
        text.iter().any(|(_, t)| t.contains("(SurgeM__seq >> ")),
        "the seq >> 8 store was folded to a constant"
    );
}

#[test]
fn every_analysis_converges_below_the_round_cap() {
    let session = BuildSession::new();
    let check = |label: &str, preset: &str, b: &Build| {
        let rounds = b.metrics.cxprop.as_ref().map_or(0, |c| c.analysis_rounds);
        assert!(
            rounds < MAX_ROUNDS,
            "{label}/{preset}: analysis ran {rounds} rounds (cap {MAX_ROUNDS})"
        );
        // Every preset with a cXprop pass ran at least one analysis.
        assert_eq!(rounds > 0, preset.contains("cxprop"), "{label}/{preset}");
    };
    for app in tosapps::APP_NAMES {
        for preset in PRESET_NAMES {
            check(app, preset, &build(&session, app, preset));
        }
    }
    for seed in 1..=12 {
        let program = difftest::generate_program(seed).expect("generated program lowers");
        for preset in PRESET_NAMES {
            let b = Pipeline::preset(preset)
                .expect("known preset")
                .build(program.clone(), mcu::Profile::mica2())
                .expect("build");
            check(&format!("seed {seed}"), preset, &b);
        }
    }
}
