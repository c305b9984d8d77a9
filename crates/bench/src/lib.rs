//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§3). Each binary prints one figure:
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `fig2_checks` | Figure 2: % of inserted checks removed by 4 optimizer stacks |
//! | `fig3a_code_size` | Figure 3(a): Δ code size under 7 configurations |
//! | `fig3b_data_size` | Figure 3(b): Δ static data size |
//! | `fig3c_duty_cycle` | Figure 3(c): Δ duty cycle over simulated minutes |
//! | `runtime_footprint` | §2.3: the runtime-library reduction story |
//! | `ablations` | §2.1 claims: early inlining, strong DCE, copy-prop, atomic optimization |
//! | `pipeline_matrix` | pass subsets/orders/options × 3 apps — the composition sweep the paper couldn't afford |
//! | `fault_injection` | §2's detection claim: injected-corruption campaigns per pipeline, detection rates and FLID triage |
//!
//! All of them drive their app × configuration grids through
//! [`runner::ExperimentRunner`], which shares one frontend artifact
//! cache per session and fans jobs out across `STOS_THREADS` workers,
//! and each emits `BENCH_toolchain_speed.json` describing what the
//! toolchain itself cost.

pub mod diff;
pub mod fault;
pub mod fleet;
pub mod gate;
pub mod json;
pub mod kernels;
pub mod races;
pub mod runner;
pub mod stack;

use safe_tinyos::{Build, BuildSession, Pipeline};
use tosapps::AppSpec;

pub use knobs::Knobs;
pub use runner::{ExperimentRunner, GridJob, SpeedReport, WarmCache};

/// Builds one app under one pipeline with a throwaway session,
/// panicking with context on failure. Grid-shaped experiments should use
/// [`ExperimentRunner`] instead, which shares the frontend and pass
/// caches across cells and parallelizes.
pub fn must_build(spec: &AppSpec, pipeline: &Pipeline) -> Build {
    BuildSession::new()
        .build(spec, pipeline)
        .unwrap_or_else(|e| panic!("{} / {}: {e}", spec.name, pipeline.name()))
}

/// Percent change of `new` relative to `base`.
pub fn pct_change(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) * 100.0 / base as f64
}

/// Formats a row of right-aligned cells after a left-aligned label.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<28}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

/// Run-shortening environment knobs, shared by every harness and parsed
/// exactly once per process (CI shortens runs by exporting these; the
/// harnesses must all agree on what they saw, even if the environment
/// mutates mid-run). Harness mains call [`Knobs::from_env`] once and
/// pass the values they need down explicitly — library code takes plain
/// parameters and never reads the environment itself.
pub mod knobs {
    use std::str::FromStr;
    use std::sync::OnceLock;

    /// Reads knob `name` through `lookup`. Unset or blank is `None`;
    /// anything else must parse as a `T`.
    fn knob<T: FromStr>(
        lookup: &impl Fn(&str) -> Option<String>,
        name: &str,
    ) -> Result<Option<T>, String> {
        match lookup(name) {
            Some(v) if !v.trim().is_empty() => v
                .trim()
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: malformed value `{v}`")),
            _ => Ok(None),
        }
    }

    /// [`knob`] for a bound that must be a positive, finite number.
    fn positive_knob(
        lookup: &impl Fn(&str) -> Option<String>,
        name: &str,
    ) -> Result<Option<f64>, String> {
        match knob::<f64>(lookup, name)? {
            Some(x) if !(x.is_finite() && x > 0.0) => {
                Err(format!("{name}: `{x}` is not a positive number"))
            }
            x => Ok(x),
        }
    }

    /// The typed view of every `STOS_*` run-shaping variable.
    #[derive(Debug, Clone)]
    pub struct Knobs {
        /// Simulated seconds for duty-cycle and fault-campaign runs:
        /// the paper uses 3 minutes; a smaller default keeps the
        /// harnesses quick. `STOS_SECONDS`, default 10.
        pub sim_seconds: u64,
        /// Injection sites per app × pipeline cell of a fault campaign.
        /// `STOS_FAULTS`, default 16.
        pub fault_sites: usize,
        /// Generated-program subjects for the differential oracle.
        /// `STOS_DIFF_SEEDS`, default 50.
        pub diff_seeds: u64,
        /// First seed of the differential oracle's range (the subjects
        /// are `diff_base .. diff_base + diff_seeds`) — set
        /// `STOS_DIFF_SEEDS=1 STOS_DIFF_BASE=N` to replay one
        /// divergence-triggering seed. `STOS_DIFF_BASE`, default 1.
        pub diff_base: u64,
        /// Torn-update injections per flagged target in the
        /// race-analysis campaign. `STOS_TORN`, default 4.
        pub torn_sites: usize,
        /// Simulated cycles each `sim_speed` compute kernel runs per
        /// engine. `STOS_KERNEL_CYCLES`, default 200M.
        pub kernel_cycles: u64,
        /// Aggregate kernel speedup the `sim_speed` harness gates on.
        /// `STOS_SPEEDUP_MIN`, default 10×.
        pub speedup_min: f64,
        /// Fleet sizes the `fleet` harness sweeps. The committed
        /// `BENCH_fleet.json` carries the full `10,100,1000` sweep; CI
        /// overrides with a smaller population via `STOS_MOTES`
        /// (comma-separated) and the gate compares only the rows the
        /// fresh run produced.
        pub fleet_motes: Vec<usize>,
        /// Seeds per fleet size in the `fleet` harness's sweep.
        /// `STOS_FLEET_SEEDS`, default 2 (CI uses 1).
        pub fleet_seeds: u64,
        /// Simulated seconds per fleet run. Deliberately independent of
        /// [`Knobs::sim_seconds`]: CI shortens `STOS_SECONDS` for the
        /// single-mote harnesses, but the fleet rows are byte-pinned
        /// against the committed baseline, so their horizon must not
        /// move with it. `STOS_FLEET_SECONDS`, default 4.
        pub fleet_seconds: u64,
        /// Worker threads of [`crate::ExperimentRunner::from_env`] (`1`
        /// runs serially on the calling thread). `STOS_THREADS`, default
        /// the machine's available parallelism; `0` is an error.
        pub threads: usize,
        /// How many times slower than the committed baseline the
        /// `regression` gate lets a fresh toolchain run be.
        /// `STOS_REGRESSION_FACTOR`; `None` when unset, so the gate can
        /// say its bound is the default.
        pub regression_factor: Option<f64>,
    }

    impl Knobs {
        /// The process-wide knob set, parsed from the environment on
        /// first use and frozen thereafter.
        ///
        /// # Panics
        ///
        /// Panics with [`Knobs::parse`]'s error on a malformed knob: a
        /// typo must not silently run the default experiment.
        pub fn from_env() -> &'static Knobs {
            static CELL: OnceLock<Knobs> = OnceLock::new();
            CELL.get_or_init(|| {
                Knobs::parse(|name| {
                    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
                })
                .unwrap_or_else(|e| panic!("{e}"))
            })
        }

        /// Parses every knob from `lookup` (variable name → value).
        ///
        /// # Errors
        ///
        /// Names the knob and its value when a value does not parse,
        /// when `STOS_MOTES` has an entry that is not a positive mote
        /// count, when `STOS_THREADS` is `0`, or when `STOS_SPEEDUP_MIN`
        /// or `STOS_REGRESSION_FACTOR` is not a positive number.
        pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
            let fleet_motes = match lookup("STOS_MOTES") {
                Some(v) if !v.trim().is_empty() => v
                    .split(',')
                    .map(|t| match t.trim().parse() {
                        Ok(n) if n > 0 => Ok(n),
                        _ => Err(format!(
                            "STOS_MOTES: bad entry `{t}` in `{v}` \
                             (expected comma-separated positive mote counts)"
                        )),
                    })
                    .collect::<Result<_, _>>()?,
                _ => vec![10, 100, 1000],
            };
            let threads = match knob(&lookup, "STOS_THREADS")? {
                Some(0) => return Err("STOS_THREADS: `0` is not a worker count".into()),
                Some(n) => n,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            };
            Ok(Knobs {
                sim_seconds: knob(&lookup, "STOS_SECONDS")?.unwrap_or(10),
                fault_sites: knob(&lookup, "STOS_FAULTS")?.unwrap_or(16),
                diff_seeds: knob(&lookup, "STOS_DIFF_SEEDS")?.unwrap_or(50),
                diff_base: knob(&lookup, "STOS_DIFF_BASE")?.unwrap_or(1),
                torn_sites: knob(&lookup, "STOS_TORN")?.unwrap_or(4),
                kernel_cycles: knob(&lookup, "STOS_KERNEL_CYCLES")?.unwrap_or(200_000_000),
                speedup_min: positive_knob(&lookup, "STOS_SPEEDUP_MIN")?.unwrap_or(10.0),
                fleet_motes,
                fleet_seeds: knob(&lookup, "STOS_FLEET_SEEDS")?.unwrap_or(2),
                fleet_seconds: knob(&lookup, "STOS_FLEET_SECONDS")?.unwrap_or(4),
                threads,
                regression_factor: positive_knob(&lookup, "STOS_REGRESSION_FACTOR")?,
            })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Knobs;

        fn parse(vars: &[(&str, &str)]) -> Result<Knobs, String> {
            Knobs::parse(|name| {
                vars.iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            })
        }

        #[test]
        fn unset_and_blank_knobs_take_defaults() {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            for vars in [
                &[][..],
                &[
                    ("STOS_SECONDS", ""),
                    ("STOS_MOTES", " "),
                    ("STOS_THREADS", ""),
                    ("STOS_REGRESSION_FACTOR", " "),
                ],
            ] {
                let k = parse(vars).unwrap();
                assert_eq!(k.sim_seconds, 10);
                assert_eq!(k.fault_sites, 16);
                assert_eq!(k.fleet_motes, vec![10, 100, 1000]);
                assert_eq!(k.speedup_min, 10.0);
                assert_eq!(k.threads, cores);
                assert_eq!(k.regression_factor, None);
            }
        }

        #[test]
        fn well_formed_knobs_parse() {
            let k = parse(&[
                ("STOS_SECONDS", "2"),
                ("STOS_DIFF_SEEDS", " 20 "),
                ("STOS_MOTES", "10, 100"),
                ("STOS_SPEEDUP_MIN", "2.5"),
                ("STOS_THREADS", "3"),
                ("STOS_REGRESSION_FACTOR", "1.5"),
            ])
            .unwrap();
            assert_eq!(k.threads, 3);
            assert_eq!(k.regression_factor, Some(1.5));
            assert_eq!(k.sim_seconds, 2);
            assert_eq!(k.diff_seeds, 20);
            assert_eq!(k.fleet_motes, vec![10, 100]);
            assert_eq!(k.speedup_min, 2.5);
        }

        #[test]
        fn malformed_knobs_are_errors_naming_knob_and_value() {
            for (name, value) in [
                ("STOS_SECONDS", "ten"),
                ("STOS_FAULTS", "-1"),
                ("STOS_DIFF_BASE", "1e3"),
                ("STOS_FLEET_SECONDS", "4s"),
                ("STOS_SPEEDUP_MIN", "fast"),
                ("STOS_SPEEDUP_MIN", "0"),
                ("STOS_SPEEDUP_MIN", "inf"),
                ("STOS_THREADS", "0"),
                ("STOS_THREADS", "two"),
                ("STOS_THREADS", "-4"),
                ("STOS_REGRESSION_FACTOR", "lax"),
                ("STOS_REGRESSION_FACTOR", "0"),
                ("STOS_REGRESSION_FACTOR", "-2"),
                ("STOS_REGRESSION_FACTOR", "NaN"),
                ("STOS_REGRESSION_FACTOR", "inf"),
            ] {
                let err = parse(&[(name, value)]).unwrap_err();
                assert!(
                    err.contains(name) && err.contains(value),
                    "{name}={value}: {err}"
                );
            }
        }

        #[test]
        fn bad_mote_entries_are_errors_not_dropped() {
            for (value, entry) in [("10,x", "x"), ("10,,100", ""), ("0", "0"), ("10,-5", "-5")] {
                let err = parse(&[("STOS_MOTES", value)]).unwrap_err();
                assert!(
                    err.contains("STOS_MOTES") && err.contains(&format!("`{entry}`")),
                    "{value}: {err}"
                );
            }
        }
    }
}

/// Writes `body` to `BENCH_<name>.json` in `STOS_BENCH_DIR` (default:
/// the current directory) so each figure leaves a machine-readable
/// trace alongside its printed table. Returns the path written.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn emit_json(name: &str, body: &json::Value) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("STOS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    std::fs::write(&path, body.to_string())?;
    println!("[wrote {}]", path.display());
    Ok(path)
}
