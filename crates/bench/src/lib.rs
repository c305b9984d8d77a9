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

    /// Reads knob `name` through `lookup`. Unset or blank selects
    /// `default`; anything else must parse as a `T`.
    fn knob<T: FromStr>(
        lookup: &impl Fn(&str) -> Option<String>,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match lookup(name) {
            Some(v) if !v.trim().is_empty() => v
                .trim()
                .parse()
                .map_err(|_| format!("{name}: malformed value `{v}`")),
            _ => Ok(default),
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
        /// count, or when `STOS_SPEEDUP_MIN` is not a positive number.
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
            let speedup_min: f64 = knob(&lookup, "STOS_SPEEDUP_MIN", 10.0)?;
            if !(speedup_min.is_finite() && speedup_min > 0.0) {
                return Err(format!(
                    "STOS_SPEEDUP_MIN: `{speedup_min}` is not a positive number"
                ));
            }
            Ok(Knobs {
                sim_seconds: knob(&lookup, "STOS_SECONDS", 10)?,
                fault_sites: knob(&lookup, "STOS_FAULTS", 16)?,
                diff_seeds: knob(&lookup, "STOS_DIFF_SEEDS", 50)?,
                diff_base: knob(&lookup, "STOS_DIFF_BASE", 1)?,
                torn_sites: knob(&lookup, "STOS_TORN", 4)?,
                kernel_cycles: knob(&lookup, "STOS_KERNEL_CYCLES", 200_000_000)?,
                speedup_min,
                fleet_motes,
                fleet_seeds: knob(&lookup, "STOS_FLEET_SEEDS", 2)?,
                fleet_seconds: knob(&lookup, "STOS_FLEET_SECONDS", 4)?,
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
            for vars in [&[][..], &[("STOS_SECONDS", ""), ("STOS_MOTES", " ")]] {
                let k = parse(vars).unwrap();
                assert_eq!(k.sim_seconds, 10);
                assert_eq!(k.fault_sites, 16);
                assert_eq!(k.fleet_motes, vec![10, 100, 1000]);
                assert_eq!(k.speedup_min, 10.0);
            }
        }

        #[test]
        fn well_formed_knobs_parse() {
            let k = parse(&[
                ("STOS_SECONDS", "2"),
                ("STOS_DIFF_SEEDS", " 20 "),
                ("STOS_MOTES", "10, 100"),
                ("STOS_SPEEDUP_MIN", "2.5"),
            ])
            .unwrap();
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
pub fn emit_json(name: &str, body: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("STOS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    std::fs::write(&path, body)?;
    println!("[wrote {}]", path.display());
    Ok(path)
}

/// Minimal JSON construction helpers (the build environment is offline,
/// so no serde; the figures' payloads are shallow and small).
pub mod json {
    /// Escapes a string for use inside a JSON string literal.
    pub fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// A JSON object builder preserving insertion order.
    #[derive(Debug, Default)]
    pub struct Obj {
        parts: Vec<String>,
    }

    impl Obj {
        /// An empty object.
        pub fn new() -> Obj {
            Obj::default()
        }

        /// Adds a string field.
        pub fn str(mut self, key: &str, value: &str) -> Obj {
            self.parts
                .push(format!("\"{}\":\"{}\"", esc(key), esc(value)));
            self
        }

        /// Adds an integer field.
        pub fn int(mut self, key: &str, value: i64) -> Obj {
            self.parts.push(format!("\"{}\":{value}", esc(key)));
            self
        }

        /// Adds a number field (non-finite values become `null`).
        pub fn num(mut self, key: &str, value: f64) -> Obj {
            let rendered = if value.is_finite() {
                format!("{value:.4}")
            } else {
                "null".to_string()
            };
            self.parts.push(format!("\"{}\":{rendered}", esc(key)));
            self
        }

        /// Adds an already-serialized JSON value.
        pub fn raw(mut self, key: &str, value: &str) -> Obj {
            self.parts.push(format!("\"{}\":{value}", esc(key)));
            self
        }

        /// Serializes the object.
        pub fn build(self) -> String {
            format!("{{{}}}", self.parts.join(","))
        }
    }

    /// Serializes an array from already-serialized elements.
    pub fn arr<I: IntoIterator<Item = String>>(items: I) -> String {
        format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
    }
}
