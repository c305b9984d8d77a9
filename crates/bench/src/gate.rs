//! CI gates over published `BENCH_*.json` files, as one table.
//!
//! Each [`Gate`] row of [`GATES`] names the file it reads and the
//! [`Check`]s it makes on paths of the parsed [`Value`]. The `gate`
//! binary runs one row (`gate <row> <files…>`) or every row over a
//! committed and a fresh directory (`gate all <committed_dir>
//! <fresh_dir>`). Each passing check prints a line naming its bound and
//! where the bound came from, so a loosened run shows in the CI log.

use std::path::Path;

use crate::json::{self, Value};

/// Where a [`Check::Bound`] limit comes from.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// A constant of the table.
    Fixed(f64),
    /// `STOS_REGRESSION_FACTOR` when set, else this default.
    RegressionFactor(f64),
    /// The number at this path of the fresh file.
    Published(&'static str),
}

/// How a [`Check::Bound`] ratio must relate to its limit.
#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    /// `ratio <= limit`.
    AtMost,
    /// `ratio >= limit`.
    AtLeast,
    /// `ratio == limit`.
    Exactly,
}

/// The denominator of a [`Check::Bound`] ratio.
#[derive(Debug, Clone, Copy)]
pub enum Den {
    /// None: the numerator is bounded directly.
    One,
    /// The number at this path of the fresh file.
    Fresh(&'static str),
    /// The number at this path of the committed file.
    Committed(&'static str),
}

/// One check over a committed and a fresh file (an unpaired row passes
/// the same file as both).
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// The subtree at this path is identical in both files.
    Pinned(&'static str),
    /// [`Check::Pinned`], compared only when the field at the second
    /// path (which both files must have) is identical in both.
    PinnedIfSame(&'static str, &'static str),
    /// Each row of the fresh array at this path equals the committed row
    /// with the same values of the key fields; the fresh run may
    /// publish a non-empty subset of the rows.
    PinnedRows(&'static str, &'static [&'static str]),
    /// The count at this path of the fresh file is zero.
    Zero(&'static str),
    /// The flag at this path of the fresh file is `true`.
    True(&'static str),
    /// The fresh number at `num` divided by `den` relates to `limit` as
    /// `cmp` says. A zero denominator passes: nothing to compare with.
    Bound {
        num: &'static str,
        den: Den,
        cmp: Cmp,
        limit: Limit,
    },
}

/// A named row of the gate table.
#[derive(Debug)]
pub struct Gate {
    /// The name `gate <row>` takes.
    pub name: &'static str,
    /// The file the row reads under `gate all`.
    pub file: &'static str,
    /// Whether the row compares a committed and a fresh file; other rows
    /// check each file they are given on its own.
    pub paired: bool,
    /// The checks, in order; the first failure ends the row.
    pub checks: &'static [Check],
}

/// Every gate CI runs.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // Toolchain wall time within 2x of the committed baseline: shared
    // runners are noisy, so this catches rot, not percent-level drift.
    Gate { name: "regression", file: "BENCH_toolchain_speed.json", paired: true, checks: &[
        Check::Bound { num: "wall_ms", den: Den::Committed("wall_ms"), cmp: Cmp::AtMost, limit: Limit::RegressionFactor(2.0) },
    ] },
    // The fig3 grid ran cure once per distinct (app, cure spec) input,
    // and its warm re-run is at least 3x faster than the cold one.
    Gate { name: "cache", file: "BENCH_toolchain_speed.json", paired: false, checks: &[
        Check::Bound { num: "cache.cure_runs", den: Den::Fresh("cache.cure_unique"), cmp: Cmp::Exactly, limit: Limit::Fixed(1.0) },
        Check::Bound { num: "wall_ms", den: Den::Fresh("cache.warm_wall_ms"), cmp: Cmp::AtLeast, limit: Limit::Fixed(3.0) },
    ] },
    // The differential oracle's hard invariants.
    Gate { name: "difftest", file: "BENCH_difftest.json", paired: false, checks: &[
        Check::Zero("total_miscompiles"),
        Check::Zero("total_cured_strength_reductions"),
    ] },
    // The time-independent analysis is pinned; hardened builds stay
    // immune to torn updates.
    Gate { name: "races", file: "BENCH_races.json", paired: true, checks: &[
        Check::Pinned("analysis"),
        Check::Zero("dynamics.hardened_divergences"),
    ] },
    // Certified bounds are pinned and sound; runs over the same horizon
    // (e.g. the `STOS_ENGINE=bt` rerun) observed the same watermarks.
    Gate { name: "stack", file: "BENCH_stack.json", paired: true, checks: &[
        Check::Pinned("analysis"),
        Check::Zero("dynamics.watermark_violations"),
        Check::PinnedIfSame("dynamics.watermarks", "dynamics.seconds"),
    ] },
    // Engines agree on every subject; the gated kernels reach the floor.
    Gate { name: "sim-speed", file: "BENCH_sim_speed.json", paired: false, checks: &[
        Check::True("engines_identical"),
        Check::Bound { num: "kernel_speedup", den: Den::One, cmp: Cmp::AtLeast, limit: Limit::Published("speedup_min") },
    ] },
    // Pinned fleet outcomes; CI sweeps a subset of the committed rows.
    Gate { name: "fleet", file: "BENCH_fleet.json", paired: true, checks: &[
        Check::Pinned("pinned.fleet_seconds"),
        Check::True("pinned.equivalence_ok"),
        Check::Pinned("pinned.campaign"),
        Check::PinnedRows("pinned.rows", &["motes", "seed"]),
    ] },
];

/// The gate row called `name`.
pub fn gate(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

fn lookup<'a>(body: &'a Value, side: &str, path: &str) -> Result<&'a Value, String> {
    body.at(path)
        .ok_or_else(|| format!("{side} file has no `{path}`"))
}

fn number(body: &Value, side: &str, path: &str) -> Result<f64, String> {
    lookup(body, side, path)?
        .as_f64()
        .ok_or_else(|| format!("{side} `{path}` is not a number"))
}

/// Describes how `got` drifted from `want`, showing the first differing
/// bytes of their renderings in context.
fn drifted(what: &str, want: &Value, got: &Value) -> String {
    let (want, got) = (want.to_string(), got.to_string());
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.len().min(got.len()));
    let ctx = |s: &str| {
        s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    format!(
        "{what} drifted from the committed baseline (first difference at byte {at}:\n  \
         committed: …{}…\n  fresh:     …{}…)\n\
         regenerate the committed file if the change is intended",
        ctx(&want),
        ctx(&got)
    )
}

impl Check {
    /// Runs the check, returning the line to print when it passes.
    ///
    /// # Errors
    ///
    /// What failed, or which field is missing or mistyped.
    pub fn run(
        &self,
        committed: &Value,
        fresh: &Value,
        regression_factor: Option<f64>,
    ) -> Result<String, String> {
        let both = |path| -> Result<(&Value, &Value), String> {
            Ok((
                lookup(committed, "committed", path)?,
                lookup(fresh, "fresh", path)?,
            ))
        };
        match *self {
            Check::Pinned(path) => {
                let (want, got) = both(path)?;
                if want == got {
                    Ok(format!("{path} identical"))
                } else {
                    Err(drifted(path, want, got))
                }
            }
            Check::PinnedIfSame(path, when) => match both(when)? {
                (a, b) if a == b => Check::Pinned(path).run(committed, fresh, None),
                (a, b) => Ok(format!("{path} not compared: {when} is {a} vs {b}")),
            },
            Check::PinnedRows(path, key) => {
                let (want, got) = both(path)?;
                pinned_rows(path, key, want, got)
            }
            Check::Zero(path) => {
                let v = lookup(fresh, "fresh", path)?;
                match v.as_f64() {
                    Some(0.0) => Ok(format!("{path} == 0")),
                    Some(_) => Err(format!("{path} is {v}, must be 0")),
                    None => Err(format!("fresh `{path}` is not a number")),
                }
            }
            Check::True(path) => match lookup(fresh, "fresh", path)? {
                Value::Bool(true) => Ok(format!("{path} is true")),
                Value::Bool(false) => Err(format!("{path} is false")),
                _ => Err(format!("fresh `{path}` is not a flag")),
            },
            Check::Bound {
                num,
                den,
                cmp,
                limit,
            } => {
                let n = number(fresh, "fresh", num)?;
                let (d, label) = match den {
                    Den::One => (1.0, num.to_string()),
                    Den::Fresh(p) => (number(fresh, "fresh", p)?, format!("{num}/{p}")),
                    Den::Committed(p) => (
                        number(committed, "committed", p)?,
                        format!("{num}/committed {p}"),
                    ),
                };
                let (limit, source) = match (limit, regression_factor) {
                    (Limit::Fixed(x), _) => (x, "gate constant".to_string()),
                    (Limit::RegressionFactor(_), Some(f)) => {
                        (f, format!("STOS_REGRESSION_FACTOR={f}"))
                    }
                    (Limit::RegressionFactor(x), None) => {
                        (x, "STOS_REGRESSION_FACTOR unset".to_string())
                    }
                    (Limit::Published(p), _) => {
                        (number(fresh, "fresh", p)?, format!("{p} as published"))
                    }
                };
                if d == 0.0 {
                    return Ok(format!("{label}: denominator is 0, nothing to compare"));
                }
                let ratio = n / d;
                let (holds, op) = match cmp {
                    Cmp::AtMost => (ratio <= limit, "<="),
                    Cmp::AtLeast => (ratio >= limit, ">="),
                    Cmp::Exactly => (ratio == limit, "=="),
                };
                let line = format!("{label} {ratio:.2}x {op} {limit:.2}x ({source})");
                if holds {
                    Ok(line)
                } else {
                    Err(format!("bound broken: {line}"))
                }
            }
        }
    }
}

/// [`Check::PinnedRows`]: each fresh row must equal the committed row
/// with the same key.
fn pinned_rows(path: &str, key: &[&str], want: &Value, got: &Value) -> Result<String, String> {
    let (Some(want), Some(got)) = (want.as_arr(), got.as_arr()) else {
        return Err(format!("`{path}` is not an array in both files"));
    };
    if got.is_empty() {
        return Err(format!("fresh `{path}` has no rows"));
    }
    let key_of = |row: &Value| {
        let fields: Option<Vec<String>> = key
            .iter()
            .map(|k| row.get(k).map(Value::to_string))
            .collect();
        fields.map(|f| format!("({})", f.join(", ")))
    };
    for row in got {
        let k = key_of(row)
            .ok_or_else(|| format!("a fresh `{path}` row lacks ({})", key.join(", ")))?;
        match want.iter().find(|w| key_of(w).as_ref() == Some(&k)) {
            None => {
                return Err(format!(
                    "fresh {path} row {k} has no committed counterpart — \
                     regenerate the committed file with the new sweep"
                ))
            }
            Some(base) if base != row => {
                return Err(drifted(&format!("{path} row {k}"), base, row))
            }
            Some(_) => {}
        }
    }
    Ok(format!(
        "{path}: {} row(s) identical by ({})",
        got.len(),
        key.join(", ")
    ))
}

impl Gate {
    /// Runs every check over a committed and a fresh body, returning the
    /// lines to print.
    ///
    /// # Errors
    ///
    /// The first failing check's description.
    pub fn run(
        &self,
        committed: &Value,
        fresh: &Value,
        regression_factor: Option<f64>,
    ) -> Result<Vec<String>, String> {
        self.checks
            .iter()
            .map(|c| c.run(committed, fresh, regression_factor))
            .collect()
    }

    /// Runs the row over `[committed, fresh]` files, or over each file on
    /// its own if the row is not [`Gate::paired`], prefixing every line
    /// with the row name and the file checked.
    ///
    /// # Errors
    ///
    /// A wrong file count, an unreadable or malformed file, or the first
    /// failing check.
    pub fn run_files(
        &self,
        files: &[&Path],
        regression_factor: Option<f64>,
    ) -> Result<Vec<String>, String> {
        let pairs: Vec<(&Path, &Path)> = match (self.paired, files) {
            (true, &[committed, fresh]) => vec![(committed, fresh)],
            (false, [_, ..]) => files.iter().map(|f| (*f, *f)).collect(),
            _ => return Err(format!("gate {}: wrong number of files", self.name)),
        };
        let load = |path: &Path| {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        let mut out = Vec::new();
        for (committed, fresh) in pairs {
            let prefix = format!("{} {}:", self.name, fresh.display());
            let lines = load(committed)
                .and_then(|c| self.run(&c, &load(fresh)?, regression_factor))
                .map_err(|e| format!("{prefix} {e}"))?;
            out.extend(lines.into_iter().map(|l| format!("{prefix} {l}")));
        }
        Ok(out)
    }
}

/// `gate all`: every row over its file in `committed_dir` and
/// `fresh_dir` (an unpaired row checks both files). Returns each row's
/// outcome, so one failure does not hide the rest.
pub fn run_all(
    committed_dir: &Path,
    fresh_dir: &Path,
    regression_factor: Option<f64>,
) -> Vec<Result<Vec<String>, String>> {
    GATES
        .iter()
        .map(|g| {
            let (committed, fresh) = (committed_dir.join(g.file), fresh_dir.join(g.file));
            let mut files = vec![committed.as_path(), fresh.as_path()];
            if !g.paired {
                files.dedup();
            }
            g.run_files(&files, regression_factor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs row `name` over a committed and a fresh body.
    fn check_with(
        name: &str,
        committed: &str,
        fresh: &str,
        factor: Option<f64>,
    ) -> Result<Vec<String>, String> {
        let parse = |s: &str| json::parse(s).unwrap_or_else(|e| panic!("{e}: {s}"));
        gate(name)
            .expect("known row")
            .run(&parse(committed), &parse(fresh), factor)
    }

    fn check(name: &str, committed: &str, fresh: &str) -> Result<Vec<String>, String> {
        check_with(name, committed, fresh, None)
    }

    /// A single-file row over `body`.
    fn check_one(name: &str, body: &str) -> Result<Vec<String>, String> {
        check(name, body, body)
    }

    const BASE: &str =
        r#"{"figure":"toolchain_speed","wall_ms":100.0,"stage_ms":{"frontend":5.0}}"#;

    #[test]
    fn extracts_top_level_numbers() {
        let base = json::parse(BASE).unwrap();
        assert_eq!(number(&base, "fresh", "wall_ms"), Ok(100.0));
        assert_eq!(number(&base, "fresh", "stage_ms.frontend"), Ok(5.0));
        // Lookup is by path, so a nested key is not found at the top.
        assert!(number(&base, "fresh", "frontend").is_err());
        let err = number(&base, "fresh", "missing").unwrap_err();
        assert!(err.contains("fresh file has no `missing`"), "{err}");
    }

    #[test]
    fn within_factor_passes() {
        let out = check("regression", BASE, r#"{"wall_ms":180.0}"#).unwrap();
        assert_eq!(
            out,
            ["wall_ms/committed wall_ms 1.80x <= 2.00x (STOS_REGRESSION_FACTOR unset)"]
        );
    }

    #[test]
    fn beyond_factor_fails() {
        let fresh = r#"{"wall_ms":250.0}"#;
        let err = check("regression", BASE, fresh).unwrap_err();
        assert!(err.contains("2.50x <= 2.00x"), "{err}");
        // A set factor replaces the default and is echoed.
        let out = check_with("regression", BASE, fresh, Some(3.0)).unwrap();
        assert!(
            out[0].ends_with("2.50x <= 3.00x (STOS_REGRESSION_FACTOR=3)"),
            "{out:?}"
        );
    }

    #[test]
    fn missing_fields_fail() {
        let err = check("regression", "{}", r#"{"wall_ms":1.0}"#).unwrap_err();
        assert!(err.contains("committed file has no `wall_ms`"), "{err}");
        let err = check("regression", BASE, "{}").unwrap_err();
        assert!(err.contains("fresh file has no `wall_ms`"), "{err}");
        let err = check("regression", BASE, r#"{"wall_ms":"fast"}"#).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn zero_baseline_never_regresses() {
        assert!(check("regression", r#"{"wall_ms":0.0}"#, r#"{"wall_ms":50.0}"#).is_ok());
    }

    #[test]
    fn env_factor_defaults_sanely() {
        // An unset STOS_REGRESSION_FACTOR leaves the row's 2.00x default.
        assert_eq!(
            crate::Knobs::parse(|_| None).unwrap().regression_factor,
            None
        );
        assert!(check("regression", BASE, r#"{"wall_ms":200.0}"#).is_ok());
        assert!(check("regression", BASE, r#"{"wall_ms":200.1}"#).is_err());
    }

    #[test]
    fn difftest_gate_passes_clean_reports() {
        let body =
            r#"{"figure":"difftest","total_miscompiles":0,"total_cured_strength_reductions":0}"#;
        assert_eq!(
            check_one("difftest", body).unwrap(),
            [
                "total_miscompiles == 0",
                "total_cured_strength_reductions == 0"
            ]
        );
    }

    #[test]
    fn difftest_gate_fails_on_miscompiles_and_cured_csr() {
        let bad = r#"{"total_miscompiles":2,"total_cured_strength_reductions":0}"#;
        let err = check_one("difftest", bad).unwrap_err();
        assert!(err.contains("total_miscompiles is 2"), "{err}");
        let lost = r#"{"total_miscompiles":0,"total_cured_strength_reductions":3}"#;
        let err = check_one("difftest", lost).unwrap_err();
        assert!(
            err.contains("total_cured_strength_reductions is 3"),
            "{err}"
        );
        assert!(check_one("difftest", "{}").is_err());
    }

    const SPEED: &str = r#"{"figure":"toolchain_speed","wall_ms":150.0,"stage_ms":{"frontend":5.0},"cache":{"warm_wall_ms":20.0,"warm_compile_ms":4.0,"cure_runs":48,"cure_unique":48,"passes":{"cure":{"hits":24,"misses":48,"bytes":100}}}}"#;

    #[test]
    fn cache_gate_passes_effective_cache() {
        assert_eq!(
            check_one("cache", SPEED).unwrap(),
            [
                "cache.cure_runs/cache.cure_unique 1.00x == 1.00x (gate constant)",
                "wall_ms/cache.warm_wall_ms 7.50x >= 3.00x (gate constant)",
            ]
        );
    }

    #[test]
    fn cache_gate_fails_on_duplicate_cure_runs() {
        let dup = SPEED.replace(r#""cure_runs":48"#, r#""cure_runs":72"#);
        let err = check_one("cache", &dup).unwrap_err();
        assert!(
            err.contains("cache.cure_runs/cache.cure_unique 1.50x == 1.00x"),
            "{err}"
        );
    }

    #[test]
    fn cache_gate_fails_on_slow_warm_window() {
        let slow = SPEED.replace(r#""warm_wall_ms":20.0"#, r#""warm_wall_ms":80.0"#);
        let err = check_one("cache", &slow).unwrap_err();
        assert!(
            err.contains("wall_ms/cache.warm_wall_ms 1.88x >= 3.00x"),
            "{err}"
        );
    }

    #[test]
    fn cache_gate_requires_the_cache_section() {
        assert!(check_one("cache", BASE).is_err());
        let gutted = SPEED.replace(r#""warm_wall_ms":20.0,"#, "");
        let err = check_one("cache", &gutted).unwrap_err();
        assert!(err.contains("no `cache.warm_wall_ms`"), "{err}");
    }

    const RACES: &str = r#"{"figure":"race_analysis","analysis":{"apps":[{"app":"A","r001":2}],"totals":{"r001":2}},"dynamics":{"hardened_divergences":0,"unhardened_divergences":5}}"#;

    #[test]
    fn extract_obj_returns_balanced_objects() {
        let races = json::parse(RACES).unwrap();
        let analysis = json::parse(r#"{"apps":[{"app":"A","r001":2}],"totals":{"r001":2}}"#);
        assert_eq!(
            lookup(&races, "fresh", "analysis").ok(),
            analysis.as_ref().ok()
        );
        assert_eq!(
            lookup(&races, "fresh", "analysis.totals").map(Value::to_string),
            Ok(r#"{"r001":2}"#.to_string())
        );
        assert!(lookup(&races, "fresh", "missing").is_err());
        // An unbalanced document is rejected whole.
        assert!(json::parse(r#"{"analysis":{"#).is_err());
    }

    #[test]
    fn race_gate_passes_identical_analysis() {
        assert_eq!(
            check("races", RACES, RACES).unwrap(),
            ["analysis identical", "dynamics.hardened_divergences == 0"]
        );
    }

    #[test]
    fn race_gate_fails_on_analysis_drift() {
        let fresh = RACES.replace(r#""r001":2}]"#, r#""r001":3}]"#);
        let err = check("races", RACES, &fresh).unwrap_err();
        assert!(err.contains("analysis drifted"), "{err}");
    }

    #[test]
    fn race_gate_fails_on_hardened_divergences() {
        let fresh = RACES.replace(r#""hardened_divergences":0"#, r#""hardened_divergences":1"#);
        let err = check("races", RACES, &fresh).unwrap_err();
        assert!(err.contains("dynamics.hardened_divergences is 1"), "{err}");
    }

    #[test]
    fn race_gate_requires_both_objects() {
        assert!(check("races", "{}", RACES).is_err());
        assert!(check("races", RACES, "{}").is_err());
    }

    #[test]
    fn race_totals_are_read_by_path_not_first_occurrence() {
        // The per-app rows come first and report 0; the dynamics total
        // reports 3. A scan for the first `"hardened_divergences":` would
        // read the row's 0 and pass.
        let fresh = r#"{"figure":"race_analysis","analysis":{"apps":[{"app":"A","r001":2}],"totals":{"r001":2}},"dynamics":{"apps":[{"app":"A","hardened_divergences":0}],"hardened_divergences":3}}"#;
        let err = check("races", RACES, fresh).unwrap_err();
        assert!(err.contains("dynamics.hardened_divergences is 3"), "{err}");
    }

    #[test]
    fn brace_in_an_app_name_does_not_cut_the_analysis_short() {
        // A brace counter ends the analysis object at the `}` inside the
        // app name, so the drifted totals after it would go unseen.
        let committed = RACES.replace(r#""app":"A""#, r#""app":"A}""#);
        let fresh = committed.replace(r#""totals":{"r001":2}"#, r#""totals":{"r001":3}"#);
        assert!(check("races", &committed, &committed).is_ok());
        let err = check("races", &committed, &fresh).unwrap_err();
        assert!(err.contains("analysis drifted"), "{err}");
    }

    const STACK: &str = r#"{"figure":"stack_analysis","analysis":{"apps":[{"app":"A","presets":[{"preset":"unsafe","bound":56,"s001":0}]}],"totals":{"s001":0,"bounded_cells":1}},"dynamics":{"seconds":10,"watermark_violations":0,"watermarks":{"A":[44]},"apps":[{"app":"A","bound":56,"watermark":44}]}}"#;

    #[test]
    fn stack_gate_passes_identical_bodies() {
        let out = check("stack", STACK, STACK).unwrap();
        assert_eq!(out[2], "dynamics.watermarks identical");
    }

    #[test]
    fn stack_gate_fails_on_analysis_drift() {
        let fresh = STACK.replace(r#""bound":56,"s001":0"#, r#""bound":64,"s001":0"#);
        let err = check("stack", STACK, &fresh).unwrap_err();
        assert!(err.contains("analysis drifted"), "{err}");
    }

    #[test]
    fn stack_gate_fails_on_watermark_violations() {
        let fresh = STACK.replace(r#""watermark_violations":0"#, r#""watermark_violations":2"#);
        let err = check("stack", STACK, &fresh).unwrap_err();
        assert!(err.contains("dynamics.watermark_violations is 2"), "{err}");
    }

    #[test]
    fn stack_gate_compares_watermarks_only_on_matching_horizons() {
        // Same horizon, different watermarks: the engines disagreed.
        let diverged = STACK.replace(r#""watermarks":{"A":[44]}"#, r#""watermarks":{"A":[45]}"#);
        let err = check("stack", STACK, &diverged).unwrap_err();
        assert!(err.contains("dynamics.watermarks drifted"), "{err}");
        // Different horizon: watermarks legitimately differ — only the
        // pinned analysis and the soundness field are checked.
        let short = diverged.replace(r#""seconds":10"#, r#""seconds":2"#);
        let out = check("stack", STACK, &short).unwrap();
        assert_eq!(
            out[2],
            "dynamics.watermarks not compared: dynamics.seconds is 10 vs 2"
        );
    }

    #[test]
    fn stack_horizon_must_be_published() {
        // Without `seconds` the horizons cannot be compared; silently
        // treating that as "different horizon" would skip the watermark
        // identity check the bt rerun depends on.
        let fresh = STACK
            .replace(r#""seconds":10,"#, "")
            .replace(r#""watermarks":{"A":[44]}"#, r#""watermarks":{"A":[45]}"#);
        let err = check("stack", STACK, &fresh).unwrap_err();
        assert!(
            err.contains("fresh file has no `dynamics.seconds`"),
            "{err}"
        );
    }

    #[test]
    fn stack_gate_requires_both_objects() {
        assert!(check("stack", "{}", STACK).is_err());
        assert!(check("stack", STACK, "{}").is_err());
        let gutted = STACK.replace(r#""watermark_violations":0,"#, "");
        assert!(check("stack", STACK, &gutted).is_err());
    }

    #[test]
    fn sim_speed_gate_floors_at_the_published_minimum() {
        let body = r#"{"kernel_speedup":11.7959,"speedup_min":10.0000,"engines_identical":true}"#;
        assert_eq!(
            check_one("sim-speed", body).unwrap(),
            [
                "engines_identical is true",
                "kernel_speedup 11.80x >= 10.00x (speedup_min as published)",
            ]
        );
        let slow = body.replace("11.7959", "9.5000");
        let err = check_one("sim-speed", &slow).unwrap_err();
        assert!(err.contains("9.50x >= 10.00x"), "{err}");
        let diverged = body.replace("true", "false");
        let err = check_one("sim-speed", &diverged).unwrap_err();
        assert!(err.contains("engines_identical is false"), "{err}");
        assert!(check_one("sim-speed", r#"{"engines_identical":true}"#).is_err());
    }

    const FLEET: &str = r#"{"figure":"fleet","pinned":{"fleet_seconds":4,"quality":{"loss_ppm":30000},"rows":[{"motes":10,"seed":1,"heard":5},{"motes":10,"seed":2,"heard":6},{"motes":100,"seed":1,"heard":50}],"campaign":{"motes":9,"victim":4,"sites":6,"detected":3,"benign":1},"equivalence_ok":true},"dynamics":{"threads":4}}"#;

    fn fleet_subset() -> String {
        FLEET
            .replace(r#"{"motes":10,"seed":2,"heard":6},"#, "")
            .replace(r#",{"motes":100,"seed":1,"heard":50}"#, "")
    }

    #[test]
    fn extract_arr_and_split_objs_round_trip() {
        let fleet = json::parse(FLEET).unwrap();
        let rows = lookup(&fleet, "fresh", "pinned.rows")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].to_string(), r#"{"motes":10,"seed":1,"heard":5}"#);
        assert!(lookup(&fleet, "fresh", "pinned.missing").is_err());
        assert_eq!(json::parse("[]").unwrap().as_arr(), Some(&[][..]));
    }

    #[test]
    fn fleet_gate_passes_identical_and_subset_runs() {
        let rows = |fresh: &str| check("fleet", FLEET, fresh).unwrap().pop().unwrap();
        assert_eq!(
            rows(FLEET),
            "pinned.rows: 3 row(s) identical by (motes, seed)"
        );
        // CI runs a smaller sweep: only the surviving row is compared.
        assert_eq!(
            rows(&fleet_subset()),
            "pinned.rows: 1 row(s) identical by (motes, seed)"
        );
        let empty = FLEET.replace(
            r#"[{"motes":10,"seed":1,"heard":5},{"motes":10,"seed":2,"heard":6},{"motes":100,"seed":1,"heard":50}]"#,
            "[]",
        );
        assert!(check("fleet", FLEET, &empty)
            .unwrap_err()
            .contains("no rows"));
    }

    #[test]
    fn fleet_gate_fails_on_row_drift_and_unknown_rows() {
        let drift = FLEET.replace(r#""seed":1,"heard":5"#, r#""seed":1,"heard":4"#);
        let err = check("fleet", FLEET, &drift).unwrap_err();
        assert!(err.contains("pinned.rows row (10, 1) drifted"), "{err}");
        let unknown = FLEET.replace(r#""motes":100,"seed":1"#, r#""motes":200,"seed":1"#);
        let err = check("fleet", FLEET, &unknown).unwrap_err();
        assert!(
            err.contains("row (200, 1) has no committed counterpart"),
            "{err}"
        );
    }

    #[test]
    fn fleet_gate_fails_on_campaign_drift() {
        let drift = FLEET.replace(r#""detected":3"#, r#""detected":2"#);
        let err = check("fleet", FLEET, &drift).unwrap_err();
        assert!(err.contains("pinned.campaign drifted"), "{err}");
    }

    #[test]
    fn fleet_gate_fails_on_broken_equivalence_or_horizon() {
        let diverged = FLEET.replace(r#""equivalence_ok":true"#, r#""equivalence_ok":false"#);
        let err = check("fleet", FLEET, &diverged).unwrap_err();
        assert!(err.contains("pinned.equivalence_ok is false"), "{err}");
        let horizon = FLEET.replace(r#""fleet_seconds":4"#, r#""fleet_seconds":2"#);
        let err = check("fleet", FLEET, &horizon).unwrap_err();
        assert!(err.contains("pinned.fleet_seconds drifted"), "{err}");
        assert!(check("fleet", "{}", FLEET).is_err());
        assert!(check("fleet", FLEET, "{}").is_err());
    }

    #[test]
    fn committed_files_pass_every_row_against_themselves() {
        assert!(gate("nope").is_none());
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let outcomes = run_all(root, root, None);
        assert_eq!(outcomes.len(), GATES.len());
        for outcome in outcomes {
            let lines = outcome.unwrap_or_else(|e| panic!("{e}"));
            assert!(!lines.is_empty());
        }
    }

    #[test]
    fn rows_reject_wrong_file_counts_and_malformed_files() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let speed = root.join("BENCH_toolchain_speed.json");
        let regression = gate("regression").unwrap();
        assert!(regression.run_files(&[&speed], None).is_err());
        assert!(gate("difftest").unwrap().run_files(&[], None).is_err());
        let err = regression
            .run_files(&[&speed, &root.join("Cargo.toml")], None)
            .unwrap_err();
        assert!(err.contains("Cargo.toml"), "{err}");
    }
}
