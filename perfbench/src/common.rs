//! What every workload shares: the run context, the outcome a workload
//! process reports, output checks, and small numeric helpers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use perfbench::json::{self, Value};

/// How long a workload process keeps working.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start new iterations until this much time has passed (at least
    /// one iteration always runs).
    Time(Duration),
    /// Run exactly this many iterations (the traced run repeats the
    /// untraced run's inputs).
    Iterations(u64),
}

impl Budget {
    pub fn more(&self, started: Instant, done: u64) -> bool {
        match *self {
            Budget::Time(d) => done == 0 || started.elapsed() < d,
            Budget::Iterations(n) => done < n,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
}

/// The repository root: committed references are read from here.
fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Reads and parses a committed `BENCH_*.json` file.
pub fn committed(name: &str) -> Result<Value, String> {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading committed reference {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parsing {name}: {e}"))
}

/// One output check: how many values it compared, how many differed,
/// and the first few differences.
#[derive(Debug, Clone, Default)]
pub struct Check {
    pub compared: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

/// Output checks by name. A check that compared nothing fails: every
/// check a workload names must actually run.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub by_name: BTreeMap<String, Check>,
}

impl Checks {
    /// Declares a check, so it is reported even if it compares nothing.
    pub fn declare(&mut self, name: &str) {
        self.by_name.entry(name.to_string()).or_default();
    }

    /// Records one compared value; `ok == false` records a mismatch.
    pub fn compare(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let c = self.by_name.entry(name.to_string()).or_default();
        c.compared += 1;
        if !ok {
            c.failed += 1;
            if c.mismatches.len() < 8 {
                c.mismatches.push(detail());
            }
        }
        ok
    }

    /// Records `expected == actual` under `name`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &str,
        what: &str,
        expected: T,
        actual: T,
    ) -> bool {
        let ok = expected == actual;
        self.compare(name, ok, || {
            format!("{what}: expected {expected:?}, got {actual:?}")
        })
    }

    /// Values that differed from their reference, failed builds and
    /// failed diffs included.
    pub fn failed(&self) -> u64 {
        self.by_name.values().map(|c| c.failed).sum()
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.by_name
                .iter()
                .map(|(name, c)| {
                    (
                        name.clone(),
                        json::obj(vec![
                            ("compared", json::int(c.compared)),
                            (
                                "mismatches",
                                Value::Arr(
                                    c.mismatches.iter().map(|m| Value::Str(m.clone())).collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one workload process measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of the timed region, first timed operation to last.
    pub wall_s: f64,
    pub iterations: u64,
    pub attempted: u64,
    pub checks: Checks,
    /// Measured end-to-end values (untraced run), by metric name.
    pub e2e: BTreeMap<String, f64>,
    /// Deterministic layer counts the workload read from the program.
    pub layers: BTreeMap<String, f64>,
    /// Digest of each output, for comparing the traced run with the
    /// untraced one.
    pub outputs: BTreeMap<String, String>,
    /// Per-pass cache counters: `[hits, misses, bytes]`.
    pub cache: BTreeMap<String, [u64; 3]>,
}

impl Outcome {
    pub fn add_layer(&mut self, name: &str, value: f64) {
        *self.layers.entry(name.to_string()).or_default() += value;
    }

    /// Records the engine the workload pinned against the one `machine`
    /// reports.
    pub fn check_engine(&mut self, pinned: mcu::Engine, machine: &mcu::Machine) {
        self.checks.eq(
            "engine",
            "Machine::engine()",
            pinned.name(),
            machine.engine().name(),
        );
    }
}

/// SplitMix64: derives every input the workloads generate from the
/// workload seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed-ordered permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// FNV-1a over `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of everything an image holds.
pub fn image_digest(image: &mcu::Image) -> String {
    digest(&format!("{image:?}"))
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds the calling thread has used so far.
///
/// Single-client workloads time their operations with this clock: all
/// their work runs on the client thread, so on an idle host it agrees
/// with wall time, while on a shared host it leaves out the time the
/// thread waits for a CPU, inside the guest or stolen by the hypervisor
/// (the kernel's paravirtual steal accounting keeps that out of a
/// task's run time).
pub fn thread_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `{value:.4}`: how the committed figure files render numbers.
pub fn fixed4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let t = thread_cpu_s();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_cpu_s() - t < 0.025);
        let t = thread_cpu_s();
        let mut spins = 0u64;
        while thread_cpu_s() - t < 0.01 {
            spins += 1;
        }
        assert!(spins > 0);
    }

    #[test]
    fn permutations_depend_only_on_the_seed() {
        let a = SplitMix::new(7).permutation(20);
        assert_eq!(a, SplitMix::new(7).permutation(20));
        assert_ne!(a, SplitMix::new(8).permutation(20));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
