//! CI's gate entry point over published `BENCH_*.json` files; the rows
//! are the table in [`bench::gate::GATES`].
//!
//! ```text
//! gate <row> <committed> <fresh>         paired rows: regression, races, stack, fleet
//! gate <row> <file>...                   other rows: cache, difftest, sim-speed
//! gate all <committed_dir> <fresh_dir>   every row over both directories
//! ```
//!
//! Prints one line per passing check, naming its bound and the bound's
//! source; exits 1 when a check fails and 2 on a usage error.

use std::path::Path;

use bench::{gate, Knobs};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<&Path> = args.iter().skip(1).map(Path::new).collect();
    let factor = Knobs::from_env().regression_factor;
    let outcomes = match (args.first().map(String::as_str), &paths[..]) {
        (Some("all"), &[committed, fresh]) => gate::run_all(committed, fresh, factor),
        (Some(row), _) => gate::gate(row).map_or(Vec::new(), |g| vec![g.run_files(&paths, factor)]),
        (None, _) => Vec::new(),
    };
    if outcomes.is_empty() {
        let rows: Vec<&str> = gate::GATES.iter().map(|g| g.name).collect();
        eprintln!("usage: gate <row> <files…> | gate all <committed_dir> <fresh_dir>");
        eprintln!("rows: {}", rows.join(", "));
        std::process::exit(2);
    }
    let mut failed = false;
    for outcome in outcomes {
        match outcome {
            Ok(lines) => lines.iter().for_each(|l| println!("ok: {l}")),
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}
