//! `perf_ab <base-tree> <head-tree>`: the same-host A/B gate
//! ([`hi_bench::ab`]). Exits 0 when the head passes, 1 when it fails, and
//! 2 when the comparison is refused or cannot run.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base, head] = args.as_slice() else {
        eprintln!("usage: perf_ab <base-tree> <head-tree>");
        return ExitCode::from(2);
    };
    match hi_bench::ab::gate(Path::new(base), Path::new(head), &mut std::io::stdout()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_ab: {e}");
            ExitCode::from(2)
        }
    }
}
