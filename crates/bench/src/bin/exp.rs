//! Runs the measured experiments E1-E13 (see DESIGN.md section 5 and
//! EXPERIMENTS.md).
//!
//! Usage: `exp [eN ...]` runs the named experiments (e1..e13), or all of them
//! without arguments. An unknown id prints this usage to stderr and exits 2
//! before any experiment runs.

use mcs_bench::experiments::{self, RUNNERS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|id| !RUNNERS.iter().any(|(name, _)| name == id)) {
        eprintln!("exp: unknown experiment `{bad}`\nusage: exp [e1..e13 ...]");
        std::process::exit(2);
    }
    let reports = if args.is_empty() {
        experiments::all()
    } else {
        args.iter().filter_map(|id| experiments::by_id(id)).collect()
    };
    for report in reports {
        println!("{}", report.render());
    }
}
