//! Regenerates the paper's Figures 1-11 as simulator scenarios.
//!
//! Usage: `figures [N]` prints figure N (1-11), or all figures without an
//! argument. Every scenario asserts the states and bus actions the paper's
//! figure depicts; a violated expectation panics. Any other argument prints
//! this usage to stderr and exits 2.

use mcs_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match args.as_slice() {
        [] => None,
        [n] => match n.parse::<u32>() {
            Ok(n @ 1..=11) => Some(n),
            _ => usage(),
        },
        _ => usage(),
    };
    for fig in figures::all() {
        if only.is_some_and(|n| n != fig.number) {
            continue;
        }
        println!("==== Figure {}. {} ====", fig.number, fig.caption);
        println!("{}", fig.body);
        println!();
    }
}

fn usage() -> ! {
    eprintln!("usage: figures [N]   (N in 1..=11; all figures without an argument)");
    std::process::exit(2);
}
