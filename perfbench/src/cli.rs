//! The strict command line: every flag is known, every value parses, and
//! nothing is written unless `--out` names a file.

use crate::suite::WorkloadId;
use std::path::PathBuf;

/// Seed used when `--seed` is not given; the recorded reference digests
/// are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<WorkloadId>,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement per workload.
    pub seconds: u64,
    /// Run the traced (per-layer) variant instead of the untraced one.
    pub trace: bool,
    /// Where to write the full report (metadata, every metric, spans).
    pub out: Option<PathBuf>,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the benchmark.
    Run(Args),
    /// Print usage and exit successfully.
    Help,
}

/// The usage text.
pub fn usage() -> String {
    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] [--out FILE]\n\
         workloads: {}\n\
         defaults:  --seed {DEFAULT_SEED} --seconds 10 --trace 0; nothing is written without --out",
        names.join(" ")
    )
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        let slot_taken = match flag.as_str() {
            "--workload" => workloads.replace(parse_workloads(value)?).is_some(),
            "--seed" => seed.replace(parse_u64(flag, value)?).is_some(),
            "--seconds" => {
                let s = parse_u64(flag, value)?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds must be 1..=3600, got {s}"));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
                .is_some(),
            _ => out.replace(PathBuf::from(value)).is_some(),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Command::Run(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        out,
    }))
}

fn parse_workloads(value: &str) -> Result<Vec<WorkloadId>, String> {
    if value == "all" {
        return Ok(WorkloadId::ALL.to_vec());
    }
    WorkloadId::from_name(value)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown workload `{value}`"))
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_a_full_command_line() {
        let cmd = run(&[
            "--workload",
            "sharing_4p",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        assert_eq!(
            cmd,
            Ok(Command::Run(Args {
                workloads: vec![WorkloadId::Sharing4p],
                seed: 7,
                seconds: 3,
                trace: true,
                out: None,
            }))
        );
        let Ok(Command::Run(all)) = run(&["--workload", "all"]) else {
            panic!("all must parse")
        };
        assert_eq!(all.workloads, WorkloadId::ALL.to_vec());
        assert_eq!(
            (all.seed, all.seconds, all.trace, all.out),
            (DEFAULT_SEED, 10, false, None)
        );
    }

    #[test]
    fn rejects_unknown_flags_and_workloads() {
        assert!(run(&["--workload", "sharing_4p", "--bogus"]).is_err());
        assert!(run(&["--workload", "sharing_5p"]).is_err());
        assert!(run(&["sharing_4p"]).is_err());
        assert!(run(&["--workload", "sharing_4p", "--help-me"]).is_err());
    }

    #[test]
    fn rejects_bad_values_missing_values_and_repeats() {
        assert!(run(&[]).is_err(), "a workload is required");
        assert!(run(&["--workload"]).is_err());
        assert!(run(&["--workload", "paper_regen", "--seed", "-1"]).is_err());
        assert!(run(&["--workload", "paper_regen", "--seconds", "0"]).is_err());
        assert!(run(&["--workload", "paper_regen", "--trace", "yes"]).is_err());
        assert!(run(&["--workload", "paper_regen", "--seed", "1", "--seed", "2"]).is_err());
    }

    #[test]
    fn help_is_a_request_not_a_run() {
        assert_eq!(run(&["--help"]), Ok(Command::Help));
        assert!(usage().contains("lock_obs_16p"));
    }
}
