//! Run-inspection CLI for the observability layer.
//!
//! Runs one observed experiment configuration and prints any combination
//! of its outputs:
//!
//! ```text
//! obsreport [--experiment e2|e3] [--protocol ID] [--scheme ID]
//!           [--procs N] [--window CYCLES] [--out FILE]
//!           [--summary] [--json-trace] [--histograms] [--timeline]
//! obsreport validate FILE...
//! ```
//!
//! With no output flag, `--summary` is implied. `--json-trace` streams the
//! cycle-stamped JSONL event log (byte-stable for a fixed configuration);
//! `--histograms` and `--timeline` emit one JSON object each. A zero
//! `--window` and the `cache-lock` scheme on a protocol without a lock
//! state are rejected like any other bad argument: usage on stderr, exit 2.
//! `validate` re-parses a JSONL file with the in-tree validator and checks
//! that every line is well-formed JSON, the first line is a `meta` header,
//! and event cycles are monotonically non-decreasing — the same checks
//! `ci.sh` runs on a fresh trace.

use mcs_bench::obsrun::{run_observed, ObsPreset, ObsSpec};
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::Protocol as _;
use mcs_obs::validate_line;
use mcs_sync::LockSchemeKind;
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: obsreport [--experiment e2|e3] [--protocol ID] [--scheme ID] \
         [--procs N] [--window CYCLES] [--out FILE] \
         [--summary] [--json-trace] [--histograms] [--timeline]\n\
         \x20      obsreport validate FILE...\n\
         protocols: {}\n\
         schemes:   {}",
        ProtocolKind::ALL.map(|k| k.id()).join(" "),
        LockSchemeKind::ALL.map(|s| s.id()).join(" "),
    );
    std::process::exit(2)
}

fn value(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    })
}

/// Validates one JSONL trace file; returns the number of lines checked.
fn validate_file(path: &str) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut lines = 0u64;
    let mut last_cycle = 0u64;
    for (i, line) in text.lines().enumerate() {
        let parsed =
            validate_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if i == 0 && !parsed.is_meta {
            return Err(format!("{path}:1: first line must be a meta header"));
        }
        if let Some(cycle) = parsed.cycle {
            if cycle < last_cycle {
                return Err(format!(
                    "{path}:{}: cycle {cycle} went backwards (previous {last_cycle})",
                    i + 1
                ));
            }
            last_cycle = cycle;
        }
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: empty trace"));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("validate") {
        args.remove(0);
        if args.is_empty() {
            usage();
        }
        for path in &args {
            match validate_file(path) {
                Ok(lines) => println!("{path}: {lines} lines OK (monotonic cycles)"),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut spec = ObsSpec::new(ProtocolKind::BitarDespain);
    let mut scheme_set = false;
    let (mut summary, mut json_trace, mut histograms, mut timeline) =
        (false, false, false, false);
    let mut out_path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--experiment" => {
                let v = value(&mut it, "--experiment");
                spec.preset = ObsPreset::from_id(&v).unwrap_or_else(|| {
                    eprintln!("unknown experiment `{v}`");
                    usage()
                });
            }
            "--protocol" => {
                let v = value(&mut it, "--protocol");
                spec.kind = ProtocolKind::from_id(&v).unwrap_or_else(|| {
                    eprintln!("unknown protocol `{v}`");
                    usage()
                });
                if !scheme_set {
                    spec.scheme = ObsSpec::new(spec.kind).scheme;
                }
            }
            "--scheme" => {
                let v = value(&mut it, "--scheme");
                spec.scheme = LockSchemeKind::from_id(&v).unwrap_or_else(|| {
                    eprintln!("unknown scheme `{v}`");
                    usage()
                });
                scheme_set = true;
            }
            "--procs" => {
                spec.procs = value(&mut it, "--procs").parse().unwrap_or_else(|_| usage());
                if spec.procs == 0 {
                    usage();
                }
            }
            "--window" => {
                spec.window = value(&mut it, "--window").parse().unwrap_or_else(|_| usage());
                if spec.window == 0 {
                    eprintln!("--window must be at least 1 cycle");
                    usage();
                }
            }
            "--out" => out_path = Some(value(&mut it, "--out")),
            "--summary" => summary = true,
            "--json-trace" => json_trace = true,
            "--histograms" => histograms = true,
            "--timeline" => timeline = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    // Without a lock state nothing would enforce mutual exclusion: the run
    // would "complete" every section with no lock ever held.
    if spec.scheme == LockSchemeKind::CacheLock
        && !with_protocol!(spec.kind, p => p.features().distributed.lock)
    {
        eprintln!("protocol `{}` has no lock state for the `cache-lock` scheme", spec.kind.id());
        usage();
    }
    if !(summary || json_trace || histograms || timeline) {
        summary = true;
    }
    spec.json_trace = json_trace;

    let run = run_observed(&spec);

    let mut out = String::new();
    if summary {
        out.push_str(&run.summary());
    }
    if let Some(jsonl) = &run.jsonl {
        out.push_str(jsonl);
    }
    if histograms {
        out.push_str(&run.hists.to_json());
        out.push('\n');
    }
    if timeline {
        out.push_str(&run.timeline.to_json(run.stats.cycles));
        out.push('\n');
    }

    match out_path {
        Some(path) => {
            std::fs::write(&path, out).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => {
            // stdout may be a closed pipe (e.g. `obsreport | head`); that
            // is not an error worth a panic.
            let _ = std::io::stdout().write_all(out.as_bytes());
        }
    }
    ExitCode::SUCCESS
}
