//! The repository benchmark: simulator throughput on three simulation
//! workloads and paper-regeneration time, with a separate traced run that
//! times the calls into each layer from outside the program.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sharing_4p --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every
//! metric by name and unit, the run's metadata, and any failed check.
//! Nothing is written to disk unless `--out FILE` is given.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod alloc;
mod bench;
mod calib;
mod cli;
mod stats;
mod suite;
mod trace;

use bench::{Ctx, Metric, Outcome};
use cli::{Args, Command};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The simulator's feature set in this build (see `Cargo.toml`).
const FEATURES: &str = "mcs-sim default-features=false (debug-checks off)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            println!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    // Refuse to run outside a repository checkout rather than measure
    // something else.
    if !Path::new("crates/sim/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root (no crates/sim/Cargo.toml here)");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        clock_ns: trace::clock_read_ns(),
    };
    let meta = meta(&args, &ctx);
    let mut results = Vec::new();
    for &w in &args.workloads {
        let outcome = bench::measure(w, args.trace, &ctx);
        print_outcome(w.name(), &outcome);
        results.push((w.name(), outcome));
    }
    println!("meta {}", json_object(&meta));
    let prefix = results.len() > 1;
    let line = result_line(&results, prefix);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, full_report(&meta, &results, &line)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if results.iter().all(|(_, o)| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What every result records about how it was made.
fn meta(args: &Args, ctx: &Ctx) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: Vec<String> = args
        .workloads
        .iter()
        .map(|w| {
            let n = if *w == suite::WorkloadId::PaperRegen {
                bench::regen_threads()
            } else {
                1
            };
            format!("{}={n}", w.name())
        })
        .collect();
    vec![
        ("git_rev", git_rev()),
        ("source_digest", source_digest()),
        ("nproc", nproc.to_string()),
        ("threads", threads.join(",")),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("features", FEATURES.to_string()),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("clock_read_ns", ctx.clock_ns.to_string()),
        ("sample_period", trace::SAMPLE_PERIOD.to_string()),
    ]
}

/// `HEAD` of the checkout, when it is a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    match std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
    {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// FNV-1a over the path and contents of every source file the benchmark
/// builds from, so a result names its code even outside git.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "perfbench/Cargo.toml".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", stats::fnv1a(&bytes))
}

fn print_outcome(name: &str, o: &Outcome) {
    println!("== {name} ==");
    for m in &o.metrics {
        println!("  {:<32} {:>16} {}", m.name, fmt_value(m.value), m.unit);
    }
    for m in &o.info {
        println!(
            "  {:<32} {:>16} {}  (not gated)",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    for (k, v) in &o.notes {
        println!("  note {k}: {v}");
    }
    println!("  checks: {} of {} runs failed", o.failed, o.attempted);
    for (e, n) in &o.errors {
        println!("  FAILED ({n}x): {e}");
        eprintln!("perfbench: {name}: {e} ({n}x)");
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, m)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line, printed last. With several workloads, metric names are
/// prefixed by the workload name.
fn result_line(results: &[(&str, Outcome)], prefix: bool) -> String {
    let correct = results.iter().all(|(_, o)| o.correct());
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();
    let metrics = results.iter().flat_map(|(w, o)| {
        o.metrics.iter().map(move |m| {
            (
                if prefix {
                    format!("{w}.{}", m.name)
                } else {
                    m.name.clone()
                },
                m,
            )
        })
    });
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        json_metrics(metrics)
    )
}

/// The `--out` document: metadata, every metric (gated and not), notes,
/// errors and spans, then the result line.
fn full_report(meta: &[(&str, String)], results: &[(&str, Outcome)], line: &str) -> String {
    let mut out = format!("{{\"meta\":{},\"workloads\":{{", json_object(meta));
    for (i, (w, o)) in results.iter().enumerate() {
        let notes: Vec<(&str, String)> = o.notes.iter().map(|(k, v)| (*k, v.clone())).collect();
        let errors: Vec<String> = o
            .errors
            .iter()
            .map(|(e, n)| format!("[{},{n}]", json_str(e)))
            .collect();
        let spans: Vec<String> = o
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"rep\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    json_str(s.name),
                    s.rep,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        let _ = write!(
            out,
            "{}{}:{{\"metrics\":{},\"info\":{},\"notes\":{},\"errors\":[{}],\"spans\":[{}]}}",
            if i > 0 { "," } else { "" },
            json_str(w),
            json_metrics(o.metrics.iter().map(|m| (m.name.clone(), m))),
            json_metrics(o.info.iter().map(|m| (m.name.clone(), m))),
            json_object(&notes),
            errors.join(","),
            spans.join(",")
        );
    }
    let _ = writeln!(out, "}},\"result\":{line}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::{END_TO_END, PER_LAYER};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_use_only_the_allowed_characters() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| n.to_string());
        let workloads = suite::WorkloadId::ALL.iter().map(|w| w.name().to_string());
        for name in names.chain(workloads) {
            assert!(valid_name(&name), "bad name {name:?}");
        }
        for w in suite::WorkloadId::ALL {
            for (m, _) in END_TO_END.iter().chain(&PER_LAYER) {
                assert!(
                    valid_name(&format!("{}.{m}", w.name())),
                    "bad prefixed name for {m}"
                );
            }
        }
        assert!(!valid_name("wall s") && !valid_name("_x") && !valid_name("a/b"));
    }

    #[test]
    fn every_metric_and_workload_is_declared_in_benchmark_json_with_its_unit() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&decl),
                "BENCHMARK.json lacks {decl}"
            );
        }
        for w in suite::WorkloadId::ALL {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        let declared = BENCHMARK_JSON.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares other metrics"
        );
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.metrics.push(Metric {
            name: "wall_s".into(),
            value: 0.25,
            unit: "s",
        });
        let line = result_line(&[("sharing_4p", o)], false);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
