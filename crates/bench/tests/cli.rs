//! The artifact binaries reject bad input: an unknown experiment id or a
//! figure number outside 1–11 prints usage to stderr and exits 2, with
//! nothing on stdout.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn exp_rejects_unknown_ids_before_running_anything() {
    let exp = env!("CARGO_BIN_EXE_exp");
    assert_usage_error(&run(exp, &["e99"]));
    assert_usage_error(&run(exp, &["e4", "nonsense"]));
}

#[test]
fn exp_runs_a_known_id() {
    let out = run(env!("CARGO_BIN_EXE_exp"), &["e4"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("E4"));
}

#[test]
fn figures_rejects_numbers_outside_one_to_eleven_and_junk() {
    let figures = env!("CARGO_BIN_EXE_figures");
    for bad in [&["0"][..], &["12"], &["99"], &["abc"], &["1", "2"]] {
        assert_usage_error(&run(figures, bad));
    }
}

#[test]
fn figures_prints_only_the_requested_figure() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &["11"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("==== Figure 11."));
    assert_eq!(text.matches("==== Figure").count(), 1);
}
