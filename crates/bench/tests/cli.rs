//! `repro` rejects a malformed command line with exit code 2 instead of
//! running with a default in place of what the user typed.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    assert!(out.stdout.is_empty(), "repro {args:?} ran an experiment");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
}

#[test]
fn unparsable_seed_is_rejected() {
    assert_usage_error(&["--seed", "banana", "--exp", "f4"]);
}

#[test]
fn missing_values_are_rejected() {
    assert_usage_error(&["--exp", "f4", "--seed"]);
    assert_usage_error(&["--exp"]);
    assert_usage_error(&["--exp", "t1", "--trace"]);
}

#[test]
fn unknown_flags_and_bad_trace_modes_are_rejected() {
    assert_usage_error(&["--exp", "t1", "--sede", "7"]);
    assert_usage_error(&["--exp", "t1", "--trace", "everything"]);
}

#[test]
fn well_formed_command_runs() {
    let out = repro(&["--exp", "t1", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}
