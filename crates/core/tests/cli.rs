//! `cnetverifier` rejects a malformed command line with exit code 2
//! instead of running with a default in place of what the user typed.

use std::process::{Command, Output};

fn cnetverifier(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cnetverifier"))
        .args(args)
        .output()
        .expect("cnetverifier runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = cnetverifier(args);
    assert_eq!(out.status.code(), Some(2), "cnetverifier {args:?}");
    assert!(out.stdout.is_empty(), "cnetverifier {args:?} ran a command");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: cnetverifier"),
        "cnetverifier {args:?}: {stderr}"
    );
}

#[test]
fn misspelt_flag_is_rejected() {
    assert_usage_error(&["screen", "--remedid"]);
    assert_usage_error(&["report", "--json"]);
}

#[test]
fn unparsable_or_missing_values_are_rejected() {
    assert_usage_error(&["validate", "--seed", "x"]);
    assert_usage_error(&["diagnose", "--seed"]);
    assert_usage_error(&["sample", "--walks", "-3"]);
}

#[test]
fn missing_or_unknown_command_is_rejected() {
    assert_usage_error(&[]);
    assert_usage_error(&["scren"]);
}

#[test]
fn well_formed_command_runs() {
    let out = cnetverifier(&["screen", "--remedied", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");
}
