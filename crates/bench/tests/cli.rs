//! `repro` rejects a malformed command line or environment with exit code
//! 2 before anything runs, instead of running with a default in place of
//! what the user typed.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    repro_with_env(args, &[])
}

fn repro_with_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("repro runs")
}

/// Exit 2, nothing on stdout, the usage line on stderr; returns stderr.
fn assert_rejected(out: &Output, what: &str) -> String {
    assert_eq!(out.status.code(), Some(2), "{what}");
    assert!(out.stdout.is_empty(), "{what} ran an experiment");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("usage: repro"), "{what}: {stderr}");
    stderr
}

fn assert_usage_error(args: &[&str]) {
    assert_rejected(&repro(args), &format!("repro {args:?}"));
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

#[test]
fn unparsable_rss_budget_is_rejected_before_the_sweep() {
    let out = repro_with_env(
        &["--exp", "statespace"],
        &[("STATESPACE_RSS_BUDGET_MB", "2G")],
    );
    let stderr = assert_rejected(&out, "STATESPACE_RSS_BUDGET_MB=2G");
    assert!(
        stderr.contains("STATESPACE_RSS_BUDGET_MB") && stderr.contains("`2G`"),
        "the diagnostic names the variable and its value: {stderr}"
    );
}

#[test]
fn unrecognised_statespace_full_is_rejected_before_the_sweep() {
    let out = repro_with_env(&["--exp", "statespace"], &[("STATESPACE_FULL", "yes")]);
    let stderr = assert_rejected(&out, "STATESPACE_FULL=yes");
    assert!(
        stderr.contains("STATESPACE_FULL") && stderr.contains("`yes`"),
        "the diagnostic names the variable and its value: {stderr}"
    );
}
