//! Drives the `mf-obs` binary itself: what its one argument parser
//! refuses, what `check-all` prints, and that `explain` and
//! `diff strategies` render the same strategy diff.

use std::process::{Command, Output};

fn mf_obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mf-obs"))
        .args(args)
        .env_remove("MF_BACKEND")
        .output()
        .expect("mf-obs starts")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("mf-obs prints UTF-8")
}

/// A misspelt flag used to be ignored and a misspelt matrix silently ran
/// the default cell, so `audit --chek-all` passed having audited one
/// cell. Both are usage errors on every subcommand, before any run.
#[test]
fn misspelt_arguments_are_usage_errors() {
    for cmd in ["audit", "explain", "timeline"] {
        for bad in ["--chek-all", "TWOTNE"] {
            let o = mf_obs(&[cmd, bad, "--nprocs", "4"]);
            assert_eq!(o.status.code(), Some(2), "mf-obs {cmd} {bad}");
            assert!(o.stdout.is_empty(), "mf-obs {cmd} {bad} ran something");
            assert!(String::from_utf8_lossy(&o.stderr).contains(bad), "error names {bad}");
        }
    }
    assert_eq!(mf_obs(&["explain", "--obs-dir"]).status.code(), Some(2), "flag without value");
    assert_eq!(mf_obs(&["diff", "sweeps", "one.json"]).status.code(), Some(2), "one path of two");
    assert_eq!(mf_obs(&["diff", "strategies", "one.json"]).status.code(), Some(2), "stray path");
}

#[test]
fn check_all_attributes_and_audits_every_cell_and_strategy() {
    let o = mf_obs(&["check-all", "--nprocs", "4"]);
    assert!(o.status.success(), "check-all failed: {}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    let count = |needle: &str| out.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("4 procs verified, machine peak"), 16, "8 matrices x 2 strategies:\n{out}");
    assert_eq!(count("events, 0 findings"), 16, "8 matrices x 2 strategies:\n{out}");
}

#[test]
fn explain_and_diff_strategies_print_the_same_strategy_diff() {
    let block = |args: &[&str]| {
        let out = stdout(&mf_obs(args));
        let at = out.find("=== strategy vs strategy ===").expect("strategy-diff block");
        out[at..].to_string()
    };
    let cell = ["TWOTONE", "AMD", "--nprocs", "4"];
    let explained = block(&[&["explain"], &cell[..]].concat());
    assert!(explained.contains("first divergent event") && explained.contains("peak gain"));
    assert_eq!(explained, block(&[&["diff", "strategies"], &cell[..]].concat()));
}
