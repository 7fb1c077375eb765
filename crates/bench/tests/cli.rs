//! Drives the `mf-obs` binary itself: what its one argument parser
//! refuses, what `check-all` and `timeline` print, and that `explain` and
//! `diff strategies` render the same strategy diff. Also drives the table
//! binaries, which take no arguments.

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
    let o = mf_obs(&["timeline", "--format", "csv", "--nprocs", "4"]);
    assert_eq!(o.status.code(), Some(2), "the series has one format");
    assert!(String::from_utf8_lossy(&o.stderr).contains("--format"), "error names --format");
}

/// A table binary exports nothing and takes no arguments: given any, it
/// used to run as if given none.
#[test]
fn table_binaries_refuse_any_argument() {
    for exe in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_table5"),
        env!("CARGO_BIN_EXE_table6"),
    ] {
        let o = Command::new(exe).args(["--obs-dir", "d"]).output().expect("table binary starts");
        assert_eq!(o.status.code(), Some(2), "{exe} --obs-dir d");
        assert!(o.stdout.is_empty(), "{exe} --obs-dir d ran something");
        assert!(String::from_utf8_lossy(&o.stderr).contains("--obs-dir"), "error names the flag");
    }
}

/// `timeline` prints JSON Lines: one well-formed object per sample, as
/// many as the sample count it reports on stderr.
#[test]
fn timeline_prints_one_json_object_per_sample() {
    let o = mf_obs(&["timeline", "--nprocs", "4"]);
    assert!(o.status.success(), "timeline failed: {}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    for line in out.lines() {
        mf_bench::obs::validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let (n, err) = (out.lines().count(), String::from_utf8_lossy(&o.stderr));
    assert!(n > 0 && err.contains(&format!(", {n} samples\n")), "{n} lines, stderr: {err}");
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
