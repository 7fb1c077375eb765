//! Drives the `mf-obs` binary itself: what its one argument parser
//! refuses, what `check-all`, `timeline` and the recovery replay print,
//! and that `explain` and `diff strategies` render the same strategy
//! diff. Also drives `paper`:
//! what its argument parser refuses, and that its cheap reports print
//! their committed `results/` files.

use std::process::{Command, Output};

fn mf_obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mf-obs")).args(args).output().expect("mf-obs starts")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("stdout is UTF-8")
}

/// A misspelt flag used to be ignored and a misspelt matrix silently ran
/// the default cell, so `audit --chek-all` passed having audited one
/// cell. Both are usage errors on every subcommand, before any run; so
/// is a real flag given to a subcommand that does not read it, which
/// used to be accepted and ignored (`diff backends ... --every 7`).
#[test]
fn misspelt_arguments_are_usage_errors() {
    let refused = |o: Output, what: &str, named: &str| {
        assert_eq!(o.status.code(), Some(2), "{what}");
        assert!(o.stdout.is_empty(), "{what} ran something");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains(named), "{what}: error names {named}: {err}");
    };
    for cmd in ["audit", "explain", "timeline"] {
        for bad in ["--chek-all", "TWOTNE"] {
            refused(mf_obs(&[cmd, bad, "--nprocs", "4"]), &format!("mf-obs {cmd} {bad}"), bad);
        }
    }
    let ignored: [(&[&str], &str); 9] = [
        (&["diff", "backends", "TWOTONE", "AMD", "--kill", "128:1", "--every", "7"], "--every"),
        (&["diff", "backends", "--strategy", "baseline"], "--strategy"),
        (&["diff", "strategies", "--kill", "128:1"], "--kill"),
        (&["diff", "faults", "--obs-dir", "d"], "--obs-dir"),
        (&["audit", "--every", "7"], "--every"),
        (&["check-all", "TWOTONE"], "TWOTONE"),
        (&["check-all", "--cores"], "--cores"),
        (&["timeline", "--join", "1:1"], "--join"),
        (&["explain", "--cores", "--obs-dir", "d"], "--obs-dir"),
    ];
    for (args, named) in ignored {
        let args = [args, &["--nprocs", "4"]].concat();
        refused(mf_obs(&args), &format!("mf-obs {args:?}"), named);
    }
    assert_eq!(mf_obs(&["explain", "--obs-dir"]).status.code(), Some(2), "flag without value");
    refused(mf_obs(&["diff", "sweeps", "a.json", "b.json"]), "no such diff", "sweeps");
    assert_eq!(mf_obs(&["diff", "strategies", "one.json"]).status.code(), Some(2), "stray path");
    let o = mf_obs(&["timeline", "--format", "csv", "--nprocs", "4"]);
    refused(o, "the series has one format", "--format");
    refused(mf_obs(&["timeline", "--every", "0", "--nprocs", "4"]), "zero interval", "--every");
    refused(mf_obs(&["timeline", "--nprocs", "0"]), "no processors", "--nprocs");
}

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("paper starts")
}

/// Every report `paper` knows, one per `results/*.txt`.
const REPORTS: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figures",
    "ablation",
    "scaling",
    "reordering_memory",
    "malleable",
    "robustness",
    "synth_scale",
];

/// `paper` takes exactly one report name. The study reports used to run
/// as if given no argument whatever they were given; now a missing or
/// unknown name, or anything after it, is a usage error before any run.
/// A refused run writes no file either: the probes run in a directory of
/// their own, which must stay empty.
#[test]
fn paper_takes_exactly_one_report_name() {
    let dir = std::env::temp_dir().join(format!("mf-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let cases = std::iter::once((vec![], "report name"))
        .chain(std::iter::once((vec!["table9"], "table9")))
        .chain(REPORTS.iter().map(|&r| (vec![r, "--obs-dir", "d"], "--obs-dir")));
    for (args, named) in cases {
        let o = Command::new(env!("CARGO_BIN_EXE_paper")).args(&args).current_dir(&dir).output();
        let o = o.expect("paper starts");
        assert_eq!(o.status.code(), Some(2), "paper {args:?}");
        assert!(o.stdout.is_empty(), "paper {args:?} ran something");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains(named), "paper {args:?}: error names {named}: {err}");
    }
    let written = std::fs::read_dir(&dir).expect("list the scratch directory").count();
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    assert_eq!(written, 0, "a refused run wrote a file");
}

/// The committed results are what `paper` prints: the six reports that
/// run in a few seconds in a debug build, byte for byte (CI compares
/// all thirteen in release).
#[test]
fn cheap_reports_match_their_committed_results() {
    for name in ["table1", "table4", "figures", "scaling", "ablation", "malleable"] {
        let o = paper(&[name]);
        assert!(o.status.success(), "paper {name}: {}", String::from_utf8_lossy(&o.stderr));
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).expect("results file exists");
        assert_eq!(stdout(&o), want, "paper {name} differs from {path}");
    }
}

/// `timeline` prints JSON Lines: one well-formed object per sample, as
/// many as the sample count it reports on stderr; and, under each
/// strategy, exactly the 380-line series pinned by its FNV-1a digest.
#[test]
fn timeline_prints_one_json_object_per_sample() {
    for (strategy, digest) in
        [("memory", 0x9821_47a9_50e3_3156u64), ("baseline", 0x4541_24aa_7228_25f6)]
    {
        let o = mf_obs(&["timeline", "--nprocs", "4", "--strategy", strategy]);
        assert!(o.status.success(), "timeline failed: {}", String::from_utf8_lossy(&o.stderr));
        let out = stdout(&o);
        for line in out.lines() {
            mf_bench::obs::validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let (n, err) = (out.lines().count(), String::from_utf8_lossy(&o.stderr));
        assert!(n > 0 && err.contains(&format!(", {n} samples\n")), "{n} lines, stderr: {err}");
        let fnv = out
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fnv, digest, "{strategy}: the sampled series moved");
    }
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

/// The recovery replay narrates the membership changes of a kill/kill/
/// join schedule from the flight recording: the join, both losses, the
/// three orphaned subtrees they hand over, and factors identical to the
/// fault-free run's.
#[test]
fn recovery_replay_narrates_the_reassignment_chain() {
    let o = mf_obs(&[
        "explain", "TWOTONE", "AMD", "--kill", "1000:3", "--kill", "2500:11", "--join", "3000:31",
    ]);
    assert!(o.status.success(), "explain failed: {}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    let count = |needle: &str| out.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("processor 31 joined"), 1, "{out}");
    assert_eq!(count("declared dead"), 2, "{out}");
    assert_eq!(count("reassigned p"), 3, "{out}");
    assert_eq!(count("recovered run identical to the fault-free run"), 1, "{out}");
}
