//! The repository's benchmark: five workloads over the whole solver,
//! end-to-end metrics with fixed regression bounds, and a per-layer
//! ledger measured from outside the program. See `README.md` beside
//! `Cargo.toml`.
//!
//! ```text
//! mf-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//! mf-benchmark compare A.json B.json
//! mf-benchmark check [RESULTS.json]
//! mf-benchmark manifest
//! ```

mod compare;
mod harness;
mod json;
mod registry;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{Ctx, Outcome};
use json::Value;
use registry::{Table, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage:
  mf-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  mf-benchmark compare A.json B.json
  mf-benchmark check [RESULTS.json]
  mf-benchmark manifest
run from the root of the repository";

struct RunArgs {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                let known = WORKLOADS.iter().find(|(n, _)| n == w);
                r.workload = Some(known.ok_or(format!("unknown workload {w}"))?.0);
            }
            "--seed" => r.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // Bare, or followed by 0 or 1.
                r.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => r.smoke = true,
            "--out" => r.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(r)
}

/// The benchmark's directory under the current one, which must be the
/// root of a checkout.
fn bench_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("benchmark");
    if dir.join("Cargo.toml").is_file() && Path::new("Cargo.toml").is_file() {
        Ok(dir)
    } else {
        Err("run from the root of the repository (no ./Cargo.toml and ./benchmark/Cargo.toml)"
            .into())
    }
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest_text: &str) -> Vec<String> {
    let mut inside = false;
    let mut lines = Vec::new();
    for line in manifest_text.lines().map(|l| l.split('#').next().unwrap_or("").trim()) {
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside && !line.is_empty() {
            lines.push(line.split_whitespace().collect::<String>());
        }
    }
    lines.sort();
    lines
}

/// The benchmark's release profile is what compiles the solver crates
/// here; it must be the root's, or the numbers are of another build.
fn check_build_parity(bench: &Path) -> Result<(), String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let root = release_profile(&read(Path::new("Cargo.toml"))?);
    let own = release_profile(&read(&bench.join("Cargo.toml"))?);
    if root == own {
        Ok(())
    } else {
        Err(format!("[profile.release] differs: root {root:?}, benchmark {own:?}"))
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    let out = Command::new(cmd).args(args).output().ok().filter(|o| o.status.success());
    let text = out.map(|o| String::from_utf8_lossy(&o.stdout).into_owned()).unwrap_or_default();
    text.lines().next().unwrap_or("unknown").to_string()
}

fn host_info() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Asked only of a repository rooted here: git would otherwise search
    // the directories above the checkout.
    let commit = if Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".to_string()
    };
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("simd", Value::Str(multifrontal::frontal::gemm::active_simd().name().into())),
        ("rustc", Value::Str(first_line_of("rustc", &["--version"]))),
        ("commit", Value::Str(commit)),
    ])
}

fn print_table(title: &str, t: &Table) {
    println!("  {title}");
    for (d, m) in t.rows() {
        let stats = m.summary.map_or(String::new(), |s| {
            let tail = s.tail.map_or(String::new(), |(p, v)| format!(" p{p:.0}={v:.6}"));
            format!("  n={} q1={:.6} q3={:.6}{tail}", s.n(), s.q1, s.q3)
        });
        println!("    {:<34} {:>18.6} {:<8}{stats}", d.name, m.value, d.unit);
    }
}

/// One workload in this process. Prints every metric by name, writes
/// the result file, and ends with the one-line result the driver reads.
fn run_one(name: &'static str, a: &RunArgs, bench: &Path) -> Result<bool, String> {
    use workloads::{
        sim_scale::SimScale, solve::Solve, sweep_observed::SweepObserved, table_sweep::TableSweep,
    };
    let ctx = Ctx { workload: name, seed: a.seed, smoke: a.smoke };
    // Every timed unit runs on this thread alone.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| e.to_string())?;
    let r: Outcome = pool.install(|| match name {
        "solve_fat" | "solve_thin" => harness::run::<Solve>(&ctx, a.seconds, a.trace),
        "table_sweep" => harness::run::<TableSweep>(&ctx, a.seconds, a.trace),
        "sim_scale" => harness::run::<SimScale>(&ctx, a.seconds, a.trace),
        "sweep_observed" => harness::run::<SweepObserved>(&ctx, a.seconds, a.trace),
        other => unreachable!("{other} is not in WORKLOADS"),
    });

    println!("workload {name}  seed {}  {:.1} s", a.seed, r.wall_s);
    print_table("end to end", &r.e2e);
    if a.trace {
        print_table("per layer (traced pass)", &r.layers);
    }
    r.gates.print();
    let (attempted, failed) = (r.gates.attempted(), r.gates.failed());
    println!("    fail_share {failed} / {attempted}");

    let out_dir = bench.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let write = |path: &Path, text: String| {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    if a.trace {
        write(&out_dir.join(format!("trace-{name}.json")), r.tracer.to_chrome_json().to_line())?;
    }
    let mut w = vec![
        ("wall_s", Value::Num(r.wall_s)),
        (
            "checks",
            Value::obj(vec![
                ("attempted", Value::Num(attempted as f64)),
                ("failed", Value::Num(failed as f64)),
            ]),
        ),
        ("end_to_end", r.e2e.to_json(true)),
    ];
    if a.trace {
        w.push(("per_layer", r.layers.to_json(true)));
    }
    let doc = Value::obj(vec![
        ("schema", Value::Str("mf-benchmark/1".into())),
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(a.seconds)),
        ("smoke", Value::Bool(a.smoke)),
        ("host", host_info()),
        ("workloads", Value::obj(vec![(name, Value::obj(w))])),
    ]);
    let default_out = out_dir.join(format!("{name}.trace{}.json", u8::from(a.trace)));
    write(a.out.as_deref().unwrap_or(&default_out), doc.to_pretty())?;

    let metrics = if a.trace { r.layers.to_json(false) } else { r.e2e.to_json(false) };
    let line = Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
    Ok(failed == 0)
}

/// Every workload, each in a fresh child process, one after the other;
/// with `--trace`, each a second time traced. Merges the children's
/// result files into one.
fn run_all(a: &RunArgs, bench: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = bench.join("out");
    let mut merged: Vec<(String, Value)> = Vec::new();
    let mut head: Option<Value> = None;
    let mut all_ok = true;
    let start = std::time::Instant::now();
    for (name, _) in WORKLOADS {
        let mut entry: Vec<(String, Value)> = Vec::new();
        for traced in [false, true] {
            if traced && !a.trace {
                continue;
            }
            let file = out_dir.join(format!("{name}.trace{}.json", u8::from(traced)));
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name, "--seed", &a.seed.to_string()]);
            cmd.args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ]);
            if a.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let w =
                doc.get("workloads").and_then(|w| w.get(name)).ok_or("child wrote no result")?;
            for (k, v) in w.entries() {
                // The untraced child owns the end-to-end table; the
                // traced one adds the per-layer table and its own times.
                match (traced, k.as_str()) {
                    (false, _) | (true, "per_layer") => entry.push((k.clone(), v.clone())),
                    (true, "wall_s") => entry.push(("traced_wall_s".into(), v.clone())),
                    (true, "checks") => entry.push(("traced_checks".into(), v.clone())),
                    (true, _) => {}
                }
            }
            head.get_or_insert(doc);
        }
        merged.push((name.to_string(), Value::Obj(entry)));
    }
    let head = head.expect("there are workloads");
    let mut doc: Vec<(String, Value)> =
        head.entries().iter().filter(|(k, _)| k != "workloads").cloned().collect();
    doc.push(("wall_s".into(), Value::Num(start.elapsed().as_secs_f64())));
    doc.push(("workloads".into(), Value::Obj(merged)));
    let path = a.out.clone().unwrap_or(out_dir.join("run.json"));
    std::fs::write(&path, Value::Obj(doc).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "all workloads: {:.1} s, results in {}",
        start.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let a = parse_run_args(&args[1..])?;
            let bench = bench_dir()?;
            check_build_parity(&bench)?;
            match a.workload {
                Some(name) => run_one(name, &a, &bench),
                None => run_all(&a, &bench),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        Some("check") => {
            bench_dir()?;
            compare::check(args.get(1).map(Path::new))
        }
        Some("manifest") => {
            print!("{}", registry::manifest().to_pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn trace_takes_an_optional_0_or_1() {
        let a = parse_run_args(&args(&["--workload", "sim_scale", "--seed", "7", "--trace", "0"]));
        let a = a.unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (Some("sim_scale"), 7, false));
        assert!(parse_run_args(&args(&["--trace", "1", "--smoke"])).unwrap().trace);
        assert!(parse_run_args(&args(&["--trace", "--smoke"])).unwrap().smoke);
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--seconds", "0"])).is_err());
    }

    #[test]
    fn release_profiles_compare_by_content() {
        let a = "[package]\nname = \"x\"\n[profile.release]\ndebug = 1 # why\nlto=true\n";
        let b = "[profile.release]\nlto = true\n\ndebug=1\n[profile.bench]\nlto = false\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a), vec!["debug=1", "lto=true"]);
    }
}
