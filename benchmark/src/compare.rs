//! `compare`: two result files, one verdict per workload and end-to-end
//! metric. `check`: `BENCHMARK.json` against what the benchmark emits.

use std::collections::BTreeSet;
use std::path::Path;

use crate::json::{self, Value};
use crate::registry::{self, Def, END_TO_END, PER_LAYER, WORKLOADS};

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

struct Reading {
    value: f64,
    /// Quartile spread as a share of the median; 0 for a single reading.
    spread: f64,
    exact: bool,
}

fn reading(doc: &Value, workload: &str, metric: &str) -> Option<Reading> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (m.get("q1").and_then(Value::as_f64), m.get("q3").and_then(Value::as_f64)) {
        (Some(q1), Some(q3)) => (q3 - q1) / value,
        _ => 0.0,
    };
    Some(Reading { value, spread, exact: m.get("exact") == Some(&Value::Bool(true)) })
}

/// How much worse `b` is than `a` as a share of `a`, and what that means
/// under the metric's bound.
fn verdict(a: &Reading, b: &Reading, d: &Def) -> (f64, &'static str) {
    let delta = (b.value - a.value) / a.value;
    let worse = if d.better == "lower" { delta } else { -delta };
    let verdict = if a.spread.max(b.spread) > d.bound {
        "unresolved"
    } else if worse > d.bound {
        "regressed"
    } else if a.exact && b.exact && a.value != b.value {
        "changed"
    } else {
        "ok"
    };
    (worse, verdict)
}

/// Prints one row per (workload, end-to-end metric): both medians, the
/// ratio B/A, how much worse B is, the bound, and a verdict.
///
/// * `unresolved`: a timing whose quartile spread, in either file, is
///   wider than the bound. The files cannot settle it either way.
/// * `regressed`: B is worse than A by more than the bound.
/// * `changed`: an exact metric that differs within the bound. Two runs
///   of one commit must never show it.
///
/// Returns false when any row regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "{:<15} {:<17} {:>15} {:>15} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "worse", "bound"
    );
    let (mut regressed, mut unresolved, mut rows) = (0, 0, 0);
    for (w, _) in WORKLOADS {
        for d in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(&a, w, d.name), reading(&b, w, d.name)) else {
                continue;
            };
            rows += 1;
            let (va, vb) = (ra.value, rb.value);
            let (worse, verdict) = verdict(&ra, &rb, d);
            regressed += usize::from(verdict == "regressed");
            unresolved += usize::from(verdict == "unresolved");
            println!(
                "{w:<15} {:<17} {va:>15.6} {vb:>15.6} {:>8.4} {:>+7.2}% {:>5.1}%  {verdict}",
                d.name,
                vb / va,
                100.0 * worse,
                100.0 * d.bound,
            );
        }
    }
    if rows == 0 {
        return Err("the files share no workload with end-to-end metrics".into());
    }
    println!("{rows} rows: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

fn names(v: Option<&Value>) -> BTreeSet<String> {
    let items = v.and_then(Value::as_arr).unwrap_or(&[]);
    items.iter().filter_map(|m| m.get("name")?.as_str().map(str::to_string)).collect()
}

fn report_diff(what: &str, file: &BTreeSet<String>, emitted: &BTreeSet<String>) -> bool {
    for n in file.difference(emitted) {
        println!("{what}: {n} is listed but not emitted");
    }
    for n in emitted.difference(file) {
        println!("{what}: {n} is emitted but not listed");
    }
    file == emitted
}

/// `BENCHMARK.json` must be exactly what the benchmark's own lists say:
/// same workloads, same metrics with the same units, directions and
/// bounds, same command. With a result file, its tables must carry
/// exactly the listed names too.
pub fn check(results: Option<&Path>) -> Result<bool, String> {
    let file = load(Path::new("BENCHMARK.json"))?;
    let own = registry::manifest();
    let mut ok = true;
    for key in ["workloads", "end_to_end", "per_layer"] {
        ok &= report_diff(key, &names(file.get(key)), &names(own.get(key)));
    }
    if ok && file != own {
        for (key, v) in own.entries() {
            if file.get(key) != Some(v) {
                println!("{key}: differs from what `mf-benchmark manifest` prints");
            }
        }
        for (key, _) in file.entries().iter().filter(|(k, _)| own.get(k).is_none()) {
            println!("{key}: not a key of the manifest");
        }
        ok = false;
    }
    if let Some(path) = results {
        let doc = load(path)?;
        let ran = doc.get("workloads").map(Value::entries).unwrap_or(&[]);
        let listed: BTreeSet<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        for (w, tables) in ran {
            if !listed.contains(w) {
                println!("{}: workload {w} is not listed", path.display());
                ok = false;
            }
            for (table, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
                let Some(t) = tables.get(table) else { continue };
                let emitted = t.entries().iter().map(|(k, _)| k.clone()).collect();
                let listed = defs.iter().map(|d| d.name.to_string()).collect();
                ok &= report_diff(&format!("{w}.{table}"), &listed, &emitted);
            }
        }
    }
    println!("check: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64, exact: bool) -> Reading {
        Reading { value, spread, exact }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = Def { name: "t", unit: "s", better: "lower", bound: 0.10 };
        assert_eq!(verdict(&r(1.0, 0.02, false), &r(1.05, 0.02, false), &lower).1, "ok");
        assert_eq!(verdict(&r(1.0, 0.02, false), &r(1.2, 0.02, false), &lower).1, "regressed");
        assert_eq!(verdict(&r(1.0, 0.02, false), &r(0.5, 0.02, false), &lower).1, "ok");
        // A spread wider than the bound settles nothing, either way.
        assert_eq!(verdict(&r(1.0, 0.3, false), &r(1.2, 0.02, false), &lower).1, "unresolved");
        assert_eq!(verdict(&r(100.0, 0.0, true), &r(101.0, 0.0, true), &lower).1, "changed");
        assert_eq!(verdict(&r(100.0, 0.0, true), &r(100.0, 0.0, true), &lower).1, "ok");
        let higher = Def { better: "higher", ..lower };
        assert_eq!(verdict(&r(10.0, 0.0, false), &r(8.0, 0.0, false), &higher).1, "regressed");
        assert_eq!(verdict(&r(10.0, 0.0, false), &r(12.0, 0.0, false), &higher).0, -0.2);
    }
}
