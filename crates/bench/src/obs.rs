//! Observability plumbing shared by the experiment binaries.
//!
//! `mf-obs` is the one tool that exports machine-readable run artifacts,
//! and only when given `--obs-dir <dir>`: per cell a **run summary** JSON
//! (the metrics registry is always on), per recorded strategy a
//! **Perfetto/Chrome trace** JSON loadable in `ui.perfetto.dev` or
//! `chrome://tracing`, and per sampled strategy the **time series** as
//! JSON Lines. The `paper` binary takes one report name and exports
//! nothing.
//!
//! The module also carries a small recursive-descent JSON validator used
//! by the exporters' tests: the repo renders all JSON by hand (no serde),
//! so well-formedness is asserted, not assumed.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::sweep::CellResult;
use mf_order::{OrderingKind, ALL_ORDERINGS};
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};

/// Usage error: prints `<tool>: <msg>` to stderr, `<tool>` being the
/// running binary's name, and exits with status 2.
pub fn die(msg: &str) -> ! {
    let exe = std::env::args().next().unwrap_or_default();
    let tool = std::path::Path::new(&exe).file_name().unwrap_or_default();
    eprintln!("{}: {msg}", tool.to_string_lossy());
    std::process::exit(2);
}

/// The paper matrix named `s` (case-insensitive).
pub fn parse_matrix(s: &str) -> Option<PaperMatrix> {
    ALL_PAPER_MATRICES.into_iter().find(|m| m.name().eq_ignore_ascii_case(s))
}

/// The ordering named `s` (case-insensitive).
pub fn parse_ordering(s: &str) -> Option<OrderingKind> {
    ALL_ORDERINGS.into_iter().find(|k| k.name().eq_ignore_ascii_case(s))
}

/// Parses the `IDX:PROC` membership-fault operand of `flag`.
pub fn parse_fault(s: &str, flag: &str) -> (u64, usize) {
    let parsed = s.split_once(':').and_then(|(i, p)| Some((i.parse().ok()?, p.parse().ok()?)));
    parsed.unwrap_or_else(|| die(&format!("{flag} needs IDX:PROC, got {s:?}")))
}

/// File-name-safe label for a cell: `twotone_amd_p32_split0`.
pub fn cell_label(c: &CellResult) -> String {
    format!(
        "{}_{}_p{}_split{}",
        c.matrix.name().to_lowercase(),
        c.ordering.name().to_lowercase(),
        c.baseline.peaks.len(),
        c.split.unwrap_or(0)
    )
}

/// Renders one run (peaks + counters + the always-on metrics registry)
/// as a JSON object, indented for embedding at depth 1.
fn run_json(out: &mut String, name: &str, r: &mf_core::parsim::RunResult, last: bool) {
    let sep = if last { "" } else { "," };
    writeln!(out, "  \"{name}\": {{").unwrap();
    writeln!(out, "    \"max_peak\": {}, \"avg_peak\": {:.1},", r.max_peak, r.avg_peak).unwrap();
    writeln!(out, "    \"makespan\": {}, \"messages\": {},", r.makespan, r.messages).unwrap();
    writeln!(
        out,
        "    \"dropped_messages\": {}, \"forced_activations\": {},",
        r.dropped_messages, r.forced_activations
    )
    .unwrap();
    let fmt_u64s = |vals: &[u64]| {
        let body: Vec<String> = vals.iter().map(u64::to_string).collect();
        format!("[{}]", body.join(", "))
    };
    writeln!(out, "    \"peaks\": {},", fmt_u64s(&r.peaks)).unwrap();
    writeln!(out, "    \"underflows\": {},", fmt_u64s(&r.underflows)).unwrap();
    let (events, evicted) =
        r.recording.as_ref().map_or((0, 0), |rec| (rec.len(), rec.dropped() as usize));
    writeln!(out, "    \"recorded_events\": {events}, \"evicted_events\": {evicted},").unwrap();
    writeln!(out, "    \"metrics\": {}", r.metrics.to_json(r.makespan)).unwrap();
    writeln!(out, "  }}{sep}").unwrap();
}

/// Machine-readable summary of a cell: both strategies' peaks, traffic,
/// degradation counters and metrics registries.
pub fn cell_summary_json(c: &CellResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(
        out,
        "  \"matrix\": \"{}\", \"ordering\": \"{}\", \"nprocs\": {},",
        c.matrix.name(),
        c.ordering.name(),
        c.baseline.peaks.len()
    )
    .unwrap();
    match c.split {
        Some(t) => writeln!(out, "  \"split\": {t},").unwrap(),
        None => writeln!(out, "  \"split\": null,").unwrap(),
    }
    writeln!(
        out,
        "  \"gain_percent\": {:.2}, \"time_loss_percent\": {:.2},",
        c.gain_percent(),
        c.time_loss_percent()
    )
    .unwrap();
    run_json(&mut out, "baseline", &c.baseline, false);
    run_json(&mut out, "memory", &c.memory, true);
    out.push_str("}\n");
    out
}

/// Writes a cell's artifacts into `dir`: the summary
/// (`<label>.summary.json`); per recorded strategy, a Perfetto trace
/// (`<label>.<strategy>.trace.json`, with sampled counter tracks overlaid
/// when the cell ran with the telemetry sampler); per sampled strategy,
/// the time series (`<label>.<strategy>.timeseries.jsonl`).
pub fn export_cell(dir: &Path, c: &CellResult) {
    std::fs::create_dir_all(dir).expect("create obs dir");
    let label = cell_label(c);
    let summary = cell_summary_json(c);
    debug_assert!(validate_json(&summary).is_ok());
    std::fs::write(dir.join(format!("{label}.summary.json")), summary).expect("write run summary");
    for (strategy, run) in [("baseline", &c.baseline), ("memory", &c.memory)] {
        let create = |kind: &str| {
            let path = dir.join(format!("{label}.{strategy}.{kind}"));
            std::io::BufWriter::new(std::fs::File::create(path).expect("create artifact"))
        };
        if let Some(rec) = &run.recording {
            let mut w = create("trace.json");
            mf_sim::write_chrome_trace(&mut w, run.peaks.len(), rec, run.timeseries.as_ref())
                .and_then(|()| w.flush())
                .expect("write Perfetto trace");
        }
        if let Some(ts) = &run.timeseries {
            let mut w = create("timeseries.jsonl");
            ts.write_jsonl(&mut w).and_then(|()| w.flush()).expect("write timeseries JSONL");
        }
    }
}

/// Validates that `s` is one well-formed JSON value (RFC 8259 subset:
/// objects, arrays, strings with escapes, numbers, `true`/`false`/
/// `null`). Returns the byte offset of the first violation.
///
/// This is a *validator*, not a parser — the repo's hand-rendered JSON
/// artifacts are checked for well-formedness in tests without
/// pulling in a serde dependency.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The one walker over the JSON grammar: checks the value at `pos`.
fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
            },
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}", pos = *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("malformed number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("malformed fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("malformed exponent at byte {start}"));
        }
    }
    Ok(())
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_wellformed() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            r#"{ "a": [1, 2, {"b": "x\ny \u00e9"}], "c": false }"#,
            "  [true , null]  ",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01a",
            "\"unterminated",
            "nul",
            "[1] trailing",
            "1.",
            "{\"\\q\": 1}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn summary_of_a_real_cell_is_valid_json() {
        let base =
            mf_core::config::SolverConfig { record_events: true, ..crate::paper_scale_config(4) };
        let c = crate::sweep_cell(PaperMatrix::TwoTone, OrderingKind::Amd, None, &base);
        let s = cell_summary_json(&c);
        validate_json(&s).expect("summary must be well-formed");
        assert!(s.contains("\"recorded_events\""));
        assert!(c.baseline.recording.is_some());
    }
}
