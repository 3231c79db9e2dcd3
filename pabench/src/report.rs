//! Reports: the driver's one-line result, the full-suite tables and
//! `results.json`, and the `calibrate` / `compare` commands over them.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Def, Metrics};
use crate::stats::Summary;
use crate::workloads::Outcome;
use std::fmt::Write as _;
use std::path::Path;

/// The one JSON object the benchmark driver reads from the last line of
/// standard output: `correct`, `attempted`, `failed` and every metric
/// of `defs`. With `bypassed_is_zero` (the per-layer list), a metric
/// the workload did not report reads 0: it bypasses that layer.
pub fn driver_line(
    outcome: &Outcome,
    defs: &[Def],
    bypassed_is_zero: bool,
) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let value = match outcome.metrics.get(d.name) {
            Some(m) => m.value(),
            None if bypassed_is_zero => 0.0,
            None => return Err(format!("the workload did not report `{}`", d.name)),
        };
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json::quote(d.name),
            json::number(value),
            json::quote(d.unit)
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Where and when a run was made: the header of every report.
pub fn header(seed: u64, seconds: f64) -> Vec<(&'static str, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .unwrap_or_default()
            .trim()
            .to_string()
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    vec![
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("loadavg", read("/proc/loadavg")),
        ("kernel", read("/proc/sys/kernel/osrelease")),
        ("commit", commit),
    ]
}

/// One workload's metrics as a table: name, unit, median, quartiles and
/// sample count.
pub fn metrics_table(title: &str, outcome: &Outcome) -> String {
    let mut out = format!(
        "{title}: ops attempted {} failed {}{}\n",
        outcome.tally.attempted,
        outcome.tally.failed,
        if outcome.correct() {
            ""
        } else {
            "  ** NOT CORRECT **"
        }
    );
    let _ = writeln!(
        out,
        "  {:<36} {:>6} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in &outcome.metrics.0 {
        let unit = metrics::def(m.name).map(|d| d.unit).unwrap_or("?");
        let s = m.summary;
        let _ = writeln!(
            out,
            "  {:<36} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>4}",
            m.name, unit, s.median, s.q1, s.q3, s.n
        );
    }
    for why in &outcome.broken {
        let _ = writeln!(out, "  broken: {why}");
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    out
}

fn metrics_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, metric) in m.0.iter().enumerate() {
        let s = metric.summary;
        let unit = metrics::def(metric.name).map(|d| d.unit).unwrap_or("?");
        let _ = write!(
            out,
            "{}\n      {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            if i > 0 { "," } else { "" },
            json::quote(metric.name),
            json::number(s.median),
            json::quote(unit),
            json::number(s.q1),
            json::number(s.q3),
            s.n
        );
    }
    out.push_str("\n    }");
    out
}

/// `results.json`: the header and, per workload, the counts and the
/// end-to-end metrics (and the per-layer ones when a traced run was
/// made).
pub fn results_json(
    header: &[(&'static str, String)],
    runs: &[(String, Outcome, Option<Outcome>)],
) -> String {
    let mut out = String::from("{\n  \"header\": {");
    for (i, (k, v)) in header.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json::quote(k),
            json::quote(v)
        );
    }
    out.push_str("},\n  \"workloads\": {");
    for (i, (name, e2e, traced)) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  {}: {{\n    \"correct\": {}, \"attempted\": {}, \"failed\": {},\n    \"end_to_end\": {}",
            if i > 0 { "," } else { "" },
            json::quote(name),
            e2e.correct() && traced.iter().all(Outcome::correct),
            e2e.tally.attempted + traced.as_ref().map_or(0, |t| t.tally.attempted),
            e2e.tally.failed + traced.as_ref().map_or(0, |t| t.tally.failed),
            metrics_json(&e2e.metrics)
        );
        if let Some(t) = traced {
            let _ = write!(out, ",\n    \"per_layer\": {}", metrics_json(&t.metrics));
        }
        out.push_str("\n  }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// `(workload, metric) → value`.
type Cells = Vec<((String, String), f64)>;

/// The end-to-end cells of a `results.json`, plus its total failed
/// count.
fn load_results(path: &Path) -> Result<(Cells, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{}: no `workloads` object", path.display()))?;
    let mut cells = Vec::new();
    let mut failed = 0u64;
    for (name, w) in workloads {
        failed += w.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if w.get("correct") != Some(&Value::Bool(true)) {
            failed = failed.max(1);
        }
        let metrics = w
            .get("end_to_end")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: workload `{name}` has no `end_to_end`", path.display()))?;
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: {name}/{metric} has no value", path.display()))?;
            cells.push(((name.clone(), metric.clone()), value));
        }
    }
    Ok((cells, failed))
}

/// The bound of each end-to-end metric in `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{}: a metric lacks `name` or `bound`", path.display()))
        })
        .collect()
}

/// By how much `new` is worse than `old`, as a share of `old`
/// (negative when it is better).
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// `compare A.json B.json`: every (workload, end-to-end metric) of B
/// against A under the bounds of `BENCHMARK.json`. Returns the report
/// and whether any bound was breached (or any operation failed).
pub fn compare(a: &Path, b: &Path, bench: &Path) -> Result<(String, bool), String> {
    let ((old, failed_a), (new, failed_b)) = (load_results(a)?, load_results(b)?);
    let bounds = load_bounds(bench)?;
    let mut out = format!("compare {} -> {}\n", a.display(), b.display());
    let _ = writeln!(
        out,
        "  {:<10} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut breached = failed_a + failed_b > 0;
    if breached {
        let _ = writeln!(out, "  failed operations: A {failed_a}, B {failed_b}");
    }
    for ((workload, metric), va) in &old {
        let Some((_, vb)) = new.iter().find(|(k, _)| k.0 == *workload && k.1 == *metric) else {
            let _ = writeln!(out, "  {workload:<10} {metric:<14} missing from B");
            breached = true;
            continue;
        };
        let def = metrics::def(metric).ok_or_else(|| format!("unknown metric `{metric}`"))?;
        let bound = bounds
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, b)| *b)
            .ok_or_else(|| format!("no bound for `{metric}` in {}", bench.display()))?;
        let worse = worsening(def.better, *va, *vb);
        let breach = worse > bound || !worse.is_finite();
        breached |= breach;
        let _ = writeln!(
            out,
            "  {:<10} {:<14} {:>16.4} {:>16.4} {:>8.1}% {:>6.0}%{}",
            workload,
            metric,
            va,
            vb,
            100.0 * worse,
            100.0 * bound,
            if breach { "  BREACH" } else { "" }
        );
    }
    Ok((out, breached))
}

/// The `calibrate` table: per (workload, end-to-end metric), min,
/// median and max over the runs, the spread (quartile distance over
/// median, as the driver computes it) and the bound that spread asks
/// for: max(10%, 2 × spread), capped at the contract's 25%.
pub fn calibrate_table(runs: &[Vec<(String, Outcome)>]) -> String {
    let mut out = format!("calibrate: {} runs of the suite\n", runs.len());
    let _ = writeln!(
        out,
        "  {:<10} {:<14} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    let Some(first) = runs.first() else {
        return out;
    };
    for (w, (workload, _)) in first.iter().enumerate() {
        for d in metrics::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run[w].1.metrics.get(d.name).map(|m| m.value()))
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = Summary::of(&values);
            let _ = writeln!(
                out,
                "  {:<10} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>6.0}%",
                workload,
                d.name,
                s.min,
                s.median,
                s.max,
                100.0 * s.spread(),
                100.0 * (2.0 * s.spread()).clamp(0.10, 0.25)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    fn outcome(values: &[(&'static str, f64)]) -> Outcome {
        let mut o = Outcome {
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            ..Outcome::default()
        };
        for (n, v) in values {
            o.metrics.put1(n, *v);
        }
        o
    }

    fn full(scale: f64) -> Outcome {
        outcome(&[
            ("setup_s", 1.5 * scale),
            ("rss_mb", 120.0),
            ("op_p50_us", 50.0 * scale),
            ("op_per_s", 250_000.0 / scale),
            ("alt_p50_us", 160.0),
        ])
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&full(1.0), metrics::END_TO_END, false).unwrap();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), metrics::END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
        // A missing end-to-end metric is an error; a bypassed layer is 0.
        assert!(driver_line(&outcome(&[("setup_s", 1.0)]), metrics::END_TO_END, false).is_err());
        let traced = driver_line(
            &outcome(&[("mapper.map_s", 0.25)]),
            metrics::PER_LAYER,
            true,
        )
        .unwrap();
        let v = json::parse(&traced).unwrap();
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            metrics::PER_LAYER.len()
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("router.ch_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn compare_applies_the_bounds_in_the_right_direction() {
        let dir = std::env::temp_dir().join(format!("pabench-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, o: Outcome| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                results_json(&header(1, 1.0), &[("lookup".to_string(), o, None)]),
            )
            .unwrap();
            path
        };
        let (a, same, slower) = (
            write("a.json", full(1.0)),
            write("b.json", full(1.04)),
            write("c.json", full(1.5)),
        );
        let bench = dir.join("BENCHMARK.json");
        let bounds: Vec<String> = metrics::END_TO_END
            .iter()
            .map(|d| format!("{{\"name\": \"{}\", \"bound\": 0.1}}", d.name))
            .collect();
        std::fs::write(
            &bench,
            format!("{{\"end_to_end\": [{}]}}", bounds.join(",")),
        )
        .unwrap();
        let (report, breached) = compare(&a, &same, &bench).unwrap();
        assert!(!breached, "{report}");
        let (report, breached) = compare(&a, &slower, &bench).unwrap();
        assert!(breached && report.contains("BREACH"), "{report}");
        // Faster is never a breach, for either direction of metric.
        let (_, breached) = compare(&slower, &a, &bench).unwrap();
        assert!(!breached);
        assert!(worsening(Better::Higher, 100.0, 80.0) > 0.19);
        assert!(worsening(Better::Lower, 100.0, 80.0) < 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn calibrate_reports_spread_and_the_bound_it_asks_for() {
        let runs: Vec<Vec<(String, Outcome)>> = [1.0, 1.01, 0.99, 1.02, 1.0]
            .iter()
            .map(|s| vec![("lookup".to_string(), full(*s))])
            .collect();
        let table = calibrate_table(&runs);
        assert!(table.contains("op_p50_us"), "{table}");
        assert!(table.contains("10%"), "{table}");
    }
}
