//! Printing, result files, and the comparison of two sets of runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{obj, Value};
use crate::metrics::END_TO_END;
use crate::run::{checks_json, Check, RunResult};

/// The human-readable account of one run: notes, every metric by name
/// with its unit and sample count, and every check.
pub fn render_run(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed {} ({}) ==",
        r.workload.name(),
        r.seed,
        if r.trace {
            "traced run, per-layer metrics"
        } else {
            "timed run, end-to-end metrics"
        }
    );
    for note in &r.notes {
        let _ = writeln!(out, "  # {note}");
    }
    for (name, m) in &r.metrics.0 {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        let rule = END_TO_END
            .iter()
            .find(|e| e.name == *name)
            .map_or(String::new(), |e| {
                format!(
                    "  [{} is better, bound {} %]",
                    e.better.as_str(),
                    e.bound * 100.0
                )
            });
        let _ = writeln!(out, "  {name:<36} {:>18.6} {}{n}{rule}", m.value, m.unit);
    }
    let _ = writeln!(
        out,
        "  ops_attempted {}  ops_failed {}",
        r.attempted, r.failed
    );
    for c in &r.checks {
        let _ = writeln!(
            out,
            "  [{}] {}{}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            if c.detail.is_empty() {
                String::new()
            } else {
                format!(" — {}", c.detail)
            }
        );
    }
    out
}

/// The last line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn driver_line(r: &RunResult) -> String {
    obj([
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.attempted.max(1) as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", r.metrics.to_json(false)),
    ])
    .render()
}

/// Histories of the two broadcast workloads must be the same history:
/// same seed, same bytes, one shard or two. Gate (a).
pub fn cross_shard_check(one: &Value, two: &Value) -> Check {
    let (h1, h2) = (one.get("history"), two.get("history"));
    Check::new(
        "broadcast1024 and broadcast1024_sh2 produce identical trace lines and simulated metrics",
        h1.is_some() && h1 == h2,
        format!(
            "digest {} vs {}",
            digest_of(one).unwrap_or("?"),
            digest_of(two).unwrap_or("?")
        ),
    )
}

fn digest_of(run: &Value) -> Option<&str> {
    run.get("history")?.get("digest")?.as_str()
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs of a result file keyed `(workload, traced)`.
fn runs_of(set: &Value) -> BTreeMap<(String, bool), &Value> {
    set.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            Some((
                (
                    r.get("workload")?.as_str()?.to_string(),
                    r.get("trace")?.as_bool()?,
                ),
                r,
            ))
        })
        .collect()
}

/// Two complete sets of runs of one commit, side by side. Fails when an
/// end-to-end metric differs by more than its own bound, or when any
/// simulated history differs at all.
pub fn compare_sets(a: &Value, b: &Value) -> (String, Vec<Check>) {
    let mut out = String::new();
    let mut checks = Vec::new();
    let (runs_a, runs_b) = (runs_of(a), runs_of(b));
    let _ = writeln!(
        out,
        "{:<18} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for ((workload, traced), ra) in &runs_a {
        let Some(rb) = runs_b.get(&(workload.clone(), *traced)) else {
            checks.push(Check::new(
                "both sets hold the same runs",
                false,
                format!("{workload} (traced {traced}) is missing from B"),
            ));
            continue;
        };
        let same_history = ra.get("history") == rb.get("history");
        checks.push(Check::new(
            "simulated history repeats exactly",
            same_history,
            format!(
                "{workload} (traced {traced}): digest {} vs {}",
                digest_of(ra).unwrap_or("?"),
                digest_of(rb).unwrap_or("?")
            ),
        ));
        if *traced {
            continue;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ra, m.name), metric_value(rb, m.name)) else {
                checks.push(Check::new(
                    "both sets report every end-to-end metric",
                    false,
                    format!("{workload}: {} is missing", m.name),
                ));
                continue;
            };
            let diff = relative_difference(va, vb);
            let _ = writeln!(
                out,
                "{workload:<18} {:<16} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.1}%",
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
            checks.push(Check::new(
                "end-to-end metrics of the two sets agree within their bounds",
                diff <= m.bound,
                format!(
                    "{workload} {}: {va} vs {vb} ({:.2} % apart, bound {:.1} %)",
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                ),
            ));
        }
    }
    (out, checks)
}

/// |a − b| as a share of `a`, the first set's value.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// A whole set of runs as a result file: host metadata first.
pub fn result_file(metadata: Value, wall_s: f64, runs: Vec<Value>, checks: &[Check]) -> Value {
    let mut meta = metadata.as_obj().cloned().unwrap_or_default();
    meta.insert("benchmark_wall_s".to_string(), Value::Num(wall_s));
    obj([
        // "host" sorts ahead of every other key, so the file starts with it.
        ("host", Value::Obj(meta)),
        ("runs", Value::Arr(runs)),
        ("set_checks", checks_json(checks)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn run_json(workload: &str, digest: &str, sim_rate: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "sim_rate" { sim_rate } else { 1.0 };
                format!(
                    r#""{}": {{"value": {v}, "unit": "{}", "n": null}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"workload": "{workload}", "trace": false, "history": {{"digest": "{digest}"}},
                "metrics": {{{}}}}}"#,
            metrics.join(", ")
        )
    }

    fn set(runs: &[String]) -> Value {
        parse(&format!(
            r#"{{"host": {{}}, "runs": [{}]}}"#,
            runs.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn a_mismatching_digest_fails_the_cross_shard_gate() {
        let one = parse(&run_json("broadcast1024", "aaaa", 1.0)).unwrap();
        let same = parse(&run_json("broadcast1024_sh2", "aaaa", 0.9)).unwrap();
        let other = parse(&run_json("broadcast1024_sh2", "bbbb", 0.9)).unwrap();
        assert!(cross_shard_check(&one, &same).ok);
        let failed = cross_shard_check(&one, &other);
        assert!(!failed.ok);
        assert!(failed.detail.contains("aaaa vs bbbb"));
    }

    #[test]
    fn two_sets_agree_within_bounds_or_the_comparison_fails() {
        let a = set(&[run_json("videophone", "d1", 5.00)]);
        let close = set(&[run_json("videophone", "d1", 5.20)]);
        let far = set(&[run_json("videophone", "d1", 7.00)]);
        let diverged = set(&[run_json("videophone", "d2", 5.00)]);
        let (table, checks) = compare_sets(&a, &close);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        assert!(table.contains("sim_rate"));
        assert!(compare_sets(&a, &far).1.iter().any(|c| !c.ok));
        assert!(compare_sets(&a, &diverged).1.iter().any(|c| !c.ok));
        assert!(compare_sets(&a, &set(&[])).1.iter().any(|c| !c.ok));
    }

    #[test]
    fn difference_is_relative_to_the_first_set() {
        assert_eq!(relative_difference(4.0, 5.0), 0.25);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
    }
}
