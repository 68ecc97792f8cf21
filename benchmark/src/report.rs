//! What the benchmark prints and writes: the driver's one-line result, the
//! `name unit value` table, the JSON result file, and `compare`.

use serde::Value;

use crate::catalogue::{self, Declaration};
use crate::run::RunResult;

/// The run's metrics in catalogue order, or the names that are missing or
/// unknown: every printed metric is in `BENCHMARK.json` and the reverse.
pub fn ordered(result: &RunResult) -> Result<Vec<(String, &'static str, f64)>, Vec<String>> {
    let listed: Vec<(String, &'static str)> = if result.traced {
        catalogue::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        catalogue::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut bad: Vec<String> = result
        .metrics
        .keys()
        .filter(|k| !listed.iter().any(|(name, _)| name == *k))
        .map(|k| format!("`{k}` is measured but not in the catalogue"))
        .collect();
    let mut out = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        match result.metrics.get(&name) {
            Some(&v) if v.is_finite() => out.push((name, unit, v)),
            Some(v) => bad.push(format!("`{name}` is {v}")),
            None => bad.push(format!("`{name}` was not measured on {}", result.workload)),
        }
    }
    if bad.is_empty() {
        Ok(out)
    } else {
        Err(bad)
    }
}

fn metrics_value(rows: &[(String, &'static str, f64)]) -> Value {
    Value::Obj(
        rows.iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    Value::obj([
                        ("value", Value::Num(*value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's contract: one JSON object with exactly these keys.
pub fn driver_line(result: &RunResult, rows: &[(String, &'static str, f64)]) -> String {
    let line = Value::obj([
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", metrics_value(rows)),
    ]);
    serde_json::to_string(&line).expect("finite metrics serialise")
}

/// `name unit value`, one metric a line, prefixed by the workload.
pub fn table(result: &RunResult, rows: &[(String, &'static str, f64)]) -> String {
    let mut out = String::new();
    for (name, unit, value) in rows {
        out.push_str(&format!("{} {name} {unit} {value}\n", result.workload));
    }
    out
}

/// One workload's entry in the result file.
pub fn workload_value(
    untraced: &RunResult,
    e2e: &[(String, &'static str, f64)],
    traced: &RunResult,
    layers: &[(String, &'static str, f64)],
) -> Value {
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    Value::obj([
        ("workload_digest", Value::Str(untraced.digest.clone())),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("failed_share", Value::Num(failed as f64 / attempted as f64)),
        ("proven", Value::Num(untraced.proven as f64)),
        ("end_to_end", metrics_value(e2e)),
        ("per_layer", metrics_value(layers)),
    ])
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(workload: &Value, name: &str) -> Option<f64> {
    workload
        .field("end_to_end")
        .and_then(|m| m.field(name))
        .and_then(|m| m.field("value"))
        .and_then(Value::as_f64)
        .ok()
}

/// Compares result file `b` against base `a` with the bounds of
/// `BENCHMARK.json`. Prints one row per (metric, workload): both values, the
/// ratio b/a, and whether the bound holds. Returns the number of breaches.
///
/// Beyond the bounds, over identical inputs (equal digests) any drop of
/// `proven_share` and any rise of `failed` is a breach: both are
/// deterministic per seed.
pub fn compare(a_path: &str, b_path: &str, decl: &Declaration) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut breaches = 0;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    for name in &decl.workloads {
        let (wa, wb) = match (
            a.field("workloads").and_then(|w| w.field(name)),
            b.field("workloads").and_then(|w| w.field(name)),
        ) {
            (Ok(wa), Ok(wb)) => (wa, wb),
            _ => {
                println!("{name:<14} missing from one of the files");
                breaches += 1;
                continue;
            }
        };
        let digest = |w: &Value| {
            w.field("workload_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok()
        };
        let same_inputs = digest(wa).is_some() && digest(wa) == digest(wb);
        if !same_inputs {
            println!("{name:<14} workload_digest differs: the two runs had different inputs");
            breaches += 1;
        }
        let failed = |w: &Value| w.field("failed").and_then(Value::as_f64).ok();
        match (failed(wa), failed(wb)) {
            (Some(fa), Some(fb)) if fb <= fa => {}
            (fa, fb) => {
                println!("{name:<14} failed went from {fa:?} to {fb:?}");
                breaches += 1;
            }
        }
        for m in &decl.end_to_end {
            let (Some(va), Some(vb)) = (metric(wa, &m.name), metric(wb, &m.name)) else {
                println!("{name:<14} {:<16} missing", m.name);
                breaches += 1;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let worse_by = if m.better == "lower" {
                vb / va - 1.0
            } else {
                1.0 - vb / va
            };
            let exact = m.name == "proven_share" && same_inputs;
            let ok = if exact {
                worse_by <= 0.0
            } else {
                worse_by <= bound
            };
            if !ok {
                breaches += 1;
            }
            println!(
                "{name:<14} {:<16} {va:>14.4} {vb:>14.4} {:>8.4}  {} (bound {}{bound})",
                m.name,
                vb / va,
                if ok { "ok" } else { "BREACH" },
                if exact { "exact, else " } else { "" },
            );
        }
    }
    Ok(breaches)
}
