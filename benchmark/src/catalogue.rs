//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction, and for per-layer metrics the end-to-end metric and workload a
//! change to that layer should move first.
//!
//! `BENCHMARK.json` (the driver's contract, which admits no extra keys) lists
//! the same names; [`self_check`] runs on every invocation and fails when the
//! two disagree.

use serde::Value;

/// `BENCHMARK.json`, compiled in so the binary does not depend on its
/// working directory.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The kernels of the `Backend` surface the per-layer table reports.
pub const KERNELS: [&str; 12] = [
    "gemm_itv_f",
    "gemm_itv_f_acc",
    "gbc",
    "bias_fold",
    "relu_step",
    "concretize",
    "gather_rows",
    "compact_indices",
    "exclusive_scan",
    "densify",
    "dtod",
    "htod",
];

/// The arithmetic kernels, which also report analytic work counts.
pub const ARITHMETIC: [&str; 4] = ["gemm_itv_f", "gemm_itv_f_acc", "gbc", "concretize"];

#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", "lower"),
    e2e("queries_per_s", "1/s", "higher"),
    e2e("latency_ms_p50", "ms", "lower"),
    e2e("proven_share", "share", "higher"),
    e2e("peak_device_mb", "MB", "lower"),
];

#[derive(Clone, Debug, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this one should move first …
    pub moves: &'static str,
    /// … and the workload on which it should show.
    pub on: &'static str,
}

/// Where a kernel's time shows first.
fn kernel_target(kernel: &str) -> (&'static str, &'static str) {
    match kernel {
        "gemm_itv_f" => ("latency_ms_p50", "dense_single"),
        "gbc" | "concretize" | "densify" => ("queries_per_s", "conv_fused"),
        "gather_rows" | "compact_indices" | "exclusive_scan" | "htod" => {
            ("queries_per_s", "serve_mix")
        }
        _ => ("queries_per_s", "dense_fused"),
    }
}

/// The per-layer metrics that are not per kernel: `name unit better moves on`,
/// a metric a line, in print order after the kernel rows.
const LAYER_TABLE: &str = "\
device.gemm_itv_f.gflop_per_s GFLOP/s higher latency_ms_p50 dense_single
device.gbc.gflop_per_s GFLOP/s higher queries_per_s conv_fused
device.launches_per_query count lower queries_per_s serve_mix
device.pool_hit_share share higher queries_per_s serve_mix
device.steady_alloc_mb MB lower peak_device_mb dense_fused
device.busy_share share higher queries_per_s serve_mix
core.engine_setup_ms ms lower setup_s dense_single
core.analyze_ms ms lower latency_ms_p50 dense_single
core.spec_walk_ms ms lower latency_ms_p50 dense_single
core.fused_call_ms ms lower latency_ms_p50 dense_fused
core.host_self_ms ms lower queries_per_s dense_fused
core.host_self_share share lower queries_per_s dense_fused
core.rows_refined count lower queries_per_s dense_single
core.rows_skipped_stable count higher queries_per_s dense_single
core.rows_stopped_early count higher queries_per_s conv_fused
core.early_stop_share share higher queries_per_s conv_fused
core.chunks count lower queries_per_s conv_fused
core.chunk_shrinks count lower peak_device_mb conv_fused
core.cache_hit_share share higher queries_per_s serve_mix
core.fused_share share higher queries_per_s dense_fused
core.resident_mb MB lower peak_device_mb dense_single
core.fusion_speedup x higher queries_per_s dense_fused
nn.build_ms ms lower setup_s dense_single
nn.save_ms ms lower setup_s serve_mix
nn.load_ms ms lower setup_s serve_mix
nn.classify_us us lower setup_s serve_mix
serve.protocol.request_bytes bytes lower latency_ms_p50 serve_mix
serve.protocol.encode_request_us us lower latency_ms_p50 serve_mix
serve.protocol.decode_request_us us lower latency_ms_p50 serve_mix
serve.protocol.encode_reply_us us lower latency_ms_p50 serve_mix
serve.protocol.decode_reply_us us lower latency_ms_p50 serve_mix
serve.ping_rtt_us us lower latency_ms_p50 serve_mix
serve.cold_load_ms ms lower setup_s serve_mix
serve.unloaded_latency_ms_p50 ms lower latency_ms_p50 serve_mix
serve.queueing_ms_p50 ms lower latency_ms_p50 serve_mix
serve.inproc_latency_ms_p50 ms lower latency_ms_p50 serve_mix
serve.wire_overhead_ms ms lower latency_ms_p50 serve_mix
serve.latency_ms_p99 ms lower latency_ms_p50 serve_mix
serve.batcher.mean_batch count higher queries_per_s serve_mix
serve.batcher.max_batch count higher queries_per_s serve_mix
serve.batcher.fused_share share higher queries_per_s serve_mix
serve.registry.rejected_overload count lower latency_ms_p50 serve_mix
serve.registry.expired_dropped count lower latency_ms_p50 serve_mix
latency_ms_p90 ms lower latency_ms_p50 serve_mix
trace.overhead_share share lower queries_per_s dense_single
trace.coverage_share share higher latency_ms_p50 dense_single";

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let row = |name: String, unit, better, (moves, on)| PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    };
    let scalar = ("queries_per_s", "dense_single");
    let mut m = vec![
        row("interval.mul_add_ns".into(), "ns", "lower", scalar),
        row(
            "interval.dot_ns_per_elem".into(),
            "ns",
            "lower",
            ("queries_per_s", "conv_fused"),
        ),
    ];
    for k in KERNELS {
        let target = kernel_target(k);
        m.push(row(format!("device.{k}.calls"), "count", "lower", target));
        m.push(row(format!("device.{k}.busy_ms"), "ms", "lower", target));
        m.push(row(
            format!("device.{k}.us_per_call"),
            "us",
            "lower",
            target,
        ));
    }
    for k in ARITHMETIC {
        let target = kernel_target(k);
        m.push(row(format!("device.{k}.gflop"), "GFLOP", "lower", target));
        m.push(row(format!("device.{k}.mb_moved"), "MB", "lower", target));
    }
    m.extend(LAYER_TABLE.lines().map(|line| {
        let mut f = line.split(' ');
        let mut next = || f.next().expect("five fields a line");
        row(next().to_string(), next(), next(), (next(), next()))
    }));
    m
}

/// A metric of `BENCHMARK.json`: name, unit, direction and (end-to-end only)
/// the regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json` as the benchmark reads it.
pub struct Declaration {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn declared(list: &Value, bounded: bool) -> Result<Vec<Declared>, String> {
    list.as_arr()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|m| {
            let text = |key: &str| -> Result<String, String> {
                Ok(m.field(key)
                    .and_then(Value::as_str)
                    .map_err(|e| e.to_string())?
                    .to_string())
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound: if bounded {
                    Some(
                        m.field("bound")
                            .and_then(Value::as_f64)
                            .map_err(|e| e.to_string())?,
                    )
                } else {
                    None
                },
            })
        })
        .collect()
}

pub fn declaration() -> Result<Declaration, String> {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let field = |key: &str| root.field(key).map_err(|e| e.to_string());
    Ok(Declaration {
        run_seconds: field("run_seconds")?.as_f64().map_err(|e| e.to_string())?,
        workloads: field("workloads")?
            .as_arr()
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| {
                w.field("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?,
        end_to_end: declared(field("end_to_end")?, true)?,
        per_layer: declared(field("per_layer")?, false)?,
    })
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks the catalogue against `BENCHMARK.json` and both against the
/// contract's limits. Returns every violation found.
pub fn self_check(workloads: &[&str]) -> Vec<String> {
    let mut bad = Vec::new();
    let decl = match declaration() {
        Ok(d) => d,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let layers = per_layer();

    if !(2..=8).contains(&decl.workloads.len()) {
        bad.push(format!("{} workloads, need 2 to 8", decl.workloads.len()));
    }
    if decl.workloads != workloads {
        bad.push(format!(
            "workloads differ: BENCHMARK.json {:?}, harness {workloads:?}",
            decl.workloads
        ));
    }
    if !(1..=16).contains(&decl.end_to_end.len()) {
        bad.push(format!(
            "{} end-to-end metrics, need 1 to 16",
            decl.end_to_end.len()
        ));
    }
    if !(1..=128).contains(&decl.per_layer.len()) {
        bad.push(format!(
            "{} per-layer metrics, need 1 to 128",
            decl.per_layer.len()
        ));
    }

    let mut seen = std::collections::BTreeSet::new();
    for name in decl
        .workloads
        .iter()
        .chain(decl.end_to_end.iter().map(|m| &m.name))
        .chain(decl.per_layer.iter().map(|m| &m.name))
    {
        if !valid_name(name) {
            bad.push(format!("`{name}` is not a valid name"));
        }
        if !seen.insert(name.as_str()) {
            bad.push(format!("`{name}` is used twice"));
        }
    }

    let e2e: Vec<Declared> = END_TO_END
        .iter()
        .map(|m| Declared {
            name: m.name.to_string(),
            unit: m.unit.to_string(),
            better: m.better.to_string(),
            bound: None,
        })
        .collect();
    let strip = |m: &Declared| Declared {
        bound: None,
        ..m.clone()
    };
    if decl.end_to_end.iter().map(strip).collect::<Vec<_>>() != e2e {
        bad.push("end-to-end metrics differ between BENCHMARK.json and the catalogue".to_string());
    }
    for m in &decl.end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => bad.push(format!("`{}` has bound {other:?}, need (0, 0.25]", m.name)),
        }
    }
    let listed: Vec<Declared> = layers
        .iter()
        .map(|m| Declared {
            name: m.name.clone(),
            unit: m.unit.to_string(),
            better: m.better.to_string(),
            bound: None,
        })
        .collect();
    if decl.per_layer != listed {
        for (d, l) in decl.per_layer.iter().zip(&listed) {
            if d != l {
                bad.push(format!(
                    "per-layer metric differs: BENCHMARK.json {d:?}, catalogue {l:?}"
                ));
                break;
            }
        }
        if decl.per_layer.len() != listed.len() {
            bad.push(format!(
                "{} per-layer metrics in BENCHMARK.json, {} in the catalogue",
                decl.per_layer.len(),
                listed.len()
            ));
        }
    }
    for m in &layers {
        if !END_TO_END.iter().any(|e| e.name == m.moves) {
            bad.push(format!("`{}` moves unknown metric `{}`", m.name, m.moves));
        }
        if !workloads.contains(&m.on) {
            bad.push(format!("`{}` names unknown workload `{}`", m.name, m.on));
        }
    }
    bad
}
