//! One run of one workload: set-up, the timed phase, the gates, the metrics.
//!
//! An untraced run gives the end-to-end metrics (production `CpuSimBackend`,
//! no spans). A traced run gives the per-layer metrics: it first runs the
//! first quarter of the operations untraced, then every operation on
//! [`TracedBackend`]; the quarter both passes share gives the tracing
//! overhead and a margin cross-check between the two backends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use gpupoly::core::Query;
use gpupoly::device::{CpuSimBackend, Device, DeviceConfig, KernelWork};
use gpupoly::interval::dot::dot_itv_f;
use gpupoly::interval::Itv;
use gpupoly::nn::{store, Network};
use gpupoly::serve::protocol::{Reply, Request, WireMargin};

use crate::catalogue::{ARITHMETIC, KERNELS};
use crate::check::{self, Failures};
use crate::inproc::{self, Outcome, Phase};
use crate::serve::{self, MODEL};
use crate::stats::{median, percentile, share};
use crate::traced::{self, Span, TracedBackend, WORKERS};
use crate::workload::{generate, Generated, Shape, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Wire verdicts re-derived in process, per connection.
const WIRE_SAMPLE: usize = 32;
/// Frames replayed through the protocol codec.
const CODEC_FRAMES: usize = 200;

pub type Metrics = BTreeMap<String, f64>;

pub struct Config {
    pub seed: u64,
    /// Share of the full-length operation count to run.
    pub share: f64,
    /// Set-ups per untraced run (`SETUPS`; one in smoke runs).
    pub setups: usize,
    /// Queries re-verified on the reference backend (`REFERENCE_QUERIES`;
    /// fewer in smoke runs).
    pub reference_queries: usize,
    /// Where models and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub digest: String,
    pub attempted: usize,
    pub failed: usize,
    pub proven: usize,
    /// Why queries failed, a line each (capped).
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

fn device_config() -> DeviceConfig {
    DeviceConfig::new().workers(WORKERS)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn put(m: &mut Metrics, name: impl Into<String>, value: f64) {
    m.insert(name.into(), value);
}

fn end_to_end(setups: &[f64], phase: &Phase, peak_bytes: u64) -> Metrics {
    let n = phase.outcomes.len() as f64;
    let mut m = Metrics::new();
    put(&mut m, "setup_s", median(setups));
    put(&mut m, "queries_per_s", n / phase.wall_s);
    put(
        &mut m,
        "latency_ms_p50",
        percentile(&phase.latencies_ms, 0.5),
    );
    put(&mut m, "proven_share", phase.proven() as f64 / n);
    put(&mut m, "peak_device_mb", peak_bytes as f64 / 1e6);
    m
}

/// The gates every run ends with, against the run's own outcomes.
fn gate(
    net: &Network<f32>,
    gen: &Generated,
    outcomes: &[Result<Outcome, String>],
    cfg: &Config,
) -> Failures {
    let mut failures = Failures::default();
    failures.note_errors(outcomes);
    let n = cfg.reference_queries.min(gen.queries.len());
    let at: Vec<usize> = (0..n).collect();
    failures.expect_equal(
        "reference backend",
        &check::reference_outcomes(net, &gen.queries[..n]),
        &at,
        outcomes,
    );
    check::check_proofs(&mut failures, net, &gen.queries, outcomes, cfg.seed);
    failures
}

fn result(
    wl: &Workload,
    traced: bool,
    gen: &Generated,
    phase: &Phase,
    failures: Failures,
    metrics: Metrics,
) -> RunResult {
    RunResult {
        workload: wl.name,
        traced,
        digest: gen.digest.clone(),
        attempted: phase.outcomes.len(),
        failed: failures.queries.len(),
        proven: phase.proven(),
        notes: failures.notes,
        metrics,
    }
}

/// The part of a run a traced run executes twice (untraced, then traced), in
/// queries per connection. In-process workloads are one connection.
struct Prefix {
    conns: usize,
    /// Queries per connection in the full run.
    per_conn: usize,
    /// Queries per connection both passes are compared over: a quarter.
    len: usize,
    /// Queries per connection the untraced pass runs: the closed loop keeps
    /// its window full until the compared part is done, as the full run does.
    run_len: usize,
}

impl Prefix {
    fn of(wl: &Workload, ops: usize) -> Self {
        let quarter = (ops / 4).max(1);
        match wl.shape {
            Shape::Serve { conns, window } => Prefix {
                conns,
                per_conn: ops,
                len: quarter,
                run_len: (quarter + window).min(ops),
            },
            _ => Prefix {
                conns: 1,
                per_conn: wl.query_count(ops),
                len: wl.query_count(quarter),
                run_len: wl.query_count(quarter),
            },
        }
    }

    /// Indices (into the full run) of the first `len` queries of every
    /// connection.
    fn indices(&self, len: usize) -> Vec<usize> {
        (0..self.conns)
            .flat_map(|c| c * self.per_conn..c * self.per_conn + len)
            .collect()
    }

    /// Tracing overhead over the compared part: the median, query by query,
    /// of traced latency over untraced latency, minus one. The `j`-th query
    /// of the untraced pass is query `at[j]` of the traced full run; the
    /// median keeps one slow stretch of the host from deciding the figure.
    fn overhead_share(&self, untraced: &Phase, at: &[usize], traced: &Phase) -> f64 {
        let ratios: Vec<f64> = at
            .iter()
            .zip(&untraced.latencies_ms)
            .filter(|(&i, _)| i % self.per_conn < self.len)
            .map(|(&i, &plain)| traced.latencies_ms[i] / plain)
            .collect();
        median(&ratios) - 1.0
    }
}

fn pick(queries: &[Query<f32>], at: &[usize]) -> Vec<Query<f32>> {
    at.iter().map(|&i| queries[i].clone()).collect()
}

// ---------------------------------------------------------------- untraced

/// One in-process set-up: build the network, make it resident, warm up.
fn bring_up(wl: &Workload, warmup: &[Query<f32>]) -> f64 {
    timed(|| {
        let net = wl.build_net();
        let engine = inproc::engine(Device::new(device_config()), &net);
        inproc::run_phase(&engine, &net, wl.shape, warmup, false);
    })
    .1
}

fn untraced_inproc(wl: &Workload, cfg: &Config) -> RunResult {
    let ops = wl.scaled_ops(cfg.share);
    let gen = generate(wl, &wl.build_net(), ops, cfg.seed);

    let mut setups: Vec<f64> = (1..cfg.setups).map(|_| bring_up(wl, &gen.warmup)).collect();
    let t0 = Instant::now();
    let net = wl.build_net();
    let device = Device::new(device_config());
    let engine = inproc::engine(device.clone(), &net);
    inproc::run_phase(&engine, &net, wl.shape, &gen.warmup, false);
    setups.push(t0.elapsed().as_secs_f64());

    let phase = inproc::run_phase(&engine, &net, wl.shape, &gen.queries, false);
    let metrics = end_to_end(&setups, &phase, device.peak_memory() as u64);
    let failures = gate(&net, &gen, &phase.outcomes, cfg);
    result(wl, false, &gen, &phase, failures, metrics)
}

/// Wire verdicts of the first requests of every connection must be bit-equal
/// to a fresh in-process engine's.
fn gate_wire(
    failures: &mut Failures,
    wl: &Workload,
    net: &Network<f32>,
    gen: &Generated,
    ops: usize,
    phase: &Phase,
) {
    let at = Prefix::of(wl, ops).indices(WIRE_SAMPLE.min(ops));
    let want = check::engine_outcomes(net, &pick(&gen.queries, &at), 16);
    failures.expect_equal("in-process engine", &want, &at, &phase.outcomes);
}

fn untraced_serve(wl: &Workload, cfg: &Config, conns: usize, window: usize) -> RunResult {
    let ops = wl.scaled_ops(cfg.share);
    let gen = generate(wl, &wl.build_net(), ops, cfg.seed);
    let dir = cfg.out_dir.join("models");

    let mut setups = Vec::with_capacity(cfg.setups);
    let mut kept = None;
    for _ in 0..cfg.setups.max(1) {
        // Shutting a daemon down is not part of bringing the next one up.
        drop(kept.take());
        let ((net, booted), secs) = timed(|| {
            let net = wl.build_net();
            let booted = serve::boot::<CpuSimBackend>(&net, &dir, &gen.warmup);
            (net, booted)
        });
        setups.push(secs);
        kept = Some((net, booted));
    }
    let (net, booted) = kept.expect("at least one set-up ran");
    let addr = booted.handle.addr();

    let phase = serve::run_phase(addr, &gen.queries, conns, window);
    let peak = serve::stats(addr).map(|s| s.device.peak_memory);
    booted.handle.shutdown();

    let mut failures = gate(&net, &gen, &phase.outcomes, cfg);
    gate_wire(&mut failures, wl, &net, &gen, ops, &phase);
    let peak = peak.unwrap_or_else(|e| {
        failures.fail_run(format!("stats frame: {e}"));
        0
    });
    let metrics = end_to_end(&setups, &phase, peak);
    result(wl, false, &gen, &phase, failures, metrics)
}

pub fn untraced(wl: &Workload, cfg: &Config) -> RunResult {
    match wl.shape {
        Shape::Serve { conns, window } => untraced_serve(wl, cfg, conns, window),
        _ => untraced_inproc(wl, cfg),
    }
}

// ------------------------------------------------------------------ traced

/// Device-wide counters of a traced device; pool and allocation counters
/// include the inner production device, which owns the GEMM scratch.
struct Counters {
    launches: u64,
    pool_hits: u64,
    pool_misses: u64,
    bytes_allocated: u64,
    work: BTreeMap<&'static str, KernelWork>,
}

impl Counters {
    fn read(device: &Device<TracedBackend>) -> Self {
        let (outer, inner) = (device.stats(), device.backend().inner().stats());
        Counters {
            launches: outer.launches(),
            pool_hits: outer.pool_hits() + inner.pool_hits(),
            pool_misses: outer.pool_misses() + inner.pool_misses(),
            bytes_allocated: outer.bytes_allocated() + inner.bytes_allocated(),
            work: outer.kernel_work_all().into_iter().collect(),
        }
    }
}

/// The `Backend` method a meter label belongs to: plane labels (`gbc_lo`,
/// `gbc_hi`) and the named copies are summed under the trait-method name.
fn method_of(label: &str) -> &str {
    match label {
        "stack_copy" | "split_add_copy" => "dtod",
        l => l
            .strip_suffix("_lo")
            .or_else(|| l.strip_suffix("_hi"))
            .unwrap_or(l),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `device.*`: per-kernel calls and busy time from the spans of the timed
/// phase, analytic work from the device meter's deltas over the same phase.
fn device_metrics(
    m: &mut Metrics,
    spans: &[Span],
    before: &Counters,
    after: &Counters,
    phase: &Phase,
) {
    let mut busy_all = 0u64;
    for k in KERNELS {
        let (calls, busy) = spans
            .iter()
            .filter(|s| s.name == k)
            .fold((0u64, 0u64), |(c, b), s| (c + 1, b + s.dur_ns()));
        busy_all += busy;
        put(m, format!("device.{k}.calls"), calls as f64);
        put(m, format!("device.{k}.busy_ms"), ms(busy));
        put(
            m,
            format!("device.{k}.us_per_call"),
            share(busy as f64 / 1e3, calls as f64),
        );
    }
    for k in ARITHMETIC {
        let (mut flops, mut bytes) = (0u64, 0u64);
        for (label, work) in &after.work {
            if method_of(label) == k {
                let was = before.work.get(label).copied().unwrap_or_default();
                flops += work.flops - was.flops;
                bytes += work.bytes_moved - was.bytes_moved;
            }
        }
        put(m, format!("device.{k}.gflop"), flops as f64 / 1e9);
        put(m, format!("device.{k}.mb_moved"), bytes as f64 / 1e6);
    }
    for k in ["gemm_itv_f", "gbc"] {
        let busy_s = m[&format!("device.{k}.busy_ms")] / 1e3;
        let rate = share(m[&format!("device.{k}.gflop")], busy_s);
        put(m, format!("device.{k}.gflop_per_s"), rate);
    }
    let queries = phase.outcomes.len() as f64;
    let (hits, misses) = (
        (after.pool_hits - before.pool_hits) as f64,
        (after.pool_misses - before.pool_misses) as f64,
    );
    put(
        m,
        "device.launches_per_query",
        (after.launches - before.launches) as f64 / queries,
    );
    put(m, "device.pool_hit_share", share(hits, hits + misses));
    put(
        m,
        "device.steady_alloc_mb",
        (after.bytes_allocated - before.bytes_allocated) as f64 / 1e6,
    );
    put(m, "device.busy_share", ms(busy_all) / 1e3 / phase.wall_s);
}

fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| ms(s.dur_ns()))
        .collect()
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// `core.*` timings and `trace.coverage_share` from the harness spans: a root
/// harness span's self time is its duration minus the kernel spans under it.
fn harness_metrics(m: &mut Metrics, spans: &[Span], phase: &Phase, per_op: usize) {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.contains('.'))
        .map(Span::dur_ns)
        .sum();
    let kernels_under: u64 = spans
        .iter()
        .filter(|s| s.parent != 0 && !s.name.contains('.'))
        .map(Span::dur_ns)
        .sum();
    let in_process = spans.iter().any(|s| s.name.starts_with("core."));
    let host_self = if in_process { roots - kernels_under } else { 0 };
    put(
        m,
        "core.analyze_ms",
        median_or_zero(&span_ms(spans, "core.analyze")),
    );
    put(
        m,
        "core.spec_walk_ms",
        median_or_zero(&span_ms(spans, "core.spec_walk")),
    );
    put(
        m,
        "core.fused_call_ms",
        median_or_zero(&span_ms(spans, "core.fused_call")),
    );
    put(m, "core.host_self_ms", ms(host_self));
    put(
        m,
        "core.host_self_share",
        share(host_self as f64, roots as f64),
    );
    put(m, "latency_ms_p90", percentile(&phase.latencies_ms, 0.9));
    let op_latency_ms: f64 = phase.latencies_ms.iter().sum::<f64>() / per_op as f64;
    put(m, "trace.coverage_share", share(ms(roots), op_latency_ms));
}

fn work_metrics(m: &mut Metrics, stats: &gpupoly::core::AnalysisStats, spec_rows: usize) {
    put(m, "core.rows_refined", stats.rows_refined as f64);
    put(
        m,
        "core.rows_skipped_stable",
        stats.rows_skipped_stable as f64,
    );
    put(
        m,
        "core.rows_stopped_early",
        stats.rows_stopped_early as f64,
    );
    put(
        m,
        "core.early_stop_share",
        share(
            stats.rows_stopped_early as f64,
            (stats.rows_refined + spec_rows) as f64,
        ),
    );
    put(m, "core.chunks", stats.chunks as f64);
    put(m, "core.chunk_shrinks", stats.chunk_shrinks as f64);
}

/// `interval.*`: the two public primitives under every kernel, over a fixed
/// 1M-element vector; median of five repetitions.
fn interval_metrics(m: &mut Metrics) {
    const N: usize = 1 << 20;
    let a: Vec<Itv<f32>> = (0..N)
        .map(|i| {
            let x = (i * 37 % 1999) as f32 / 999.0 - 1.0;
            Itv::new(x - 1e-3, x + 1e-3)
        })
        .collect();
    let f: Vec<f32> = (0..N)
        .map(|i| (i * 53 % 1013) as f32 / 506.0 - 1.0)
        .collect();
    let (mut mul_add, mut dot) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (_, s) = timed(|| {
            let mut acc = Itv::zero();
            for (&ai, &fi) in black_box(&a).iter().zip(black_box(&f)) {
                acc = ai.mul_add_f(fi, acc);
            }
            black_box(acc)
        });
        mul_add.push(s * 1e9 / N as f64);
        let (_, s) = timed(|| black_box(dot_itv_f(black_box(&a), black_box(&f))));
        dot.push(s * 1e9 / N as f64);
    }
    put(m, "interval.mul_add_ns", median(&mul_add));
    put(m, "interval.dot_ns_per_elem", median(&dot));
}

/// `nn.*`: build time as measured in set-up, a save/load round trip of the
/// workload's network, and plain classification of the run's first images.
fn nn_metrics(
    m: &mut Metrics,
    wl: &Workload,
    net: &Network<f32>,
    build_s: f64,
    gen: &Generated,
    cfg: &Config,
) {
    put(m, "nn.build_ms", build_s * 1e3);
    let dir = cfg.out_dir.join("models");
    let name = format!("probe_{}", wl.name);
    let (saved, save_s) = timed(|| store::save(&dir, &name, net));
    let (loaded, load_s) = timed(|| store::load::<f32>(&dir, &name));
    let round_trip = saved.is_ok() && loaded.is_ok();
    put(m, "nn.save_ms", if round_trip { save_s * 1e3 } else { 0.0 });
    put(m, "nn.load_ms", if round_trip { load_s * 1e3 } else { 0.0 });
    let classify: Vec<f64> = gen
        .queries
        .iter()
        .take(32)
        .map(|q| timed(|| black_box(net.classify(&q.image))).1 * 1e6)
        .collect();
    put(m, "nn.classify_us", median(&classify));
}

/// Per-layer metrics a workload does not exercise read 0.
fn fill_absent(m: &mut Metrics) {
    for layer in crate::catalogue::per_layer() {
        m.entry(layer.name).or_insert(0.0);
    }
}

fn write_trace(cfg: &Config, wl: &Workload, spans: &[&[Span]], failures: &mut Failures) {
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", wl.name));
    let text: String = spans.iter().map(|s| traced::to_jsonl(s)).collect();
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, text))
    {
        failures
            .notes
            .push(format!("trace file {}: {e}", path.display()));
    }
}

fn traced_inproc(wl: &Workload, cfg: &Config) -> RunResult {
    let ops = wl.scaled_ops(cfg.share);
    let gen = generate(wl, &wl.build_net(), ops, cfg.seed);
    let prefix = Prefix::of(wl, ops);
    let shared = prefix.indices(prefix.run_len);

    let untraced = {
        let net = wl.build_net();
        let engine = inproc::engine(Device::new(device_config()), &net);
        inproc::run_phase(&engine, &net, wl.shape, &gen.warmup, false);
        inproc::run_phase(&engine, &net, wl.shape, &gen.queries[..shared.len()], false)
    };

    traced::set_enabled(true);
    let (net, build_s) = timed(|| wl.build_net());
    let device = TracedBackend::device(device_config());
    let engine = inproc::engine(device.clone(), &net);
    inproc::run_phase(&engine, &net, wl.shape, &gen.warmup, true);
    let setup_spans = traced::take();
    let before = Counters::read(&device);
    let (cache_before, fused_before) = (engine.cache_stats(), engine.stats().fused_batches);
    let phase = inproc::run_phase(&engine, &net, wl.shape, &gen.queries, true);
    let after = Counters::read(&device);
    traced::set_enabled(false);
    let spans = traced::take();

    let mut failures = gate(&net, &gen, &phase.outcomes, cfg);
    failures.expect_equal(
        "untraced backend",
        &untraced.outcomes,
        &shared,
        &phase.outcomes,
    );
    write_trace(cfg, wl, &[&setup_spans, &spans], &mut failures);

    let mut m = Metrics::new();
    interval_metrics(&mut m);
    device_metrics(&mut m, &spans, &before, &after, &phase);
    let per_op = match wl.shape {
        Shape::Fused { k } => k,
        _ => 1,
    };
    harness_metrics(&mut m, &spans, &phase, per_op);
    put(
        &mut m,
        "core.engine_setup_ms",
        median_or_zero(&span_ms(&setup_spans, "core.engine_setup")),
    );
    let spec_rows = phase.outcomes.len() * (net.output_len() - 1);
    work_metrics(&mut m, &phase.stats, spec_rows);
    let (hits, misses) = engine.cache_stats();
    let (hits, misses) = (
        (hits - cache_before.0) as f64,
        (misses - cache_before.1) as f64,
    );
    put(&mut m, "core.cache_hit_share", share(hits, hits + misses));
    put(
        &mut m,
        "core.resident_mb",
        engine.stats().resident_bytes as f64 / 1e6,
    );
    if let Shape::Fused { k } = wl.shape {
        let fused = (engine.stats().fused_batches - fused_before) as f64;
        put(&mut m, "core.fused_share", fused / ops as f64);
        // The first call's queries one at a time on a fresh engine, against
        // the untraced fused call over the same queries.
        let single = {
            let engine = inproc::engine(Device::new(device_config()), &net);
            inproc::run_phase(&engine, &net, wl.shape, &gen.warmup, false);
            inproc::run_phase(&engine, &net, Shape::Single, &gen.queries[..k], false)
        };
        let first_call: Vec<usize> = (0..k).collect();
        failures.expect_equal(
            "one-at-a-time engine",
            &single.outcomes,
            &first_call,
            &phase.outcomes,
        );
        put(
            &mut m,
            "core.fusion_speedup",
            single.wall_s * 1e3 / untraced.latencies_ms[0],
        );
    }
    nn_metrics(&mut m, wl, &net, build_s, &gen, cfg);
    put(
        &mut m,
        "trace.overhead_share",
        prefix.overhead_share(&untraced, &shared, &phase),
    );
    fill_absent(&mut m);
    result(wl, true, &gen, &phase, failures, m)
}

/// Median microseconds of `f` over `items`.
fn codec_us<T, U>(items: &[T], f: impl Fn(&T) -> U) -> f64 {
    let samples: Vec<f64> = items
        .iter()
        .map(|item| timed(|| black_box(f(black_box(item)))).1 * 1e6)
        .collect();
    median_or_zero(&samples)
}

/// `serve.protocol.*`: the run's own frames through the public codec.
fn protocol_metrics(m: &mut Metrics, gen: &Generated, phase: &Phase, outputs: usize) {
    let requests: Vec<Request> = gen
        .queries
        .iter()
        .take(CODEC_FRAMES)
        .map(|q| Request::Verify {
            model: MODEL.to_string(),
            image: q.image.clone(),
            label: q.label,
            eps: q.eps,
        })
        .collect();
    let replies: Vec<Reply> = gen
        .queries
        .iter()
        .zip(&phase.outcomes)
        .take(CODEC_FRAMES)
        .filter_map(|(q, o)| {
            let o = o.as_ref().ok()?;
            let margins = (0..outputs)
                .filter(|&a| a != q.label)
                .zip(&o.margin_bits)
                .map(|(adversary, &bits)| {
                    let lower = f32::from_bits(bits);
                    WireMargin {
                        adversary,
                        lower,
                        proven: lower > 0.0,
                    }
                })
                .collect();
            Some(Reply::Verdict {
                model: MODEL.to_string(),
                verified: o.verified,
                margins,
            })
        })
        .collect();
    let encode =
        |frame: &dyn Fn() -> Result<String, serde_json::Error>| frame().unwrap_or_default();
    let request_lines: Vec<String> = requests
        .iter()
        .map(|r| encode(&|| serde_json::to_string(r)))
        .collect();
    let reply_lines: Vec<String> = replies
        .iter()
        .map(|r| encode(&|| serde_json::to_string(r)))
        .collect();
    let bytes: Vec<f64> = request_lines.iter().map(|l| l.len() as f64).collect();
    put(m, "serve.protocol.request_bytes", median_or_zero(&bytes));
    put(
        m,
        "serve.protocol.encode_request_us",
        codec_us(&requests, serde_json::to_string),
    );
    put(
        m,
        "serve.protocol.decode_request_us",
        codec_us(&request_lines, |l| serde_json::from_str::<Request>(l)),
    );
    put(
        m,
        "serve.protocol.encode_reply_us",
        codec_us(&replies, serde_json::to_string),
    );
    put(
        m,
        "serve.protocol.decode_reply_us",
        codec_us(&reply_lines, |l| serde_json::from_str::<Reply>(l)),
    );
}

fn traced_serve(wl: &Workload, cfg: &Config, conns: usize, window: usize) -> RunResult {
    let ops = wl.scaled_ops(cfg.share);
    let gen = generate(wl, &wl.build_net(), ops, cfg.seed);
    let dir = cfg.out_dir.join("models");
    let prefix = Prefix::of(wl, ops);
    let shared = prefix.indices(prefix.run_len);

    let untraced = {
        let net = wl.build_net();
        let booted = serve::boot::<CpuSimBackend>(&net, &dir, &gen.warmup);
        let phase = serve::run_phase(
            booted.handle.addr(),
            &pick(&gen.queries, &shared),
            conns,
            window,
        );
        booted.handle.shutdown();
        phase
    };

    traced::set_enabled(true);
    let (net, build_s) = timed(|| wl.build_net());
    let booted = serve::boot::<TracedBackend>(&net, &dir, &gen.warmup);
    let addr = booted.handle.addr();
    let registry = booted.handle.registry().clone();
    let device = registry.device().clone();
    let setup_spans = traced::take();
    let before = Counters::read(&device);
    let stats_before = serve::stats(addr);
    let phase = serve::run_phase(addr, &gen.queries, conns, window);
    let after = Counters::read(&device);
    let stats_after = serve::stats(addr);
    let spans = traced::take();

    // Unloaded probes: the same fresh stream over TCP, then (model evicted
    // so its analysis cache starts empty again) straight into the registry.
    let unloaded = serve::unloaded(addr, &gen.probe);
    registry.evict(MODEL);
    serve::inproc_stream(&registry, &gen.warmup);
    let inproc = serve::inproc_stream(&registry, &gen.probe);
    let ping = serve::ping_rtt_us(addr, 200);
    booted.handle.shutdown();
    traced::set_enabled(false);
    let probe_spans = traced::take();

    let mut failures = gate(&net, &gen, &phase.outcomes, cfg);
    gate_wire(&mut failures, wl, &net, &gen, ops, &phase);
    failures.expect_equal(
        "untraced backend",
        &untraced.outcomes,
        &shared,
        &phase.outcomes,
    );
    let probes_agree = unloaded.errors() == 0 && unloaded.outcomes == inproc.outcomes;
    if !probes_agree {
        failures.fail_run("probe verdicts differ between TCP and the registry".to_string());
    }
    write_trace(
        cfg,
        wl,
        &[&setup_spans, &spans, &probe_spans],
        &mut failures,
    );

    let mut m = Metrics::new();
    interval_metrics(&mut m);
    device_metrics(&mut m, &spans, &before, &after, &phase);
    harness_metrics(&mut m, &spans, &phase, 1);
    put(&mut m, "core.engine_setup_ms", 0.0);
    work_metrics(
        &mut m,
        &inproc.stats,
        inproc.outcomes.len() * (net.output_len() - 1),
    );
    match (&stats_before, &stats_after) {
        (Ok(b), Ok(a)) => {
            let (b, a) = (serve::model_row(b), serve::model_row(a));
            let batches = (a.batches - b.batches) as f64;
            let (hits, misses) = (
                (a.cache_hits - b.cache_hits) as f64,
                (a.cache_misses - b.cache_misses) as f64,
            );
            put(&mut m, "core.cache_hit_share", share(hits, hits + misses));
            put(
                &mut m,
                "core.fused_share",
                share((a.fused_batches - b.fused_batches) as f64, batches),
            );
            put(&mut m, "core.resident_mb", a.resident_bytes as f64 / 1e6);
            put(
                &mut m,
                "serve.batcher.mean_batch",
                share((a.batch_items - b.batch_items) as f64, batches),
            );
            put(&mut m, "serve.batcher.max_batch", a.max_batch as f64);
            put(
                &mut m,
                "serve.batcher.fused_share",
                share((a.fused_batches - b.fused_batches) as f64, batches),
            );
            put(
                &mut m,
                "serve.registry.rejected_overload",
                (a.rejected_overload - b.rejected_overload) as f64,
            );
            put(
                &mut m,
                "serve.registry.expired_dropped",
                (a.expired_dropped - b.expired_dropped) as f64,
            );
        }
        (Err(e), _) | (_, Err(e)) => failures.fail_run(format!("stats frame: {e}")),
    }
    nn_metrics(&mut m, wl, &net, build_s, &gen, cfg);
    protocol_metrics(&mut m, &gen, &phase, net.output_len());
    match ping {
        Ok(us) => put(&mut m, "serve.ping_rtt_us", us),
        Err(e) => failures.fail_run(e),
    }
    let loaded_p50 = percentile(&phase.latencies_ms, 0.5);
    let unloaded_p50 = percentile(&unloaded.latencies_ms, 0.5);
    let inproc_p50 = percentile(&inproc.latencies_ms, 0.5);
    put(&mut m, "serve.cold_load_ms", booted.cold_load_ms);
    put(&mut m, "serve.unloaded_latency_ms_p50", unloaded_p50);
    put(&mut m, "serve.queueing_ms_p50", loaded_p50 - unloaded_p50);
    put(&mut m, "serve.inproc_latency_ms_p50", inproc_p50);
    put(&mut m, "serve.wire_overhead_ms", unloaded_p50 - inproc_p50);
    put(
        &mut m,
        "serve.latency_ms_p99",
        percentile(&phase.latencies_ms, 0.99),
    );
    put(
        &mut m,
        "trace.overhead_share",
        prefix.overhead_share(&untraced, &shared, &phase),
    );
    fill_absent(&mut m);
    result(wl, true, &gen, &phase, failures, m)
}

pub fn traced(wl: &Workload, cfg: &Config) -> RunResult {
    match wl.shape {
        Shape::Serve { conns, window } => traced_serve(wl, cfg, conns, window),
        _ => traced_inproc(wl, cfg),
    }
}
