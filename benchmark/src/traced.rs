//! The outside-in trace: a span recorder and a [`Backend`] that records one
//! span around every kernel call.
//!
//! `gpupoly_device::Backend` is pluggable, so per-kernel wall times can be
//! taken without touching the program: [`TracedBackend`] holds the production
//! [`CpuSimBackend`] plus an inner `Device<CpuSimBackend>` with the same
//! worker count and delegates every trait method to it, so the arithmetic
//! (and therefore every margin) is the production backend's. The harness
//! wraps its own calls into `Engine` / `Client` / `Registry` in spans too
//! ([`span`]); a kernel span's parent is the harness span open on the same
//! thread. Spans stay in memory until [`take`].
//!
//! The recorder is process-global because `Server::<B>::bind` builds its
//! devices through `B::default()` and so cannot be handed a recorder.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use gpupoly::device::{
    Backend, CpuSimBackend, Device, DeviceConfig, ExprGeom, GbcShape, ReluRelax,
};
use gpupoly::interval::{Fp, Itv};

/// Worker count of every benchmark device: the host's two cores.
pub const WORKERS: usize = 2;

/// One recorded span. Times are nanoseconds since the first span of the
/// process; `parent == 0` means a root span, `req == 0` no request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// `(span id, request id)` of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Starts (or stops) recording. Spans opened while recording is off cost one
/// atomic load and record nothing.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Records a root span from explicit instants: the closed-loop client keeps
/// several requests open at once on one thread, which scoped guards cannot
/// express.
pub fn record_span(name: &'static str, req: u64, start: Instant, end: Instant) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let span = Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        name,
        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
        end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
        req,
        thread: thread_id(),
    };
    SPANS.lock().expect("span store poisoned").push(span);
}

/// Removes and returns every span recorded so far, in completion order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// An open span; recorded when dropped.
pub struct SpanGuard {
    /// The span so far (`end_ns` and `thread` are filled on drop), or `None`
    /// while recording is off.
    open: Option<Span>,
}

/// Opens a span on the calling thread. `req` tags the request or batch the
/// span belongs to; `0` inherits the enclosing span's tag.
pub fn span(name: &'static str, req: u64) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let (parent, inherited) = open.last().copied().unwrap_or((0, 0));
        let req = if req == 0 { inherited } else { req };
        open.push((id, req));
        (parent, req)
    });
    SpanGuard {
        open: Some(Span {
            id,
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            req,
            thread: 0,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        span.thread = thread_id();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        // A poisoned store means another thread panicked mid-push; losing
        // this span is better than a second panic inside `drop`.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// One JSON object per line, the format of `benchmark/out/trace-*.jsonl`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 112);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"thread\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req, s.thread
        ));
    }
    out
}

/// The production CPU backend with a span around every kernel call.
pub struct TracedBackend {
    backend: CpuSimBackend,
    inner: Device<CpuSimBackend>,
}

impl TracedBackend {
    /// A traced device whose inner production device mirrors `config`
    /// (worker count, tile geometry, capacity), so the kernels run exactly
    /// as they would on `Device::new(config)`.
    pub fn device(config: DeviceConfig) -> Device<TracedBackend> {
        let inner = Device::new(config.clone());
        // The production GEMM allocates its panel scratch on the device it
        // is handed, which here is the inner one. An engine keeps its
        // device's buffer pool active; keep the inner pool active too so the
        // scratch recycles as it does untraced.
        inner.buffer_pool_retain();
        Device::with_backend(
            TracedBackend {
                backend: CpuSimBackend,
                inner,
            },
            config,
        )
    }

    /// The inner production device (it owns the GEMM scratch allocations).
    pub fn inner(&self) -> &Device<CpuSimBackend> {
        &self.inner
    }
}

impl Default for TracedBackend {
    /// What `Server::<TracedBackend>::bind` calls.
    fn default() -> Self {
        let inner = Device::new(DeviceConfig::new().workers(WORKERS));
        inner.buffer_pool_retain();
        TracedBackend {
            backend: CpuSimBackend,
            inner,
        }
    }
}

#[allow(clippy::too_many_arguments)]
impl Backend for TracedBackend {
    fn label(&self) -> &'static str {
        "traced-cpusim"
    }

    fn pooling(&self) -> bool {
        self.backend.pooling()
    }

    fn htod<T: Clone + Send>(&self, src: &[T], dst: &mut [T]) {
        let _s = span("htod", 0);
        self.backend.htod(src, dst);
    }

    fn dtoh<T: Clone + Send>(&self, src: &[T], dst: &mut [T]) {
        let _s = span("dtoh", 0);
        self.backend.dtoh(src, dst);
    }

    fn gemm_itv_f<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let _s = span("gemm_itv_f", 0);
        self.backend.gemm_itv_f(&self.inner, a, b, c, m, k, n);
    }

    fn gemm_itv_f_acc<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let _s = span("gemm_itv_f_acc", 0);
        self.backend.gemm_itv_f_acc(&self.inner, a, b, c, m, k, n);
    }

    fn gemm_f_f<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[F],
        b: &[F],
        c: &mut [F],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let _s = span("gemm_f_f", 0);
        self.backend.gemm_f_f(&self.inner, a, b, c, m, k, n);
    }

    fn exclusive_scan(&self, _device: &Device<Self>, xs: &[u32]) -> (Vec<u32>, u32) {
        let _s = span("exclusive_scan", 0);
        self.backend.exclusive_scan(&self.inner, xs)
    }

    fn compact_indices(&self, _device: &Device<Self>, keep: &[bool]) -> Vec<u32> {
        let _s = span("compact_indices", 0);
        self.backend.compact_indices(&self.inner, keep)
    }

    fn gather_rows<T: Copy + Send + Sync>(
        &self,
        _device: &Device<Self>,
        src: &[T],
        row_len: usize,
        index: &[u32],
        dst: &mut [T],
    ) {
        let _s = span("gather_rows", 0);
        self.backend
            .gather_rows(&self.inner, src, row_len, index, dst);
    }

    fn dtod<T: Clone + Send>(&self, src: &[T], dst: &mut [T]) {
        let _s = span("dtod", 0);
        self.backend.dtod(src, dst);
    }

    fn gbc<F: Fp>(
        &self,
        _device: &Device<Self>,
        src: &[Itv<F>],
        src_geom: &ExprGeom<'_>,
        weight: &[F],
        conv: &GbcShape,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        let _s = span("gbc", 0);
        self.backend.gbc(
            &self.inner,
            src,
            src_geom,
            weight,
            conv,
            dst,
            dst_origins,
            dst_cols,
            dst_ww,
        );
    }

    fn bias_fold<F: Fp>(
        &self,
        _device: &Device<Self>,
        plane: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bias: &[F],
        src_cst: &[Itv<F>],
        out_cst: &mut [Itv<F>],
    ) {
        let _s = span("bias_fold", 0);
        self.backend
            .bias_fold(&self.inner, plane, geom, bias, src_cst, out_cst);
    }

    fn relu_step<F: Fp>(
        &self,
        _device: &Device<Self>,
        plane: &mut [Itv<F>],
        cst: &mut [Itv<F>],
        geom: &ExprGeom<'_>,
        relax_per_seg: &[&[ReluRelax<F>]],
        out_bounds_per_seg: &[&[Itv<F>]],
        upper: bool,
    ) {
        let _s = span("relu_step", 0);
        self.backend.relu_step(
            &self.inner,
            plane,
            cst,
            geom,
            relax_per_seg,
            out_bounds_per_seg,
            upper,
        );
    }

    fn densify<F: Fp>(
        &self,
        _device: &Device<Self>,
        src: &[Itv<F>],
        geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_cols: usize,
    ) {
        let _s = span("densify", 0);
        self.backend.densify(&self.inner, src, geom, dst, dst_cols);
    }

    fn residual_merge<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        a_geom: &ExprGeom<'_>,
        b: &[Itv<F>],
        b_geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        let _s = span("residual_merge", 0);
        self.backend.residual_merge(
            &self.inner,
            a,
            a_geom,
            b,
            b_geom,
            dst,
            dst_origins,
            dst_cols,
            dst_ww,
        );
    }

    fn concretize<F: Fp>(
        &self,
        _device: &Device<Self>,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        let _s = span("concretize", 0);
        self.backend.concretize(
            &self.inner,
            lo,
            hi,
            cst_lo,
            cst_hi,
            geom,
            bounds_per_seg,
            out,
        );
    }
}
