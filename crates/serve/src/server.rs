//! The TCP serving layer: accept loop, per-connection framing, and the
//! mapping from every failure to a typed protocol error.
//!
//! One thread per connection reads line-delimited JSON frames and answers
//! each with exactly one reply line. Frames carrying an `"id"` are
//! dispatched concurrently and may be answered out of order (the id is
//! echoed back); id-less frames keep the legacy synchronous in-order
//! contract. All request handling is wrapped in `catch_unwind`, and worker
//! replies are awaited with a deadline, so a connection can observe `error`
//! replies but never a panic, a silent drop or an unbounded hang.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gpupoly_core::{CompleteVerdict, Plan, RefineBudget, VerifyConfig, VerifyError};
use gpupoly_device::{Backend, Device, DeviceConfig};
use gpupoly_shard::DevicePool;
use parking_lot::Mutex;
use serde::Value;

use crate::batcher::{BatchPolicy, WorkError, WorkOutput};
use crate::protocol::{
    frame_id, frame_with_id, CompleteStatus, DeviceStatsWire, ErrorCode, Reply, Request,
    StatsReply, WireMargin,
};
use crate::registry::{Registry, RegistryConfig, SubmitError};

/// Daemon configuration (CLI flags map 1:1 onto this).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory of `<name>.json` model files.
    pub model_dir: PathBuf,
    /// Admission batching policy.
    pub policy: BatchPolicy,
    /// Admission-queue capacity per model.
    pub queue_cap: usize,
    /// Cost-aware admission cap: maximum *estimated* wall time of queued
    /// work per model (see `RegistryConfig::queue_cost_cap`); `None`
    /// disables cost weighing, leaving only the count-based bound.
    pub queue_cost_cap: Option<Duration>,
    /// Device-memory budget for resident models (also installed as the
    /// device's capacity so engines chunk/fallback against it).
    pub memory_budget: Option<usize>,
    /// Device worker count (`None` = all host cores).
    pub workers: Option<usize>,
    /// Deadline for answering one request once admitted.
    pub request_timeout: Duration,
    /// Largest accepted request frame in bytes. A connection streaming a
    /// longer line (hostile or broken framing) gets one `parse_error`
    /// reply and is closed — memory per connection stays bounded.
    pub max_frame_len: usize,
    /// Verifier configuration for every engine.
    pub verify: VerifyConfig,
    /// Serve through precision-tiered engines (`f32` fast pass, sound
    /// `f64` escalation). See `RegistryConfig::precision_tier`.
    pub precision_tier: bool,
    /// Number of pool devices to build (`workers` and `memory_budget`
    /// apply per device). With more than one device, models are placed
    /// least-loaded and hot models replicate onto idle devices.
    pub devices: usize,
    /// How every model is placed over the pool (see `RegistryConfig::plan`):
    /// `--tensor-parallel` sets [`Plan::split_rows`] (one worker per model,
    /// its walks dealt over the pool's stream slots, instead of replicating),
    /// `--weight-sharded` sets [`Plan::shard_weights`] (each device holds
    /// ~1/N of the weight bytes, layers all-gathered just in time), both
    /// together serve **hybrid**. Either is mutually exclusive with
    /// `precision_tier`.
    pub plan: Plan,
}

impl ServerConfig {
    /// Defaults for a model directory.
    pub fn new(model_dir: impl Into<PathBuf>) -> Self {
        Self {
            model_dir: model_dir.into(),
            policy: BatchPolicy::default(),
            queue_cap: 128,
            queue_cost_cap: Some(Duration::from_secs(30)),
            memory_budget: None,
            workers: None,
            request_timeout: Duration::from_secs(120),
            max_frame_len: 8 << 20,
            verify: VerifyConfig::default(),
            precision_tier: false,
            devices: 1,
            plan: Plan::default(),
        }
    }
}

/// Per-connection limits, fixed at bind time.
#[derive(Copy, Clone, Debug)]
struct ConnLimits {
    request_timeout: Duration,
    max_frame_len: usize,
}

/// A bound (not yet serving) daemon over backend `B`.
pub struct Server<B: Backend> {
    listener: TcpListener,
    registry: Arc<Registry<B>>,
    limits: ConnLimits,
}

impl<B: Backend + Default> Server<B> {
    /// Binds `addr` (port 0 = ephemeral) and builds the device pool and
    /// registry. Nothing is served until [`Server::run`] or
    /// [`Server::spawn`].
    ///
    /// # Errors
    ///
    /// Any socket error from binding, or `InvalidInput` when a pool `plan`
    /// is combined with `precision_tier` (the tiered engine is
    /// single-device and keeps full weights on one device). The plan's two
    /// choices compose freely (both = hybrid 2D sharding).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Self> {
        if cfg.precision_tier && cfg.plan != Plan::default() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "tensor-parallel / weight-sharded serving and the precision tier are mutually exclusive",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let n = cfg.devices.max(1);
        let devices: Vec<Device<B>> = (0..n)
            .map(|i| {
                let name = if n == 1 {
                    "gpupoly-serve".to_string()
                } else {
                    format!("gpupoly-serve-d{i}")
                };
                let mut dev_cfg = DeviceConfig::new().name(name);
                if let Some(workers) = cfg.workers {
                    dev_cfg = dev_cfg.workers(workers);
                }
                if let Some(budget) = cfg.memory_budget {
                    dev_cfg = dev_cfg.memory_capacity(budget);
                }
                Device::with_backend(B::default(), dev_cfg)
            })
            .collect();
        let registry = Registry::with_pool(
            Arc::new(DevicePool::from_devices(devices)),
            RegistryConfig {
                model_dir: cfg.model_dir,
                policy: cfg.policy,
                queue_cap: cfg.queue_cap,
                queue_cost_cap: cfg.queue_cost_cap,
                request_timeout: cfg.request_timeout,
                memory_budget: cfg.memory_budget,
                verify: cfg.verify,
                precision_tier: cfg.precision_tier,
                plan: cfg.plan,
            },
        );
        Ok(Self {
            listener,
            registry: Arc::new(registry),
            limits: ConnLimits {
                request_timeout: cfg.request_timeout,
                max_frame_len: cfg.max_frame_len.max(1024),
            },
        })
    }
}

impl<B: Backend> Server<B> {
    /// The bound address (resolves port 0).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen for a
    /// bound listener).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The registry behind this server.
    pub fn registry(&self) -> &Arc<Registry<B>> {
        &self.registry
    }

    /// Serves connections on the calling thread until the process exits
    /// (the daemon binary's mode).
    pub fn run(self) {
        let shutdown = Arc::new(AtomicBool::new(false));
        accept_loop(self.listener, self.registry, self.limits, &shutdown);
    }

    /// Serves connections on a background thread; the returned handle
    /// shuts the daemon down cleanly when asked (tests, embedding).
    pub fn spawn(self) -> ServerHandle<B> {
        let addr = self.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = self.registry.clone();
        let listener = self.listener;
        let limits = self.limits;
        let flag = shutdown.clone();
        let accept = std::thread::Builder::new()
            .name("gpupoly-serve-accept".into())
            .spawn(move || accept_loop(listener, registry, limits, &flag))
            .expect("spawn accept thread");
        ServerHandle {
            addr,
            shutdown,
            accept: Some(accept),
            registry: self.registry,
        }
    }
}

fn accept_loop<B: Backend>(
    listener: TcpListener,
    registry: Arc<Registry<B>>,
    limits: ConnLimits,
    shutdown: &AtomicBool,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept errors (EMFILE under connection
                // exhaustion) would otherwise turn this loop into a
                // 100%-CPU spin; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let registry = registry.clone();
        let _ = std::thread::Builder::new()
            .name("gpupoly-serve-conn".into())
            .spawn(move || handle_connection(stream, &registry, limits));
    }
}

/// A handle to a daemon serving in the background.
pub struct ServerHandle<B: Backend> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    registry: Arc<Registry<B>>,
}

impl<B: Backend> ServerHandle<B> {
    /// The address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry behind this daemon.
    pub fn registry(&self) -> &Arc<Registry<B>> {
        &self.registry
    }

    /// Stops accepting, drains every model worker and joins the accept
    /// thread. Existing connections die with their sockets.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.registry.drain();
    }
}

impl<B: Backend> Drop for ServerHandle<B> {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Maximum concurrently-outstanding multiplexed requests per connection.
/// Id-carrying frames beyond this window earn a typed `overloaded` reply
/// (with their id) instead of an unbounded thread pile-up.
const MUX_WINDOW: usize = 64;

fn handle_connection<B: Backend>(stream: TcpStream, registry: &Registry<B>, limits: ConnLimits) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Mutex::new(stream);
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    let outstanding = AtomicUsize::new(0);
    // The scope joins every in-flight multiplexed request before the
    // connection thread exits, so a reply is never written to a socket the
    // loop has already abandoned to another connection's reuse.
    std::thread::scope(|scope| loop {
        let line = match read_frame(&mut reader, &mut buf, limits.max_frame_len) {
            FrameRead::Frame(line) => line,
            FrameRead::TooLong => {
                // The rest of the oversized line was discarded unbuffered;
                // answer with a typed error and keep serving the connection
                // (closing here would race the reply against a TCP reset
                // from the peer's unread bytes).
                let reply = Reply::error(
                    ErrorCode::ParseError,
                    format!("frame exceeds {} bytes", limits.max_frame_len),
                );
                if write_framed(&writer, &reply, None).is_err() {
                    break;
                }
                continue;
            }
            FrameRead::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = match serde_json::from_str(&line) {
            Ok(v) => v,
            Err(e) => {
                let reply = Reply::error(ErrorCode::ParseError, format!("invalid JSON: {e}"));
                if write_framed(&writer, &reply, None).is_err() {
                    break;
                }
                continue;
            }
        };
        let id = match frame_id(&value) {
            Ok(id) => id,
            Err(e) => {
                // The id itself is malformed, so no id can be echoed.
                let reply = Reply::error(ErrorCode::BadRequest, format!("bad frame id: {e}"));
                if write_framed(&writer, &reply, None).is_err() {
                    break;
                }
                continue;
            }
        };
        match id {
            // Id-less frame: the legacy synchronous contract — one reply,
            // in order, before the next frame is read.
            None => {
                let reply = guarded_reply(&value, registry, limits.request_timeout);
                if write_framed(&writer, &reply, None).is_err() {
                    break;
                }
            }
            // Multiplexed frame: dispatch concurrently, echo the id.
            Some(id) => {
                if outstanding.load(Ordering::Acquire) >= MUX_WINDOW {
                    let reply = Reply::error(
                        ErrorCode::Overloaded,
                        format!(
                            "more than {MUX_WINDOW} multiplexed requests outstanding on this connection"
                        ),
                    );
                    if write_framed(&writer, &reply, Some(id)).is_err() {
                        break;
                    }
                    continue;
                }
                outstanding.fetch_add(1, Ordering::AcqRel);
                let (writer, outstanding) = (&writer, &outstanding);
                scope.spawn(move || {
                    let reply = guarded_reply(&value, registry, limits.request_timeout);
                    // A write error here ends only this request; the read
                    // loop observes the dead socket on its own.
                    let _ = write_framed(writer, &reply, Some(id));
                    outstanding.fetch_sub(1, Ordering::AcqRel);
                });
            }
        }
    });
}

/// Computes the reply for one parsed frame, converting panics into typed
/// `internal` errors so a connection never observes a dead socket.
fn guarded_reply<B: Backend>(value: &Value, registry: &Registry<B>, timeout: Duration) -> Reply {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_value(value, registry, timeout)
    }))
    .unwrap_or_else(|_| {
        Reply::error(
            ErrorCode::Internal,
            "request handling panicked; the connection survives",
        )
    })
}

enum FrameRead {
    /// One complete line (newline stripped by the JSON parser's ws rules).
    Frame(String),
    /// The line outran the frame limit; its remainder was discarded
    /// without buffering, so connection memory stays bounded.
    TooLong,
    /// Peer closed (or the socket errored).
    Closed,
}

/// Reads one newline-delimited frame without ever buffering more than
/// `max_len + 1` bytes — the bound that keeps a hostile newline-free
/// stream from growing daemon memory without limit. An over-long line is
/// consumed (and dropped) through the BufReader's fixed-size buffer up to
/// its terminating newline, leaving the stream aligned on the next frame.
fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>, max_len: usize) -> FrameRead {
    buf.clear();
    let mut limited = std::io::Read::take(&mut *reader, max_len as u64 + 1);
    match limited.read_until(b'\n', buf) {
        Ok(0) => FrameRead::Closed,
        Ok(_) if buf.last() != Some(&b'\n') && buf.len() > max_len => {
            // Discard the rest of the line, a buffer at a time.
            loop {
                let (consumed, done) = match reader.fill_buf() {
                    Ok([]) | Err(_) => return FrameRead::Closed,
                    Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                        Some(at) => (at + 1, true),
                        None => (chunk.len(), false),
                    },
                };
                reader.consume(consumed);
                if done {
                    return FrameRead::TooLong;
                }
            }
        }
        Ok(_) => FrameRead::Frame(String::from_utf8_lossy(buf).into_owned()),
        Err(_) => FrameRead::Closed,
    }
}

/// Writes one reply line behind the connection's shared write lock,
/// echoing the request id when present. The lock scope covers the whole
/// line, so concurrent multiplexed replies never interleave bytes.
fn write_framed(writer: &Mutex<TcpStream>, reply: &Reply, id: Option<u64>) -> std::io::Result<()> {
    let framed = frame_with_id(reply, id);
    let text = serde_json::to_string(&framed).map_err(std::io::Error::other)?;
    let mut w = writer.lock();
    w.write_all(text.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn handle_value<B: Backend>(
    value: &Value,
    registry: &Registry<B>,
    request_timeout: Duration,
) -> Reply {
    use serde::Deserialize;
    let request = match Request::from_value(value) {
        Ok(r) => r,
        Err(e) => return Reply::error(ErrorCode::BadRequest, e.to_string()),
    };
    match request {
        Request::Ping => Reply::Pong,
        Request::Models => match registry.list_models() {
            Ok(models) => Reply::Models { models },
            Err(e) => Reply::error(ErrorCode::Internal, e),
        },
        Request::Stats => Reply::Stats(stats_snapshot(registry)),
        Request::Verify {
            model,
            image,
            label,
            eps,
        } => handle_verify(registry, model, image, label, eps, request_timeout),
        Request::VerifyComplete {
            model,
            image,
            label,
            eps,
            max_splits,
            deadline_ms,
        } => {
            let budget = RefineBudget {
                max_splits: max_splits.unwrap_or(RefineBudget::default().max_splits),
                deadline: deadline_ms.map(Duration::from_millis),
                ..RefineBudget::default()
            };
            handle_verify_complete(registry, model, image, label, eps, budget, request_timeout)
        }
    }
}

fn device_wire<B: Backend>(device: &Device<B>) -> DeviceStatsWire {
    DeviceStatsWire {
        backend: device.backend().label().to_string(),
        name: device.name().to_string(),
        workers: device.workers() as u64,
        memory_in_use: device.memory_in_use() as u64,
        peak_memory: device.peak_memory() as u64,
        capacity: device.memory_capacity().map(|c| c as u64),
        bytes_allocated: device.stats().bytes_allocated(),
        pool_bytes: device.buffer_pool_bytes() as u64,
        launches: device.stats().launches(),
        flops: device.stats().flops(),
        bytes_moved: device.stats().bytes_moved(),
        resident_bytes: device.stats().resident_bytes(),
        peak_resident_bytes: device.stats().peak_resident_bytes(),
        comms_bytes: device.stats().kernel_work("comms").bytes_moved,
        // Per-label launch counts of the zero-byte gather-cache records
        // (see `gpupoly_core`'s fsdp module): misses are the `comms`
        // copies themselves.
        gather_hits: device.stats().kernel_work("gather_hit").launches,
        gather_misses: device.stats().kernel_work("comms").launches,
        gather_evictions: device.stats().kernel_work("gather_evict").launches,
    }
}

/// Sums a pool's per-device rows into the aggregate `device` row, so the
/// top-level launch/FLOP/byte meters cover every device — not just device
/// 0, which undercounts as soon as work shards or replicates. `capacity`
/// is the pool total only when every device has a budget; a single-device
/// pool reports that device verbatim.
fn aggregate_device_stats(devices: &[DeviceStatsWire]) -> DeviceStatsWire {
    if devices.len() == 1 {
        return devices[0].clone();
    }
    DeviceStatsWire {
        backend: devices
            .first()
            .map(|d| d.backend.clone())
            .unwrap_or_default(),
        name: format!("pool[{}]", devices.len()),
        workers: devices.iter().map(|d| d.workers).sum(),
        memory_in_use: devices.iter().map(|d| d.memory_in_use).sum(),
        peak_memory: devices.iter().map(|d| d.peak_memory).sum(),
        capacity: devices
            .iter()
            .try_fold(0u64, |acc, d| d.capacity.map(|c| acc + c)),
        bytes_allocated: devices.iter().map(|d| d.bytes_allocated).sum(),
        pool_bytes: devices.iter().map(|d| d.pool_bytes).sum(),
        launches: devices.iter().map(|d| d.launches).sum(),
        flops: devices.iter().map(|d| d.flops).sum(),
        bytes_moved: devices.iter().map(|d| d.bytes_moved).sum(),
        resident_bytes: devices.iter().map(|d| d.resident_bytes).sum(),
        peak_resident_bytes: devices.iter().map(|d| d.peak_resident_bytes).sum(),
        comms_bytes: devices.iter().map(|d| d.comms_bytes).sum(),
        gather_hits: devices.iter().map(|d| d.gather_hits).sum(),
        gather_misses: devices.iter().map(|d| d.gather_misses).sum(),
        gather_evictions: devices.iter().map(|d| d.gather_evictions).sum(),
    }
}

fn stats_snapshot<B: Backend>(registry: &Registry<B>) -> StatsReply {
    let devices: Vec<DeviceStatsWire> = registry.pool().devices().iter().map(device_wire).collect();
    StatsReply {
        device: aggregate_device_stats(&devices),
        devices,
        models: registry.model_stats(),
    }
}

fn submit_error_reply(err: SubmitError) -> Reply {
    match err {
        SubmitError::UnknownModel(msg) => Reply::error(ErrorCode::UnknownModel, msg),
        SubmitError::LoadFailed(msg) => Reply::error(ErrorCode::ModelLoadFailed, msg),
        SubmitError::DeviceOom(msg) => Reply::error(ErrorCode::DeviceOom, msg),
        SubmitError::Overloaded(msg) => Reply::error(ErrorCode::Overloaded, msg),
    }
}

/// Awaits one worker reply, folding every failure into a typed error
/// reply. `Ok` carries the successful output for the caller to shape.
/// (The error side is boxed: `Reply` is a wide enum and this sits on the
/// per-request hot path.)
fn await_output(
    rx: &std::sync::mpsc::Receiver<crate::batcher::WorkReply>,
    request_timeout: Duration,
) -> Result<WorkOutput, Box<Reply>> {
    let error = |code, message: String| Err(Box::new(Reply::error(code, message)));
    match rx.recv_timeout(request_timeout) {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(WorkError::Verify(e))) => {
            let code = match &e {
                VerifyError::BadQuery(_) => ErrorCode::BadQuery,
                VerifyError::Device(_) => ErrorCode::DeviceOom,
                VerifyError::Network(_) => ErrorCode::ModelLoadFailed,
                VerifyError::Internal(_) => ErrorCode::Internal,
            };
            error(code, e.to_string())
        }
        Ok(Err(WorkError::Panicked)) => error(
            ErrorCode::Internal,
            "verification panicked inside the worker; the model stays resident".to_string(),
        ),
        Ok(Err(WorkError::Expired)) => error(
            ErrorCode::Timeout,
            "the request expired in the admission queue before dispatch".to_string(),
        ),
        Err(RecvTimeoutError::Timeout) => error(
            ErrorCode::Timeout,
            format!("no verdict within {request_timeout:?}"),
        ),
        Err(RecvTimeoutError::Disconnected) => error(
            ErrorCode::Internal,
            "model worker dropped the request; retry to reload the model".to_string(),
        ),
    }
}

fn handle_verify<B: Backend>(
    registry: &Registry<B>,
    model: String,
    image: Vec<f32>,
    label: usize,
    eps: f32,
    request_timeout: Duration,
) -> Reply {
    let rx = match registry.submit(&model, image, label, eps) {
        Ok(rx) => rx,
        Err(err) => return submit_error_reply(err),
    };
    match await_output(&rx, request_timeout) {
        Ok(WorkOutput::Plain(verdict)) => Reply::Verdict {
            model,
            verified: verdict.verified,
            margins: verdict
                .margins
                .iter()
                .map(|m| WireMargin {
                    adversary: m.adversary,
                    lower: m.lower,
                    proven: m.proven,
                })
                .collect(),
        },
        Ok(other) => Reply::error(
            ErrorCode::Internal,
            format!("worker answered a plain query with {other:?}"),
        ),
        Err(reply) => *reply,
    }
}

fn handle_verify_complete<B: Backend>(
    registry: &Registry<B>,
    model: String,
    image: Vec<f32>,
    label: usize,
    eps: f32,
    budget: RefineBudget,
    request_timeout: Duration,
) -> Reply {
    let rx = match registry.submit_complete(&model, image, label, eps, budget) {
        Ok(rx) => rx,
        Err(err) => return submit_error_reply(err),
    };
    match await_output(&rx, request_timeout) {
        Ok(WorkOutput::Complete(verdict)) => match verdict {
            CompleteVerdict::Proven { splits, .. } => Reply::Complete {
                model,
                status: CompleteStatus::Proven,
                splits,
                frontier_remaining: 0,
                counterexample: None,
                adversary: None,
            },
            CompleteVerdict::Falsified {
                counterexample,
                adversary,
                splits,
            } => Reply::Complete {
                model,
                status: CompleteStatus::Falsified,
                splits,
                frontier_remaining: 0,
                counterexample: Some(counterexample),
                adversary: Some(adversary),
            },
            CompleteVerdict::Unknown {
                splits_exhausted,
                frontier_remaining,
                ..
            } => Reply::Complete {
                model,
                status: CompleteStatus::Unknown,
                splits: splits_exhausted,
                frontier_remaining: frontier_remaining as u64,
                counterexample: None,
                adversary: None,
            },
        },
        Ok(other) => Reply::error(
            ErrorCode::Internal,
            format!("worker answered a complete-mode query with {other:?}"),
        ),
        Err(reply) => *reply,
    }
}
