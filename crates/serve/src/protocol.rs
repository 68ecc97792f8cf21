//! The wire protocol: line-delimited JSON frames over TCP.
//!
//! Every request is one JSON object on one line; every request produces
//! exactly one reply object on one line. Malformed frames get an `error`
//! reply with a typed [`ErrorCode`] and the connection stays open — a client
//! can never crash a connection, only earn error replies.
//!
//! A verify frame's `"image"` rides as one base64 string (RFC 4648 §4,
//! padded) of the pixels' little-endian `f32` bytes: the string carries the
//! bits, so the image the engine sees is the client's, bit for bit. That is
//! what [`Request`]'s `Serialize` writes and what [`Client`](crate::Client)
//! sends; 784 pixels make a 4.2 KB string where 784 shortest-round-trip
//! decimals made 15 KB. The decoder picks the form by the value's type: a
//! JSON array of numbers is accepted too, so a hand-written client (or
//! `nc`) can spell the pixels out. A string that is not whole base64 of
//! whole `f32`s — a length that is not a multiple of 4, a byte outside the
//! alphabet, an `=` anywhere but the last one or two places, non-zero pad
//! bits, or a byte count that is not a multiple of 4 — earns `bad_request`.
//! Base64 can carry a NaN or an infinity, which the engine's own check
//! answers with `bad_query`.
//!
//! Every other number rides as a JSON number (f64). Every `f32` the
//! verifier produces round-trips exactly through f64 and
//! shortest-round-trip printing, so a margin read off the wire is
//! bit-identical to the engine's.
//!
//! # Multiplexing
//!
//! A frame may carry an optional `"id"` (a non-negative integer ≤ 2⁵³). A
//! frame *without* an id is answered synchronously, in order — the legacy
//! one-at-a-time contract. A frame *with* an id is dispatched concurrently:
//! the server may interleave replies out of order, and echoes the id back
//! on the reply frame (including error replies, whenever the id could be
//! parsed off the frame) so one connection can keep many verifications in
//! flight. The server bounds the per-connection outstanding window; frames
//! beyond it earn a typed `overloaded` reply carrying their id.
//!
//! # Frames
//!
//! | request                                                | reply |
//! |--------------------------------------------------------|-------|
//! | `{"type":"ping"}`                                      | `{"type":"pong"}` |
//! | `{"type":"models"}`                                    | `{"type":"models","models":[...]}` |
//! | `{"type":"stats"}`                                     | `{"type":"stats","device":{...},"devices":[...],"models":[...]}` |
//! | `{"type":"verify","model":m,"image":b,"label":l,"eps":e}` | `{"type":"verdict",...}` or `{"type":"error",...}` |
//! | `{"type":"verify_complete","model":m,"image":b,"label":l,"eps":e,"max_splits":s?,"deadline_ms":d?}` | `{"type":"complete",...}` or `{"type":"error",...}` |
//! | any of the above + `"id":n`                            | the same reply + `"id":n`, possibly out of order |
//!
//! `b` is the image's base64 string, or a JSON array of its pixels.

use serde::{DeError, Deserialize, Serialize, Value};

/// A client request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List the models the daemon can serve.
    Models,
    /// Queue depths, batch counters, cache hits, memory/pool accounting.
    Stats,
    /// Certify L∞ robustness of `image` for `label` within `eps` on `model`.
    Verify {
        /// Model name (resolved against the daemon's model directory).
        model: String,
        /// Center image. On the wire, the base64 string of its pixels'
        /// little-endian `f32` bytes, or an array of numbers (see the
        /// [module docs](self)).
        image: Vec<f32>,
        /// Claimed label.
        label: usize,
        /// L∞ radius.
        eps: f32,
    },
    /// Complete-mode verification: plain analysis first, then budgeted
    /// branch-and-bound refinement of an Unknown verdict (input-box
    /// bisection). Answers [`Reply::Complete`].
    VerifyComplete {
        /// Model name (resolved against the daemon's model directory).
        model: String,
        /// Center image. On the wire, the base64 string of its pixels'
        /// little-endian `f32` bytes, or an array of numbers (see the
        /// [module docs](self)).
        image: Vec<f32>,
        /// Claimed label.
        label: usize,
        /// L∞ radius.
        eps: f32,
        /// Maximum bisections to spend (`None` = server default of 32).
        max_splits: Option<u32>,
        /// Wall-clock allowance for the refinement in milliseconds
        /// (`None` = splits-only budgeting).
        deadline_ms: Option<u64>,
    },
}

/// A server reply frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Models`].
    Models {
        /// One entry per model file in the daemon's directory.
        models: Vec<ModelInfo>,
    },
    /// Reply to [`Request::Stats`].
    Stats(StatsReply),
    /// Successful [`Request::Verify`].
    Verdict {
        /// The model that served the query.
        model: String,
        /// `true` when every margin was proven positive.
        verified: bool,
        /// Certified margins against every adversary class.
        margins: Vec<WireMargin>,
    },
    /// Successful [`Request::VerifyComplete`].
    Complete {
        /// The model that served the query.
        model: String,
        /// Refinement outcome.
        status: CompleteStatus,
        /// Bisections actually spent.
        splits: u64,
        /// Sub-boxes still undecided when the budget ran out (`0` unless
        /// `status` is `Unknown`).
        frontier_remaining: u64,
        /// The verified adversarial input, when `status` is `Falsified`.
        /// `f64` on the wire: complete-mode verdicts are produced at (or
        /// widened to) full precision server-side.
        counterexample: Option<Vec<f64>>,
        /// The class the counterexample provably wins, when `Falsified`.
        adversary: Option<usize>,
    },
    /// Any failure, with a machine-readable code.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Builds an error reply.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Reply::Error {
            code,
            message: message.into(),
        }
    }
}

/// Outcome class of a [`Reply::Complete`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompleteStatus {
    /// Every sub-box (or the base analysis) certified the property.
    Proven,
    /// A concrete counterexample was found and independently verified.
    Falsified,
    /// The split or wall-clock budget ran out with sub-boxes undecided.
    Unknown,
}

impl CompleteStatus {
    /// The wire spelling of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            CompleteStatus::Proven => "proven",
            CompleteStatus::Falsified => "falsified",
            CompleteStatus::Unknown => "unknown",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "proven" => CompleteStatus::Proven,
            "falsified" => CompleteStatus::Falsified,
            "unknown" => CompleteStatus::Unknown,
            _ => return None,
        })
    }
}

/// One certified margin on the wire (mirrors `gpupoly_core::Margin<f32>`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WireMargin {
    /// The competing class.
    pub adversary: usize,
    /// Certified lower bound on `y_label − y_adversary` (bit-exact f32).
    pub lower: f32,
    /// Whether this margin was proven positive.
    pub proven: bool,
}

/// One row of a [`Reply::Models`] listing.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelInfo {
    /// Model name (file stem in the model directory).
    pub name: String,
    /// Whether a resident engine currently serves this model.
    pub loaded: bool,
    /// Input dimension (flattened).
    pub input_len: usize,
    /// Output dimension (class count).
    pub outputs: usize,
}

/// Device-level counters of a [`Reply::Stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceStatsWire {
    /// Kernel backend label (`cpusim` / `reference` / ...).
    pub backend: String,
    /// Device name (`pool[n]` for the aggregate row of a multi-device pool).
    pub name: String,
    /// Device worker count.
    pub workers: u64,
    /// Bytes currently allocated on the device.
    pub memory_in_use: u64,
    /// High-water mark of allocated bytes.
    pub peak_memory: u64,
    /// Configured capacity (absent = unlimited).
    pub capacity: Option<u64>,
    /// Cumulative bytes ever allocated (flat across a drained steady state).
    pub bytes_allocated: u64,
    /// Bytes currently shelved in the buffer pool.
    pub pool_bytes: u64,
    /// Kernel launches issued by the device.
    pub launches: u64,
    /// Scalar-equivalent flops metered by the device's kernels.
    pub flops: u64,
    /// Bytes read + written by the device's kernels.
    pub bytes_moved: u64,
    /// Bytes of model weights currently resident on the device. On a
    /// weight-sharded pool each device reports only its own shard here.
    pub resident_bytes: u64,
    /// High-water mark of resident model-weight bytes on the device.
    pub peak_resident_bytes: u64,
    /// Bytes all-gathered between devices by weight-sharded / hybrid walks
    /// (the `comms` kernel label); `0` on row-sharded or single-device
    /// pools.
    pub comms_bytes: u64,
    /// Remote-layer gathers served from this device's gather cache
    /// (weight-sharded / hybrid pools; `0` otherwise and on frames from
    /// older servers).
    pub gather_hits: u64,
    /// Remote-layer gathers that copied bytes onto this device — the
    /// `comms` traffic, in events (`0` on frames from older servers).
    pub gather_misses: u64,
    /// Gathered layers evicted from this device's cache by the
    /// next-use-distance policy (`0` on frames from older servers).
    pub gather_evictions: u64,
}

/// Per-model counters of a [`Reply::Stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelStatsWire {
    /// Model name.
    pub name: String,
    /// Bytes of this model's weights resident on the device.
    pub resident_bytes: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: u64,
    /// Requests admitted but not yet answered.
    pub in_flight: u64,
    /// Requests answered (successfully or with a per-query error).
    pub completed: u64,
    /// Requests bounced with `overloaded` by the admission queue.
    pub rejected_overload: u64,
    /// `verify_batch` calls issued.
    pub batches: u64,
    /// Total queries across all batches (`batch_items / batches` = mean
    /// coalesced batch size).
    pub batch_items: u64,
    /// Largest coalesced batch so far.
    pub max_batch: u64,
    /// Engine analysis-cache hits.
    pub cache_hits: u64,
    /// Engine analysis-cache misses.
    pub cache_misses: u64,
    /// Batches served by the engine's fused cross-query path.
    pub fused_batches: u64,
    /// Estimated microseconds of admitted-but-unanswered work.
    pub pending_cost_us: u64,
    /// Requests bounced by the cost-aware admission cap (subset of
    /// `rejected_overload`).
    pub rejected_cost: u64,
    /// Measured wall milliseconds per unit of query cost (EWMA; `0` until
    /// the first measured batch).
    pub ewma_ms_per_cost: f64,
    /// Queries resolved by the `f32` fast tier (precision-tiered workers
    /// only; `0` otherwise).
    pub fast_pass_resolved: u64,
    /// Queries escalated to the `f64` tier (precision-tiered workers only).
    pub escalated: u64,
    /// Queued items dropped unverified because their admission deadline
    /// passed before dispatch (each answered with a typed `timeout`).
    pub expired_dropped: u64,
    /// Branch-and-bound bisections spent across all complete-mode queries.
    pub splits: u64,
    /// Largest refinement frontier any single generation held.
    pub frontier_peak: u64,
    /// Complete-mode queries that flipped Unknown → Proven via splitting.
    pub proven_by_split: u64,
    /// Complete-mode queries refuted by a verified concrete counterexample.
    pub cex_found: u64,
}

/// Body of a [`Reply::Stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Pool-aggregate device counters (sums across every device; equals the
    /// single device's counters on a 1-device pool). Launch/FLOP/byte meters
    /// here cover the *whole* pool, not just device 0.
    pub device: DeviceStatsWire,
    /// Per-device breakdown, one entry per pool device in index order.
    pub devices: Vec<DeviceStatsWire>,
    /// One entry per *loaded* model.
    pub models: Vec<ModelStatsWire>,
}

/// Machine-readable error classes. Every failure path of the daemon maps to
/// exactly one of these; clients can branch on the code without parsing
/// messages.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    ParseError,
    /// Valid JSON, but not a well-formed request.
    BadRequest,
    /// The named model does not exist in the model directory.
    UnknownModel,
    /// The model file exists but could not be loaded/prepared.
    ModelLoadFailed,
    /// The verifier rejected the query (wrong dimension, bad label, ...).
    BadQuery,
    /// Admission queue full or device memory budget exhausted; retry later.
    Overloaded,
    /// The device ran out of memory even after chunking.
    DeviceOom,
    /// The request exceeded the server's reply deadline.
    Timeout,
    /// A server-side invariant broke; the connection survives.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownModel => "unknown_model",
            ErrorCode::ModelLoadFailed => "model_load_failed",
            ErrorCode::BadQuery => "bad_query",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeviceOom => "device_oom",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "parse_error" => ErrorCode::ParseError,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_model" => ErrorCode::UnknownModel,
            "model_load_failed" => ErrorCode::ModelLoadFailed,
            "bad_query" => ErrorCode::BadQuery,
            "overloaded" => ErrorCode::Overloaded,
            "device_oom" => ErrorCode::DeviceOom,
            "timeout" => ErrorCode::Timeout,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// serde impls (hand-written over the shim's value model)

/// Reads a non-negative integer field (rejecting fractions and negatives,
/// which `as usize` casts would silently mangle).
fn as_index(v: &Value) -> Result<usize, DeError> {
    let x = v.as_f64()?;
    if x < 0.0 || x.fract() != 0.0 || x > 9.0e15 {
        return Err(DeError(format!("expected a non-negative integer, got {x}")));
    }
    Ok(x as usize)
}

/// Reads an optional field: absent and JSON `null` both mean `None`.
fn opt_field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v.field(name) {
        Ok(Value::Null) | Err(_) => None,
        Ok(x) => Some(x),
    }
}

/// Extracts the optional multiplexing `"id"` off a raw frame value.
///
/// `Ok(None)` for id-less frames (the synchronous in-order path),
/// `Ok(Some(id))` for multiplexed frames, `Err` when an `id` field is
/// present but is not a non-negative integer — such frames are answered
/// with a `bad_request` error that necessarily carries no id.
pub fn frame_id(v: &Value) -> Result<Option<u64>, DeError> {
    match opt_field(v, "id") {
        None => Ok(None),
        Some(n) => Ok(Some(as_index(n)? as u64)),
    }
}

/// Serializes a frame (request or reply), attaching `id` when present.
/// This is the only place frames acquire their id: the [`Request`] and
/// [`Reply`] types themselves stay id-agnostic.
pub fn frame_with_id(frame: &impl Serialize, id: Option<u64>) -> Value {
    let mut v = frame.to_value();
    if let (Some(id), Value::Obj(fields)) = (id, &mut v) {
        fields.push(("id".to_string(), Value::Num(id as f64)));
    }
    v
}

/// Reads the echoed id off a reply frame (client side).
pub fn reply_id(v: &Value) -> Option<u64> {
    frame_id(v).ok().flatten()
}

/// The base64 alphabet of RFC 4648 §4.
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// [`BASE64_VALUE`]'s mark for a byte outside the alphabet.
const NOT_BASE64: u8 = 0xff;

/// Each byte's 6-bit value in [`BASE64`], or [`NOT_BASE64`].
const BASE64_VALUE: [u8; 256] = {
    let mut table = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The wire form of an image: padded base64 of its pixels' LE bytes.
fn encode_image(image: &[f32]) -> String {
    let mut bytes = Vec::with_capacity(4 * image.len());
    for x in image {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let sextet = |bits: u32, shift: u32| BASE64[(bits >> shift) as usize & 63];
    let groups = bytes.chunks_exact(3);
    let rest = groups.remainder();
    for g in groups {
        let bits = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        out.extend([18, 12, 6, 0].map(|shift| sextet(bits, shift)));
    }
    if let [first, more @ ..] = rest {
        // One or two bytes left: two or three characters, then `=`s.
        let bits = u32::from(*first) << 16 | u32::from(more.first().copied().unwrap_or(0)) << 8;
        let quad = [18, 12, 6].map(|shift| sextet(bits, shift));
        out.extend_from_slice(&quad[..=rest.len()]);
        out.extend_from_slice(&b"=="[rest.len() - 1..]);
    }
    String::from_utf8(out).expect("base64 is ASCII")
}

/// The 24 bits of four base64 characters; `at` is the first one's offset,
/// for the error.
fn decode_quad(quad: &[u8], at: usize) -> Result<u32, DeError> {
    let mut bits = 0;
    for (k, &c) in quad.iter().enumerate() {
        let value = BASE64_VALUE[usize::from(c)];
        if value == NOT_BASE64 {
            return Err(DeError(if c == b'=' {
                format!("image: misplaced `=` at byte {}", at + k)
            } else {
                format!("image: byte {} (0x{c:02x}) is not base64", at + k)
            }));
        }
        bits = bits << 6 | u32::from(value);
    }
    Ok(bits)
}

/// One pixel from its four little-endian bytes.
fn pixel(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decodes an image's base64 string straight into its pixels, four groups
/// of four characters (twelve bytes, three pixels) at a time.
fn decode_image(text: &str) -> Result<Vec<f32>, DeError> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(DeError(format!(
            "image: {} base64 characters, not a multiple of 4",
            text.len()
        )));
    }
    let pad = text
        .iter()
        .rev()
        .take(2)
        .take_while(|&&c| c == b'=')
        .count();
    let len = text.len() / 4 * 3 - pad;
    if !len.is_multiple_of(4) {
        return Err(DeError(format!(
            "image: {len} bytes, not a whole number of f32s"
        )));
    }
    let mut image = Vec::with_capacity(len / 4);
    let mut bytes = [0u8; 12];
    let quads = text.len() / 4;
    for (q, quad) in text.chunks_exact(4).enumerate() {
        let last = q + 1 == quads;
        let mut quad = [quad[0], quad[1], quad[2], quad[3]];
        if last {
            quad[4 - pad..].fill(b'A');
        }
        let bits = decode_quad(&quad, 4 * q)?;
        if last && bits & ((1 << (8 * pad)) - 1) != 0 {
            return Err(DeError("image: non-zero base64 pad bits".into()));
        }
        let k = q % 4;
        bytes[3 * k..3 * k + 3].copy_from_slice(&bits.to_be_bytes()[1..]);
        if k == 3 || last {
            // Whole pixels: twelve bytes, or the rest of `len`, which is
            // a multiple of 4.
            let filled = 3 * (k + 1) - if last { pad } else { 0 };
            image.extend(bytes[..filled].chunks_exact(4).map(pixel));
        }
    }
    Ok(image)
}

/// Reads a frame's `"image"`: a base64 string, or an array of numbers.
fn image_from_value(v: &Value) -> Result<Vec<f32>, DeError> {
    match v {
        Value::Str(text) => decode_image(text),
        other => Vec::from_value(other),
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Ping => Value::obj([("type", Value::Str("ping".into()))]),
            Request::Models => Value::obj([("type", Value::Str("models".into()))]),
            Request::Stats => Value::obj([("type", Value::Str("stats".into()))]),
            Request::Verify {
                model,
                image,
                label,
                eps,
            } => Value::obj([
                ("type", Value::Str("verify".into())),
                ("model", Value::Str(model.clone())),
                ("image", Value::Str(encode_image(image))),
                ("label", Value::Num(*label as f64)),
                ("eps", Value::Num(f64::from(*eps))),
            ]),
            Request::VerifyComplete {
                model,
                image,
                label,
                eps,
                max_splits,
                deadline_ms,
            } => Value::obj([
                ("type", Value::Str("verify_complete".into())),
                ("model", Value::Str(model.clone())),
                ("image", Value::Str(encode_image(image))),
                ("label", Value::Num(*label as f64)),
                ("eps", Value::Num(f64::from(*eps))),
                (
                    "max_splits",
                    match max_splits {
                        Some(n) => Value::Num(f64::from(*n)),
                        None => Value::Null,
                    },
                ),
                (
                    "deadline_ms",
                    match deadline_ms {
                        Some(ms) => Value::Num(*ms as f64),
                        None => Value::Null,
                    },
                ),
            ]),
        }
    }
}

impl<'de> Deserialize<'de> for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.field("type")?.as_str()? {
            "ping" => Ok(Request::Ping),
            "models" => Ok(Request::Models),
            "stats" => Ok(Request::Stats),
            "verify" => Ok(Request::Verify {
                model: v.field("model")?.as_str()?.to_string(),
                image: image_from_value(v.field("image")?)?,
                label: as_index(v.field("label")?)?,
                eps: f32::from_value(v.field("eps")?)?,
            }),
            "verify_complete" => Ok(Request::VerifyComplete {
                model: v.field("model")?.as_str()?.to_string(),
                image: image_from_value(v.field("image")?)?,
                label: as_index(v.field("label")?)?,
                eps: f32::from_value(v.field("eps")?)?,
                max_splits: match opt_field(v, "max_splits") {
                    Some(n) => Some(u32::try_from(as_index(n)?).map_err(|_| {
                        DeError("max_splits exceeds the 32-bit split budget".into())
                    })?),
                    None => None,
                },
                deadline_ms: match opt_field(v, "deadline_ms") {
                    Some(ms) => Some(as_index(ms)? as u64),
                    None => None,
                },
            }),
            other => Err(DeError(format!("unknown request type `{other}`"))),
        }
    }
}

impl Serialize for WireMargin {
    fn to_value(&self) -> Value {
        Value::obj([
            ("adversary", Value::Num(self.adversary as f64)),
            ("lower", Value::Num(f64::from(self.lower))),
            ("proven", Value::Bool(self.proven)),
        ])
    }
}

impl<'de> Deserialize<'de> for WireMargin {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(WireMargin {
            adversary: as_index(v.field("adversary")?)?,
            lower: f32::from_value(v.field("lower")?)?,
            proven: bool::from_value(v.field("proven")?)?,
        })
    }
}

impl Serialize for ModelInfo {
    fn to_value(&self) -> Value {
        Value::obj([
            ("name", Value::Str(self.name.clone())),
            ("loaded", Value::Bool(self.loaded)),
            ("input_len", Value::Num(self.input_len as f64)),
            ("outputs", Value::Num(self.outputs as f64)),
        ])
    }
}

impl<'de> Deserialize<'de> for ModelInfo {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(ModelInfo {
            name: v.field("name")?.as_str()?.to_string(),
            loaded: bool::from_value(v.field("loaded")?)?,
            input_len: as_index(v.field("input_len")?)?,
            outputs: as_index(v.field("outputs")?)?,
        })
    }
}

impl Serialize for DeviceStatsWire {
    fn to_value(&self) -> Value {
        Value::obj([
            ("backend", Value::Str(self.backend.clone())),
            ("name", Value::Str(self.name.clone())),
            ("workers", Value::Num(self.workers as f64)),
            ("memory_in_use", Value::Num(self.memory_in_use as f64)),
            ("peak_memory", Value::Num(self.peak_memory as f64)),
            (
                "capacity",
                match self.capacity {
                    Some(c) => Value::Num(c as f64),
                    None => Value::Null,
                },
            ),
            ("bytes_allocated", Value::Num(self.bytes_allocated as f64)),
            ("pool_bytes", Value::Num(self.pool_bytes as f64)),
            ("launches", Value::Num(self.launches as f64)),
            ("flops", Value::Num(self.flops as f64)),
            ("bytes_moved", Value::Num(self.bytes_moved as f64)),
            ("resident_bytes", Value::Num(self.resident_bytes as f64)),
            (
                "peak_resident_bytes",
                Value::Num(self.peak_resident_bytes as f64),
            ),
            ("comms_bytes", Value::Num(self.comms_bytes as f64)),
            ("gather_hits", Value::Num(self.gather_hits as f64)),
            ("gather_misses", Value::Num(self.gather_misses as f64)),
            ("gather_evictions", Value::Num(self.gather_evictions as f64)),
        ])
    }
}

impl<'de> Deserialize<'de> for DeviceStatsWire {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(DeviceStatsWire {
            backend: v.field("backend")?.as_str()?.to_string(),
            // Absent on pre-pool frames: old daemons named no devices.
            name: match opt_field(v, "name") {
                Some(n) => n.as_str()?.to_string(),
                None => String::new(),
            },
            workers: as_index(v.field("workers")?)? as u64,
            memory_in_use: as_index(v.field("memory_in_use")?)? as u64,
            peak_memory: as_index(v.field("peak_memory")?)? as u64,
            capacity: match v.field("capacity")? {
                Value::Null => None,
                num => Some(as_index(num)? as u64),
            },
            bytes_allocated: as_index(v.field("bytes_allocated")?)? as u64,
            pool_bytes: as_index(v.field("pool_bytes")?)? as u64,
            launches: as_index(v.field("launches")?)? as u64,
            flops: as_index(v.field("flops")?)? as u64,
            bytes_moved: as_index(v.field("bytes_moved")?)? as u64,
            // Absent on pre-weight-sharding frames: default to zero.
            resident_bytes: match opt_field(v, "resident_bytes") {
                Some(n) => as_index(n)? as u64,
                None => 0,
            },
            peak_resident_bytes: match opt_field(v, "peak_resident_bytes") {
                Some(n) => as_index(n)? as u64,
                None => 0,
            },
            comms_bytes: match opt_field(v, "comms_bytes") {
                Some(n) => as_index(n)? as u64,
                None => 0,
            },
            // Absent on pre-hybrid frames: default to zero.
            gather_hits: match opt_field(v, "gather_hits") {
                Some(n) => as_index(n)? as u64,
                None => 0,
            },
            gather_misses: match opt_field(v, "gather_misses") {
                Some(n) => as_index(n)? as u64,
                None => 0,
            },
            gather_evictions: match opt_field(v, "gather_evictions") {
                Some(n) => as_index(n)? as u64,
                None => 0,
            },
        })
    }
}

impl Serialize for ModelStatsWire {
    fn to_value(&self) -> Value {
        Value::obj([
            ("name", Value::Str(self.name.clone())),
            ("resident_bytes", Value::Num(self.resident_bytes as f64)),
            ("queue_depth", Value::Num(self.queue_depth as f64)),
            ("in_flight", Value::Num(self.in_flight as f64)),
            ("completed", Value::Num(self.completed as f64)),
            (
                "rejected_overload",
                Value::Num(self.rejected_overload as f64),
            ),
            ("batches", Value::Num(self.batches as f64)),
            ("batch_items", Value::Num(self.batch_items as f64)),
            ("max_batch", Value::Num(self.max_batch as f64)),
            ("cache_hits", Value::Num(self.cache_hits as f64)),
            ("cache_misses", Value::Num(self.cache_misses as f64)),
            ("fused_batches", Value::Num(self.fused_batches as f64)),
            ("pending_cost_us", Value::Num(self.pending_cost_us as f64)),
            ("rejected_cost", Value::Num(self.rejected_cost as f64)),
            ("ewma_ms_per_cost", Value::Num(self.ewma_ms_per_cost)),
            (
                "fast_pass_resolved",
                Value::Num(self.fast_pass_resolved as f64),
            ),
            ("escalated", Value::Num(self.escalated as f64)),
            ("expired_dropped", Value::Num(self.expired_dropped as f64)),
            ("splits", Value::Num(self.splits as f64)),
            ("frontier_peak", Value::Num(self.frontier_peak as f64)),
            ("proven_by_split", Value::Num(self.proven_by_split as f64)),
            ("cex_found", Value::Num(self.cex_found as f64)),
        ])
    }
}

impl<'de> Deserialize<'de> for ModelStatsWire {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let num = |name: &str| -> Result<u64, DeError> { Ok(as_index(v.field(name)?)? as u64) };
        Ok(ModelStatsWire {
            name: v.field("name")?.as_str()?.to_string(),
            resident_bytes: num("resident_bytes")?,
            queue_depth: num("queue_depth")?,
            in_flight: num("in_flight")?,
            completed: num("completed")?,
            rejected_overload: num("rejected_overload")?,
            batches: num("batches")?,
            batch_items: num("batch_items")?,
            max_batch: num("max_batch")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            fused_batches: num("fused_batches")?,
            pending_cost_us: num("pending_cost_us")?,
            rejected_cost: num("rejected_cost")?,
            ewma_ms_per_cost: v.field("ewma_ms_per_cost")?.as_f64()?,
            fast_pass_resolved: num("fast_pass_resolved")?,
            escalated: num("escalated")?,
            expired_dropped: num("expired_dropped")?,
            splits: num("splits")?,
            frontier_peak: num("frontier_peak")?,
            proven_by_split: num("proven_by_split")?,
            cex_found: num("cex_found")?,
        })
    }
}

impl Serialize for Reply {
    fn to_value(&self) -> Value {
        match self {
            Reply::Pong => Value::obj([("type", Value::Str("pong".into()))]),
            Reply::Models { models } => Value::obj([
                ("type", Value::Str("models".into())),
                ("models", models.to_value()),
            ]),
            Reply::Stats(stats) => Value::obj([
                ("type", Value::Str("stats".into())),
                ("device", stats.device.to_value()),
                ("devices", stats.devices.to_value()),
                ("models", stats.models.to_value()),
            ]),
            Reply::Verdict {
                model,
                verified,
                margins,
            } => Value::obj([
                ("type", Value::Str("verdict".into())),
                ("model", Value::Str(model.clone())),
                ("verified", Value::Bool(*verified)),
                ("margins", margins.to_value()),
            ]),
            Reply::Complete {
                model,
                status,
                splits,
                frontier_remaining,
                counterexample,
                adversary,
            } => Value::obj([
                ("type", Value::Str("complete".into())),
                ("model", Value::Str(model.clone())),
                ("status", Value::Str(status.as_str().into())),
                ("splits", Value::Num(*splits as f64)),
                ("frontier_remaining", Value::Num(*frontier_remaining as f64)),
                (
                    "counterexample",
                    match counterexample {
                        Some(cx) => cx.to_value(),
                        None => Value::Null,
                    },
                ),
                (
                    "adversary",
                    match adversary {
                        Some(a) => Value::Num(*a as f64),
                        None => Value::Null,
                    },
                ),
            ]),
            Reply::Error { code, message } => Value::obj([
                ("type", Value::Str("error".into())),
                ("code", Value::Str(code.as_str().into())),
                ("message", Value::Str(message.clone())),
            ]),
        }
    }
}

impl<'de> Deserialize<'de> for Reply {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.field("type")?.as_str()? {
            "pong" => Ok(Reply::Pong),
            "models" => Ok(Reply::Models {
                models: Vec::from_value(v.field("models")?)?,
            }),
            "stats" => Ok(Reply::Stats(StatsReply {
                device: DeviceStatsWire::from_value(v.field("device")?)?,
                // Absent on pre-pool frames: the aggregate was the only row.
                devices: match opt_field(v, "devices") {
                    Some(d) => Vec::from_value(d)?,
                    None => Vec::new(),
                },
                models: Vec::from_value(v.field("models")?)?,
            })),
            "verdict" => Ok(Reply::Verdict {
                model: v.field("model")?.as_str()?.to_string(),
                verified: bool::from_value(v.field("verified")?)?,
                margins: Vec::from_value(v.field("margins")?)?,
            }),
            "complete" => {
                let status = v.field("status")?.as_str()?;
                Ok(Reply::Complete {
                    model: v.field("model")?.as_str()?.to_string(),
                    status: CompleteStatus::parse(status)
                        .ok_or_else(|| DeError(format!("unknown complete status `{status}`")))?,
                    splits: as_index(v.field("splits")?)? as u64,
                    frontier_remaining: as_index(v.field("frontier_remaining")?)? as u64,
                    counterexample: match opt_field(v, "counterexample") {
                        Some(cx) => Some(Vec::from_value(cx)?),
                        None => None,
                    },
                    adversary: match opt_field(v, "adversary") {
                        Some(a) => Some(as_index(a)?),
                        None => None,
                    },
                })
            }
            "error" => {
                let code = v.field("code")?.as_str()?;
                Ok(Reply::Error {
                    code: ErrorCode::parse(code)
                        .ok_or_else(|| DeError(format!("unknown error code `{code}`")))?,
                    message: v.field("message")?.as_str()?.to_string(),
                })
            }
            other => Err(DeError(format!("unknown reply type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let text = serde_json::to_string(req).unwrap();
        let back: Request = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, req, "{text}");
    }

    fn round_trip_reply(reply: &Reply) {
        let text = serde_json::to_string(reply).unwrap();
        assert!(!text.contains('\n'), "frames must be single lines");
        let back: Reply = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, reply, "{text}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Ping);
        round_trip_request(&Request::Models);
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Verify {
            model: "mnist_6x500".into(),
            image: vec![0.1, 0.25, f32::MIN_POSITIVE, 1.0],
            label: 7,
            eps: 8.0 / 255.0,
        });
        round_trip_request(&Request::VerifyComplete {
            model: "mnist_6x500".into(),
            image: vec![0.1, 0.25, 1.0],
            label: 7,
            eps: 8.0 / 255.0,
            max_splits: Some(64),
            deadline_ms: None,
        });
        round_trip_request(&Request::VerifyComplete {
            model: "m".into(),
            image: vec![0.5],
            label: 0,
            eps: 0.1,
            max_splits: None,
            deadline_ms: Some(2500),
        });
        // Omitted optional budget fields parse as None.
        let sparse: Request = serde_json::from_str(
            r#"{"type":"verify_complete","model":"m","image":[0.5],"label":0,"eps":0.1}"#,
        )
        .unwrap();
        assert_eq!(
            sparse,
            Request::VerifyComplete {
                model: "m".into(),
                image: vec![0.5],
                label: 0,
                eps: 0.1,
                max_splits: None,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(&Reply::Pong);
        round_trip_reply(&Reply::Models {
            models: vec![ModelInfo {
                name: "m".into(),
                loaded: true,
                input_len: 784,
                outputs: 10,
            }],
        });
        round_trip_reply(&Reply::Verdict {
            model: "m".into(),
            verified: false,
            margins: vec![
                WireMargin {
                    adversary: 1,
                    lower: -0.125,
                    proven: false,
                },
                WireMargin {
                    adversary: 2,
                    lower: 1.0e-30,
                    proven: true,
                },
            ],
        });
        round_trip_reply(&Reply::Stats(StatsReply {
            device: DeviceStatsWire {
                backend: "cpusim".into(),
                name: "pool[2]".into(),
                workers: 8,
                memory_in_use: 123,
                peak_memory: 456,
                capacity: None,
                bytes_allocated: 789,
                pool_bytes: 10,
                launches: 41,
                flops: 123_456,
                bytes_moved: 7_890,
                resident_bytes: 2_000,
                peak_resident_bytes: 2_100,
                comms_bytes: 512,
                gather_hits: 30,
                gather_misses: 2,
                gather_evictions: 1,
            },
            devices: vec![
                DeviceStatsWire {
                    backend: "cpusim".into(),
                    name: "d0".into(),
                    workers: 4,
                    memory_in_use: 100,
                    peak_memory: 200,
                    capacity: Some(1 << 20),
                    bytes_allocated: 400,
                    pool_bytes: 5,
                    launches: 21,
                    flops: 61_728,
                    bytes_moved: 3_945,
                    resident_bytes: 1_000,
                    peak_resident_bytes: 1_050,
                    comms_bytes: 512,
                    gather_hits: 18,
                    gather_misses: 2,
                    gather_evictions: 1,
                },
                DeviceStatsWire {
                    backend: "cpusim".into(),
                    name: "d1".into(),
                    workers: 4,
                    memory_in_use: 23,
                    peak_memory: 256,
                    capacity: Some(1 << 20),
                    bytes_allocated: 389,
                    pool_bytes: 5,
                    launches: 20,
                    flops: 61_728,
                    bytes_moved: 3_945,
                    resident_bytes: 1_000,
                    peak_resident_bytes: 1_050,
                    comms_bytes: 0,
                    gather_hits: 12,
                    gather_misses: 0,
                    gather_evictions: 0,
                },
            ],
            models: vec![ModelStatsWire {
                name: "m".into(),
                resident_bytes: 1,
                queue_depth: 2,
                in_flight: 3,
                completed: 4,
                rejected_overload: 5,
                batches: 6,
                batch_items: 7,
                max_batch: 8,
                cache_hits: 9,
                cache_misses: 10,
                fused_batches: 11,
                pending_cost_us: 12,
                rejected_cost: 13,
                ewma_ms_per_cost: 0.25,
                fast_pass_resolved: 14,
                escalated: 15,
                expired_dropped: 16,
                splits: 17,
                frontier_peak: 18,
                proven_by_split: 19,
                cex_found: 20,
            }],
        }));
        round_trip_reply(&Reply::Complete {
            model: "m".into(),
            status: CompleteStatus::Proven,
            splits: 5,
            frontier_remaining: 0,
            counterexample: None,
            adversary: None,
        });
        round_trip_reply(&Reply::Complete {
            model: "m".into(),
            status: CompleteStatus::Falsified,
            splits: 0,
            frontier_remaining: 0,
            counterexample: Some(vec![0.125, 0.75, 1.0e-12]),
            adversary: Some(3),
        });
        round_trip_reply(&Reply::Complete {
            model: "m".into(),
            status: CompleteStatus::Unknown,
            splits: 32,
            frontier_remaining: 33,
            counterexample: None,
            adversary: None,
        });
        round_trip_reply(&Reply::error(ErrorCode::Overloaded, "queue full"));
    }

    #[test]
    fn frame_ids_extract_and_echo() {
        // Requests parse unchanged with an id riding along.
        let v: Value = serde_json::from_str(r#"{"type":"ping","id":42}"#).expect("frame parses");
        assert_eq!(frame_id(&v), Ok(Some(42)));
        assert_eq!(Request::from_value(&v), Ok(Request::Ping));
        // Id-less frames are the synchronous path.
        let bare: Value = serde_json::from_str(r#"{"type":"ping"}"#).unwrap();
        assert_eq!(frame_id(&bare), Ok(None));
        // Negative / fractional ids are rejected, not cast.
        for bad in [r#"{"type":"ping","id":-3}"#, r#"{"type":"ping","id":1.5}"#] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(frame_id(&v).is_err(), "{bad}");
        }
        // Replies echo the id and the id survives reserialization.
        let framed = frame_with_id(&Reply::Pong, Some(7));
        let text = serde_json::to_string(&framed).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(reply_id(&back), Some(7));
        assert_eq!(Reply::from_value(&back), Ok(Reply::Pong));
        // No id: the frame is untouched.
        assert_eq!(frame_with_id(&Reply::Pong, None), Reply::Pong.to_value());
    }

    #[test]
    fn stats_tolerate_pre_pool_frames() {
        // A frame from an old single-device daemon: no `name`, no `devices`.
        let text = r#"{"type":"stats","device":{"backend":"cpusim","workers":2,
            "memory_in_use":1,"peak_memory":2,"capacity":null,"bytes_allocated":3,
            "pool_bytes":0,"launches":4,"flops":5,"bytes_moved":6},"models":[]}"#
            .replace('\n', " ");
        let reply: Reply = serde_json::from_str(&text).expect("old frame parses");
        match reply {
            Reply::Stats(s) => {
                assert_eq!(s.device.name, "");
                assert!(s.devices.is_empty());
                // Pre-weight-sharding fields default rather than fail.
                assert_eq!(s.device.resident_bytes, 0);
                assert_eq!(s.device.peak_resident_bytes, 0);
                assert_eq!(s.device.comms_bytes, 0);
                // Pre-hybrid gather-cache fields default rather than fail.
                assert_eq!(s.device.gather_hits, 0);
                assert_eq!(s.device.gather_misses, 0);
                assert_eq!(s.device.gather_evictions, 0);
            }
            other => panic!("wrong reply {other:?}"),
        }
    }

    #[test]
    fn margins_survive_the_wire_bit_exactly() {
        for lower in [0.1f32, -1.5e-7, f32::MAX, f32::MIN_POSITIVE, -0.0] {
            let reply = Reply::Verdict {
                model: "m".into(),
                verified: lower > 0.0,
                margins: vec![WireMargin {
                    adversary: 0,
                    lower,
                    proven: lower > 0.0,
                }],
            };
            let text = serde_json::to_string(&reply).unwrap();
            let back: Reply = serde_json::from_str(&text).unwrap();
            match back {
                Reply::Verdict { margins, .. } => {
                    assert_eq!(margins[0].lower.to_bits(), lower.to_bits(), "{text}");
                }
                other => panic!("wrong reply {other:?}"),
            }
        }
    }

    fn verify_frame(image: &Value) -> String {
        let frame = Value::obj([
            ("type", Value::Str("verify".into())),
            ("model", Value::Str("m".into())),
            ("image", image.clone()),
            ("label", Value::Num(1.0)),
            ("eps", Value::Num(0.01)),
        ]);
        serde_json::to_string(&frame).unwrap()
    }

    fn image_of(text: &str) -> Result<Vec<f32>, DeError> {
        match serde_json::from_str::<Request>(&verify_frame(&Value::Str(text.into()))) {
            Ok(Request::Verify { image, .. }) => Ok(image),
            Ok(other) => panic!("wrong request {other:?}"),
            Err(e) => Err(DeError(e.to_string())),
        }
    }

    #[test]
    fn images_ride_as_base64_of_their_bits() {
        // RFC 4648 §4's alphabet and padding: 1.0f32 is LE bytes 00 00 80 3f.
        assert_eq!(encode_image(&[1.0]), "AACAPw==");
        assert_eq!(encode_image(&[]), "");
        assert_eq!(image_of("AACAPw==").unwrap(), [1.0]);
        assert_eq!(image_of("").unwrap(), Vec::<f32>::new());
        // Every length's padding (0, 1 or 2 `=`), and bits JSON numbers
        // cannot carry, survive exactly.
        let pixels = [
            0.1f32,
            -0.0,
            f32::MIN_POSITIVE / 3.0,
            f32::MAX,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
        ];
        for n in 0..=pixels.len() {
            let image = &pixels[..n];
            let text = encode_image(image);
            assert_eq!(text.len(), (4 * n).div_ceil(3) * 4);
            let back = image_of(&text).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(image), "{text}");
        }
        // A 784-pixel frame is a third of its decimal spelling.
        let image: Vec<f32> = (0..784).map(|i| (i as f32 * 0.618).fract()).collect();
        let request = Request::Verify {
            model: "m".into(),
            image: image.clone(),
            label: 3,
            eps: 0.01,
        };
        let base64 = serde_json::to_string(&request).unwrap();
        let decimal = verify_frame(&image.to_value());
        assert!(
            base64.len() * 3 < decimal.len(),
            "{} vs {}",
            base64.len(),
            decimal.len()
        );
        // The array spelling is still accepted and reads the same pixels.
        let Request::Verify { image: read, .. } = serde_json::from_str(&decimal).unwrap() else {
            panic!("not a verify frame");
        };
        assert_eq!(read, image);
        round_trip_request(&request);
    }

    #[test]
    fn malformed_base64_images_are_typed_errors() {
        for (text, why) in [
            ("AACAPw=", "not a multiple of 4"),
            ("AACAP", "not a multiple of 4"),
            ("AAC*Pw==", "not base64"),
            ("AACAPw==AACAPw==AACAPw==", "misplaced `=`"),
            ("AA=APw==", "misplaced `=`"),
            ("A===AA==", "misplaced `=`"),
            ("====AA==", "misplaced `=`"),
            ("AACAP===", "misplaced `=`"),
            ("AACAA===AACAPw==AACAPw==", "misplaced `=`"),
            ("AACAPx==", "pad bits"),
            ("AACAPw", "not a multiple of 4"),
            ("AACA", "not a whole number of f32s"),
            ("AACAPwA=", "not a whole number of f32s"),
            ("AACAP-==", "not base64"),
            ("AAéPw==", "not base64"),
        ] {
            let err = image_of(text).expect_err(text);
            assert!(err.0.contains(why), "{text}: {}", err.0);
        }
        // Neither a number nor an object is an image.
        for image in [
            Value::Num(1.0),
            Value::Null,
            Value::obj([("a", Value::Num(1.0))]),
        ] {
            assert!(serde_json::from_str::<Request>(&verify_frame(&image)).is_err());
        }
    }

    /// Seeded mutations of valid frames in both encodings — bytes flipped,
    /// inserted and deleted — parse to a request or a typed error, never a
    /// panic.
    #[test]
    fn mutated_frames_parse_or_fail_typed() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let image: Vec<f32> = (0..40).map(|i| i as f32 / 40.0).collect();
        let frames = [
            verify_frame(&Value::Str(encode_image(&image))),
            verify_frame(&image.to_value()),
            serde_json::to_string(&frame_with_id(
                &Request::VerifyComplete {
                    model: "m".into(),
                    image: image.clone(),
                    label: 2,
                    eps: 0.05,
                    max_splits: Some(8),
                    deadline_ms: Some(100),
                },
                Some(9),
            ))
            .unwrap(),
        ];
        let (mut parsed, mut typed) = (0, 0);
        for round in 0..20_000 {
            let mut bytes = frames[round % frames.len()].clone().into_bytes();
            for _ in 0..1 + next() % 4 {
                let at = next() as usize % (bytes.len() + 1);
                let syntax = b"\"=\\[]{}:,-e.0A/+";
                let byte = match next() % 4 {
                    0 => syntax[next() as usize % syntax.len()],
                    _ => next() as u8,
                };
                match next() % 3 {
                    0 if at < bytes.len() => bytes[at] ^= 1 << (next() % 8),
                    1 if at < bytes.len() => drop(bytes.remove(at)),
                    _ => bytes.insert(at, byte),
                }
            }
            // As the server reads a frame: lossy UTF-8, then JSON, then the
            // request.
            let line = String::from_utf8_lossy(&bytes);
            match serde_json::from_str::<Value>(&line) {
                Ok(v) => match Request::from_value(&v) {
                    Ok(_) => parsed += 1,
                    Err(e) => {
                        assert!(!e.0.is_empty());
                        typed += 1;
                    }
                },
                Err(e) => {
                    assert!(!e.to_string().is_empty());
                    typed += 1;
                }
            }
        }
        assert!(parsed > 0 && typed > 0, "{parsed} parsed, {typed} refused");
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(serde_json::from_str::<Request>("{ nope").is_err());
        assert!(serde_json::from_str::<Request>("{\"type\":\"warp\"}").is_err());
        // Negative / fractional labels are rejected, not cast.
        for bad in [
            r#"{"type":"verify","model":"m","image":[0.1],"label":-1,"eps":0.1}"#,
            r#"{"type":"verify","model":"m","image":[0.1],"label":1.5,"eps":0.1}"#,
        ] {
            assert!(serde_json::from_str::<Request>(bad).is_err(), "{bad}");
        }
        // Every error code round-trips its wire spelling.
        for code in [
            ErrorCode::ParseError,
            ErrorCode::BadRequest,
            ErrorCode::UnknownModel,
            ErrorCode::ModelLoadFailed,
            ErrorCode::BadQuery,
            ErrorCode::Overloaded,
            ErrorCode::DeviceOom,
            ErrorCode::Timeout,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
