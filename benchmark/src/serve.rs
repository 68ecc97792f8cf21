//! The served workload: an in-process `Server` reached over real loopback
//! TCP, driven closed-loop.
//!
//! Closed loop because the callers of a verification daemon are
//! certification pipelines that wait for their replies: each client thread
//! (one connection) keeps a fixed window of id-tagged frames outstanding and
//! sends the next request only when a reply arrives.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use gpupoly::core::{Query, RobustnessVerdict};
use gpupoly::device::Backend;
use gpupoly::nn::{store, Network};
use gpupoly::serve::protocol::{ModelStatsWire, Reply, Request, StatsReply};
use gpupoly::serve::{
    BatchPolicy, Client, Registry, Server, ServerConfig, ServerHandle, WorkOutput, WorkReply,
};

use crate::inproc::{Outcome, Phase};
use crate::traced::{record_span, span, WORKERS};

/// Name the workload's network is stored and served under.
pub const MODEL: &str = "bench_model";
/// A reply later than this is a failure; keeps a hang inside the run's cap.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

fn request(q: &Query<f32>) -> Request {
    Request::Verify {
        model: MODEL.to_string(),
        image: q.image.clone(),
        label: q.label,
        eps: q.eps,
    }
}

fn outcome(reply: Reply) -> Result<Outcome, String> {
    match reply {
        Reply::Verdict {
            verified, margins, ..
        } => Ok(Outcome {
            verified,
            margin_bits: margins.iter().map(|m| m.lower.to_bits()).collect(),
        }),
        Reply::Error { code, message } => Err(format!("{code}: {message}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(client)
}

/// A booted daemon plus what bringing it up cost.
pub struct Booted<B: Backend> {
    pub handle: ServerHandle<B>,
    pub cold_load_ms: f64,
}

/// Saves `net`, boots a daemon over it, pays the cold load with the first
/// request and sends the warm-up batch pipelined.
///
/// # Panics
///
/// Panics when the daemon cannot be brought up or the warm-up fails: nothing
/// after that could be measured.
pub fn boot<B: Backend + Default>(
    net: &Network<f32>,
    dir: &Path,
    warmup: &[Query<f32>],
) -> Booted<B> {
    store::save(dir, MODEL, net).expect("save the workload's model");

    let mut cfg = ServerConfig::new(dir);
    cfg.policy = BatchPolicy {
        max_batch: 16,
        max_delay: Duration::from_millis(2),
    };
    cfg.workers = Some(WORKERS);
    let handle = Server::<B>::bind("127.0.0.1:0", cfg)
        .expect("bind loopback")
        .spawn();

    let mut client = connect(handle.addr()).expect("connect to the booted daemon");
    let (first, rest) = warmup.split_first().expect("non-empty warm-up");
    let t0 = Instant::now();
    {
        let _s = span("serve.cold_load", 0);
        outcome(
            client
                .exchange(&request(first))
                .expect("cold-load exchange"),
        )
        .expect("cold-load verdict");
    }
    let cold_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (id, q) in rest.iter().enumerate() {
        client
            .send_request(&request(q), Some(id as u64))
            .expect("send warm-up");
    }
    for _ in rest {
        let (_, reply) = client.recv_any().expect("warm-up reply");
        outcome(reply).expect("warm-up verdict");
    }
    Booted {
        handle,
        cold_load_ms,
    }
}

struct Answer {
    latency_ms: f64,
    outcome: Result<Outcome, String>,
}

/// One connection's closed loop: `window` requests outstanding, next request
/// sent on each reply. Request `i` of this connection is traced as request
/// `first_req + i`.
fn drive_conn(
    addr: SocketAddr,
    queries: &[Query<f32>],
    window: usize,
    first_req: u64,
) -> Vec<Answer> {
    let n = queries.len();
    let mut answers: Vec<Option<Answer>> = (0..n).map(|_| None).collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut failure = None;
    match connect(addr) {
        Err(e) => failure = Some(e),
        Ok(mut client) => {
            let mut next = 0;
            let mut outstanding = 0;
            while failure.is_none() && (outstanding > 0 || next < n) {
                while next < n && outstanding < window {
                    sent_at[next] = Some(Instant::now());
                    if let Err(e) = client.send_request(&request(&queries[next]), Some(next as u64))
                    {
                        failure = Some(format!("send: {e}"));
                        break;
                    }
                    next += 1;
                    outstanding += 1;
                }
                if failure.is_some() {
                    break;
                }
                match client.recv_any() {
                    Err(e) => failure = Some(format!("receive: {e}")),
                    Ok((id, reply)) => {
                        let now = Instant::now();
                        let slot = id
                            .map(|id| id as usize)
                            .filter(|&i| i < n && sent_at[i].is_some() && answers[i].is_none());
                        match slot {
                            None => failure = Some(format!("reply with stray id {id:?}")),
                            Some(i) => {
                                let sent = sent_at[i].expect("checked above");
                                record_span("serve.request", first_req + i as u64, sent, now);
                                answers[i] = Some(Answer {
                                    latency_ms: (now - sent).as_secs_f64() * 1e3,
                                    outcome: outcome(reply),
                                });
                                outstanding -= 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // A broken connection fails every request it left unanswered.
    let why = failure.unwrap_or_else(|| "unanswered".to_string());
    answers
        .into_iter()
        .map(|a| {
            a.unwrap_or_else(|| Answer {
                latency_ms: REPLY_TIMEOUT.as_secs_f64() * 1e3,
                outcome: Err(why.clone()),
            })
        })
        .collect()
}

/// The loaded phase: connection `c` sends `queries[c * ops .. (c + 1) * ops]`.
pub fn run_phase(addr: SocketAddr, queries: &[Query<f32>], conns: usize, window: usize) -> Phase {
    let ops = queries.len() / conns;
    let started = Instant::now();
    let per_conn: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let joins: Vec<_> = queries
            .chunks(ops)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || drive_conn(addr, chunk, window, (c * ops) as u64 + 1))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for answer in per_conn.into_iter().flatten() {
        phase.latencies_ms.push(answer.latency_ms);
        phase.outcomes.push(answer.outcome);
    }
    phase
}

/// One connection, one request at a time: latency with no queueing.
pub fn unloaded(addr: SocketAddr, queries: &[Query<f32>]) -> Phase {
    run_phase(addr, queries, 1, 1)
}

/// The same stream handed to the registry directly: no TCP, no framing.
pub fn inproc_stream<B: Backend>(registry: &Registry<B>, queries: &[Query<f32>]) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    for q in queries {
        let t0 = Instant::now();
        let result: Result<RobustnessVerdict<f32>, String> = registry
            .submit(MODEL, q.image.clone(), q.label, q.eps)
            .map_err(|e| format!("{e:?}"))
            .and_then(|rx: Receiver<WorkReply>| {
                rx.recv_timeout(REPLY_TIMEOUT).map_err(|e| e.to_string())
            })
            .and_then(|reply| match reply {
                Ok(WorkOutput::Plain(v)) => Ok(v),
                Ok(other) => Err(format!("unexpected output {other:?}")),
                Err(e) => Err(format!("{e:?}")),
            });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        phase.push(ms, result);
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}

/// Median round trip of `n` pings, in microseconds.
pub fn ping_rtt_us(addr: SocketAddr, n: usize) -> Result<f64, String> {
    let mut client = connect(addr)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&samples))
}

/// The daemon's `stats` frame.
pub fn stats(addr: SocketAddr) -> Result<StatsReply, String> {
    connect(addr)?.stats().map_err(|e| format!("stats: {e}"))
}

/// The workload model's row of a `stats` frame (zeroes before it is loaded).
pub fn model_row(stats: &StatsReply) -> ModelStatsWire {
    stats
        .models
        .iter()
        .find(|m| m.name == MODEL)
        .cloned()
        .unwrap_or_default()
}
