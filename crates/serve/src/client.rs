//! A small blocking client for the daemon's line protocol, used by the
//! tests, the smoke checker and the load generator — and a reference for
//! writing clients in any language: connect, write one JSON line, read one
//! JSON line.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Deserialize;

use crate::protocol::{
    frame_with_id, reply_id, CompleteStatus, ErrorCode, ModelInfo, Reply, Request, StatsReply,
    WireMargin,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (the connection is dead).
    Io(std::io::Error),
    /// The server sent something that is not a reply frame.
    Protocol(String),
    /// The server answered with a typed error reply.
    Server {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A verdict as the client sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// The model that served the query.
    pub model: String,
    /// `true` when every margin was proven positive.
    pub verified: bool,
    /// Certified margins (bit-exact engine `f32`s).
    pub margins: Vec<WireMargin>,
}

/// A complete-mode outcome as the client sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct CompleteOutcome {
    /// The model that served the query.
    pub model: String,
    /// Refinement outcome (`Proven` / `Falsified` / `Unknown`).
    pub status: CompleteStatus,
    /// Bisections the refinement spent.
    pub splits: u64,
    /// Sub-boxes still undecided when the budget ran out.
    pub frontier_remaining: u64,
    /// The verified adversarial input, when falsified.
    pub counterexample: Option<Vec<f64>>,
    /// The class that counterexample provably wins, when falsified.
    pub adversary: Option<usize>,
}

/// A blocking connection to a `gpupoly-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Sets (or clears) the socket read timeout for replies.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request and reads one reply (which may be a typed error
    /// frame — that is a *successful* exchange at this level).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] when the exchange
    /// itself fails.
    pub fn exchange(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let line =
            serde_json::to_string(request).map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.write_line(line)?;
        Ok(self.recv_any()?.1)
    }

    /// Sends one raw line verbatim and reads one reply — the tests use
    /// this to deliver deliberately malformed frames.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] when the exchange
    /// itself fails.
    pub fn send_raw(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.write_line(line.to_string())?;
        Ok(self.recv_any()?.1)
    }

    /// Writes one frame, the line and its newline, in one write: two
    /// writes on a `TCP_NODELAY` socket are two syscalls and a one-byte
    /// segment.
    fn write_line(&mut self, mut line: String) -> Result<(), ClientError> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Sends one request *without* waiting for its reply, tagging it with
    /// a multiplexing id so the reply (read later via
    /// [`Client::recv_any`]) can be matched back out of order. Pass
    /// `id: None` for an untagged frame (the server then answers in
    /// order). Many sends may be outstanding at once on one connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] when the send
    /// itself fails.
    pub fn send_request(&mut self, request: &Request, id: Option<u64>) -> Result<(), ClientError> {
        let framed = frame_with_id(request, id);
        let line =
            serde_json::to_string(&framed).map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.write_line(line)
    }

    /// Reads the next reply frame off the connection, whichever request it
    /// answers, together with its echoed id (`None` for replies to
    /// untagged frames). Pipelined requests sent with distinct ids may be
    /// answered in any order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] when the read
    /// itself fails. A typed error *reply* is a successful read.
    pub fn recv_any(&mut self) -> Result<(Option<u64>, Reply), ClientError> {
        let mut reply_line = String::new();
        let n = self.reader.read_line(&mut reply_line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        let value: serde::Value =
            serde_json::from_str(&reply_line).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let reply = Reply::from_value(&value).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok((reply_id(&value), reply))
    }

    fn expect_ok(reply: Reply) -> Result<Reply, ClientError> {
        match reply {
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any failure, including an error reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match Self::expect_ok(self.exchange(&Request::Ping)?)? {
            Reply::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Lists served models.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any failure, including an error reply.
    pub fn models(&mut self) -> Result<Vec<ModelInfo>, ClientError> {
        match Self::expect_ok(self.exchange(&Request::Models)?)? {
            Reply::Models { models } => Ok(models),
            other => Err(ClientError::Protocol(format!(
                "expected models, got {other:?}"
            ))),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any failure, including an error reply.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match Self::expect_ok(self.exchange(&Request::Stats)?)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Certifies one robustness query. A typed error reply becomes
    /// [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any failure, including an error reply.
    pub fn verify(
        &mut self,
        model: &str,
        image: &[f32],
        label: usize,
        eps: f32,
    ) -> Result<Verdict, ClientError> {
        let reply = self.exchange(&Request::Verify {
            model: model.to_string(),
            image: image.to_vec(),
            label,
            eps,
        })?;
        match Self::expect_ok(reply)? {
            Reply::Verdict {
                model,
                verified,
                margins,
            } => Ok(Verdict {
                model,
                verified,
                margins,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected verdict, got {other:?}"
            ))),
        }
    }

    /// Runs one complete-mode query: plain analysis plus budgeted
    /// branch-and-bound refinement of an Unknown verdict. `max_splits`
    /// `None` uses the server default budget; `deadline_ms` bounds the
    /// refinement's wall time.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on any failure, including an error reply.
    pub fn verify_complete(
        &mut self,
        model: &str,
        image: &[f32],
        label: usize,
        eps: f32,
        max_splits: Option<u32>,
        deadline_ms: Option<u64>,
    ) -> Result<CompleteOutcome, ClientError> {
        let reply = self.exchange(&Request::VerifyComplete {
            model: model.to_string(),
            image: image.to_vec(),
            label,
            eps,
            max_splits,
            deadline_ms,
        })?;
        match Self::expect_ok(reply)? {
            Reply::Complete {
                model,
                status,
                splits,
                frontier_remaining,
                counterexample,
                adversary,
            } => Ok(CompleteOutcome {
                model,
                status,
                splits,
                frontier_remaining,
                counterexample,
                adversary,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected complete, got {other:?}"
            ))),
        }
    }
}
