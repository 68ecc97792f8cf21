//! The `gpupoly-serve` daemon binary.
//!
//! ```text
//! gpupoly-serve serve --models DIR [--addr 127.0.0.1] [--port 7411]
//!                     [--max-batch N] [--max-delay-ms MS] [--queue-cap N]
//!                     [--queue-cost-ms MS] [--memory-budget BYTES]
//!                     [--workers N] [--request-timeout-ms MS]
//!                     [--devices N] [--tensor-parallel] [--weight-sharded]
//! gpupoly-serve init-zoo DIR [--scale S] [--seed N]
//! gpupoly-serve smoke ADDR [--ping-only]
//! ```
//!
//! `--weight-sharded` and `--tensor-parallel` compose: passing both with
//! `--devices N` (N > 1) serves each model with hybrid 2D sharding —
//! weights partitioned across devices and every device walking its share of
//! every row list over the gathered layers.
//!
//! The kernel backend is selected with `GPUPOLY_BACKEND=cpusim|reference`
//! (default `cpusim`), mirroring the test suite's backend matrix.

use std::process::ExitCode;
use std::time::Duration;

use gpupoly_device::{CpuSimBackend, ReferenceBackend};
use gpupoly_nn::{store, zoo};
use gpupoly_serve::{BatchPolicy, Client, ClientError, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("init-zoo") => cmd_init_zoo(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gpupoly-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gpupoly-serve — batch-admission verification daemon over resident engines

USAGE:
  gpupoly-serve serve --models DIR [--addr A] [--port P] [--max-batch N]
                      [--max-delay-ms MS] [--queue-cap N] [--queue-cost-ms MS]
                      [--memory-budget BYTES] [--workers N]
                      [--request-timeout-ms MS] [--max-frame-bytes N]
                      [--precision-tier] [--devices N] [--tensor-parallel]
                      [--weight-sharded]
  gpupoly-serve init-zoo DIR [--scale S] [--seed N]
  gpupoly-serve smoke ADDR [--ping-only]

`--weight-sharded --tensor-parallel` together select hybrid 2D sharding.

ENVIRONMENT:
  GPUPOLY_BACKEND   kernel backend: cpusim (default) | reference
";

/// Pulls `--flag value` out of an argument list; remaining args stay put.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn new(args: &[String]) -> Self {
        Self {
            args: args.to_vec(),
        }
    }

    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.args.len() => {
                self.args.remove(i);
                Ok(Some(self.args.remove(i)))
            }
            Some(_) => Err(format!("flag {flag} needs a value")),
        }
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("flag {flag}: cannot parse {raw:?}")),
        }
    }

    fn take_bool(&mut self, flag: &str) -> bool {
        match self.args.iter().position(|a| a == flag) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<Vec<String>, String> {
        if let Some(stray) = self.args.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown flag {stray}"));
        }
        Ok(self.args)
    }
}

fn backend_name() -> Result<&'static str, String> {
    match std::env::var("GPUPOLY_BACKEND").as_deref() {
        Ok("reference") => Ok("reference"),
        Ok("cpusim") | Ok("") | Err(_) => Ok("cpusim"),
        Ok(other) => Err(format!(
            "unknown GPUPOLY_BACKEND {other:?} (use cpusim|reference)"
        )),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::new(args);
    let models = flags
        .take("--models")?
        .ok_or("serve requires --models DIR")?;
    let addr = flags.take("--addr")?.unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = flags.take_parsed("--port")?.unwrap_or(7411);
    let mut cfg = ServerConfig::new(&models);
    let mut policy = BatchPolicy::default();
    if let Some(n) = flags.take_parsed::<usize>("--max-batch")? {
        policy.max_batch = n.max(1);
    }
    if let Some(ms) = flags.take_parsed::<u64>("--max-delay-ms")? {
        policy.max_delay = Duration::from_millis(ms);
    }
    cfg.policy = policy;
    if let Some(n) = flags.take_parsed("--queue-cap")? {
        cfg.queue_cap = n;
    }
    if let Some(ms) = flags.take_parsed::<u64>("--queue-cost-ms")? {
        // 0 disables cost weighing; the count cap then governs alone.
        cfg.queue_cost_cap = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(b) = flags.take_parsed("--memory-budget")? {
        cfg.memory_budget = Some(b);
    }
    if let Some(w) = flags.take_parsed("--workers")? {
        cfg.workers = Some(w);
    }
    if let Some(ms) = flags.take_parsed::<u64>("--request-timeout-ms")? {
        cfg.request_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = flags.take_parsed("--max-frame-bytes")? {
        cfg.max_frame_len = n;
    }
    // f32 fast pass with sound f64 escalation; ~3× resident bytes/model.
    cfg.precision_tier = flags.take_bool("--precision-tier");
    // Pool size: >1 enables least-loaded placement and hot-model
    // replication (or, with --tensor-parallel, row-sharded walks).
    if let Some(n) = flags.take_parsed::<usize>("--devices")? {
        cfg.devices = n.max(1);
    }
    cfg.plan.split_rows = flags.take_bool("--tensor-parallel");
    // FSDP-style: each device holds ~1/N of every model's weight bytes,
    // layer shards are all-gathered just in time during backsubstitution.
    // Combined with --tensor-parallel this becomes hybrid 2D sharding:
    // every device walks its share of every row list over the gathered
    // layers.
    // Either refuses --precision-tier (checked at bind).
    cfg.plan.shard_weights = flags.take_bool("--weight-sharded");
    let rest = flags.finish()?;
    if !rest.is_empty() {
        return Err(format!("unexpected arguments {rest:?}"));
    }
    if !std::path::Path::new(&models).is_dir() {
        return Err(format!("--models {models}: not a directory"));
    }

    let backend = backend_name()?;
    let bind = format!("{addr}:{port}");
    match backend {
        "reference" => {
            let server = Server::<ReferenceBackend>::bind(&bind, cfg).map_err(|e| e.to_string())?;
            announce(server.local_addr(), backend, &models);
            server.run();
        }
        _ => {
            let server = Server::<CpuSimBackend>::bind(&bind, cfg).map_err(|e| e.to_string())?;
            announce(server.local_addr(), backend, &models);
            server.run();
        }
    }
    Ok(())
}

fn announce(addr: std::net::SocketAddr, backend: &str, models: &str) {
    // Scripts (and the CI smoke leg) key on this exact line.
    println!("gpupoly-serve listening on {addr} backend={backend} models={models}");
}

fn cmd_init_zoo(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::new(args);
    let scale: f64 = flags.take_parsed("--scale")?.unwrap_or(0.05);
    let seed: u64 = flags.take_parsed("--seed")?.unwrap_or(7);
    let rest = flags.finish()?;
    let [dir] = rest.as_slice() else {
        return Err("init-zoo requires exactly one DIR argument".into());
    };
    // Small members of the paper's Table-1 families: one fully-connected,
    // one convolutional — enough for a multi-model smoke without making CI
    // wait on a full-scale build.
    let picks = [
        ("mnist_6x500", zoo::ArchId::Fc6x500, zoo::Dataset::MnistLike),
        (
            "mnist_convbig",
            zoo::ArchId::ConvBig,
            zoo::Dataset::MnistLike,
        ),
    ];
    for (i, (name, arch, dataset)) in picks.iter().enumerate() {
        let net = zoo::build_arch(*arch, *dataset, scale, seed + i as u64)
            .map_err(|e| format!("build {name}: {e}"))?;
        store::save(dir, name, &net).map_err(|e| format!("save {name}: {e}"))?;
        println!(
            "wrote {dir}/{name}.json ({} neurons, {} layers, input {})",
            net.neuron_count(),
            net.layer_count(),
            net.input_shape().len(),
        );
    }
    Ok(())
}

fn cmd_smoke(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::new(args);
    let ping_only = flags.take_bool("--ping-only");
    let rest = flags.finish()?;
    let [addr] = rest.as_slice() else {
        return Err("smoke requires exactly one ADDR argument".into());
    };
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    if ping_only {
        println!("smoke: ping ok");
        return Ok(());
    }

    // A malformed frame must earn an error reply on a *surviving*
    // connection.
    match client.send_raw("{ this is not json") {
        Ok(gpupoly_serve::protocol::Reply::Error { .. }) => {}
        other => {
            return Err(format!(
                "malformed frame: expected error reply, got {other:?}"
            ))
        }
    }
    client
        .ping()
        .map_err(|e| format!("connection died after malformed frame: {e}"))?;

    let models = client.models().map_err(|e| format!("models: {e}"))?;
    if models.is_empty() {
        return Err("daemon serves no models".into());
    }
    for info in &models {
        let image = vec![0.5f32; info.input_len];
        let verdict = client
            .verify(&info.name, &image, 0, 1.0 / 255.0)
            .map_err(|e| format!("verify {}: {e}", info.name))?;
        if verdict.margins.len() + 1 != info.outputs {
            return Err(format!(
                "verify {}: expected {} margins, got {}",
                info.name,
                info.outputs - 1,
                verdict.margins.len()
            ));
        }
        println!(
            "smoke: {} verified={} margins={}",
            info.name,
            verdict.verified,
            verdict.margins.len()
        );
    }

    // Multiplexed pipelining: several id-tagged frames down one
    // connection; replies come back matched by id, possibly out of order,
    // and the connection then still serves plain in-order frames.
    {
        use gpupoly_serve::protocol::{Reply, Request};
        let target = &models[0];
        let image = vec![0.5f32; target.input_len];
        const PIPELINED: u64 = 4;
        for id in 0..PIPELINED {
            client
                .send_request(
                    &Request::Verify {
                        model: target.name.clone(),
                        image: image.clone(),
                        label: 0,
                        eps: 1.0 / 255.0,
                    },
                    Some(id),
                )
                .map_err(|e| format!("mux send {id}: {e}"))?;
        }
        let mut seen = [false; PIPELINED as usize];
        for _ in 0..PIPELINED {
            let (id, reply) = client.recv_any().map_err(|e| format!("mux recv: {e}"))?;
            let id = id.ok_or("mux reply carried no id")?;
            if !matches!(reply, Reply::Verdict { .. }) {
                return Err(format!("mux reply {id}: expected verdict, got {reply:?}"));
            }
            let slot = seen
                .get_mut(id as usize)
                .ok_or_else(|| format!("mux reply echoed unknown id {id}"))?;
            if *slot {
                return Err(format!("mux reply id {id} answered twice"));
            }
            *slot = true;
        }
        client
            .ping()
            .map_err(|e| format!("connection broken after mux exchange: {e}"))?;
        println!("smoke: multiplexed {PIPELINED} pipelined verifies ok");
    }

    // Complete mode round-trips: the same query refines under a small
    // split budget and must answer with a typed status, never an error.
    let first = &models[0];
    let outcome = client
        .verify_complete(
            &first.name,
            &vec![0.5f32; first.input_len],
            0,
            1.0 / 255.0,
            Some(8),
            Some(30_000),
        )
        .map_err(|e| format!("verify_complete {}: {e}", first.name))?;
    println!(
        "smoke: {} complete status={} splits={} frontier={}",
        first.name,
        outcome.status.as_str(),
        outcome.splits,
        outcome.frontier_remaining
    );

    // An unknown model and a wrong-dimension query map to their typed codes.
    use gpupoly_serve::protocol::ErrorCode;
    match client.verify("no_such_model", &[0.0], 0, 0.01) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownModel,
            ..
        }) => {}
        other => return Err(format!("expected unknown_model, got {other:?}")),
    }
    match client.verify(&models[0].name, &[0.25], 0, 0.01) {
        Err(ClientError::Server {
            code: ErrorCode::BadQuery,
            ..
        }) => {}
        other => return Err(format!("expected bad_query, got {other:?}")),
    }

    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    // The plain verifies plus the complete-mode query must all be counted.
    if stats.models.iter().map(|m| m.completed).sum::<u64>() < models.len() as u64 + 1 {
        return Err("stats do not reflect the served queries".into());
    }
    // The refinement and expiry counters must round-trip the stats wire
    // (typed deserialization already proves the fields are present; sanity:
    // nothing expired during this smoke, and split counters are coherent).
    let expired: u64 = stats.models.iter().map(|m| m.expired_dropped).sum();
    if expired != 0 {
        return Err(format!("smoke queries unexpectedly expired ({expired})"));
    }
    let splits: u64 = stats.models.iter().map(|m| m.splits).sum();
    if outcome.splits > 0 && splits == 0 {
        return Err("split counter did not round-trip through stats".into());
    }
    // The device work meter must round-trip the wire: the verifies above
    // launched kernels and metered flops, so zeros here mean the counters
    // fell off the stats endpoint.
    if stats.device.launches == 0 || stats.device.flops == 0 {
        return Err(format!(
            "device launch/flop counters did not round-trip through stats \
             (launches={} flops={})",
            stats.device.launches, stats.device.flops
        ));
    }
    // The aggregate row must cover the whole pool: per-device rows are
    // present and their meters sum to the top-level meters exactly.
    if stats.devices.is_empty() {
        return Err("stats carry no per-device breakdown".into());
    }
    let summed: u64 = stats.devices.iter().map(|d| d.launches).sum();
    if summed != stats.device.launches {
        return Err(format!(
            "aggregate launches ({}) disagree with the per-device sum ({summed})",
            stats.device.launches
        ));
    }
    println!(
        "smoke: ok — backend={} devices={} models={} completed={}",
        stats.device.backend,
        stats.devices.len(),
        stats.models.len(),
        stats.models.iter().map(|m| m.completed).sum::<u64>(),
    );
    Ok(())
}
