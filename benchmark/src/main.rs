//! `gpupoly-benchmark`: see `usage`.

use std::path::PathBuf;
use std::process::ExitCode;

use gpupoly_benchmark::catalogue;
use gpupoly_benchmark::check;
use gpupoly_benchmark::report;
use gpupoly_benchmark::run::{self, Config, RunResult};
use gpupoly_benchmark::workload::{self, WORKLOADS};
use serde::Value;

const USAGE: &str = "usage:
  gpupoly-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of stdout is the result object
      (end-to-end metrics untraced, per-layer metrics traced)
  gpupoly-benchmark all [--seed N] [--out FILE] [--smoke]
      every workload untraced then traced; prints `workload name unit value`
      and writes the JSON result file (default benchmark/out/result.json)
  gpupoly-benchmark compare A.json B.json
      applies the bounds of BENCHMARK.json to two result files
common: --out-dir DIR (default benchmark/out) holds models and trace files";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = std::env::args().skip(1).peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".to_string(), None)),
                Some(flag) => args.flags.push((flag.to_string(), raw.next())),
                None => args.positional.push(arg),
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, Some(v))) => v
                .parse()
                .map_err(|_| format!("--{flag} {v}: not understood")),
            Some((_, None)) => Err(format!("--{flag} needs a value")),
        }
    }
}

fn explain(result: &RunResult) {
    eprintln!(
        "{} {}: digest {} attempted {} proven {} failed {}",
        result.workload,
        if result.traced { "traced" } else { "untraced" },
        result.digest,
        result.attempted,
        result.proven,
        result.failed
    );
    for note in &result.notes {
        eprintln!("  {note}");
    }
}

fn rows_or_exit(result: &RunResult) -> Result<Vec<(String, &'static str, f64)>, ExitCode> {
    report::ordered(result).map_err(|bad| {
        for b in bad {
            eprintln!("schema: {b}");
        }
        ExitCode::from(2)
    })
}

fn one(args: &Args, run_seconds: f64) -> Result<ExitCode, String> {
    let name: String = args.value("workload", String::new())?;
    let wl = workload::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = args.value("seconds", run_seconds)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds {seconds}: need a positive length"));
    }
    let cfg = Config {
        seed: args.value("seed", 1)?,
        share: seconds / run_seconds,
        setups: run::SETUPS,
        reference_queries: check::REFERENCE_QUERIES,
        out_dir: args.value("out-dir", PathBuf::from("benchmark/out"))?,
    };
    let traced = match args.value("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: need 0 or 1")),
    };
    let result = if traced {
        run::traced(wl, &cfg)
    } else {
        run::untraced(wl, &cfg)
    };
    explain(&result);
    let rows = match rows_or_exit(&result) {
        Ok(rows) => rows,
        Err(code) => return Ok(code),
    };
    print!("{}", report::table(&result, &rows));
    println!("{}", report::driver_line(&result, &rows));
    Ok(ExitCode::SUCCESS)
}

fn all(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.has("smoke");
    let cfg = Config {
        seed: args.value("seed", 1)?,
        share: if smoke { 0.1 } else { 1.0 },
        setups: if smoke { 1 } else { run::SETUPS },
        reference_queries: if smoke { 2 } else { check::REFERENCE_QUERIES },
        out_dir: args.value("out-dir", PathBuf::from("benchmark/out"))?,
    };
    let out: PathBuf = args.value("out", cfg.out_dir.join("result.json"))?;
    let mut entries = Vec::new();
    let mut failed = 0;
    for wl in &WORKLOADS {
        let untraced = run::untraced(wl, &cfg);
        explain(&untraced);
        let traced = run::traced(wl, &cfg);
        explain(&traced);
        let (e2e, layers) = match (rows_or_exit(&untraced), rows_or_exit(&traced)) {
            (Ok(e2e), Ok(layers)) => (e2e, layers),
            (Err(code), _) | (_, Err(code)) => return Ok(code),
        };
        print!("{}", report::table(&untraced, &e2e));
        print!("{}", report::table(&traced, &layers));
        let total = (untraced.attempted + traced.attempted) as f64;
        let wrong = untraced.failed + traced.failed;
        println!("{} failed_share share {}", wl.name, wrong as f64 / total);
        println!("{} workload_digest - {}", wl.name, untraced.digest);
        failed += wrong;
        entries.push((
            wl.name.to_string(),
            report::workload_value(&untraced, &e2e, &traced, &layers),
        ));
    }
    let file = Value::obj([
        ("seed", Value::Num(cfg.seed as f64)),
        ("smoke", Value::Bool(smoke)),
        (
            "workers",
            Value::Num(gpupoly_benchmark::traced::WORKERS as f64),
        ),
        (
            "host_threads",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Value::Obj(entries)),
    ]);
    let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("result file: {}", out.display());
    if failed > 0 {
        eprintln!("{failed} queries failed the correctness gate");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let violations = catalogue::self_check(&names);
    if !violations.is_empty() {
        for v in violations {
            eprintln!("schema: {v}");
        }
        return ExitCode::from(2);
    }
    let decl = catalogue::declaration().expect("self-check parsed it");

    let args = Args::parse();
    let outcome = match args.positional.first().map(String::as_str) {
        None if args.has("workload") => one(&args, decl.run_seconds),
        Some("all") => all(&args),
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] => report::compare(a, b, &decl).map(|breaches| {
                if breaches == 0 {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("{breaches} breaches");
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare needs two result files".to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
