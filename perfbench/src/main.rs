//! Benchmark workload process: runs one workload of the k-NN cluster for a
//! fixed measuring time and prints one JSON line of named metrics.
//!
//! ```text
//! perfbench --workload serve-batch|query-scan|ingest-nsw|audit-liar
//!           --seed N --seconds S [--spans FILE]
//! ```
//!
//! With `--spans`, the run is the traced run: it replays each call's inner
//! layers, writes every span to FILE as JSON lines, and adds the per-layer
//! metrics. A wrong answer exits with status 2 before any result is printed.

mod oracle;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut spans) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let tracer = args.spans.as_ref().map(|_| trace::Tracer::default());
    let report = match workloads::run(args.workload, args.seed, args.seconds, tracer.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    if let (Some(tr), Some(path)) = (&tracer, &args.spans) {
        if let Err(e) = tr.write_jsonl(path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::from(74);
        }
    }
    let metrics: Vec<String> =
        report.metrics.iter().map(|(k, v)| format!("\"{k}\":{}", json_number(*v))).collect();
    let details: Vec<String> =
        report.details.iter().map(|(k, v)| format!("\"{k}\":{}", json_value(v))).collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"details\":{{{}}}}}",
        args.workload.name(),
        args.seed,
        tracer.is_some(),
        report.attempted,
        report.failed,
        metrics.join(","),
        details.join(",")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity: a metric that could not be measured is null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Details are numbers, booleans, JSON lists, or bare strings.
fn json_value(v: &str) -> String {
    if v.parse::<f64>().is_ok() || v == "true" || v == "false" || v.starts_with('[') {
        v.to_string()
    } else {
        format!("\"{v}\"")
    }
}
