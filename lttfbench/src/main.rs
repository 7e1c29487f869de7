//! The repository benchmark: three workloads run through the public
//! entry points of `data`, `autograd`, `nn`, `eval` and `serve`.
//!
//! ```text
//! cargo run --release --manifest-path lttfbench/Cargo.toml -- \
//!     --workload train|forecast_open|session_stream --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) puts the benchmark's own spans around its calls into
//! each layer and prints the per-layer metrics. Either way the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`; the line before it reports the host fingerprint and the
//! run's own figures. See README.md beside this file.

mod forecast;
mod host;
mod metrics;
mod schedule;
mod serve_common;
mod session;
mod spans;
mod stats;
mod train;

use metrics::{json_str, result_line, Outcome, END_TO_END, PER_LAYER};
use std::process::exit;

const WORKLOADS: [&str; 3] = ["train", "forecast_open", "session_stream"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: lttfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        fn bad<T>(flag: &str, value: &str) -> T {
            usage(&format!("bad value for {flag}: {value}"))
        }
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| bad(flag, value))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| bad(flag, value));
                seconds = Some(if s > 0.0 && s <= 600.0 {
                    s
                } else {
                    bad(flag, value)
                });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                })
            }
            _ => bad(flag, value),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Bitwise equality of two forecasts.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Write a traced run's spans beside the package, under `out/`.
pub fn write_spans(args: &Args, tr: &spans::Tracer) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    // Before anything reads its settings or starts a thread.
    let lttf_env = host::default_config_env();
    let args = parse_args();
    let host = host::Fingerprint::take(lttf_env);
    let mut out: Outcome = match args.workload.as_str() {
        "train" => train::run(&args),
        "forecast_open" => forecast::run(&args),
        "session_stream" => session::run(&args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    assert!(
        defs.iter().all(|d| stats::valid_name(d.name)),
        "metric names are checked by tests"
    );
    let line = result_line(&mut out, defs);
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let env: Vec<String> = host
        .lttf_env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"key\":{},\"cores\":{},\"cpu\":{},\"backend\":{},\"threads\":{},\"lttf_env\":{{{}}}}},{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&host.key()),
        host.cores,
        json_str(&host.cpu),
        json_str(host.backend),
        host.threads,
        env.join(","),
        notes.join(",")
    );
    println!("{line}");
}
