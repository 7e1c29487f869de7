//! A lightweight wall-clock bench runner (the workspace's `criterion`
//! replacement).
//!
//! Each benchmark is timed as `samples` samples of `iters` calls, where
//! `iters` is auto-calibrated so one sample takes roughly a millisecond.
//! The runner reports min / mean / median / p95 per-call nanoseconds and
//! writes one JSON object per benchmark (JSON lines) both to stdout and to
//! `results/BENCH_<suite>.json`, so successive runs of a suite form a
//! machine-readable timing trajectory.
//!
//! Environment knobs:
//!
//! - `BENCH_SAMPLES`   — samples per benchmark (default 20).
//! - `BENCH_WARMUP`    — warmup samples, untimed (default 2).
//! - `BENCH_MIN_ITERS` — floor on calls per sample (default 1).
//! - `BENCH_OUT`       — output directory (default `results`).
//!
//! ```no_run
//! use lttf_testkit::bench::Suite;
//!
//! fn main() {
//!     let mut suite = Suite::new("kernels");
//!     let xs: Vec<f32> = (0..1024).map(|i| i as f32).collect();
//!     suite.bench("sum/1024", || std::hint::black_box(xs.iter().sum::<f32>()));
//!     suite.finish();
//! }
//! ```

use lttf_obs::jsonl::{JsonObj, JsonlSink};
use std::time::Instant;

/// One benchmark's timing summary, in per-call nanoseconds.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark id, e.g. `"matmul/64"`.
    pub name: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Calls per sample (auto-calibrated).
    pub iters_per_sample: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Mean over samples.
    pub mean_ns: u64,
    /// Median over samples (the headline number).
    pub median_ns: u64,
    /// 95th percentile over samples.
    pub p95_ns: u64,
}

impl Record {
    /// The record as one JSON-lines object. Field order is part of the
    /// contract — `scripts/bench_check.sh` parses these lines with `sed`.
    pub fn to_json(&self, suite: &str) -> String {
        JsonObj::new()
            .str("suite", suite)
            .str("bench", &self.name)
            .int("samples", self.samples as u64)
            .int("iters_per_sample", self.iters_per_sample)
            .int("min_ns", self.min_ns)
            .int("mean_ns", self.mean_ns)
            .int("median_ns", self.median_ns)
            .int("p95_ns", self.p95_ns)
            .finish()
    }
}

/// A named collection of benchmarks that shares configuration and an
/// output file.
pub struct Suite {
    name: String,
    samples: usize,
    warmup: usize,
    min_iters: u64,
    records: Vec<Record>,
    out_dir: std::path::PathBuf,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Suite {
    /// A new suite; reads `BENCH_SAMPLES` / `BENCH_WARMUP` / `BENCH_OUT`.
    ///
    /// The default output directory is the workspace-root `results/`
    /// (located relative to this crate, because `cargo bench` sets the
    /// working directory to the bench's own package, not the workspace).
    pub fn new(name: &str) -> Suite {
        Suite {
            name: name.to_string(),
            samples: env_usize("BENCH_SAMPLES", 20).max(1),
            warmup: env_usize("BENCH_WARMUP", 2),
            min_iters: env_usize("BENCH_MIN_ITERS", 1).max(1) as u64,
            records: Vec::new(),
            out_dir: std::env::var("BENCH_OUT")
                .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").into())
                .into(),
        }
    }

    /// Override the per-benchmark sample count (env still wins).
    pub fn samples(mut self, n: usize) -> Suite {
        self.samples = env_usize("BENCH_SAMPLES", n).max(1);
        self
    }

    /// Override the untimed warmup sample count (env still wins). Raise
    /// this for benches whose first calls pay one-off costs (allocator
    /// growth, page faults, branch-predictor training) that would
    /// otherwise smear into the p95.
    pub fn warmup(mut self, n: usize) -> Suite {
        self.warmup = env_usize("BENCH_WARMUP", n);
        self
    }

    /// Floor on calls per sample (env still wins). Auto-calibration targets
    /// ~1 ms samples, which degrades to `iters = 1` for calls in the tens
    /// of milliseconds — a single noisy call then lands directly in the
    /// percentiles. Slow benches that gate CI set this to average several
    /// calls per sample instead.
    pub fn min_iters(mut self, n: u64) -> Suite {
        self.min_iters = (env_usize("BENCH_MIN_ITERS", n as usize).max(1)) as u64;
        self
    }

    /// Time `f`, print its JSON record, and keep it for [`Suite::finish`].
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibrate: aim for ~1ms per sample so Instant overhead is noise.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once_ns = t0.elapsed().as_nanos().max(1);
        let iters = ((1_000_000 / once_ns).clamp(1, 10_000) as u64).max(self.min_iters);

        let mut per_call: Vec<u64> = Vec::with_capacity(self.samples);
        for round in 0..self.warmup + self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            // Sub-nanosecond calls (a const-folded body) floor at 1 ns —
            // 0 would read as "unmeasured" to downstream ratio checks.
            let ns = ((t.elapsed().as_nanos() / iters as u128) as u64).max(1);
            if round >= self.warmup {
                per_call.push(ns);
            }
        }
        per_call.sort_unstable();
        let n = per_call.len();
        let rec = Record {
            name: name.to_string(),
            samples: n,
            iters_per_sample: iters,
            min_ns: per_call[0],
            mean_ns: (per_call.iter().map(|&v| v as u128).sum::<u128>() / n as u128) as u64,
            median_ns: median(&per_call),
            p95_ns: per_call[(((n - 1) as f64) * 0.95).round() as usize],
        };
        println!("{}", rec.to_json(&self.name));
        self.records.push(rec);
    }

    /// Write all records to `BENCH_OUT/BENCH_<suite>.json` (JSON lines,
    /// overwriting) and print a human-readable summary table.
    pub fn finish(self) {
        let path = self.out_dir.join(format!("BENCH_{}.json", self.name));
        if let Err(e) = (|| {
            let mut sink = JsonlSink::create(&path)?;
            for r in &self.records {
                sink.write_line(&r.to_json(&self.name))?;
            }
            sink.flush()
        })() {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {} records to {}", self.records.len(), path.display());
        }
        eprintln!("\n{:<40} {:>12} {:>12}", "bench", "median", "p95");
        for r in &self.records {
            eprintln!(
                "{:<40} {:>12} {:>12}",
                r.name,
                human_ns(r.median_ns),
                human_ns(r.p95_ns)
            );
        }
    }
}

fn median(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

fn human_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_is_well_formed() {
        let r = Record {
            name: "matmul/64".into(),
            samples: 20,
            iters_per_sample: 8,
            min_ns: 100,
            mean_ns: 120,
            median_ns: 110,
            p95_ns: 150,
        };
        let j = r.to_json("kernels");
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"suite\":\"kernels\""));
        assert!(j.contains("\"bench\":\"matmul/64\""));
        assert!(j.contains("\"median_ns\":110"));
        // Balanced quotes — a cheap well-formedness check without a parser.
        assert_eq!(j.matches('"').count() % 2, 0);
    }

    #[test]
    fn record_json_parses_with_obs_parser() {
        let r = Record {
            name: "matmul/\"64\"".into(),
            samples: 20,
            iters_per_sample: 8,
            min_ns: 100,
            mean_ns: 120,
            median_ns: 110,
            p95_ns: 150,
        };
        let fields = lttf_obs::jsonl::parse_object(&r.to_json("kernels")).unwrap();
        assert_eq!(
            lttf_obs::jsonl::field(&fields, "bench").unwrap().as_str(),
            Some("matmul/\"64\"")
        );
        assert_eq!(
            lttf_obs::jsonl::field(&fields, "median_ns").unwrap().as_num(),
            Some(110.0)
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[1, 3, 5]), 3);
        assert_eq!(median(&[1, 3, 5, 7]), 4);
    }

    #[test]
    fn suite_times_a_cheap_function() {
        let mut s = Suite::new("selftest").samples(3);
        s.out_dir = std::env::temp_dir().join("lttf_bench_test");
        s.bench("noop_sum", || std::hint::black_box((0..64).sum::<i64>()));
        assert_eq!(s.records.len(), 1);
        assert!(s.records[0].median_ns > 0);
        s.finish();
        let p = std::env::temp_dir().join("lttf_bench_test/BENCH_selftest.json");
        let body = std::fs::read_to_string(p).expect("bench file written");
        assert!(body.lines().count() == 1 && body.contains("noop_sum"));
    }
}
