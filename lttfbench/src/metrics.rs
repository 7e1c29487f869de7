//! The benchmark's metrics and the result it prints.

use crate::stats::{median, sorted, tail};
use std::collections::BTreeMap;

/// A metric name and its unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Printed by every untraced run. The per-workload meaning of `ops_per_s`
/// and `latency_ms` is in the package README.
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s"),
    d("peak_heap_mib", "MiB"),
    d("cpu_ms_per_op", "ms"),
    d("ops_per_s", "1/s"),
    d("latency_ms", "ms"),
];

/// Printed by every traced run; a layer the workload never calls reads 0.
pub const PER_LAYER: &[Def] = &[
    d("data.batch_ms", "ms"),
    d("autograd.forward_ms", "ms"),
    d("autograd.backward_ms", "ms"),
    d("nn.update_ms", "ms"),
    d("eval.validate_ms", "ms"),
    d("train.allocs_per_step", "count"),
    d("train.alloc_mib_per_step", "MiB"),
    d("tensor.gru_bwd_ms", "ms"),
    d("tensor.matmul_ms", "ms"),
    d("tensor.attn_bwd_ms", "ms"),
    d("parallel.utilization", "ratio"),
    d("parallel.regions_per_op", "count"),
    d("protocol.parse_us", "us"),
    d("protocol.format_us", "us"),
    d("registry.prepare_us", "us"),
    d("registry.forward_b1_ms", "ms"),
    d("registry.forward_b2_ms", "ms"),
    d("engine.wait_ms", "ms"),
    d("server.queue_p50_ms", "ms"),
    d("server.service_p50_ms", "ms"),
    d("server.cpu_p50_ms", "ms"),
    d("server.alloc_p50_kib", "KiB"),
    d("wire.overhead_ms", "ms"),
    d("serve.allocs_per_request", "count"),
    d("session.push_us", "us"),
    d("drift.observe_us", "us"),
    d("generator.lag_p99_ms", "ms"),
    d("generator.achieved_ratio", "ratio"),
    d("obs.trace_overhead_pct", "%"),
    d("latency.p50_ms", "ms"),
    d("latency.p90_ms", "ms"),
    d("latency.p99_ms", "ms"),
    d("quality.mse", "scaled"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra report fields: key and an already-encoded JSON value.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why.into());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.notes.push((key, value.to_string()));
    }
}

/// Length of the stretches of a run whose latency quantiles are taken
/// separately; the run reports the median over them.
pub const BLOCK_S: f64 = 5.0;

/// Group `(seconds into the run, latency)` samples into [`BLOCK_S`]
/// blocks.
pub fn blocks(samples: impl Iterator<Item = (f64, f64)>) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    for (at, v) in samples {
        let b = (at.max(0.0) / BLOCK_S) as usize;
        if out.len() <= b {
            out.resize(b + 1, Vec::new());
        }
        out[b].push(v);
    }
    out
}

/// The median over blocks of each block's own `q` quantile. A block
/// that cannot support a tail quantile (ten samples beyond it) is left
/// out; `None` when no block is left.
fn block_quantile(blocks: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_block: Vec<f64> = blocks
        .iter()
        .map(|b| sorted(b))
        .filter_map(|s| match q {
            0.5 => (!s.is_empty()).then(|| median(&s)),
            _ => tail(&s, q),
        })
        .collect();
    (!per_block.is_empty()).then(|| median(&sorted(&per_block)))
}

/// `latency_ms` of an untraced serving run: the median over blocks of
/// the run of each block's median, so a host hiccup confined to part of
/// a run moves it less.
pub fn set_latency(out: &mut Outcome, blocks: &[Vec<f64>]) {
    match block_quantile(blocks, 0.5) {
        Some(v) => out.set("latency_ms", v),
        None => out.fail("no latency samples"),
    }
    out.note(
        "latency_samples",
        blocks.iter().map(Vec::len).sum::<usize>(),
    );
    out.note("latency_blocks", blocks.len());
}

/// The latency quantiles of a traced run: `latency.p50_ms` and
/// `latency.p90_ms`, the median over blocks of each block's own
/// quantile, and `latency.p99_ms` over all samples; a tail is 0 when too
/// few samples lie beyond it.
pub fn set_tails(out: &mut Outcome, blocks: &[Vec<f64>]) {
    out.set("latency.p50_ms", block_quantile(blocks, 0.5).unwrap_or(0.0));
    out.set("latency.p90_ms", block_quantile(blocks, 0.9).unwrap_or(0.0));
    let all = sorted(&blocks.concat());
    out.set("latency.p99_ms", tail(&all, 0.99).unwrap_or(0.0));
    out.note("tail_samples", all.len());
}

/// Encode `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its unit. A non-finite value cannot be
/// printed as JSON; it is reported as a failure instead.
pub fn result_line(out: &mut Outcome, defs: &[Def]) -> String {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let v = out.metrics.get(def.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() {
            v
        } else {
            out.fail(format!("{} is not finite", def.name));
            0.0
        };
        fields.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(def.name),
            json_str(def.unit)
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                def.unit.len() <= 16 && def.unit.chars().all(unit_ok),
                "{}",
                def.unit
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{list}\"")).expect("list present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(
                listed,
                defs.len(),
                "{list}: BENCHMARK.json has {listed} entries"
            );
            for def in defs {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
                assert!(body.contains(&entry), "{list} lacks {entry}");
            }
        }
    }

    #[test]
    fn latency_is_the_median_over_blocks() {
        let at = |i: usize| i as f64 * 0.01;
        // Three 5 s blocks of 500 samples; the middle one is slow.
        let slow = |i: usize| (500..1000).contains(&i);
        let lat = blocks((0..1500).map(|i| {
            (
                at(i),
                if slow(i) {
                    50.0
                } else {
                    1.0 + (i % 100) as f64
                },
            )
        }));
        assert_eq!(lat.len(), 3);
        let mut out = Outcome::default();
        set_latency(&mut out, &lat);
        assert_eq!(out.metrics["latency_ms"], 50.5);
        set_tails(&mut out, &lat);
        assert_eq!(out.metrics["latency.p50_ms"], 50.5);
        assert_eq!(out.metrics["latency.p90_ms"], 90.0);
        assert_eq!(out.metrics["latency.p99_ms"], 99.0);
        // Tails the samples cannot support read 0; no samples at all fail.
        let mut out = Outcome::default();
        set_tails(&mut out, &[vec![1.0; 99]]);
        assert_eq!(out.metrics["latency.p90_ms"], 0.0);
        assert_eq!(out.metrics["latency.p99_ms"], 0.0);
        set_latency(&mut out, &[]);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn result_line_has_every_metric_and_counts_non_finite_values() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        out.set("ops_per_s", f64::NAN);
        let line = result_line(&mut out, END_TO_END);
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"),
            "{line}"
        );
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        for def in END_TO_END {
            assert!(line.contains(&format!("\"{}\":", def.name)));
        }
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
