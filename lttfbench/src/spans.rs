//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans stay in memory while a run measures and are written out once at
//! the end. Spans of one step or request share an id; a span's self time
//! is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Step or request id shared by every span of that operation.
    pub op: u64,
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled, [`Tracer::time`] only calls
/// through, so one code path serves the traced and the untraced pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Later spans belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span called `name`; spans opened before the matching
    /// [`Tracer::end`] become its children. Returns a handle for `end`.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in nesting order");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let h = self.begin(name);
        let out = f();
        self.end(h);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (calls, total self nanoseconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_time((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// Mean self time per call of `name`, in `unit_ns` units; 0 when the
    /// span never ran.
    pub fn mean_self(
        &self,
        times: &BTreeMap<&'static str, (u64, u64)>,
        name: &str,
        unit_ns: f64,
    ) -> f64 {
        match times.get(name) {
            Some(&(calls, ns)) if calls > 0 => ns as f64 / calls as f64 / unit_ns,
            _ => 0.0,
        }
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Nanoseconds of `parent` not covered by any child interval. Children
/// may overlap one another (work handed to other threads) or stick out
/// of the parent; only their union inside the parent is subtracted.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once: [10, 60) is covered.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 60), (30, 35)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // Touching intervals merge; empty ones are ignored.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100), (70, 70)]), 0);
    }

    #[test]
    fn tracer_attributes_self_time_to_nested_spans() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.begin("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let times = t.self_times();
        let (inner_calls, inner_ns) = times["inner"];
        let (_, outer_ns) = times["outer"];
        assert_eq!(inner_calls, 1);
        assert!(inner_ns >= 3_000_000);
        assert!(outer_ns >= 2_000_000, "{outer_ns}");
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(outer_ns + inner_ns, total, "self times partition the root");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 5), 5);
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
