//! Global span/counter registry and the per-thread frame stack.
//!
//! A [`SpanStats`] is a leaked, never-freed bundle of atomics keyed by a
//! `(group, name)` pair of `&'static str`s. Call sites cache the pointer in
//! a per-site `OnceLock`, so the steady-state cost of an active span is two
//! `Instant::now()` reads plus a handful of relaxed atomic adds. The
//! registry mutex is only touched on first use of each site and when
//! snapshotting.
//!
//! Each thread that opens a span owns one **frame stack**, the only record
//! of its open spans: per frame, the site and the time its direct children
//! took. A dropping guard subtracts its frame's child time to get self time
//! and adds its elapsed time to its parent frame; the allocation hook
//! charges the top frame ([`crate::alloc`]); the sampler
//! ([`crate::sampler`]) copies the stack from its own thread through a
//! seqlock; the tracer ([`crate::trace`]) logs the same pushes and pops.
//! Spans opened on pool worker threads have no parent on that thread's
//! stack, so their time is *not* subtracted from the dispatching span —
//! utilization numbers come from the pool gauges instead. Frames deeper
//! than [`MAX_DEPTH`] are not stored: those spans still count calls and
//! total time, their allocations go to the deepest stored frame, and their
//! self time includes their children's.
//!
//! Stack records are leaked so the sampler can always read them, but an
//! exiting thread hands its record to the next new thread.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace;

/// What a registry entry measures; controls how reports render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A timed RAII scope: calls, total/self/min/max ns, bytes.
    Span,
    /// A monotonically increasing event count; only `calls` is meaningful.
    Counter,
    /// An accumulated nanosecond quantity (e.g. pool busy time); only
    /// `total_ns` is meaningful.
    GaugeNs,
    /// A sampled unitless value distribution (e.g. queue depth, batch
    /// size): `calls` counts samples, `total_ns` holds their sum, and
    /// `min_ns`/`max_ns` hold the observed extremes, so reports can show
    /// count / mean / min / max.
    Gauge,
}

impl Kind {
    /// Stable lowercase label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Counter => "counter",
            Kind::GaugeNs => "gauge_ns",
            Kind::Gauge => "gauge",
        }
    }
}

/// Live statistics for one named scope. All fields are relaxed atomics;
/// cross-field consistency is only guaranteed while no spans are running.
pub struct SpanStats {
    group: &'static str,
    name: &'static str,
    kind: Kind,
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    bytes: AtomicU64,
    /// Heap bytes allocated while this span was the innermost open one
    /// on the allocating thread (charged by [`crate::alloc`]).
    alloc_bytes: AtomicU64,
    /// Heap allocations charged alongside `alloc_bytes`.
    allocs: AtomicU64,
    /// Cached [`trace`] name index for this site's display name, interned
    /// lazily the first time the site fires while tracing is enabled.
    /// `u32::MAX` = not yet interned.
    trace_idx: AtomicU32,
}

impl SpanStats {
    fn new(group: &'static str, name: &'static str, kind: Kind) -> Self {
        SpanStats {
            group,
            name,
            kind,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            trace_idx: AtomicU32::new(u32::MAX),
        }
    }

    /// `group.name` display form (just `name` when the group is empty),
    /// as rendered by snapshots and the sampling profiler.
    pub(crate) fn display_name(&self) -> String {
        if self.group.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.group, self.name)
        }
    }

    /// Interned timeline-trace name for this site (`group.name` display
    /// form), computed once and cached. Only called while tracing is on.
    fn trace_idx(&self) -> u32 {
        let cached = self.trace_idx.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return cached;
        }
        let idx = trace::intern(&self.display_name());
        self.trace_idx.store(idx, Ordering::Relaxed);
        idx
    }

    fn clear(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.alloc_bytes.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
    }

    /// Add `delta` to the event count (used by counters).
    pub fn add_calls(&self, delta: u64) {
        self.calls.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add `ns` to the accumulated time (used by gauges).
    pub fn add_ns(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one sample of a unitless value (used by [`Kind::Gauge`]
    /// entries): bumps the sample count, accumulates the sum, and tracks
    /// the min/max observed.
    pub fn record_value(&self, v: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(v, Ordering::Relaxed);
        self.min_ns.fetch_min(v, Ordering::Relaxed);
        self.max_ns.fetch_max(v, Ordering::Relaxed);
    }
}

type RegistryMap = HashMap<(&'static str, &'static str), &'static SpanStats>;

fn registry() -> &'static Mutex<RegistryMap> {
    static REGISTRY: OnceLock<Mutex<RegistryMap>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Look up or create the stats slot for `(group, name)`. The returned
/// reference is `'static` (the slot is leaked) and safe to cache.
pub fn register(group: &'static str, name: &'static str, kind: Kind) -> &'static SpanStats {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.entry((group, name))
        .or_insert_with(|| &*Box::leak(Box::new(SpanStats::new(group, name, kind))))
}

/// Deepest span nesting a frame stack stores (see the module docs).
pub const MAX_DEPTH: usize = 32;

/// One open span: its site (null until first written) and the ns its
/// direct children took, which only the owning thread touches.
#[derive(Default)]
struct Frame {
    site: AtomicPtr<SpanStats>,
    child_ns: AtomicU64,
}

/// One thread's open spans, innermost last.
#[derive(Default)]
struct FrameStack {
    /// Seqlock over `depth` and the sites: odd while the owner writes.
    seq: AtomicU64,
    /// Open spans on the owning thread; may exceed [`MAX_DEPTH`].
    depth: AtomicUsize,
    frames: [Frame; MAX_DEPTH],
    /// Whether a live thread owns this record. Cleared with `Release` at
    /// thread exit and read with `Acquire` by [`claim`], so the next owner
    /// sees the reset depth.
    owned: AtomicBool,
}

impl FrameStack {
    /// Owner only: set the depth inside the seqlock, first storing `push`
    /// as the new top frame.
    fn set_depth(&self, depth: usize, push: Option<&'static SpanStats>) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        if let Some((site, frame)) = push.zip(self.frames.get(depth.wrapping_sub(1))) {
            let site = std::ptr::from_ref(site).cast_mut();
            frame.site.store(site, Ordering::Relaxed);
            frame.child_ns.store(0, Ordering::Relaxed);
        }
        self.depth.store(depth, Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Owner only: close the innermost frame after `elapsed` ns and credit
    /// that time to its parent. Returns the time its own children took.
    fn pop(&self, elapsed: u64) -> u64 {
        let top = self.depth.load(Ordering::Relaxed).saturating_sub(1);
        self.set_depth(top, None);
        if let Some(parent) = top.checked_sub(1).and_then(|i| self.frames.get(i)) {
            parent.child_ns.fetch_add(elapsed, Ordering::Relaxed);
        }
        self.frames
            .get(top)
            .map_or(0, |f| f.child_ns.load(Ordering::Relaxed))
    }

    /// Owner only: the innermost stored frame's site.
    #[cfg(feature = "telemetry")]
    fn top(&self) -> Option<&'static SpanStats> {
        let depth = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
        let frame = &self.frames[depth.checked_sub(1)?];
        let site = frame.site.load(Ordering::Relaxed);
        // SAFETY: sites hold null or pointers to leaked 'static entries.
        unsafe { site.as_ref() }
    }

    /// Any thread: the stored frames' sites, outermost first, or `None`
    /// when the stack is empty or a write overlapped the copy (the sample
    /// is skipped, not retried).
    #[cfg(feature = "telemetry")]
    fn read(&self) -> Option<Vec<&'static SpanStats>> {
        let seq = self.seq.load(Ordering::Acquire);
        let depth = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
        // SAFETY: sites hold null or pointers to leaked 'static entries, so
        // even a torn copy dereferences soundly (and is then discarded).
        let load = |f: &Frame| unsafe { f.site.load(Ordering::Relaxed).as_ref() };
        let sites = self.frames[..depth].iter().map(load).collect();
        fence(Ordering::Acquire);
        if seq % 2 == 1 || depth == 0 || self.seq.load(Ordering::Relaxed) != seq {
            return None;
        }
        sites
    }
}

/// Every stack record ever created, with its current owner's thread name
/// (which changes only under this lock, when a record is claimed).
static STACKS: Mutex<Vec<(&'static FrameStack, String)>> = Mutex::new(Vec::new());

/// Take a free stack record for the calling thread, creating one only
/// when every record is owned.
fn claim() -> &'static FrameStack {
    let name = std::thread::current().name().map(str::to_string);
    let mut all = STACKS.lock().unwrap_or_else(|e| e.into_inner());
    let free = all
        .iter()
        .position(|(st, _)| !st.owned.load(Ordering::Acquire));
    let i = free.unwrap_or_else(|| {
        all.push((Box::leak(Box::default()), String::new()));
        all.len() - 1
    });
    all[i].1 = name.unwrap_or_else(|| format!("thread-{i}"));
    all[i].0.owned.store(true, Ordering::Relaxed);
    STACK.with(|c| c.set(Some(all[i].0)));
    all[i].0
}

/// Hands the thread's record back when the thread exits.
struct Owner(&'static FrameStack);

impl Drop for Owner {
    fn drop(&mut self) {
        STACK.with(|c| c.set(None));
        self.0.set_depth(0, None);
        self.0.owned.store(false, Ordering::Release);
    }
}

thread_local! {
    /// The calling thread's frame stack, `None` until its first span. It
    /// is const-initialized and has no destructor, so the allocation hook
    /// can read it without triggering TLS initialization or destructor
    /// registration, even during thread teardown.
    static STACK: Cell<Option<&'static FrameStack>> = const { Cell::new(None) };
    /// Claims the record on first use and releases it at thread exit.
    static OWNER: Owner = Owner(claim());
}

/// Charge one allocation of `size` bytes to the calling thread's
/// innermost open span, if any. Called from the global-allocator hook:
/// must not allocate, lock, or panic.
#[cfg(feature = "telemetry")]
#[inline]
pub(crate) fn charge_alloc(size: usize) {
    if let Some(site) = STACK.with(Cell::get).and_then(FrameStack::top) {
        site.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        site.allocs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every live thread's open spans as `(thread name, sites outermost
/// first)`; idle threads and stacks caught mid-write are left out.
#[cfg(feature = "telemetry")]
pub(crate) fn open_stacks() -> Vec<(String, Vec<&'static SpanStats>)> {
    let all = STACKS.lock().unwrap_or_else(|e| e.into_inner());
    all.iter()
        .filter_map(|(st, name)| Some((name.clone(), st.read()?)))
        .collect()
}

/// Stack records created so far (owned or free).
#[cfg(test)]
pub(crate) fn stack_records() -> usize {
    STACKS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

struct ActiveSpan {
    site: &'static SpanStats,
    start: Instant,
    /// The frame stack this span pushed onto (`None` during teardown).
    stack: Option<&'static FrameStack>,
}

/// RAII timer for one span activation. Obtain via [`crate::span!`] or
/// [`scoped`]; an [`SpanGuard::inactive`] guard costs nothing to drop.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Start timing `site` on the current thread.
    pub fn enter(site: &'static SpanStats) -> SpanGuard {
        if trace::enabled() {
            trace::begin(site.trace_idx());
        }
        // The first span claims the thread's stack; `None` only during
        // thread teardown, after the stack was handed back.
        let stack = STACK
            .with(Cell::get)
            .or_else(|| OWNER.try_with(|o| o.0).ok());
        if let Some(st) = stack {
            st.set_depth(st.depth.load(Ordering::Relaxed) + 1, Some(site));
        }
        SpanGuard(Some(ActiveSpan {
            site,
            start: Instant::now(),
            stack,
        }))
    }

    /// A guard that records nothing; used when telemetry is compiled out
    /// or a size threshold was not met.
    pub const fn inactive() -> SpanGuard {
        SpanGuard(None)
    }

    /// Attribute `n` processed bytes to this span (no-op when inactive).
    pub fn bytes(&self, n: usize) {
        if let Some(a) = &self.0 {
            a.site.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let elapsed = a.start.elapsed().as_nanos() as u64;
        if trace::enabled() {
            trace::end(a.site.trace_idx());
        }
        // Guards are strictly scoped per thread, so the top frame is ours.
        let child_ns = a.stack.map_or(0, |st| st.pop(elapsed));
        let self_ns = elapsed.saturating_sub(child_ns);
        a.site.calls.fetch_add(1, Ordering::Relaxed);
        a.site.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        a.site.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        a.site.min_ns.fetch_min(elapsed, Ordering::Relaxed);
        a.site.max_ns.fetch_max(elapsed, Ordering::Relaxed);
    }
}

/// Start a span whose name is only known at runtime (still `&'static str`,
/// e.g. an autograd op name). Pays one registry-mutex lookup per call, so
/// reserve it for chunky scopes like per-op backward closures. An empty
/// `name` returns an inactive guard.
pub fn scoped(group: &'static str, name: &'static str) -> SpanGuard {
    if name.is_empty() {
        return SpanGuard::inactive();
    }
    SpanGuard::enter(register(group, name, Kind::Span))
}

/// Point-in-time copy of one registry entry.
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Display name: `group.name`, or just `name` when the group is empty.
    pub name: String,
    /// Entry kind (span / counter / gauge).
    pub kind: Kind,
    /// Completed activations (spans) or accumulated count (counters).
    pub calls: u64,
    /// Total wall nanoseconds across activations (spans) or accumulated
    /// nanoseconds (gauges).
    pub total_ns: u64,
    /// Total minus time attributed to directly nested spans.
    pub self_ns: u64,
    /// Fastest single activation, ns (0 when never called).
    pub min_ns: u64,
    /// Slowest single activation, ns.
    pub max_ns: u64,
    /// Bytes attributed via [`SpanGuard::bytes`].
    pub bytes: u64,
    /// Heap bytes allocated while this span was innermost (0 unless the
    /// instrumented allocator is compiled in; see [`crate::alloc`]).
    pub alloc_bytes: u64,
    /// Heap allocations charged alongside `alloc_bytes`.
    pub allocs: u64,
}

/// Copy every registry entry, sorted by display name. Entries with zero
/// calls and zero time are skipped.
pub fn snapshot() -> Vec<SpanSnapshot> {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<SpanSnapshot> = map
        .values()
        .map(|s| {
            let calls = s.calls.load(Ordering::Relaxed);
            let min = s.min_ns.load(Ordering::Relaxed);
            SpanSnapshot {
                name: s.display_name(),
                kind: s.kind,
                calls,
                total_ns: s.total_ns.load(Ordering::Relaxed),
                self_ns: s.self_ns.load(Ordering::Relaxed),
                min_ns: if min == u64::MAX { 0 } else { min },
                max_ns: s.max_ns.load(Ordering::Relaxed),
                bytes: s.bytes.load(Ordering::Relaxed),
                alloc_bytes: s.alloc_bytes.load(Ordering::Relaxed),
                allocs: s.allocs.load(Ordering::Relaxed),
            }
        })
        .filter(|s| s.calls > 0 || s.total_ns > 0)
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Zero every registered entry (entries stay registered, so cached call
/// sites remain valid). Meaningful only while no spans are in flight.
pub fn reset() {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    for s in map.values() {
        s.clear();
    }
}

/// Fetch the current `calls` value of a counter/span by display key,
/// or 0 when it was never registered. Handy for tests.
pub fn calls(group: &'static str, name: &'static str) -> u64 {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.get(&(group, name))
        .map(|s| s.calls.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Open a named span if `cond` holds; compiled out entirely when the
/// *calling* crate's `telemetry` feature is off (the `cfg!` below is
/// evaluated in the caller's feature context because this is a macro).
///
/// ```
/// let work = 128 * 128 * 128;
/// let _span = lttf_obs::span!("matmul", work >= 4096);
/// _span.bytes(3 * 128 * 128 * 4);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, true)
    };
    ($name:expr, $cond:expr) => {{
        if cfg!(feature = "telemetry") && $cond {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            $crate::SpanGuard::enter(
                SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::Span)),
            )
        } else {
            $crate::SpanGuard::inactive()
        }
    }};
}

/// Bump a named counter by `delta`; compiled out with the caller's
/// `telemetry` feature like [`span!`].
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {{
        if cfg!(feature = "telemetry") {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::Counter))
                .add_calls($delta as u64);
        }
    }};
}

/// Accumulate `ns` nanoseconds into a named gauge; compiled out with the
/// caller's `telemetry` feature like [`span!`].
#[macro_export]
macro_rules! gauge_ns {
    ($name:expr, $ns:expr) => {{
        if cfg!(feature = "telemetry") {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::GaugeNs))
                .add_ns($ns as u64);
        }
    }};
}

/// Record one sample of a unitless gauge (queue depth, batch size, …);
/// compiled out with the caller's `telemetry` feature like [`span!`].
/// Reports show the sample count, mean, and min/max.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        if cfg!(feature = "telemetry") {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::Gauge))
                .record_value($value as u64);
        }
    }};
}
