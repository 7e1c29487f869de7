//! The process-wide worker pool behind `par_chunks_mut`.
//!
//! Workers are spawned lazily (at most one fewer than the largest engaged
//! thread count seen so far) and live for the rest of the process, parked
//! on a condvar between fork-join regions. Each region publishes a
//! heap-allocated [`RunCtx`] holding the task function and claim/completion
//! counters; workers share it by `Arc`, so a worker that wakes late simply
//! finds the claim counter exhausted and goes back to sleep — it can never
//! touch a stale task function, because the function pointer is only
//! dereferenced after a successful claim and the dispatching thread does
//! not return until every claim has completed. The context also carries the
//! dispatcher's [`Overrides`], which workers adopt before claiming.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on engaged threads and spawned workers; far above any sane
/// `LTTF_THREADS`, it only bounds damage from a typo like `LTTF_THREADS=1e9`.
const MAX_THREADS: usize = 256;

/// The calling thread's overrides of the two knobs that decide how a
/// kernel executes: how many threads its parallel regions engage and
/// which SIMD backend its inner loops dispatch to.
///
/// Install one with [`Overrides::scope`]. A `None` field leaves that knob
/// as the enclosing scope set it (or at the environment/hardware default
/// when no scope set it), so a thread sweep nests inside a backend pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overrides {
    /// Threads a parallel region engages, outranking `LTTF_THREADS`.
    /// `Some(1)` forces the fully serial path; `Some(0)` counts as 1.
    pub threads: Option<usize>,
    /// Kernel backend, outranking `LTTF_SIMD`: `Some(false)` forces the
    /// scalar kernels, `Some(true)` asks for SIMD (still subject to
    /// hardware detection). Read by `lttf_tensor::simd::enabled`.
    pub simd: Option<bool>,
}

thread_local! {
    static OVERRIDES: Cell<Overrides> = const {
        Cell::new(Overrides { threads: None, simd: None })
    };
}

impl Overrides {
    /// Only a thread count; the backend stays as it is.
    pub const fn threads(n: usize) -> Overrides {
        Overrides { threads: Some(n), simd: None }
    }

    /// Only a backend choice; the thread count stays as it is.
    pub const fn simd(on: bool) -> Overrides {
        Overrides { threads: None, simd: Some(on) }
    }

    /// The overrides in force on the calling thread. A pool worker runs
    /// each region's tasks under the dispatching thread's value, so a
    /// kernel sees one backend across all of its chunks.
    #[inline]
    pub fn current() -> Overrides {
        OVERRIDES.with(Cell::get)
    }

    /// Install these overrides on the calling thread until the returned
    /// guard drops (on unwind too), merged over the current value: set
    /// fields replace, `None` fields keep what is in force.
    pub fn scope(self) -> OverrideGuard {
        let prev = Overrides::current();
        let threads = self.threads.map(|n| n.clamp(1, MAX_THREADS)).or(prev.threads);
        OVERRIDES.with(|c| c.set(Overrides { threads, simd: self.simd.or(prev.simd) }));
        OverrideGuard { prev, _not_send: PhantomData }
    }
}

/// Restores the overrides an [`Overrides::scope`] call replaced. Not
/// `Send`: it must drop on the thread whose value it restores.
#[must_use = "the overrides are lifted as soon as the guard drops"]
pub struct OverrideGuard {
    prev: Overrides,
    _not_send: PhantomData<*const ()>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        OVERRIDES.with(|c| c.set(self.prev));
    }
}

/// The thread count parallel regions will engage: the calling thread's
/// `threads` override ([`Overrides`]) if set, else `LTTF_THREADS` (parsed
/// once per process by `lttf_obs::env`), else
/// [`std::thread::available_parallelism`] (resolved once per process: it
/// reads cgroup files on Linux, tens of microseconds per call, and kernels
/// ask on every dispatch).
pub fn num_threads() -> usize {
    if let Some(n) = Overrides::current().threads {
        return n;
    }
    if let Some(n) = lttf_obs::env::threads() {
        return n.min(MAX_THREADS);
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// Type-erased `&(dyn Fn(usize) + Sync)` with the lifetime transmuted
/// away. Only dereferenced between a successful task claim and the end of
/// the owning `run_tasks` call, which outlives every claim.
#[derive(Clone, Copy)]
struct TaskFn(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

/// One fork-join region: the task function plus claim/completion state.
struct RunCtx {
    f: TaskFn,
    n_tasks: usize,
    /// The dispatching thread's overrides; workers run the tasks under
    /// them, so a kernel never mixes backends across its chunks.
    overrides: Overrides,
    /// Next unclaimed task index; `fetch_add` claims are how work is
    /// distributed (assignment order does not affect results — chunks are
    /// disjoint, so any schedule yields identical bytes).
    next: AtomicUsize,
    completed: AtomicUsize,
    /// First panic payload from a task, re-thrown by the dispatcher.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

struct State {
    /// Bumped once per published region so sleeping workers can tell a
    /// fresh job from one they already saw.
    generation: u64,
    job: Option<Arc<RunCtx>>,
}

struct Pool {
    state: Mutex<State>,
    start: Condvar,
    /// Serializes dispatchers: one fork-join region at a time. Contending
    /// regions (and regions entered from inside a worker) run serially.
    dispatch: Mutex<()>,
    spawned: Mutex<usize>,
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            generation: 0,
            job: None,
        }),
        start: Condvar::new(),
        dispatch: Mutex::new(()),
        spawned: Mutex::new(0),
    })
}

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Claim-and-execute loop shared by workers and the dispatching thread.
fn execute(ctx: &RunCtx) {
    // SAFETY: `f` outlives the region; see `TaskFn`.
    let f = unsafe { &*ctx.f.0 };
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.n_tasks {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            let mut slot = ctx.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        if ctx.completed.fetch_add(1, Ordering::Release) + 1 == ctx.n_tasks {
            let _g = ctx.done.lock().unwrap();
            ctx.done_cv.notify_all();
        }
    }
}

/// [`execute`], with the participant's time in the claim loop credited to
/// the `pool.busy_ns` gauge (compiled down to a plain `execute` call when
/// telemetry is off). When timeline tracing is on, the claim loop also
/// shows up as a `pool.execute` slice on the participating thread, so a
/// fork-join region renders as one slice per engaged worker.
fn execute_timed(ctx: &RunCtx) {
    if cfg!(feature = "telemetry") {
        let traced = lttf_obs::trace::enabled();
        if traced {
            lttf_obs::trace::begin(pool_execute_idx());
        }
        let t0 = std::time::Instant::now();
        execute(ctx);
        lttf_obs::gauge_ns!("pool.busy_ns", t0.elapsed().as_nanos() as u64);
        if traced {
            lttf_obs::trace::end(pool_execute_idx());
        }
    } else {
        execute(ctx);
    }
}

/// Interned trace-name index for the worker claim-loop slice.
fn pool_execute_idx() -> u32 {
    static IDX: OnceLock<u32> = OnceLock::new();
    *IDX.get_or_init(|| lttf_obs::trace::intern("pool.execute"))
}

fn worker_loop() {
    IS_WORKER.with(|w| w.set(true));
    let pool = global();
    let mut seen = 0u64;
    loop {
        let ctx = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if st.generation != seen {
                    seen = st.generation;
                    if let Some(c) = st.job.clone() {
                        break c;
                    }
                }
                st = pool.start.wait(st).unwrap();
            }
        };
        OVERRIDES.with(|c| c.set(ctx.overrides));
        execute_timed(&ctx);
    }
}

impl Pool {
    /// Spawn detached workers until `want` exist (best effort: a failed
    /// spawn just leaves the pool smaller).
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_THREADS);
        let mut n = self.spawned.lock().unwrap();
        while *n < want {
            let builder = std::thread::Builder::new().name(format!("lttf-par-{}", *n));
            if builder.spawn(worker_loop).is_err() {
                break;
            }
            *n += 1;
        }
    }
}

/// Run `f(0..n_tasks)` to completion using up to `threads` threads
/// (including the calling thread). Falls back to a plain serial loop when
/// parallelism is unavailable or pointless; either way, every task runs
/// exactly once and this function returns only after all have finished.
pub(crate) fn run_tasks(n_tasks: usize, threads: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_tasks == 0 {
        return;
    }
    if threads <= 1 || n_tasks <= 1 {
        // Deliberately serial (one thread or one task) — not a fallback.
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    if IS_WORKER.with(|w| w.get()) {
        // Nested region entered from inside a worker: would deadlock on the
        // pool, so it silently serializes. Count it — accidental nesting is
        // a real perf bug that is otherwise invisible.
        lttf_obs::counter!("pool.serial_nested", 1);
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    let pool = global();
    let Ok(_dispatch) = pool.dispatch.try_lock() else {
        // Another thread is mid-region; don't queue behind it.
        lttf_obs::counter!("pool.serial_contended", 1);
        for i in 0..n_tasks {
            f(i);
        }
        return;
    };
    pool.ensure_workers(threads.min(n_tasks) - 1);
    // SAFETY: the borrow is erased to 'static but the context is only used
    // while this frame is alive — `run_tasks` blocks until `completed ==
    // n_tasks`, and no new claim can succeed after that.
    let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let ctx = Arc::new(RunCtx {
        f: TaskFn(f_static as *const _),
        n_tasks,
        overrides: Overrides::current(),
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panic: Mutex::new(None),
        done: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    let engaged = threads.min(n_tasks);
    lttf_obs::counter!("pool.regions", 1);
    lttf_obs::counter!("pool.tasks", n_tasks);
    let region_start = if cfg!(feature = "telemetry") {
        Some(std::time::Instant::now())
    } else {
        None
    };
    {
        let mut st = pool.state.lock().unwrap();
        st.generation = st.generation.wrapping_add(1);
        st.job = Some(ctx.clone());
    }
    pool.start.notify_all();
    // The dispatcher participates; panics are captured into `ctx` so the
    // frame stays alive until every worker is done with it.
    execute_timed(&ctx);
    {
        let mut g = ctx.done.lock().unwrap();
        while ctx.completed.load(Ordering::Acquire) < ctx.n_tasks {
            g = ctx.done_cv.wait(g).unwrap();
        }
    }
    if let Some(t0) = region_start {
        // Capacity = region wall time × threads the region intended to
        // engage; each participant's claim loop adds to `pool.busy_ns`, so
        // busy/capacity is the pool utilization over all regions.
        let wall = t0.elapsed().as_nanos() as u64;
        lttf_obs::gauge_ns!("pool.capacity_ns", wall.saturating_mul(engaged as u64));
    }
    {
        let mut st = pool.state.lock().unwrap();
        st.job = None;
    }
    let payload = ctx.panic.lock().unwrap().take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}
