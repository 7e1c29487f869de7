//! # lttf-parallel
//!
//! A zero-dependency fork-join runtime for the tensor hot path, built on
//! the same philosophy as `lttf-testkit`: everything offline, everything
//! deterministic, nothing external.
//!
//! ## Model
//!
//! The only parallel primitive is **static chunking over a disjoint output
//! slice**: [`par_chunks_mut`] splits `out` into contiguous chunks of a
//! caller-chosen length and runs a closure on each `(chunk_index, chunk)`
//! pair, possibly on worker threads. Chunk boundaries depend only on
//! `(len, chunk_len)` — never on the thread count — and every chunk is
//! written by exactly one task, so f32 reduction order never crosses a
//! chunk boundary and results are **bit-identical at any thread count**
//! (including 1). Kernels that need several output buffers sliced in
//! lockstep (e.g. the three gradients of an attention backward) use
//! [`par_chunks_mut_zip3`].
//!
//! ## Thread count
//!
//! Workers come from a lazily grown process-wide pool. The engaged thread
//! count is, in order of precedence:
//!
//! 1. the calling thread's `threads` override, set by an
//!    [`Overrides::scope`] guard (serve replicas pin their share of the
//!    thread budget this way; benches and tests sweep thread counts),
//! 2. the `LTTF_THREADS` environment variable (read once; `1` forces the
//!    fully serial path, no pool is ever touched),
//! 3. [`std::thread::available_parallelism`] (resolved once).
//!
//! The same guard pins the SIMD backend read by `lttf_tensor::simd`, and
//! each fork-join region carries its dispatcher's [`Overrides`] to the
//! workers running its tasks, so one kernel call never mixes backends.
//!
//! ## Nesting and re-entrancy
//!
//! A parallel region entered from inside a pool worker (or while another
//! thread holds the dispatch lock) degrades to the serial path rather
//! than deadlocking, so kernels can call other kernels freely.
//!
//! ```
//! // Square 1000 numbers in parallel; the result is bit-identical at
//! // any thread count because chunk boundaries ignore the pool size.
//! let input: Vec<f32> = (0..1000).map(|i| i as f32).collect();
//! let mut out = vec![0.0f32; 1000];
//! lttf_parallel::par_chunks_mut(&mut out, 128, |chunk_idx, chunk| {
//!     let base = chunk_idx * 128;
//!     for (i, o) in chunk.iter_mut().enumerate() {
//!         *o = input[base + i] * input[base + i];
//!     }
//! });
//! assert_eq!(out[31], 31.0 * 31.0);
//! ```

#![deny(missing_docs)]

mod pool;

#[cfg(test)]
mod proptests;

pub use pool::{num_threads, OverrideGuard, Overrides};

/// Work items per task so each task carries at least `grain` work units:
/// `max(1, grain / work_per_item)`.
///
/// The standard way kernels group small independent problems — batches of
/// a batched gemm, `(batch, out_ch)` pairs of a conv — into tasks big
/// enough to amortize the pool's dispatch cost. A pure function of its
/// arguments, so chunk boundaries (and therefore result bytes) never
/// depend on the thread count.
pub fn items_per_task(work_per_item: usize, grain: usize) -> usize {
    (grain / work_per_item.max(1)).max(1)
}

/// Rows per task for row-partitioned kernels: enough rows that a task
/// carries at least `grain` work units (each row costing `row_work`),
/// rounded **up** to a multiple of `quantum` so every task starts on a
/// micro-tile boundary.
///
/// # Panics
/// Panics if `quantum == 0`.
pub fn rows_per_block(row_work: usize, grain: usize, quantum: usize) -> usize {
    assert!(quantum >= 1, "quantum must be >= 1");
    items_per_task(row_work, grain).max(quantum).div_ceil(quantum) * quantum
}

/// Number of chunks `par_chunks_mut` splits a `len`-element slice into.
///
/// Mirrors `slice::chunks_mut`: all chunks have `chunk_len` elements
/// except possibly the last. An empty slice has zero chunks.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn chunk_count(len: usize, chunk_len: usize) -> usize {
    assert!(chunk_len >= 1, "chunk_len must be >= 1");
    len.div_ceil(chunk_len)
}

/// Half-open element range `[start, end)` of chunk `i` of a `len`-element
/// slice split into `chunk_len`-sized chunks.
///
/// # Panics
/// Panics if `chunk_len == 0` or `i >= chunk_count(len, chunk_len)`.
pub fn chunk_bounds(len: usize, chunk_len: usize, i: usize) -> (usize, usize) {
    assert!(i < chunk_count(len, chunk_len), "chunk index {i} out of range");
    let start = i * chunk_len;
    (start, (start + chunk_len).min(len))
}

/// Raw pointer wrapper so disjoint sub-slices can be formed on worker
/// threads. Soundness: every task index maps to a distinct element range,
/// and each index is claimed exactly once per run.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper — precise closure capture would otherwise capture the bare
    /// `*mut T` field, which is not `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `f(chunk_index, chunk)` over contiguous `chunk_len`-sized chunks of
/// `data` (last chunk may be shorter), using up to [`num_threads`] threads.
///
/// Equivalent to `data.chunks_mut(chunk_len).enumerate().for_each(...)`
/// in every observable way: chunk boundaries are a pure function of
/// `(data.len(), chunk_len)`, each chunk is processed by exactly one task,
/// and no float operation ever crosses a chunk boundary — so the result is
/// bit-identical whether 1, 4, or 64 threads execute it.
///
/// # Panics
/// Panics if `chunk_len == 0`, or propagates a panic from `f`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let n = chunk_count(len, chunk_len);
    match n {
        0 => return,
        1 => {
            f(0, data);
            return;
        }
        _ => {}
    }
    let base = SendPtr(data.as_mut_ptr());
    pool::run_tasks(n, num_threads(), &move |i| {
        let (s, e) = chunk_bounds(len, chunk_len, i);
        // SAFETY: chunk ranges are disjoint and within `data`; each task
        // index is claimed exactly once, and `run_tasks` does not return
        // until every task has finished.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, chunk);
    });
}

/// Like [`par_chunks_mut`], but slices three output buffers in lockstep:
/// task `i` receives chunk `i` of `a` (chunks of `ca`), `b` (chunks of
/// `cb`), and `c` (chunks of `cc`). All three must yield the same number
/// of chunks.
///
/// Used by kernels that produce several disjoint outputs per work item,
/// e.g. the dQ/dK/dV gradients of an attention backward pass chunked per
/// batch-head.
///
/// # Panics
/// Panics if any chunk length is zero or the chunk counts disagree.
pub fn par_chunks_mut_zip3<T, F>(
    a: &mut [T],
    ca: usize,
    b: &mut [T],
    cb: usize,
    c: &mut [T],
    cc: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T], &mut [T]) + Sync,
{
    let n = chunk_count(a.len(), ca);
    assert_eq!(
        n,
        chunk_count(b.len(), cb),
        "par_chunks_mut_zip3: chunk count mismatch between first and second slice"
    );
    assert_eq!(
        n,
        chunk_count(c.len(), cc),
        "par_chunks_mut_zip3: chunk count mismatch between first and third slice"
    );
    match n {
        0 => return,
        1 => {
            f(0, a, b, c);
            return;
        }
        _ => {}
    }
    let (la, lb, lc) = (a.len(), b.len(), c.len());
    let (pa, pb, pc) = (
        SendPtr(a.as_mut_ptr()),
        SendPtr(b.as_mut_ptr()),
        SendPtr(c.as_mut_ptr()),
    );
    pool::run_tasks(n, num_threads(), &move |i| {
        let (sa, ea) = chunk_bounds(la, ca, i);
        let (sb, eb) = chunk_bounds(lb, cb, i);
        let (sc, ec) = chunk_bounds(lc, cc, i);
        // SAFETY: as in `par_chunks_mut` — disjoint ranges, single claim.
        unsafe {
            f(
                i,
                std::slice::from_raw_parts_mut(pa.get().add(sa), ea - sa),
                std::slice::from_raw_parts_mut(pb.get().add(sb), eb - sb),
                std::slice::from_raw_parts_mut(pc.get().add(sc), ec - sc),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_math_basics() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(8, 4), 2);
        assert_eq!(chunk_count(9, 4), 3);
        assert_eq!(chunk_bounds(9, 4, 2), (8, 9));
        assert_eq!(chunk_bounds(8, 4, 1), (4, 8));
    }

    #[test]
    fn par_chunks_mut_matches_serial_fill() {
        let _t = Overrides::threads(4).scope();
        let mut v = vec![0u64; 1000];
        par_chunks_mut(&mut v, 7, |ci, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 7 + j) as u64 * 3 + 1;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut v: Vec<f32> = Vec::new();
        let calls = AtomicUsize::new(0);
        par_chunks_mut(&mut v, 8, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut v = vec![1.0f32; 5];
        // chunk_len > len → one chunk covering everything
        par_chunks_mut(&mut v, 64, |ci, chunk| {
            assert_eq!(ci, 0);
            assert_eq!(chunk.len(), 5);
            chunk[0] = 9.0;
        });
        assert_eq!(v[0], 9.0);
    }

    #[test]
    fn zip3_slices_in_lockstep() {
        let _t = Overrides::threads(3).scope();
        let mut a = vec![0u32; 12]; // chunks of 4 → 3 chunks
        let mut b = vec![0u32; 6]; // chunks of 2 → 3 chunks
        let mut c = vec![0u32; 3]; // chunks of 1 → 3 chunks
        par_chunks_mut_zip3(&mut a, 4, &mut b, 2, &mut c, 1, |i, ca, cb, cc| {
            ca.fill(i as u32);
            cb.fill(10 + i as u32);
            cc.fill(20 + i as u32);
        });
        assert_eq!(a, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(b, [10, 10, 11, 11, 12, 12]);
        assert_eq!(c, [20, 21, 22]);
    }

    #[test]
    #[should_panic(expected = "chunk count mismatch")]
    fn zip3_rejects_mismatched_counts() {
        let mut a = vec![0u32; 8];
        let mut b = vec![0u32; 8];
        let mut c = vec![0u32; 8];
        par_chunks_mut_zip3(&mut a, 2, &mut b, 4, &mut c, 4, |_, _, _, _| {});
    }

    #[test]
    fn nested_parallel_regions_do_not_deadlock() {
        let _t = Overrides::threads(4).scope();
        let mut v = vec![0u32; 64];
        par_chunks_mut(&mut v, 8, |ci, chunk| {
            // nested region inside a (potential) worker: must run serially
            par_chunks_mut(chunk, 2, |cj, inner| {
                inner.fill((ci * 8 + cj) as u32);
            });
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[63], 8 * 7 + 3);
    }

    #[test]
    fn task_panics_propagate() {
        let _t = Overrides::threads(2).scope();
        let result = std::panic::catch_unwind(|| {
            let mut v = vec![0u32; 100];
            par_chunks_mut(&mut v, 10, |ci, _| {
                if ci == 7 {
                    panic!("boom in chunk 7");
                }
            });
        });
        assert!(result.is_err(), "panic in a task must propagate to the caller");
    }

    #[test]
    fn threads_override_wins_over_default() {
        let default = num_threads();
        let pinned = Overrides::threads(default + 2).scope();
        assert_eq!(num_threads(), default + 2);
        drop(pinned);
        assert_eq!(num_threads(), default);
    }

    #[test]
    fn nested_guards_restore_the_outer_value() {
        let _outer = Overrides::simd(false).scope();
        let outer = Overrides::current();
        {
            let _inner = Overrides::threads(5).scope();
            assert_eq!(Overrides::current(), Overrides { threads: Some(5), simd: Some(false) });
        }
        assert_eq!(Overrides::current(), outer);
        let unwound = std::panic::catch_unwind(|| {
            let _inner = Overrides::threads(7).scope();
            panic!("unwind through the guard");
        });
        assert!(unwound.is_err());
        assert_eq!(Overrides::current(), outer, "unwinding restores too");
    }

    #[test]
    fn default_thread_count_is_resolved_once() {
        use std::hint::black_box;
        use std::time::Instant;
        const CALLS: u32 = 100_000;
        const UNCACHED_SAMPLE: u32 = 2_000;
        num_threads(); // warm-up resolves the default
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(num_threads());
        }
        let cached = t.elapsed();
        let t = Instant::now();
        for _ in 0..UNCACHED_SAMPLE {
            let _ = black_box(std::thread::available_parallelism());
        }
        let uncached = t.elapsed() * (CALLS / UNCACHED_SAMPLE);
        assert!(
            cached * 10 < uncached,
            "{CALLS} num_threads() calls took {cached:?}; \
             {CALLS} uncached lookups take about {uncached:?}"
        );
    }
}
