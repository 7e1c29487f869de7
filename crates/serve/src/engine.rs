//! The dynamic micro-batching engine.
//!
//! Requests enter a **bounded** queue ([`std::sync::mpsc::sync_channel`]);
//! a dedicated batcher thread pulls them off and flushes a forward pass
//! when either `max_batch` requests have accumulated or `max_wait_ms` has
//! elapsed since the first request of the batch arrived — the classic
//! latency/throughput trade-off knob.
//!
//! Backpressure is explicit: when the queue is full, [`Submitter::submit`]
//! returns [`Reject::QueueFull`] immediately instead of blocking, so the
//! front end can answer with an error while the system is saturated.
//! Graceful shutdown is the channel's own semantics: dropping every
//! [`Submitter`] and the [`Engine`]'s internal sender lets the batcher
//! drain whatever is still queued, reply to each request, and exit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lttf_obs::trace;

use crate::registry::{LoadedModel, Window};
use crate::stats::{LatencySummary, ServeStats};

/// Interned trace-name indices for the request path, computed once. The
/// async `serve.req` slice is opened at submit on the connection thread
/// and closed at reply on the batcher thread; Chrome connects the two by
/// the id stamped on the [`Job`].
struct ReqTraceNames {
    req: u32,
    dequeue: u32,
    forward: u32,
}

fn req_names() -> &'static ReqTraceNames {
    static NAMES: OnceLock<ReqTraceNames> = OnceLock::new();
    NAMES.get_or_init(|| ReqTraceNames {
        req: trace::intern("serve.req"),
        dequeue: trace::intern("serve.req.dequeue"),
        forward: trace::intern("serve.req.forward"),
    })
}

/// Micro-batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Flush a batch once this many requests are waiting (1 = no batching).
    pub max_batch: usize,
    /// Flush a partial batch this many milliseconds after its first
    /// request arrived.
    pub max_wait_ms: u64,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            max_wait_ms: 5,
            queue_cap: 128,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is full — the client should retry later.
    QueueFull,
    /// The engine is shutting down and accepts no new work.
    Closed,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull => write!(f, "queue full"),
            Reject::Closed => write!(f, "server shutting down"),
        }
    }
}

/// The answer delivered back to a waiting request.
pub type Reply = Result<Vec<f32>, String>;

struct Job {
    window: Window,
    /// Absolute deadline; a job still queued past it is rejected, never
    /// served late.
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Async trace id connecting this request's events across threads
    /// (0 = tracing was off at submit time; emit nothing downstream).
    trace_id: u64,
    reply: mpsc::Sender<Reply>,
}

/// A cheap handle for submitting work to a running [`Engine`].
///
/// The batcher thread exits once every `Submitter` clone **and** the
/// owning `Engine` are dropped; the server drops its submitters before
/// calling [`Engine::shutdown`].
#[derive(Clone)]
pub struct Submitter {
    tx: SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    stats: Arc<ServeStats>,
}

impl Submitter {
    /// Enqueue one prepared window. On success, the returned receiver
    /// yields exactly one [`Reply`] — the forecast, a deadline rejection,
    /// or a model error.
    pub fn submit(
        &self,
        window: Window,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Reply>, Reject> {
        self.submit_window(window, deadline).map_err(|(_, r)| r)
    }

    /// [`Submitter::submit`], but a rejection hands the window back so a
    /// replica pool can retry it against another replica without cloning
    /// the prepared tensors.
    pub(crate) fn submit_window(
        &self,
        window: Window,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Reply>, (Window, Reject)> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let trace_id = if trace::enabled() { trace::next_id() } else { 0 };
        let job = Job {
            window,
            deadline,
            enqueued: Instant::now(),
            trace_id,
            reply: reply_tx,
        };
        // Increment *before* the send: the batcher may dequeue (and
        // decrement for) the job the instant it lands in the channel, and
        // a decrement racing ahead of its increment would wrap the
        // counter below zero.
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match self.tx.try_send(job) {
            Ok(()) => {
                lttf_obs::gauge!("serve.queue_depth", d as u64);
                if trace_id != 0 {
                    // Open only after the enqueue succeeds: every queued
                    // job is answered (even on shutdown drain), so the
                    // batcher's matching async end is guaranteed.
                    trace::async_begin(req_names().req, trace_id);
                }
                Ok(reply_rx)
            }
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                match e {
                    TrySendError::Full(job) => {
                        lttf_obs::counter!("serve.rejected_full", 1);
                        Err((job.window, Reject::QueueFull))
                    }
                    TrySendError::Disconnected(job) => Err((job.window, Reject::Closed)),
                }
            }
        }
    }

    /// Requests currently queued (approximate; for monitoring).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The shared live-stats handle (windowed histograms, per-replica
    /// counters) behind this submitter.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }
}

/// A model plus its batcher thread.
pub struct Engine {
    tx: SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    stats: Arc<ServeStats>,
    worker: JoinHandle<()>,
}

impl Engine {
    /// Spawn the batcher thread for `model`.
    pub fn start(model: Arc<LoadedModel>, cfg: BatchConfig) -> Engine {
        // Live stats are histogram-backed (O(1) memory, locked once per
        // batch by the writer) so monitoring can read windowed
        // percentiles while the server runs, not only at shutdown.
        Engine::start_with(model, cfg, ServeStats::new(1), 0, None, "lttf-batcher")
    }

    /// [`Engine::start`] with the pieces a replica pool shares or pins:
    /// a stats accumulator common to all replicas of one model, this
    /// engine's replica index within it, an optional per-replica thread
    /// budget for the forward passes, and a thread label naming the
    /// model and replica.
    pub(crate) fn start_with(
        model: Arc<LoadedModel>,
        cfg: BatchConfig,
        stats: Arc<ServeStats>,
        replica: usize,
        threads: Option<usize>,
        label: &str,
    ) -> Engine {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be >= 1");
        let (tx, rx) = mpsc::sync_channel(cfg.queue_cap);
        let depth = Arc::new(AtomicUsize::new(0));
        let depth2 = Arc::clone(&depth);
        let stats2 = Arc::clone(&stats);
        let worker = thread::Builder::new()
            .name(label.to_string())
            .spawn(move || {
                // Pin this replica's forwards to its share of the thread
                // budget; the setting is thread-local, so replicas with
                // disjoint budgets never fight over a global knob.
                lttf_parallel::set_thread_threads_override(threads);
                batcher_loop(model, cfg, rx, depth2, stats2, replica)
            })
            .expect("spawn batcher thread");
        Engine { tx, depth, stats, worker }
    }

    /// A submission handle for connection threads.
    pub fn submitter(&self) -> Submitter {
        Submitter {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Stop accepting work, drain everything already queued (each queued
    /// request still gets a reply), join the batcher, and return the
    /// latency summary of the run.
    ///
    /// All [`Submitter`] clones must be dropped first, or this blocks
    /// until they are.
    pub fn shutdown(self) -> LatencySummary {
        drop(self.tx);
        self.worker.join().expect("batcher thread panicked");
        self.stats.summary()
    }
}

/// Answer every job whose deadline is already past `now` with a reject
/// and return the ones still worth serving.
fn reject_expired(jobs: Vec<Job>, now: Instant) -> Vec<Job> {
    let (live, expired): (Vec<Job>, Vec<Job>) = jobs
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|dl| now < dl));
    for job in expired {
        lttf_obs::counter!("serve.deadline_expired", 1);
        if job.trace_id != 0 {
            trace::async_end(req_names().req, job.trace_id);
        }
        let _ = job.reply.send(Err("deadline exceeded".to_string()));
    }
    live
}

fn batcher_loop(
    model: Arc<LoadedModel>,
    cfg: BatchConfig,
    rx: Receiver<Job>,
    depth: Arc<AtomicUsize>,
    stats: Arc<ServeStats>,
    replica: usize,
) {
    let wait = Duration::from_millis(cfg.max_wait_ms);
    // Outer recv blocks until work arrives or every sender is gone.
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        let flush_at = Instant::now() + wait;
        while jobs.len() < cfg.max_batch {
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            match rx.recv_timeout(flush_at - now) {
                Ok(job) => jobs.push(job),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let d = depth
            .fetch_sub(jobs.len(), Ordering::Relaxed)
            .saturating_sub(jobs.len());
        lttf_obs::gauge!("serve.queue_depth", d as u64);

        for job in &jobs {
            if job.trace_id != 0 {
                trace::async_instant(req_names().dequeue, job.trace_id);
            }
        }
        // Deadlines are re-checked on the fully assembled batch, with a
        // timestamp taken *after* the `max_wait_ms` accumulation window:
        // a request whose deadline passed while it sat in the queue — or
        // while its batch waited out the flush timer — is rejected rather
        // than served late, and its spot in the forward pass goes to
        // requests that can still make theirs.
        // `dequeued` splits each request's life into queue wait (submit
        // -> batch assembled) and everything after; the forward duration
        // is the batch's shared service time.
        let dequeued = Instant::now();
        let live = reject_expired(jobs, dequeued);
        if live.is_empty() {
            continue;
        }

        // Cost attribution: process-CPU and allocation deltas around the
        // forward, amortized per request. Process (not thread) CPU time,
        // because the pool workers do the compute while this batcher
        // thread mostly sleeps; under concurrent replicas both deltas
        // over-attribute — an upper bound, documented in DESIGN.md §13.
        // Both read 0 when telemetry is compiled out.
        let cpu_before = lttf_obs::cputime::process_cpu_ns();
        let alloc_before = lttf_obs::alloc::alloc_bytes_total();
        let rows = {
            let _span = lttf_obs::span!("serve.batch");
            lttf_obs::gauge!("serve.batch_size", live.len() as u64);
            let windows: Vec<&Window> = live.iter().map(|j| &j.window).collect();
            model.forecast_rows(&windows)
        };
        let service_ns = dequeued.elapsed().as_nanos() as u64;
        let n = live.len() as u64;
        let cpu_ns_per_req =
            lttf_obs::cputime::process_cpu_ns().saturating_sub(cpu_before) / n;
        let alloc_bytes_per_req =
            lttf_obs::alloc::alloc_bytes_total().saturating_sub(alloc_before) / n;
        let samples: Vec<(u64, u64)> = live
            .iter()
            .map(|job| {
                let queue_ns = dequeued.duration_since(job.enqueued).as_nanos() as u64;
                (job.enqueued.elapsed().as_nanos() as u64, queue_ns)
            })
            .collect();
        stats.record_batch(replica, &samples, service_ns, cpu_ns_per_req, alloc_bytes_per_req);
        for (job, row) in live.into_iter().zip(rows) {
            if job.trace_id != 0 {
                trace::async_instant(req_names().forward, job.trace_id);
                trace::async_end(req_names().req, job.trace_id);
            }
            // A receiver that gave up (disconnected client) is fine.
            let _ = job.reply.send(Ok(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tiny_model;
    use lttf_tensor::{Rng, Tensor};

    fn raw_window(model: &LoadedModel, seed: u64) -> Vec<f32> {
        Tensor::randn(&[model.window_len()], &mut Rng::seed(seed))
            .data()
            .to_vec()
    }

    #[test]
    fn serves_and_matches_direct_forward() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        let raw = raw_window(&model, 1);
        let w = model.make_window(&raw, 0, 60).unwrap();
        let rx = sub.submit(w, None).unwrap();
        let got = rx.recv().unwrap().unwrap();
        assert_eq!(got, model.forecast_one(&raw, 0, 60).unwrap());
        drop(sub);
        let summary = engine.shutdown();
        assert_eq!(summary.count, 1);
        assert!(summary.p50_ns > 0);
    }

    #[test]
    fn batches_accumulate_up_to_max_batch() {
        let model = Arc::new(tiny_model());
        // Long wait so concurrent submissions coalesce into one batch.
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 4,
                max_wait_ms: 200,
                queue_cap: 16,
            },
        );
        let sub = engine.submitter();
        let raws: Vec<Vec<f32>> = (0..4).map(|i| raw_window(&model, i)).collect();
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                sub.submit(w, None).unwrap()
            })
            .collect();
        for (raw, rx) in raws.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, model.forecast_one(raw, 0, 60).unwrap());
        }
        drop(sub);
        assert_eq!(engine.shutdown().count, 4);
    }

    #[test]
    fn queue_full_rejects_instead_of_blocking() {
        let model = Arc::new(tiny_model());
        // Capacity 1 and a long flush window: the second un-flushed
        // submission can find the queue occupied.
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 64,
                max_wait_ms: 500,
                queue_cap: 1,
            },
        );
        let sub = engine.submitter();
        let mut rejected = false;
        let mut pending = Vec::new();
        for i in 0..50 {
            let w = model.make_window(&raw_window(&model, i), 0, 60).unwrap();
            match sub.submit(w, None) {
                Ok(rx) => pending.push(rx),
                Err(Reject::QueueFull) => {
                    rejected = true;
                    break;
                }
                Err(other) => panic!("unexpected reject: {other:?}"),
            }
        }
        assert!(rejected, "a capacity-1 queue never reported QueueFull");
        for rx in pending {
            rx.recv().unwrap().unwrap();
        }
        drop(sub);
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_gets_reject_reply() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        let w = model.make_window(&raw_window(&model, 3), 0, 60).unwrap();
        // A deadline already in the past when the batcher picks it up.
        let rx = sub.submit(w, Some(Instant::now())).unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        drop(sub);
        // Expired requests never count toward served latencies.
        assert_eq!(engine.shutdown().count, 0);
    }

    #[test]
    fn deadline_expiring_during_batch_wait_is_rejected() {
        let model = Arc::new(tiny_model());
        // A long flush window and a short deadline: the job is dequeued
        // immediately (it is the batch's first member, deadline still in
        // the future), but its deadline expires while the batch waits out
        // `max_wait_ms`. The post-assembly recheck must reject it instead
        // of serving it late.
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 8,
                max_wait_ms: 300,
                queue_cap: 8,
            },
        );
        let sub = engine.submitter();
        let w = model.make_window(&raw_window(&model, 4), 0, 60).unwrap();
        let rx = sub
            .submit(w, Some(Instant::now() + Duration::from_millis(30)))
            .unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        drop(sub);
        assert_eq!(engine.shutdown().count, 0, "late requests must not be served");
    }

    #[test]
    fn traced_request_exports_connected_async_slice() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        trace::set_enabled(true);
        let w = model.make_window(&raw_window(&model, 9), 0, 60).unwrap();
        let rx = sub.submit(w, None).unwrap();
        rx.recv().unwrap().unwrap();
        trace::set_enabled(false);
        drop(sub);
        engine.shutdown();

        let e = trace::export_chrome();
        let summary = trace::validate_chrome(&e.json).expect("valid trace");
        assert!(summary.async_slices >= 1, "{}", e.json);
        assert!(e.json.contains("\"name\":\"serve.req\""), "{}", e.json);
        assert!(e.json.contains("\"name\":\"serve.req.dequeue\""), "{}", e.json);
        assert!(e.json.contains("\"cat\":\"req\""), "{}", e.json);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 2,
                max_wait_ms: 50,
                queue_cap: 32,
            },
        );
        let sub = engine.submitter();
        let raws: Vec<Vec<f32>> = (0..6).map(|i| raw_window(&model, 10 + i)).collect();
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                sub.submit(w, None).unwrap()
            })
            .collect();
        // Drop every sender immediately: the batcher must still answer
        // all six queued requests before exiting.
        drop(sub);
        let summary = engine.shutdown();
        assert_eq!(summary.count, 6);
        for (raw, rx) in raws.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, model.forecast_one(raw, 0, 60).unwrap());
        }
    }
}
