//! `train`: Conformer training at the `lttf profile` shape.
//!
//! One closed-loop trainer. Each round builds a fresh model, runs
//! [`ROUND_STEPS`] steps of `lttf_eval::train` (one step per epoch, so
//! the per-epoch wall times are the step times), then validates with
//! `lttf_eval::evaluate_subset`. Every round of one seed must reproduce
//! the first round's losses and validation MSE bit for bit.

use crate::metrics::{set_tails, Outcome};
use crate::spans::Tracer;
use crate::stats::{mean, median, samples_for_tail, sorted};
use crate::Args;
use lttf::autograd::Graph;
use lttf::conformer::ConformerConfig;
use lttf::data::synth::{Dataset, SynthSpec};
use lttf::data::{Split, WindowDataset};
use lttf::eval::{evaluate_subset, train, TrainOptions, TrainedModel};
use lttf::nn::{Adam, Fwd, GradClip, Optimizer};
use lttf::obs::alloc;
use lttf::tensor::Rng;
use std::time::Instant;

const C_IN: usize = 4;
const LX: usize = 96;
const LY: usize = 24;
const D_MODEL: usize = 32;
const BATCH: usize = 32;
const SERIES_LEN: usize = 2_400;
/// Model initialisation is fixed; the data and shuffling follow the seed.
const INIT_SEED: u64 = 7;
const ROUND_STEPS: usize = 12;
const VAL_WINDOWS: usize = 128;
const SETUP_REPEATS: usize = 5;

struct Setup {
    cfg: ConformerConfig,
    train_set: WindowDataset,
    val_set: WindowDataset,
}

fn config() -> ConformerConfig {
    let mut cfg = ConformerConfig::new(C_IN, LX, LY);
    cfg.d_model = D_MODEL;
    cfg.n_heads = 4;
    cfg.multiscale_strides = vec![1, LX / 4];
    cfg
}

fn options(seed: u64) -> TrainOptions {
    TrainOptions {
        epochs: ROUND_STEPS,
        batch_size: BATCH,
        lr: 1e-3,
        patience: 0,
        lr_decay: 1.0,
        max_batches: 1,
        clip: 5.0,
        seed,
        ..TrainOptions::default()
    }
}

/// Data, model and one warm-up step: what a user pays before training.
fn setup(seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let series = Dataset::Ettm1.generate(SynthSpec {
        len: SERIES_LEN,
        dims: Some(C_IN),
        seed,
    });
    let mk = |split| WindowDataset::new(&series, split, (0.7, 0.15), LX, LY, LX / 2);
    let (train_set, val_set) = (mk(Split::Train), mk(Split::Val));
    let cfg = config();
    let model = TrainedModel::from_conformer(&cfg, INIT_SEED);
    let idx: Vec<usize> = (0..BATCH).collect();
    let batch = train_set.batch(&idx);
    let g = Graph::new();
    let cx = Fwd::new(&g, model.params(), true, seed);
    let loss = model.batch_loss(&cx, &batch);
    std::hint::black_box(g.backward(loss));
    let secs = t.elapsed().as_secs_f64();
    (
        Setup {
            cfg,
            train_set,
            val_set,
        },
        secs,
    )
}

/// One round through `lttf_eval::train`.
struct Round {
    losses: Vec<f32>,
    step_ms: Vec<f64>,
    val: f32,
    /// Wall seconds, allocations and allocated bytes of the `train` call.
    wall: f64,
    allocs: u64,
    alloc_bytes: u64,
}

fn round_untraced(s: &Setup, seed: u64) -> Round {
    let mut model = TrainedModel::from_conformer(&s.cfg, INIT_SEED);
    let a0 = alloc::snapshot();
    let t = Instant::now();
    let report = train(&mut model, &s.train_set, None, &options(seed));
    let wall = t.elapsed().as_secs_f64();
    let a1 = alloc::snapshot();
    let val = evaluate_subset(&model, &s.val_set, BATCH, VAL_WINDOWS).mse;
    Round {
        step_ms: report.epoch_times.iter().map(|&t| t as f64 * 1e3).collect(),
        losses: report.train_losses,
        val,
        wall,
        allocs: a1.allocs - a0.allocs,
        alloc_bytes: a1.alloc_bytes - a0.alloc_bytes,
    }
}

/// The same round as `lttf_eval::train` runs it, step by step through
/// the public layer functions, with a span around each call.
fn round_traced(s: &Setup, seed: u64, tr: &mut Tracer, op0: u64) -> (Vec<f32>, f32, f64) {
    let opts = options(seed);
    let mut model = TrainedModel::from_conformer(&s.cfg, INIT_SEED);
    let t = Instant::now();
    let mut opt = Adam::new(opts.lr);
    let clip = (opts.clip > 0.0).then(|| GradClip::new(opts.clip));
    let mut rng = Rng::seed(opts.seed);
    let mut losses = Vec::with_capacity(opts.epochs);
    for epoch in 0..opts.epochs {
        tr.set_op(op0 + epoch as u64);
        let step = tr.begin("train.step");
        let mut batches = s.train_set.shuffled_batches(opts.batch_size, &mut rng);
        if batches.is_empty() {
            batches = vec![(0..s.train_set.len()).collect()];
        }
        batches.truncate(opts.max_batches);
        let mut epoch_loss = 0.0f32;
        let mut ran = 0usize;
        for (bi, idx) in batches.iter().enumerate() {
            let batch = tr.time("data.batch", || s.train_set.batch(idx));
            let g = Graph::new();
            let cx = Fwd::new(
                &g,
                model.params(),
                true,
                opts.seed.wrapping_add((epoch * 10_007 + bi) as u64),
            );
            let loss = tr.time("autograd.forward", || model.batch_loss(&cx, &batch));
            epoch_loss += loss.value().item();
            ran = bi + 1;
            let grads = tr.time("autograd.backward", || g.backward(loss));
            let update = tr.begin("nn.update");
            let collected = cx.collect_grads(&grads);
            let ps = model.params_mut();
            ps.zero_grad();
            ps.apply_grads(collected);
            if let Some(c) = &clip {
                c.apply(ps);
            }
            std::hint::black_box(ps.grad_norm());
            opt.step(ps);
            tr.end(update);
        }
        losses.push(epoch_loss / ran.max(1) as f32);
        opt.set_lr(opt.lr() * opts.lr_decay);
        tr.end(step);
    }
    let wall = t.elapsed().as_secs_f64();
    tr.set_op(op0 + opts.epochs as u64);
    let val = tr.time("eval.validate", || {
        evaluate_subset(&model, &s.val_set, BATCH, VAL_WINDOWS).mse
    });
    (losses, val, wall)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Check one round against the first; a mismatch fails the round.
fn check_round(
    out: &mut Outcome,
    first: &mut Option<(Vec<f32>, f32)>,
    losses: &[f32],
    val: f32,
    what: &str,
) {
    out.attempted += 1;
    if !val.is_finite() {
        out.fail(format!("{what}: validation MSE {val} is not finite"));
        return;
    }
    match first {
        None => *first = Some((losses.to_vec(), val)),
        Some((l0, v0)) => {
            if !same_bits(l0, losses) || v0.to_bits() != val.to_bits() {
                out.fail(format!(
                    "{what}: losses {losses:?} / val {val} differ from {l0:?} / {v0}"
                ));
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let (built, secs) = setup(args.seed);
        setup_s.push(secs);
        s = Some(built);
    }
    let s = s.expect("at least one setup");
    out.set("setup_s", median(&sorted(&setup_s)));
    if args.trace {
        run_traced(args, &s, &mut out);
    } else {
        run_untraced(args, &s, &mut out);
    }
    out
}

fn run_untraced(args: &Args, s: &Setup, out: &mut Outcome) {
    let cpu0 = lttf::obs::cputime::process_cpu_ns();
    alloc::reset_peak();
    let t0 = Instant::now();
    let mut first = None;
    let mut step_ms = Vec::new();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let r = round_untraced(s, args.seed);
        check_round(out, &mut first, &r.losses, r.val, "train round");
        out.attempted += r.step_ms.len() as u64;
        step_ms.extend(r.step_ms);
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu_ms = (lttf::obs::cputime::process_cpu_ns() - cpu0) as f64 / 1e6;
    let peak = alloc::peak_bytes() as f64 / (1 << 20) as f64;
    let steps = step_ms.len();
    out.set("peak_heap_mib", peak);
    out.set("cpu_ms_per_op", cpu_ms / steps as f64);
    out.set("ops_per_s", (steps * BATCH) as f64 / wall);
    // The mean, not the median: on a shared host the step time switches
    // between levels for seconds at a time, and the median of such a
    // mixture jumps from one level to the other as the share of time
    // spent at each crosses a half, where the mean moves in proportion.
    out.set("latency_ms", mean(&step_ms));
    out.note("latency_samples", steps);
    out.note("median_step_ms", median(&sorted(&step_ms)));
}

fn run_traced(args: &Args, s: &Setup, out: &mut Outcome) {
    let mut tr = Tracer::new(true);
    let mut first = None;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut traced_steps = 0usize;
    let mut untraced_ms = Vec::new();
    let mut op = 0u64;
    lttf::obs::reset();
    let t0 = Instant::now();
    // Alternate untraced rounds through `lttf_eval::train` with traced
    // replicas of them, swapping which goes first, so both see the same
    // machine state. Continue past the run length (up to three times as
    // long) until the steps support a p90.
    let need = samples_for_tail(0.9);
    let mut pair = 0;
    while t0.elapsed().as_secs_f64() < args.seconds
        || traced_steps == 0
        || (untraced_ms.len() + traced_steps < need
            && t0.elapsed().as_secs_f64() < 3.0 * args.seconds)
    {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if traced {
                let (losses, val, wall) = round_traced(s, args.seed, &mut tr, op);
                op += ROUND_STEPS as u64 + 1;
                traced_s += wall;
                traced_steps += losses.len();
                check_round(out, &mut first, &losses, val, "traced train round");
            } else {
                let r = round_untraced(s, args.seed);
                allocs += r.allocs;
                alloc_bytes += r.alloc_bytes;
                untraced_ms.extend(&r.step_ms);
                untraced_s += r.wall;
                check_round(out, &mut first, &r.losses, r.val, "train round");
            }
        }
        pair += 1;
    }
    let snap = lttf::obs::snapshot();
    let steps = (untraced_ms.len() + traced_steps) as f64;
    out.set(
        "quality.mse",
        first.as_ref().map_or(f64::NAN, |(_, v)| *v as f64),
    );
    // Step times of both passes: the spans cost a few microseconds a step.
    let mut step_ms = untraced_ms.clone();
    step_ms.extend(
        tr.spans()
            .iter()
            .filter(|sp| sp.name == "train.step")
            .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e6),
    );
    set_tails(out, std::slice::from_ref(&step_ms));
    let times = tr.self_times();
    let ms = |name| tr.mean_self(&times, name, 1e6);
    out.set("data.batch_ms", ms("data.batch"));
    out.set("autograd.forward_ms", ms("autograd.forward"));
    out.set("autograd.backward_ms", ms("autograd.backward"));
    out.set("nn.update_ms", ms("nn.update"));
    out.set("eval.validate_ms", ms("eval.validate"));
    out.set(
        "train.allocs_per_step",
        allocs as f64 / untraced_ms.len() as f64,
    );
    out.set(
        "train.alloc_mib_per_step",
        alloc_bytes as f64 / untraced_ms.len() as f64 / (1 << 20) as f64,
    );
    crate::serve_common::kernel_metrics(out, &snap, steps);
    // The untraced and traced passes run the same steps; the difference
    // in their wall time is what the spans cost.
    out.set(
        "obs.trace_overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    out.note("traced_steps", traced_steps);
    crate::write_spans(args, &tr);
}
