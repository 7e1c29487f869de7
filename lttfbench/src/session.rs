//! `session_stream`: many short streaming sessions, closed loop.
//!
//! Two connections each run sessions back to back: `open`, [`PUSHES`]
//! single-row `push`es, `close`. The first `lx - 1` pushes of a session
//! only fill the server's rolling window; every later push answers with
//! a forecast. Session `j` of connection `k` streams a segment of a
//! seeded synthetic series whose start is drawn from the seed, `k` and
//! `j` alone.

use crate::metrics::{blocks, set_latency, set_tails, Outcome};
use crate::schedule::SplitMix64;
use crate::serve_common::{
    kernel_metrics, loaded_model, scaled_sq_error, scrape_stats, series, server_metrics,
    start_server, target_std, truth, window_values, Conn,
};
use crate::spans::Tracer;
use crate::stats::{median, sorted, tail};
use crate::Args;
use lttf::conformer::ConformerConfig;
use lttf::data::TimeSeries;
use lttf::obs::alloc;
use lttf::serve::protocol::{
    format_close, format_open, format_push, format_push_ok, format_push_pending,
    parse_close_response, parse_command, parse_open_response, parse_push_response, Command,
    PushReply,
};
use lttf::serve::{
    BatchConfig, DriftConfig, DriftMonitor, Engine, LoadedModel, SessionConfig, SessionShape,
    SessionTable,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const C_IN: usize = 2;
const LX: usize = 8;
const LY: usize = 4;
const INIT_SEED: u64 = 3;
const PUSHES: usize = 3 * LX;
const SERIES_LEN: usize = 20_000;
const CONNS: usize = 2;
const SETUP_REPEATS: usize = 5;

fn config() -> ConformerConfig {
    ConformerConfig::tiny(C_IN, LX, LY)
}

struct Inputs {
    s: TimeSeries,
    dt: i64,
    seed: u64,
}

impl Inputs {
    /// First series row of session `j` on connection `k`.
    fn start(&self, k: usize, j: usize) -> usize {
        let mut rng = SplitMix64::new(self.seed ^ ((k as u64) << 40) ^ j as u64);
        rng.below((SERIES_LEN - PUSHES - LY) as u64) as usize
    }

    fn row(&self, start: usize, p: usize) -> Vec<f32> {
        window_values(&self.s, start + p, 1)
    }
}

/// One push and what it answered.
struct PushRec {
    start: usize,
    /// 0-based position of the push in its session.
    pos: usize,
    /// Seconds from the start of the run to the send.
    at_s: f64,
    latency_ms: f64,
    reply: Result<PushReply, String>,
}

#[derive(Default)]
struct Load {
    pushes: Vec<PushRec>,
    /// Client turnaround: reply received to next request sent.
    lag_ms: Vec<f64>,
    /// Failed opens and closes, and lost connections.
    errors: Vec<String>,
    control_ops: u64,
    elapsed_s: f64,
}

/// Run sessions on one connection until `deadline` (at least one).
fn connection(
    k: usize,
    addr: SocketAddr,
    inp: &Inputs,
    run_start: Instant,
    deadline: Instant,
) -> Load {
    let mut c = Conn::open(addr);
    let mut load = Load::default();
    let mut id = 0u64;
    let mut j = 0;
    while j == 0 || Instant::now() < deadline {
        let start = inp.start(k, j);
        j += 1;
        id += 1;
        load.control_ops += 2;
        let opened = c
            .roundtrip(&format_open(id, None, inp.s.timestamps[start], inp.dt))
            .map_err(|e| e.to_string())
            .and_then(|l| parse_open_response(l)?.1);
        let session = match opened {
            Ok((s, rows)) if rows == LX => s,
            Ok((_, rows)) => {
                load.errors
                    .push(format!("open: window {rows}, expected {LX}"));
                continue;
            }
            Err(e) => {
                load.errors.push(format!("open: {e}"));
                break;
            }
        };
        let mut last = Instant::now();
        for pos in 0..PUSHES {
            id += 1;
            let line = format_push(id, session, &inp.row(start, pos));
            let sent = Instant::now();
            load.lag_ms.push((sent - last).as_secs_f64() * 1e3);
            let reply = c.roundtrip(&line).map_err(|e| e.to_string()).and_then(|l| {
                match parse_push_response(l)? {
                    (rid, r) if rid == id => r,
                    (rid, _) => Err(format!("reply id {rid} for push {id}")),
                }
            });
            last = Instant::now();
            load.pushes.push(PushRec {
                start,
                pos,
                at_s: (sent - run_start).as_secs_f64(),
                latency_ms: (last - sent).as_secs_f64() * 1e3,
                reply,
            });
        }
        id += 1;
        let closed = c
            .roundtrip(&format_close(id, session))
            .map_err(|e| e.to_string())
            .and_then(|l| parse_close_response(l)?.1);
        let forecasts = (PUSHES + 1 - LX) as u64;
        match closed {
            Ok((pushed, f)) if pushed == PUSHES as u64 && f == forecasts => {}
            Ok((pushed, f)) => load
                .errors
                .push(format!("close: pushed {pushed}, forecasts {f}")),
            Err(e) => load.errors.push(format!("close: {e}")),
        }
    }
    load.elapsed_s = run_start.elapsed().as_secs_f64();
    load
}

fn drive(addr: SocketAddr, inp: &Inputs, seconds: f64) -> Load {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let parts: Vec<Load> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..CONNS)
            .map(|k| sc.spawn(move || connection(k, addr, inp, start, deadline)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Load::default();
    for p in parts {
        all.pushes.extend(p.pushes);
        all.lag_ms.extend(p.lag_ms);
        all.errors.extend(p.errors);
        all.control_ops += p.control_ops;
        all.elapsed_s = all.elapsed_s.max(p.elapsed_s);
    }
    all
}

/// The forecast a push must answer, or `None` while the window fills.
fn expected(reference: &LoadedModel, inp: &Inputs, start: usize, pos: usize) -> Option<Vec<f32>> {
    let first = (pos + 1).checked_sub(LX)?;
    let values = window_values(&inp.s, start + first, LX);
    Some(
        reference
            .forecast_one(&values, inp.s.timestamps[start + first], inp.dt)
            .expect("benchmark windows are well formed"),
    )
}

/// Check every push reply against `forecast_one` on the session's
/// trailing window; returns the scaled MSE of the forecasts.
fn verify(out: &mut Outcome, load: &Load, inp: &Inputs, reference: &LoadedModel) -> f64 {
    out.attempted += load.pushes.len() as u64 + load.control_ops;
    for e in &load.errors {
        out.fail(e.clone());
    }
    let std = target_std(&inp.s);
    let (mut sq, mut n) = (0.0, 0usize);
    for r in &load.pushes {
        let want = expected(reference, inp, r.start, r.pos);
        match (&r.reply, want) {
            (Ok(PushReply::Pending(k)), None) if *k == LX - 1 - r.pos => {}
            (
                Ok(PushReply::Forecast {
                    forecast,
                    adapted: false,
                    ..
                }),
                Some(w),
            ) if crate::same_bits(forecast, &w) => {
                sq += scaled_sq_error(forecast, &truth(&inp.s, r.start + r.pos + 1, LY), std);
                n += LY;
            }
            (Err(e), _) => out.fail(format!("push: {e}")),
            (got, _) => out.fail(format!(
                "push {} of a session: answer {got:?} is not forecast_one on its window",
                r.pos
            )),
        }
    }
    sq / n.max(1) as f64
}

/// Start the server and run one warm-up session.
fn setup(inp: &Inputs) -> (lttf::serve::ServerHandle, f64) {
    let t = Instant::now();
    let handle = start_server(loaded_model(&config(), INIT_SEED, &inp.s));
    let mut c = Conn::open(handle.addr());
    let opened = c
        .roundtrip(&format_open(1, None, inp.s.timestamps[0], inp.dt))
        .map(str::to_string);
    let (_, Ok((session, _))) =
        parse_open_response(&opened.expect("open answered")).expect("open parses")
    else {
        panic!("warm-up open refused");
    };
    for pos in 0..PUSHES {
        let reply = c
            .roundtrip(&format_push(2, session, &inp.row(0, pos)))
            .expect("push answered");
        assert!(
            reply.contains("\"ok\":true"),
            "warm-up push failed: {reply}"
        );
    }
    c.roundtrip(&format_close(3, session))
        .expect("close answered");
    (handle, t.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let s = series(args.seed, SERIES_LEN, C_IN);
    let dt = s.timestamps[1] - s.timestamps[0];
    let inp = Inputs {
        s,
        dt,
        seed: args.seed,
    };
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(h) = server.take() {
            lttf::serve::ServerHandle::shutdown(h);
        }
        let (h, secs) = setup(&inp);
        setup_s.push(secs);
        server = Some(h);
    }
    out.set("setup_s", median(&sorted(&setup_s)));
    let server = server.expect("at least one setup");
    let reference = loaded_model(&config(), INIT_SEED, &inp.s);
    if args.trace {
        lttf::obs::reset();
        let load = drive(server.addr(), &inp, args.seconds / 2.0);
        let snap = lttf::obs::snapshot();
        let lag = sorted(&load.lag_ms);
        out.set("generator.lag_p99_ms", tail(&lag, 0.99).unwrap_or(f64::NAN));
        out.set("generator.achieved_ratio", 1.0);
        let wire = sorted(&load.pushes.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
        match scrape_stats(server.addr()) {
            Ok(stats) => server_metrics(&mut out, &stats, median(&wire)),
            Err(e) => out.fail(format!("stats scrape: {e}")),
        }
        kernel_metrics(&mut out, &snap, load.pushes.len().max(1) as f64);
        server.shutdown();
        let mse = verify(&mut out, &load, &inp, &reference);
        out.set("quality.mse", mse);
        set_tails(
            &mut out,
            &blocks(load.pushes.iter().map(|r| (r.at_s, r.latency_ms))),
        );
        replay(&mut out, &inp, args, args.seconds / 4.0);
        return out;
    }
    let cpu0 = lttf::obs::cputime::process_cpu_ns();
    alloc::reset_peak();
    let load = drive(server.addr(), &inp, args.seconds);
    let cpu_ms = (lttf::obs::cputime::process_cpu_ns() - cpu0) as f64 / 1e6;
    let peak = alloc::peak_bytes() as f64 / (1 << 20) as f64;
    server.shutdown();
    verify(&mut out, &load, &inp, &reference);
    let n = load.pushes.len();
    let lat = blocks(load.pushes.iter().map(|r| (r.at_s, r.latency_ms)));
    out.set("peak_heap_mib", peak);
    out.set("cpu_ms_per_op", cpu_ms / n.max(1) as f64);
    out.set("ops_per_s", n as f64 / load.elapsed_s);
    set_latency(&mut out, &lat);
    out.note("pushes", n);
    out
}

/// Replay sessions in process, once untraced and once traced, through
/// the functions the server calls for each push: parse, the session
/// table, the drift sketch, window preparation, the engine round trip
/// and the reply format; plus direct forwards at batch 1 and 2.
fn replay(out: &mut Outcome, inp: &Inputs, args: &Args, budget_s: f64) {
    let model = Arc::new(loaded_model(&config(), INIT_SEED, &inp.s));
    let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
    let sub = engine.submitter();
    let drift = DriftMonitor::new(
        model.profile().cloned(),
        model.target_col(),
        DriftConfig::default(),
    );
    let shape = SessionShape {
        c_in: C_IN,
        window_rows: LX,
        keep_rows: LX,
    };
    let mut pass = |tr: &mut Tracer, limit: usize, budget: Option<f64>| -> (usize, f64, u64) {
        let table = SessionTable::new(SessionConfig::default());
        let t0 = Instant::now();
        let (mut allocs, mut pushes, mut op) = (0u64, 0usize, 0u64);
        let mut j = 0;
        while pushes < limit && budget.is_none_or(|b| t0.elapsed().as_secs_f64() < b) {
            let start = inp.start(j % CONNS, j / CONNS);
            j += 1;
            let session = table
                .open("bench", shape, inp.s.timestamps[start], inp.dt)
                .expect("the table has room");
            let mut prev = None;
            for pos in 0..PUSHES {
                op += 1;
                tr.set_op(op);
                let line = format_push(op, session, &inp.row(start, pos));
                let root = tr.begin("serve.push");
                let a0 = alloc::allocs_total();
                let values = match tr.time("protocol.parse", || parse_command(&line)) {
                    Ok(Command::Push { values, .. }) => values,
                    other => panic!("replayed line did not parse as a push: {other:?}"),
                };
                let pushed = tr
                    .time("session.push", || table.push(session, &values, shape))
                    .expect("session is open");
                tr.time("drift.observe", || drift.observe_input(&values));
                let Some((win, win_t0)) = pushed.window else {
                    std::hint::black_box(tr.time("protocol.format", || {
                        format_push_pending(op, session, pushed.pending)
                    }));
                    allocs += alloc::allocs_total() - a0;
                    tr.end(root);
                    pushes += 1;
                    out.attempted += 1;
                    continue;
                };
                let w = tr
                    .time("registry.prepare", || {
                        model.make_window(&win, win_t0, inp.dt)
                    })
                    .expect("well formed");
                let a1 = alloc::allocs_total();
                let b1 = tr.time("registry.forward_b1", || model.forecast_rows(&[&w]));
                if let Some(p) = &prev {
                    std::hint::black_box(
                        tr.time("registry.forward_b2", || model.forecast_rows(&[p, &w])),
                    );
                }
                let w2 = model
                    .make_window(&win, win_t0, inp.dt)
                    .expect("well formed");
                let a2 = alloc::allocs_total();
                let reply = tr.time("engine.roundtrip", || {
                    sub.submit(w2, None).map(|rx| rx.recv())
                });
                let served = match reply {
                    Ok(Ok(Ok(f))) => f,
                    other => {
                        out.fail(format!("in-process push: {other:?}"));
                        tr.end(root);
                        continue;
                    }
                };
                std::hint::black_box(tr.time("protocol.format", || {
                    format_push_ok(op, session, 1, false, &served)
                }));
                allocs += (a1 - a0) + (alloc::allocs_total() - a2);
                tr.end(root);
                pushes += 1;
                out.attempted += 1;
                let want = expected(&model, inp, start, pos);
                if !crate::same_bits(&served, &b1[0])
                    || want.is_none_or(|w| !crate::same_bits(&served, &w))
                {
                    out.fail(format!(
                        "in-process push {pos}: forecast differs from forecast_one"
                    ));
                }
                prev = Some(w);
            }
            table.close(session).expect("session is open");
        }
        (pushes, t0.elapsed().as_secs_f64(), allocs)
    };
    let (k, untraced_s, allocs) = pass(&mut Tracer::new(false), usize::MAX, Some(budget_s));
    let mut tr = Tracer::new(true);
    let (_, traced_s, _) = pass(&mut tr, k, None);
    drop(sub);
    engine.shutdown();
    let times = tr.self_times();
    let us = |name| tr.mean_self(&times, name, 1e3);
    out.set("protocol.parse_us", us("protocol.parse"));
    out.set("protocol.format_us", us("protocol.format"));
    out.set("session.push_us", us("session.push"));
    out.set("drift.observe_us", us("drift.observe"));
    out.set("registry.prepare_us", us("registry.prepare"));
    out.set("registry.forward_b1_ms", us("registry.forward_b1") / 1e3);
    out.set("registry.forward_b2_ms", us("registry.forward_b2") / 1e3);
    out.set(
        "engine.wait_ms",
        (us("engine.roundtrip") - us("registry.forward_b1")) / 1e3,
    );
    out.set("serve.allocs_per_request", allocs as f64 / k.max(1) as f64);
    out.set(
        "obs.trace_overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    out.note("replayed_pushes", k);
    crate::write_spans(args, &tr);
}
