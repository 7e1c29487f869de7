//! `forecast_open`: one-shot forecasts over TCP on an open loop.
//!
//! Requests leave on a seeded Poisson schedule over two connections,
//! whether or not earlier ones have been answered, so a slow server
//! builds a queue instead of slowing the load. Each request is timed
//! from its scheduled send time. Windows are distinct: request `i` is
//! the window starting at row `i` of a seeded synthetic ETTm1 series.

use crate::metrics::{blocks, set_latency, set_tails, Outcome};
use crate::schedule::poisson;
use crate::serve_common::{
    kernel_metrics, loaded_model, scaled_sq_error, scrape_stats, series, server_metrics,
    start_server, target_std, truth, window_values, Conn,
};
use crate::spans::Tracer;
use crate::stats::{median, sorted, tail};
use crate::Args;
use lttf::conformer::ConformerConfig;
use lttf::data::TimeSeries;
use lttf::obs::{alloc, JsonObj};
use lttf::serve::protocol::{format_ok, parse_command, parse_response, Command};
use lttf::serve::{BatchConfig, DriftConfig, DriftMonitor, Engine, LoadedModel};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `bench-serve` model.
const C_IN: usize = 3;
const LX: usize = 48;
const LY: usize = 24;
const D_MODEL: usize = 16;
const INIT_SEED: u64 = 7;
/// Offered load in requests per second, about half of what one default
/// replica sustains over two connections on a 2-core host.
const RATE: f64 = 100.0;
const CONNS: usize = 2;
const SETUP_REPEATS: usize = 5;
const WARMUP: usize = 8;
/// A generator whose sends run this late at p99 fell behind its schedule.
const LAG_LIMIT_MS: f64 = 2.0;

fn config() -> ConformerConfig {
    let mut cfg = ConformerConfig::new(C_IN, LX, LY);
    cfg.d_model = D_MODEL;
    cfg.n_heads = 4;
    cfg.multiscale_strides = vec![1, LX / 4];
    cfg
}

/// The inputs of one run: the schedule and the series its windows come
/// from (request `i` reads rows `i..i + LX`; warm-up windows sit past
/// the last request's horizon).
struct Inputs {
    sched: Vec<f64>,
    s: TimeSeries,
    dt: i64,
}

impl Inputs {
    fn new(seed: u64, seconds: f64) -> Inputs {
        let sched = poisson(seed, RATE, seconds);
        let s = series(seed, sched.len() + LX + LY + WARMUP, C_IN);
        let dt = s.timestamps[1] - s.timestamps[0];
        Inputs { sched, s, dt }
    }

    fn values(&self, i: usize) -> Vec<f32> {
        window_values(&self.s, i, LX)
    }

    fn line(&self, i: usize) -> String {
        JsonObj::new()
            .int("id", i as u64)
            .nums("values", self.values(i))
            .int("t0", self.s.timestamps[i] as u64)
            .int("dt", self.dt as u64)
            .finish()
    }
}

/// One answered request.
struct Rec {
    idx: usize,
    /// Milliseconds from the scheduled send time to the reply.
    latency_ms: f64,
    /// Milliseconds from the actual send to the reply.
    wire_ms: f64,
    reply: Result<Vec<f32>, String>,
}

/// What the two connections saw.
#[derive(Default)]
struct Load {
    recs: Vec<Rec>,
    lag_ms: Vec<f64>,
    lost: Vec<String>,
    elapsed_s: f64,
}

/// Start the server and warm it with a few requests: what a user pays
/// before the first real forecast.
fn setup(inp: &Inputs) -> (lttf::serve::ServerHandle, f64) {
    let t = Instant::now();
    let handle = start_server(loaded_model(&config(), INIT_SEED, &inp.s));
    let mut c = Conn::open(handle.addr());
    for w in 0..WARMUP {
        let i = inp.sched.len() + w;
        let reply = c.roundtrip(&inp.line(i)).expect("warm-up request answered");
        assert!(
            reply.contains("\"ok\":true"),
            "warm-up request failed: {reply}"
        );
    }
    (handle, t.elapsed().as_secs_f64())
}

/// Sleep until `deadline` (returns at once when it has passed).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Wait until `sock` has bytes to read or `timeout` passes; `true` when
/// it is readable. Socket read timeouts round up to kernel ticks (4 ms
/// and more), which would make sends late; `ppoll` sleeps on a
/// high-resolution timer.
fn wait_readable(sock: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, correctly laid out (x86-64 Linux
    // `struct pollfd` and `struct timespec`) for the whole call, `nfds`
    // is 1 to match the single descriptor, and a null `sigmask` leaves
    // the signal mask alone.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        r if r >= 0 => Ok(r > 0),
        _ => match std::io::Error::last_os_error() {
            e if e.kind() == std::io::ErrorKind::Interrupted => Ok(false),
            e => Err(e),
        },
    }
}

/// Write all of `buf` to a non-blocking socket.
fn write_all(w: &mut TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        match w.write(&buf[off..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection's share of the schedule: it sends request `i` for
/// every `i % CONNS == k` when due, and reads replies in between.
fn connection(k: usize, addr: SocketAddr, inp: &Inputs, n: usize, start: Instant) -> Load {
    let mut sock = TcpStream::connect(addr).expect("connect to the local server");
    sock.set_nodelay(true).expect("set TCP_NODELAY");
    sock.set_nonblocking(true)
        .expect("make the client socket non-blocking");
    let mine: Vec<usize> = (k..n).step_by(CONNS).collect();
    let mut next = 0;
    let mut prepared: Option<String> = None;
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let (mut inbuf, mut chunk) = (Vec::<u8>::new(), vec![0u8; 1 << 16]);
    let mut load = Load::default();
    'run: loop {
        // Wait for a reply until the next send is due.
        let wait = if let Some(&i) = mine.get(next) {
            let line = prepared.get_or_insert_with(|| {
                let mut l = inp.line(i);
                l.push('\n');
                l
            });
            let due = start + Duration::from_secs_f64(inp.sched[i]);
            let early = due.saturating_duration_since(Instant::now());
            if pending.is_empty() || early.is_zero() {
                // Nothing to read before the send is due: sleep to it.
                sleep_until(due);
                let sent = Instant::now();
                if let Err(e) = write_all(&mut sock, line.as_bytes()) {
                    load.lost.push(format!("send {i}: {e}"));
                    break;
                }
                load.lag_ms.push((sent - due).as_secs_f64() * 1e3);
                pending.push_back((i, sent));
                prepared = None;
                next += 1;
                continue;
            }
            early
        } else if pending.is_empty() {
            break;
        } else {
            Duration::from_secs(30)
        };
        match wait_readable(&sock, wait) {
            Ok(true) => {}
            Ok(false) if wait < Duration::from_secs(30) => continue,
            Ok(false) => {
                load.lost.push("replies stopped arriving".to_string());
                break;
            }
            Err(e) => {
                load.lost.push(format!("poll: {e}"));
                break;
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => {
                load.lost.push("server closed the connection".to_string());
                break;
            }
            Ok(got) => {
                let now = Instant::now();
                inbuf.extend_from_slice(&chunk[..got]);
                while let Some(end) = inbuf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = inbuf.drain(..=end).collect();
                    let Some((i, sent)) = pending.pop_front() else {
                        load.lost.push("reply to no request".to_string());
                        break 'run;
                    };
                    let due = start + Duration::from_secs_f64(inp.sched[i]);
                    let reply = match parse_response(String::from_utf8_lossy(&line).trim_end()) {
                        Ok((id, r)) if id == i as u64 => r,
                        Ok((id, _)) => Err(format!("reply id {id} for request {i}")),
                        Err(e) => Err(format!("unparsable reply: {e}")),
                    };
                    load.recs.push(Rec {
                        idx: i,
                        latency_ms: (now - due).as_secs_f64() * 1e3,
                        wire_ms: (now - sent).as_secs_f64() * 1e3,
                        reply,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => {
                load.lost.push(format!("read: {e}"));
                break;
            }
        }
    }
    for (i, _) in pending {
        load.lost.push(format!("request {i} never answered"));
    }
    load.elapsed_s = start.elapsed().as_secs_f64();
    load
}

/// Drive the schedule's first `n` requests through the server.
fn drive(addr: SocketAddr, inp: &Inputs, n: usize) -> Load {
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<Load> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..CONNS)
            .map(|k| sc.spawn(move || connection(k, addr, inp, n, start)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Load::default();
    for p in parts {
        all.recs.extend(p.recs);
        all.lag_ms.extend(p.lag_ms);
        all.lost.extend(p.lost);
        all.elapsed_s = all.elapsed_s.max(p.elapsed_s);
    }
    all.recs.sort_by_key(|r| r.idx);
    all
}

/// Check every reply bit for bit against `forecast_one` on its window;
/// returns the scaled MSE of the correct ones against the realised
/// future.
fn verify(out: &mut Outcome, load: &Load, inp: &Inputs, reference: &LoadedModel) -> f64 {
    out.attempted += (load.recs.len() + load.lost.len()) as u64;
    for l in &load.lost {
        out.fail(l.clone());
    }
    let std = target_std(&inp.s);
    let (mut sq, mut n) = (0.0, 0usize);
    for r in &load.recs {
        let got = match &r.reply {
            Ok(v) => v,
            Err(e) => {
                out.fail(format!("request {}: {e}", r.idx));
                continue;
            }
        };
        let want = reference
            .forecast_one(&inp.values(r.idx), inp.s.timestamps[r.idx], inp.dt)
            .expect("benchmark windows are well formed");
        if !crate::same_bits(got, &want) {
            out.fail(format!(
                "request {}: served forecast differs from forecast_one",
                r.idx
            ));
            continue;
        }
        sq += scaled_sq_error(got, &truth(&inp.s, r.idx + LX, LY), std);
        n += LY;
    }
    sq / n.max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inp = Inputs::new(args.seed, args.seconds);
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
    let n = inp.sched.len();
    out.note("offered_per_s", n as f64 / args.seconds);
    if args.trace {
        // Half the run on the wire, the rest replaying the same requests
        // in process through each layer's public functions.
        let n_wire = inp.sched.partition_point(|&t| t < args.seconds / 2.0);
        lttf::obs::reset();
        let load = drive(server.addr(), &inp, n_wire);
        let snap = lttf::obs::snapshot();
        wire_layer_metrics(&mut out, &load, server.addr(), n_wire, args.seconds / 2.0);
        kernel_metrics(&mut out, &snap, load.recs.len().max(1) as f64);
        server.shutdown();
        let mse = verify(&mut out, &load, &inp, &reference);
        out.set("quality.mse", mse);
        set_tails(
            &mut out,
            &blocks(load.recs.iter().map(|r| (inp.sched[r.idx], r.latency_ms))),
        );
        replay(&mut out, &inp, args, args.seconds / 4.0);
        return out;
    }
    let cpu0 = lttf::obs::cputime::process_cpu_ns();
    alloc::reset_peak();
    let load = drive(server.addr(), &inp, n);
    let cpu_ms = (lttf::obs::cputime::process_cpu_ns() - cpu0) as f64 / 1e6;
    let peak = alloc::peak_bytes() as f64 / (1 << 20) as f64;
    server.shutdown();
    verify(&mut out, &load, &inp, &reference);
    let ok = load.recs.iter().filter(|r| r.reply.is_ok()).count();
    let lat = blocks(load.recs.iter().map(|r| (inp.sched[r.idx], r.latency_ms)));
    let achieved = ok as f64 / load.elapsed_s.max(args.seconds);
    out.set("peak_heap_mib", peak);
    out.set("cpu_ms_per_op", cpu_ms / ok.max(1) as f64);
    out.set("ops_per_s", achieved);
    set_latency(&mut out, &lat);
    generator_notes(&mut out, &load, n, args.seconds);
    out
}

/// Open-loop honesty: offered versus achieved rate and how late the
/// generator sent.
fn generator_notes(out: &mut Outcome, load: &Load, n: usize, seconds: f64) -> (f64, f64) {
    let lag = sorted(&load.lag_ms);
    let lag_p99 = tail(&lag, 0.99)
        .or_else(|| lag.last().copied())
        .unwrap_or(0.0);
    let achieved =
        load.recs.iter().filter(|r| r.reply.is_ok()).count() as f64 / load.elapsed_s.max(seconds);
    let ratio = achieved / (n as f64 / seconds);
    out.note("achieved_per_s", achieved);
    out.note("generator_lag_p99_ms", lag_p99);
    let behind = lag_p99 > LAG_LIMIT_MS;
    out.note("generator_behind", behind);
    if behind {
        eprintln!("warning: the load generator fell behind its schedule (lag p99 {lag_p99:.3} ms)");
    }
    (lag_p99, ratio)
}

fn wire_layer_metrics(out: &mut Outcome, load: &Load, addr: SocketAddr, n: usize, seconds: f64) {
    let (lag_p99, ratio) = generator_notes(out, load, n, seconds);
    out.set("generator.lag_p99_ms", lag_p99);
    out.set("generator.achieved_ratio", ratio);
    let wire = sorted(&load.recs.iter().map(|r| r.wire_ms).collect::<Vec<_>>());
    match scrape_stats(addr) {
        Ok(stats) => server_metrics(out, &stats, median(&wire)),
        Err(e) => out.fail(format!("stats scrape: {e}")),
    }
}

/// Replay requests in process, once untraced and once traced, through
/// the functions the server calls for each: parse, drift sketch, window
/// preparation, the engine round trip and the reply format; plus direct
/// forwards at batch 1 and 2.
fn replay(out: &mut Outcome, inp: &Inputs, args: &Args, budget_s: f64) {
    let model = Arc::new(loaded_model(&config(), INIT_SEED, &inp.s));
    let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
    let sub = engine.submitter();
    let drift = DriftMonitor::new(
        model.profile().cloned(),
        model.target_col(),
        DriftConfig::default(),
    );
    let lines: Vec<String> = (0..inp.sched.len()).map(|i| inp.line(i)).collect();
    let mut pass = |tr: &mut Tracer, limit: usize, budget: Option<f64>| -> (usize, f64, u64) {
        let t0 = Instant::now();
        let mut allocs = 0u64;
        let mut prev = None;
        let mut done = 0;
        for (i, line) in lines.iter().enumerate().take(limit) {
            if budget.is_some_and(|b| t0.elapsed().as_secs_f64() >= b) {
                break;
            }
            tr.set_op(i as u64);
            let root = tr.begin("serve.request");
            let a0 = alloc::allocs_total();
            let req = match tr.time("protocol.parse", || parse_command(line)) {
                Ok(Command::Forecast(r)) => r,
                other => panic!("replayed line did not parse as a forecast: {other:?}"),
            };
            tr.time("drift.observe", || drift.observe_input(&req.values));
            let w = tr
                .time("registry.prepare", || {
                    model.make_window(&req.values, req.t0, req.dt)
                })
                .expect("benchmark windows are well formed");
            let a1 = alloc::allocs_total();
            let b1 = tr.time("registry.forward_b1", || model.forecast_rows(&[&w]));
            if let Some(p) = &prev {
                std::hint::black_box(
                    tr.time("registry.forward_b2", || model.forecast_rows(&[p, &w])),
                );
            }
            let w2 = model
                .make_window(&req.values, req.t0, req.dt)
                .expect("well formed");
            let a2 = alloc::allocs_total();
            let reply = tr.time("engine.roundtrip", || {
                sub.submit(w2, None).map(|rx| rx.recv())
            });
            let served = match reply {
                Ok(Ok(Ok(f))) => f,
                other => {
                    out.fail(format!("in-process request {i}: {other:?}"));
                    continue;
                }
            };
            std::hint::black_box(tr.time("protocol.format", || format_ok(req.id, 1, &served)));
            let a3 = alloc::allocs_total();
            allocs += (a1 - a0) + (a3 - a2);
            tr.end(root);
            out.attempted += 1;
            if !crate::same_bits(&served, &b1[0]) {
                out.fail(format!(
                    "in-process request {i}: engine and direct forward differ"
                ));
            }
            prev = Some(w);
            done += 1;
        }
        (done, t0.elapsed().as_secs_f64(), allocs)
    };
    let (k, untraced_s, allocs) = pass(&mut Tracer::new(false), lines.len(), Some(budget_s));
    let mut tr = Tracer::new(true);
    let (_, traced_s, _) = pass(&mut tr, k, None);
    drop(sub);
    engine.shutdown();
    let times = tr.self_times();
    let us = |name| tr.mean_self(&times, name, 1e3);
    out.set("protocol.parse_us", us("protocol.parse"));
    out.set("protocol.format_us", us("protocol.format"));
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
    out.note("replayed_requests", k);
    crate::write_spans(args, &tr);
}
