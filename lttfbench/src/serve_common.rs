//! Pieces shared by the two serving workloads: the served model, the
//! in-process server, the wire client, and the readings taken from the
//! program's own telemetry table.

use crate::metrics::Outcome;
use lttf::conformer::ConformerConfig;
use lttf::data::synth::{Dataset, SynthSpec};
use lttf::data::{StandardScaler, TimeSeries};
use lttf::eval::{fit_reference_profile, TrainedModel};
use lttf::obs::SpanSnapshot;
use lttf::serve::protocol::{format_stats_request, parse_stats_response, StatsReport};
use lttf::serve::{serve, LoadedModel, Registry, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Share of the series whose rows fit the scaler and the drift profile,
/// as `lttf train` does with its train split.
const TRAIN_FRACTION: f64 = 0.7;

/// A synthetic ETTm1 series drawn from the workload seed.
pub fn series(seed: u64, len: usize, dims: usize) -> TimeSeries {
    Dataset::Ettm1.generate(SynthSpec {
        len,
        dims: Some(dims),
        seed,
    })
}

fn train_rows(s: &TimeSeries) -> lttf::tensor::Tensor {
    let n_train = ((s.len() as f64 * TRAIN_FRACTION) as usize).max(2);
    s.values.narrow(0, 0, n_train)
}

/// A servable checkpoint: fixed weights, with the scaler and the drift
/// reference profile fitted on the series' leading rows the way `lttf
/// train` stores them. Deterministic, so two calls give bit-identical
/// models (one to serve, one to check the answers against).
pub fn loaded_model(cfg: &ConformerConfig, init_seed: u64, s: &TimeSeries) -> LoadedModel {
    let rows = train_rows(s);
    let model = TrainedModel::from_conformer(cfg, init_seed);
    let scaler = StandardScaler::fit(&rows);
    LoadedModel::from_parts(
        model,
        cfg.clone(),
        scaler,
        s.names[s.target].clone(),
        s.target,
    )
    .with_profile(fit_reference_profile(&rows))
}

/// The target's standard deviation over the scaler's rows: forecast
/// errors are reported in these units, as training reports them.
pub fn target_std(s: &TimeSeries) -> f64 {
    StandardScaler::fit(&train_rows(s)).std()[s.target] as f64
}

/// `lx * c_in` raw values of the window starting at row `start`.
pub fn window_values(s: &TimeSeries, start: usize, lx: usize) -> Vec<f32> {
    let c = s.dims();
    s.values.data()[start * c..(start + lx) * c].to_vec()
}

/// The realised target values of the `ly` rows from `start`.
pub fn truth(s: &TimeSeries, start: usize, ly: usize) -> Vec<f32> {
    (start..start + ly)
        .map(|t| s.values.at(&[t, s.target]))
        .collect()
}

/// Sum of squared errors of one forecast, in units of `std`.
pub fn scaled_sq_error(pred: &[f32], truth: &[f32], std: f64) -> f64 {
    pred.iter()
        .zip(truth)
        .map(|(&p, &t)| ((p - t) as f64 / std).powi(2))
        .sum()
}

/// The server as `lttf serve` runs it by default: one replica, default
/// batching, sessions, drift and admission settings, adaptation off.
pub fn start_server(model: LoadedModel) -> ServerHandle {
    serve(
        Registry::single("bench", model),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind an ephemeral localhost port")
}

/// One client connection: newline-delimited JSON over TCP.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Conn {
        let s = TcpStream::connect(addr).expect("connect to the local server");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set a read timeout");
        Conn {
            w: s.try_clone().expect("clone the client socket"),
            r: BufReader::new(s),
            line: String::new(),
        }
    }

    /// Send one request line and block for its reply line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        // One write per request: with TCP_NODELAY a separate newline
        // would go out as a second segment the server must wait for.
        self.line.clear();
        self.line.push_str(line);
        self.line.push('\n');
        self.w.write_all(self.line.as_bytes())?;
        self.line.clear();
        if self.r.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// Scrape the default model's `stats` once.
pub fn scrape_stats(addr: SocketAddr) -> Result<StatsReport, String> {
    let mut c = Conn::open(addr);
    let reply = c
        .roundtrip(&format_stats_request(u64::MAX >> 12, None))
        .map_err(|e| e.to_string())?;
    parse_stats_response(reply)?.1
}

/// Server-side per-layer readings from one `stats` scrape.
pub fn server_metrics(out: &mut Outcome, stats: &StatsReport, client_p50_ms: f64) {
    out.set("server.queue_p50_ms", stats.queue_p50_ms);
    out.set("server.service_p50_ms", stats.service_p50_ms);
    out.set("server.cpu_p50_ms", stats.cpu_p50_ms);
    out.set("server.alloc_p50_kib", stats.alloc_p50_bytes / 1024.0);
    out.set("wire.overhead_ms", client_p50_ms - stats.p50_ms);
}

/// Kernel and pool readings from the program's own span table, per op.
pub fn kernel_metrics(out: &mut Outcome, snap: &[SpanSnapshot], ops: f64) {
    let self_ms = |name: &str| {
        snap.iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e6 / ops)
    };
    out.set("tensor.gru_bwd_ms", self_ms("gru_layer_bwd"));
    out.set("tensor.matmul_ms", self_ms("matmul"));
    out.set("tensor.attn_bwd_ms", self_ms("window_attn_bwd"));
    out.set(
        "parallel.utilization",
        lttf::obs::report::pool_utilization(snap).unwrap_or(0.0),
    );
    let regions = snap
        .iter()
        .find(|s| s.name == "pool.regions")
        .map_or(0, |s| s.calls);
    out.set("parallel.regions_per_op", regions as f64 / ops);
}
