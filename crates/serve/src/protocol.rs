//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both flat JSON objects
//! (the [`lttf_obs::jsonl`] dialect: string/number scalars plus flat
//! number arrays, no nesting).
//!
//! Request fields:
//!
//! * `id` — client-chosen correlation number, echoed in the response,
//! * `values` — the raw (unscaled) input window, `lx * c_in` numbers in
//!   row-major `[time][variable]` order,
//! * `t0` — unix timestamp (seconds) of the first window step,
//! * `dt` — seconds between steps,
//! * `deadline_ms` — optional per-request deadline; a request that cannot
//!   be answered within this many milliseconds of arrival is rejected
//!   instead of served late,
//! * `model` — optional registry name; defaults to the server's default
//!   model.
//!
//! Every response shares one envelope: it carries `id` and `ok`, and
//! `error` when `ok` is false; the rest is the command's payload. The
//! client-side parsers read that envelope in one place, so each of them
//! reads only its own payload. A forecast answers
//! `{"id":…,"ok":true,"forecast":[…]}` with `ly` numbers (the raw-space
//! forecast of the model's target variable); a refusal is
//! `{"id":…,"ok":false,"error":"…"}`. Floats use shortest round-trip
//! formatting, so an `f32` survives the wire bit-for-bit.
//!
//! Successful forecasts also carry `"gen"` — the generation number of
//! the model that served them, bumped by every hot reload — so clients
//! (and the reload e2e test) can tell which checkpoint answered.
//!
//! Refusals from admission control or a saturated queue add
//! `"retry_after_ms"` to the error response: a backoff hint, not a
//! promise. Clients that honor it ride out bursts instead of amplifying
//! them.
//!
//! Besides one-shot forecasts, the framing carries the **streaming
//! session** commands:
//!
//! * `{"id":…,"cmd":"open"[,"model":…][,"t0":…][,"dt":…]}` — open a
//!   stateful session against one model. The answer is
//!   `{"id":…,"ok":true,"session":S,"window":W}`: a server-assigned
//!   session id and the number of observation rows (`lx`) the rolling
//!   window needs before forecasts flow.
//! * `{"id":…,"cmd":"push","session":S,"values":[…]}` — append one or
//!   more raw observation rows (each `c_in` values) to the session's
//!   rolling window. While the window is still filling the answer is
//!   `{"id":…,"ok":true,"session":S,"pending":K}` (`K` rows still
//!   needed); once full, every push answers with a fresh horizon
//!   forecast `{"id":…,"ok":true,"session":S,"gen":G,"adapted":B,
//!   "forecast":[…]}` through the same micro-batching engine one-shot
//!   requests use. `"adapted"` is `true` when the serving generation
//!   was published by the online adapter rather than loaded from disk.
//! * `{"id":…,"cmd":"close","session":S}` — drop the session; the
//!   answer echoes its lifetime counts:
//!   `{"id":…,"ok":true,"session":S,"pushed":P,"forecasts":F}`.
//!
//! Sessions are keyed by model *name*, not generation, so they survive
//! hot reloads: the first push after a swap simply forecasts on the new
//! generation. Idle sessions are evicted after the server's TTL; a push
//! against an evicted or unknown id gets
//! `{"ok":false,"error":"unknown session"}` and the client re-opens.
//!
//! Three further control commands share the framing:
//!
//! * `{"id":…,"cmd":"metrics"}` — the answer is
//!   `{"id":…,"ok":true,"metrics":"…"}` where the string holds a
//!   Prometheus-style text exposition (newlines escaped as `\n` so the
//!   one-line-per-response framing survives). See [`crate::metrics`].
//! * `{"id":…,"cmd":"stats"[,"model":"…"]}` — a one-line JSON snapshot
//!   of one model's live state ([`StatsReport`]): trailing-window
//!   latency quantiles (total, queue wait, service time), refusal/retry
//!   rates, and the drift monitor's verdict. Machine-readable where the
//!   metrics exposition is scrape-shaped; `lttf watch` polls it.
//! * `{"id":…,"cmd":"reload","path":"…","model":"…"}` — load the
//!   checkpoint at `path` as a new generation of `model` (default: the
//!   server's default model), atomically swap it into the routing table,
//!   and drain the old generation. The answer is
//!   `{"id":…,"ok":true,"gen":…,"replicas":…,"drained":…}`: the new
//!   generation number, its replica count, and how many requests the old
//!   generation answered during its lifetime.

use lttf_obs::jsonl::{field, parse_object, JsonObj, JsonValue};

/// A parsed inference request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client correlation id, echoed back in the response.
    pub id: u64,
    /// Raw input window, `lx * c_in` values, row-major `[time][variable]`.
    pub values: Vec<f32>,
    /// Unix timestamp (seconds) of the first window step.
    pub t0: i64,
    /// Seconds between consecutive steps.
    pub dt: i64,
    /// Optional deadline in milliseconds from arrival.
    pub deadline_ms: Option<u64>,
    /// Optional registry model name (`None` = server default).
    pub model: Option<String>,
}

/// Largest accepted `values` length; guards against a client line that
/// would allocate without bound.
pub const MAX_VALUES: usize = 1 << 22;

/// One parsed request line: a forecast, or a control command.
#[derive(Clone, Debug)]
pub enum Command {
    /// An inference request (the default when no `cmd` field is present).
    Forecast(Request),
    /// `{"id":…,"cmd":"metrics"}` — return the live metrics exposition.
    Metrics {
        /// Client correlation id, echoed back.
        id: u64,
    },
    /// `{"id":…,"cmd":"stats"[,"model":…]}` — return one model's live
    /// [`StatsReport`] as flat JSON.
    Stats {
        /// Client correlation id, echoed back.
        id: u64,
        /// Registry name to report on (`None` = server default model).
        model: Option<String>,
    },
    /// `{"id":…,"cmd":"reload","path":…[,"model":…]}` — hot-swap a model
    /// to a new checkpoint generation.
    Reload {
        /// Client correlation id, echoed back.
        id: u64,
        /// Registry name to reload (`None` = server default model).
        model: Option<String>,
        /// Checkpoint base path (`<base>.params` + `<base>.config`).
        path: String,
    },
    /// `{"id":…,"cmd":"open"[,"model":…][,"t0":…][,"dt":…]}` — open a
    /// streaming session.
    Open {
        /// Client correlation id, echoed back.
        id: u64,
        /// Registry name the session forecasts on (`None` = default).
        model: Option<String>,
        /// Unix timestamp (seconds) of the first observation row.
        t0: i64,
        /// Seconds between consecutive observation rows.
        dt: i64,
    },
    /// `{"id":…,"cmd":"push","session":…,"values":[…]}` — append
    /// observation rows to a session; answers with a forecast once the
    /// rolling window is full.
    Push {
        /// Client correlation id, echoed back.
        id: u64,
        /// Server-assigned session id from the `open` response.
        session: u64,
        /// Raw observation rows, each `c_in` values, row-major.
        values: Vec<f32>,
    },
    /// `{"id":…,"cmd":"close","session":…}` — drop a session.
    Close {
        /// Client correlation id, echoed back.
        id: u64,
        /// Server-assigned session id from the `open` response.
        session: u64,
    },
}

/// The parsed fields of one protocol line.
type Fields = [(String, JsonValue)];

fn num(fields: &Fields, key: &str) -> Option<f64> {
    field(fields, key).and_then(|v| v.as_num())
}

fn text<'a>(fields: &'a Fields, key: &str) -> Option<&'a str> {
    field(fields, key).and_then(|v| v.as_str())
}

/// The `id` every request and response carries.
fn id_of(fields: &Fields) -> Result<u64, String> {
    Ok(num(fields, "id").ok_or("missing numeric 'id'")? as u64)
}

/// The request commands `cmd` may name.
const COMMANDS: [&str; 6] = ["metrics", "stats", "reload", "open", "push", "close"];

/// Parse one request line into a [`Command`]. Lines without a `cmd`
/// field are forecasts; unknown commands are errors.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let fields = parse_object(line)?;
    let cmd = text(&fields, "cmd");
    if let Some(other) = cmd.filter(|c| !COMMANDS.contains(c)) {
        return Err(format!("unknown cmd '{other}'"));
    }
    let id = id_of(&fields)?;
    let model = || text(&fields, "model").map(str::to_string);
    let session = |what: &str| {
        num(&fields, "session")
            .map(|v| v as u64)
            .ok_or_else(|| format!("{what} requires a numeric 'session'"))
    };
    Ok(match cmd {
        None => Command::Forecast(request_from_fields(id, &fields)?),
        Some("metrics") => Command::Metrics { id },
        Some("stats") => Command::Stats { id, model: model() },
        Some("reload") => {
            let path = text(&fields, "path").ok_or("reload requires a string 'path'")?;
            Command::Reload { id, model: model(), path: path.to_string() }
        }
        Some("open") => Command::Open {
            id,
            model: model(),
            t0: num(&fields, "t0").unwrap_or(0.0) as i64,
            dt: num(&fields, "dt").unwrap_or(3600.0) as i64,
        },
        Some("push") => {
            let session = session("push")?;
            let values = values_of(&fields, "push requires an array 'values'")?;
            if values.is_empty() {
                return Err("push requires a non-empty 'values'".to_string());
            }
            Command::Push { id, session, values }
        }
        Some("close") => Command::Close { id, session: session("close")? },
        Some(_) => unreachable!("unknown commands are refused above"),
    })
}

/// Parse one request line. Errors are human-readable strings that go
/// straight into the `error` field of the reject response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_object(line)?;
    request_from_fields(id_of(&fields)?, &fields)
}

/// Build a [`Request`] from an already parsed line and its `id`.
fn request_from_fields(id: u64, fields: &Fields) -> Result<Request, String> {
    Ok(Request {
        id,
        values: values_of(fields, "missing array 'values'")?,
        t0: num(fields, "t0").ok_or("missing numeric 't0'")? as i64,
        dt: num(fields, "dt").unwrap_or(3600.0) as i64,
        deadline_ms: num(fields, "deadline_ms").map(|v| v as u64),
        model: text(fields, "model").map(str::to_string),
    })
}

/// The `values` array of a forecast or push, capped at [`MAX_VALUES`]
/// and finite throughout; `missing` is the error when it is absent.
fn values_of(fields: &Fields, missing: &str) -> Result<Vec<f32>, String> {
    let values = field(fields, "values").and_then(|v| v.as_arr()).ok_or(missing)?;
    if values.len() > MAX_VALUES {
        return Err(format!("'values' too long ({} > {MAX_VALUES})", values.len()));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err("'values' contains a non-finite entry".to_string());
    }
    Ok(values.iter().map(|&v| v as f32).collect())
}

/// One response line with its shared envelope read: `id`, then `ok`,
/// then on failure the `error` string (`"unknown"` when absent). The
/// parsed fields stay available for the payload.
struct Envelope {
    id: u64,
    /// `None` on `ok:true`, the server's error on `ok:false`.
    error: Option<String>,
    fields: Vec<(String, JsonValue)>,
}

fn envelope(line: &str) -> Result<Envelope, String> {
    let fields = parse_object(line)?;
    let id = id_of(&fields)?;
    let ok = field(&fields, "ok").and_then(|v| v.as_bool()).ok_or("missing 'ok'")?;
    let error = (!ok).then(|| text(&fields, "error").unwrap_or("unknown").to_string());
    Ok(Envelope { id, error, fields })
}

/// Decode a response into `(id, Result<payload, error>)`, reading the
/// payload of a success line with `payload`.
fn decode<T>(
    line: &str,
    payload: impl FnOnce(&Fields) -> Result<T, String>,
) -> Result<(u64, Result<T, String>), String> {
    let env = envelope(line)?;
    match env.error {
        Some(error) => Ok((env.id, Err(error))),
        None => Ok((env.id, Ok(payload(&env.fields)?))),
    }
}

/// Format a success response carrying the forecast values, stamped with
/// the generation of the model that produced them.
pub fn format_ok(id: u64, generation: u64, forecast: &[f32]) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .int("gen", generation)
        .nums("forecast", forecast.iter().copied())
        .finish()
}

/// Format a reject/error response.
pub fn format_err(id: u64, error: &str) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", false)
        .str("error", error)
        .finish()
}

/// Format an admission/backpressure refusal: an error response with a
/// `retry_after_ms` backoff hint.
pub fn format_reject(id: u64, error: &str, retry_after_ms: u64) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", false)
        .str("error", error)
        .int("retry_after_ms", retry_after_ms)
        .finish()
}

/// Format a reload request line (client side).
pub fn format_reload(id: u64, model: Option<&str>, path: &str) -> String {
    let mut o = JsonObj::new().int("id", id).str("cmd", "reload").str("path", path);
    if let Some(m) = model {
        o = o.str("model", m);
    }
    o.finish()
}

/// Format a successful reload response: the new generation, its replica
/// count, and the number of requests the drained generation served.
pub fn format_reload_ok(id: u64, generation: u64, replicas: usize, drained: u64) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .int("gen", generation)
        .int("replicas", replicas as u64)
        .int("drained", drained)
        .finish()
}

/// The client-side view of one reload response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReloadInfo {
    /// Generation number now serving the model.
    pub generation: u64,
    /// Replica count of the new generation's pool.
    pub replicas: usize,
    /// Requests the retired generation answered over its lifetime.
    pub drained: u64,
}

/// Parse a reload response into `(id, Result<info, error>)`.
pub fn parse_reload_response(line: &str) -> Result<(u64, Result<ReloadInfo, String>), String> {
    decode(line, |f| {
        Ok(ReloadInfo {
            generation: num(f, "gen").ok_or("reload response missing 'gen'")? as u64,
            replicas: num(f, "replicas").ok_or("reload response missing 'replicas'")? as usize,
            drained: num(f, "drained").unwrap_or(0.0) as u64,
        })
    })
}

/// Format an `open` request line (client side).
pub fn format_open(id: u64, model: Option<&str>, t0: i64, dt: i64) -> String {
    let mut o = JsonObj::new().int("id", id).str("cmd", "open");
    if let Some(m) = model {
        o = o.str("model", m);
    }
    o.num("t0", t0 as f64).num("dt", dt as f64).finish()
}

/// Format a successful `open` response: the assigned session id and the
/// number of observation rows the window needs before forecasts flow.
pub fn format_open_ok(id: u64, session: u64, window_rows: usize) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .int("session", session)
        .int("window", window_rows as u64)
        .finish()
}

/// Format a `push` request line (client side).
pub fn format_push(id: u64, session: u64, values: &[f32]) -> String {
    JsonObj::new()
        .int("id", id)
        .str("cmd", "push")
        .int("session", session)
        .nums("values", values.iter().copied())
        .finish()
}

/// Format a `push` response while the rolling window is still filling:
/// `pending` rows are still needed before forecasts flow.
pub fn format_push_pending(id: u64, session: u64, pending: usize) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .int("session", session)
        .int("pending", pending as u64)
        .finish()
}

/// Format a `push` response carrying a fresh horizon forecast. `adapted`
/// marks generations published by the online adapter.
pub fn format_push_ok(
    id: u64,
    session: u64,
    generation: u64,
    adapted: bool,
    forecast: &[f32],
) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .int("session", session)
        .int("gen", generation)
        .bool("adapted", adapted)
        .nums("forecast", forecast.iter().copied())
        .finish()
}

/// Format a `close` request line (client side).
pub fn format_close(id: u64, session: u64) -> String {
    JsonObj::new()
        .int("id", id)
        .str("cmd", "close")
        .int("session", session)
        .finish()
}

/// Format a successful `close` response echoing the session's lifetime
/// counts.
pub fn format_close_ok(id: u64, session: u64, pushed: u64, forecasts: u64) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .int("session", session)
        .int("pushed", pushed)
        .int("forecasts", forecasts)
        .finish()
}

/// The client-side view of one `push` response.
#[derive(Clone, Debug, PartialEq)]
pub enum PushReply {
    /// The window is still filling; this many rows are still needed.
    Pending(usize),
    /// The window is full and every push answers with a forecast.
    Forecast {
        /// Generation of the model that computed the forecast.
        generation: u64,
        /// True when the generation was published by the online adapter.
        adapted: bool,
        /// `ly` raw-space values of the model's target variable.
        forecast: Vec<f32>,
    },
}

/// Parse an `open` response into `(id, Result<(session, window_rows), error>)`.
pub fn parse_open_response(line: &str) -> Result<(u64, Result<(u64, usize), String>), String> {
    decode(line, |f| {
        let session = num(f, "session").ok_or("open response missing 'session'")? as u64;
        let window = num(f, "window").ok_or("open response missing 'window'")? as usize;
        Ok((session, window))
    })
}

/// Parse a `push` response into `(id, Result<PushReply, error>)`.
pub fn parse_push_response(line: &str) -> Result<(u64, Result<PushReply, String>), String> {
    decode(line, |f| match field(f, "forecast").and_then(|v| v.as_arr()) {
        Some(forecast) => Ok(PushReply::Forecast {
            generation: num(f, "gen").ok_or("push response missing 'gen'")? as u64,
            adapted: field(f, "adapted").and_then(|v| v.as_bool()).unwrap_or(false),
            forecast: forecast.iter().map(|&v| v as f32).collect(),
        }),
        None => Ok(PushReply::Pending(
            num(f, "pending").ok_or("push response missing 'pending'")? as usize,
        )),
    })
}

/// Parse a `close` response into `(id, Result<(pushed, forecasts), error>)`.
pub fn parse_close_response(line: &str) -> Result<(u64, Result<(u64, u64), String>), String> {
    decode(line, |f| {
        let count = |k: &str| num(f, k).unwrap_or(0.0) as u64;
        Ok((count("pushed"), count("forecasts")))
    })
}

/// Best-effort extraction of the `id` field from a request line that may
/// be malformed, truncated, or too long to parse — so even a reject
/// response can carry the client's correlation id instead of a useless
/// `0`. Scans for an `"id"` key textually; returns `None` when no
/// plausible numeric id exists.
pub fn extract_id(line: &str) -> Option<u64> {
    let bytes = line.as_bytes();
    let key = b"\"id\"";
    let mut from = 0;
    while let Some(pos) = find(bytes, key, from) {
        let mut i = pos + key.len();
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        if bytes.get(i) != Some(&b':') {
            from = pos + key.len();
            continue;
        }
        i += 1;
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        let start = i;
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i > start {
            if let Ok(v) = line[start..i].parse::<u64>() {
                return Some(v);
            }
        }
        from = pos + key.len();
    }
    None
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    haystack
        .get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Format a metrics response: the exposition text rides in a JSON string
/// (its newlines become `\n` escapes, keeping the response one line).
pub fn format_metrics(id: u64, text: &str) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .str("metrics", text)
        .finish()
}

/// Parse a metrics response back into `(id, Result<text, error>)` — the
/// client half of the `"metrics"` command.
pub fn parse_metrics_response(line: &str) -> Result<(u64, Result<String, String>), String> {
    decode(line, |f| {
        Ok(text(f, "metrics").ok_or("ok response missing 'metrics'")?.to_string())
    })
}

/// One model's live serving state, as carried by the `"stats"` command.
/// Latencies are milliseconds; everything windowed describes the last
/// `window_ms` of traffic, not the process lifetime.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReport {
    /// Registry name of the model.
    pub model: String,
    /// Serving generation.
    pub generation: u64,
    /// Replica count.
    pub replicas: usize,
    /// Aggregate queue depth right now.
    pub queue_depth: usize,
    /// Requests served since the generation started (lifetime, exact).
    pub served_total: u64,
    /// Trailing-window span in milliseconds.
    pub window_ms: u64,
    /// Requests served inside the current window.
    pub window_count: u64,
    /// Windowed total-latency quantiles (ms).
    pub p50_ms: f64,
    /// 95th percentile of windowed total latency (ms).
    pub p95_ms: f64,
    /// 99th percentile of windowed total latency (ms).
    pub p99_ms: f64,
    /// Windowed queue-wait median (ms).
    pub queue_p50_ms: f64,
    /// Windowed per-batch service-time median (ms).
    pub service_p50_ms: f64,
    /// Windowed per-request process-CPU cost median (ms).
    pub cpu_p50_ms: f64,
    /// 95th percentile of windowed per-request process-CPU cost (ms).
    pub cpu_p95_ms: f64,
    /// Windowed per-request allocation-churn median (bytes).
    pub alloc_p50_bytes: f64,
    /// 95th percentile of windowed per-request allocation churn (bytes).
    pub alloc_p95_bytes: f64,
    /// Heap bytes currently live in the server process (0 when the
    /// instrumented allocator is compiled out).
    pub mem_live_bytes: u64,
    /// High-water mark of live heap bytes.
    pub mem_peak_bytes: u64,
    /// Admission refusals per second over the window.
    pub shed_per_sec: f64,
    /// Queue-full rejections per second over the window.
    pub rejected_per_sec: f64,
    /// Reload resubmissions per second over the window.
    pub resubmitted_per_sec: f64,
    /// Whether the model carries a drift reference profile.
    pub drift_available: bool,
    /// Whether the drift alert is currently raised.
    pub drift_alert: bool,
    /// Per-input-feature drift scores (training std units).
    pub drift_scores: Vec<f64>,
    /// Advisory prediction-drift score.
    pub drift_prediction_score: f64,
    /// Configured drift alert threshold.
    pub drift_threshold: f64,
    /// Time steps in the drift window the scores describe.
    pub drift_window_count: u64,
    /// Streaming sessions currently open (server-wide).
    pub sessions_open: u64,
    /// Sessions opened since startup (server-wide, lifetime).
    pub sessions_opened: u64,
    /// Sessions evicted by the TTL sweep (server-wide, lifetime).
    pub session_evictions: u64,
    /// Whether the online adapter is running.
    pub adapt_enabled: bool,
    /// Adapter state: `"off"`, `"idle"`, `"adapting"`, `"published"`,
    /// or `"rolled_back"` (the latter two describe the last cycle).
    pub adapt_state: String,
    /// Optimizer steps the adapter has taken (lifetime).
    pub adapt_steps: u64,
    /// Divergent adaptation cycles rolled back by the watchdog.
    pub adapt_rollbacks: u64,
    /// Adapted generations published into the routing table.
    pub adapt_publishes: u64,
    /// Process-CPU milliseconds spent in adaptation rounds (lifetime).
    pub adapt_cpu_ms: f64,
    /// Heap bytes allocated during adaptation rounds (lifetime).
    pub adapt_alloc_bytes: u64,
}

/// Format a stats request line (client side).
pub fn format_stats_request(id: u64, model: Option<&str>) -> String {
    let mut o = JsonObj::new().int("id", id).str("cmd", "stats");
    if let Some(m) = model {
        o = o.str("model", m);
    }
    o.finish()
}

/// Format a stats response carrying one model's [`StatsReport`].
pub fn format_stats(id: u64, r: &StatsReport) -> String {
    JsonObj::new()
        .int("id", id)
        .bool("ok", true)
        .str("model", &r.model)
        .int("gen", r.generation)
        .int("replicas", r.replicas as u64)
        .int("queue_depth", r.queue_depth as u64)
        .int("served_total", r.served_total)
        .int("window_ms", r.window_ms)
        .int("window_count", r.window_count)
        .num("p50_ms", r.p50_ms)
        .num("p95_ms", r.p95_ms)
        .num("p99_ms", r.p99_ms)
        .num("queue_p50_ms", r.queue_p50_ms)
        .num("service_p50_ms", r.service_p50_ms)
        .num("cpu_p50_ms", r.cpu_p50_ms)
        .num("cpu_p95_ms", r.cpu_p95_ms)
        .num("alloc_p50_bytes", r.alloc_p50_bytes)
        .num("alloc_p95_bytes", r.alloc_p95_bytes)
        .int("mem_live_bytes", r.mem_live_bytes)
        .int("mem_peak_bytes", r.mem_peak_bytes)
        .num("shed_per_sec", r.shed_per_sec)
        .num("rejected_per_sec", r.rejected_per_sec)
        .num("resubmitted_per_sec", r.resubmitted_per_sec)
        .bool("drift_available", r.drift_available)
        .bool("drift_alert", r.drift_alert)
        .nums("drift_scores", r.drift_scores.iter().map(|&v| v as f32))
        .num("drift_prediction_score", r.drift_prediction_score)
        .num("drift_threshold", r.drift_threshold)
        .int("drift_window_count", r.drift_window_count)
        .int("sessions_open", r.sessions_open)
        .int("sessions_opened", r.sessions_opened)
        .int("session_evictions", r.session_evictions)
        .bool("adapt_enabled", r.adapt_enabled)
        .str("adapt_state", &r.adapt_state)
        .int("adapt_steps", r.adapt_steps)
        .int("adapt_rollbacks", r.adapt_rollbacks)
        .int("adapt_publishes", r.adapt_publishes)
        .num("adapt_cpu_ms", r.adapt_cpu_ms)
        .int("adapt_alloc_bytes", r.adapt_alloc_bytes)
        .finish()
}

/// Parse a stats response into `(id, Result<report, error>)` — the
/// client half of the `"stats"` command (`lttf watch` runs on this).
pub fn parse_stats_response(line: &str) -> Result<(u64, Result<StatsReport, String>), String> {
    decode(line, |f| {
        let num = |k: &str| num(f, k);
        let need = |k: &str| num(k).ok_or_else(|| format!("stats response missing '{k}'"));
        let flag = |k: &str| field(f, k).and_then(|v| v.as_bool()).unwrap_or(false);
        Ok(StatsReport {
            model: text(f, "model").ok_or("stats response missing 'model'")?.to_string(),
            generation: need("gen")? as u64,
            replicas: need("replicas")? as usize,
            queue_depth: need("queue_depth")? as usize,
            served_total: need("served_total")? as u64,
            window_ms: need("window_ms")? as u64,
            window_count: need("window_count")? as u64,
            p50_ms: need("p50_ms")?,
            p95_ms: need("p95_ms")?,
            p99_ms: need("p99_ms")?,
            queue_p50_ms: need("queue_p50_ms")?,
            service_p50_ms: need("service_p50_ms")?,
            // Cost/memory fields are absent in pre-attribution stats lines;
            // default them so old servers still parse.
            cpu_p50_ms: num("cpu_p50_ms").unwrap_or(0.0),
            cpu_p95_ms: num("cpu_p95_ms").unwrap_or(0.0),
            alloc_p50_bytes: num("alloc_p50_bytes").unwrap_or(0.0),
            alloc_p95_bytes: num("alloc_p95_bytes").unwrap_or(0.0),
            mem_live_bytes: num("mem_live_bytes").unwrap_or(0.0) as u64,
            mem_peak_bytes: num("mem_peak_bytes").unwrap_or(0.0) as u64,
            shed_per_sec: need("shed_per_sec")?,
            rejected_per_sec: need("rejected_per_sec")?,
            resubmitted_per_sec: need("resubmitted_per_sec")?,
            drift_available: flag("drift_available"),
            drift_alert: flag("drift_alert"),
            drift_scores: field(f, "drift_scores")
                .and_then(|v| v.as_arr())
                .map(|a| a.to_vec())
                .unwrap_or_default(),
            drift_prediction_score: num("drift_prediction_score").unwrap_or(0.0),
            drift_threshold: num("drift_threshold").unwrap_or(0.0),
            drift_window_count: num("drift_window_count").unwrap_or(0.0) as u64,
            // Session/adapter fields are absent in pre-session stats lines;
            // default them so old servers still parse.
            sessions_open: num("sessions_open").unwrap_or(0.0) as u64,
            sessions_opened: num("sessions_opened").unwrap_or(0.0) as u64,
            session_evictions: num("session_evictions").unwrap_or(0.0) as u64,
            adapt_enabled: flag("adapt_enabled"),
            adapt_state: text(f, "adapt_state").unwrap_or("off").to_string(),
            adapt_steps: num("adapt_steps").unwrap_or(0.0) as u64,
            adapt_rollbacks: num("adapt_rollbacks").unwrap_or(0.0) as u64,
            adapt_publishes: num("adapt_publishes").unwrap_or(0.0) as u64,
            adapt_cpu_ms: num("adapt_cpu_ms").unwrap_or(0.0),
            adapt_alloc_bytes: num("adapt_alloc_bytes").unwrap_or(0.0) as u64,
        })
    })
}

/// Everything a client can learn from one forecast response line.
#[derive(Clone, Debug)]
pub struct ResponseMeta {
    /// Echoed correlation id.
    pub id: u64,
    /// Generation of the serving model (successful forecasts only).
    pub generation: Option<u64>,
    /// Backoff hint attached to admission/backpressure refusals.
    pub retry_after_ms: Option<u64>,
    /// The forecast, or the server's error string.
    pub result: Result<Vec<f32>, String>,
}

/// Parse a response line with its metadata (generation stamp, backoff
/// hint) — the full client half of the protocol. The load generator uses
/// `retry_after_ms` to tell shed traffic from hard failures, and the
/// reload e2e uses `generation` to prove no mixed-generation batches.
pub fn parse_response_meta(line: &str) -> Result<ResponseMeta, String> {
    let Envelope { id, error, fields } = envelope(line)?;
    let num_u64 = |k: &str| num(&fields, k).map(|v| v as u64);
    Ok(match error {
        Some(error) => ResponseMeta {
            id,
            generation: None,
            retry_after_ms: num_u64("retry_after_ms"),
            result: Err(error),
        },
        None => {
            let forecast = field(&fields, "forecast")
                .and_then(|v| v.as_arr())
                .ok_or("ok response missing 'forecast'")?;
            ResponseMeta {
                id,
                generation: num_u64("gen"),
                retry_after_ms: None,
                result: Ok(forecast.iter().map(|&v| v as f32).collect()),
            }
        }
    })
}

/// Parse a response line back into `(id, Result<forecast, error>)` — the
/// compact client half used by `lttf bench-serve` and the tests.
pub fn parse_response(line: &str) -> Result<(u64, Result<Vec<f32>, String>), String> {
    parse_response_meta(line).map(|m| (m.id, m.result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let line = JsonObj::new()
            .int("id", 7)
            .nums("values", [1.5f32, -2.25, 0.125])
            .int("t0", 1_700_000_000)
            .int("dt", 60)
            .int("deadline_ms", 250)
            .finish();
        let r = parse_request(&line).unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.values, vec![1.5, -2.25, 0.125]);
        assert_eq!(r.t0, 1_700_000_000);
        assert_eq!(r.dt, 60);
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.model.is_none());
    }

    #[test]
    fn response_round_trip_is_bit_exact() {
        let forecast = vec![0.1f32, -3.5e-5, 1.0e8, f32::MIN_POSITIVE];
        let (id, res) = parse_response(&format_ok(42, 3, &forecast)).unwrap();
        assert_eq!(id, 42);
        assert_eq!(res.unwrap(), forecast);

        let meta = parse_response_meta(&format_ok(42, 3, &forecast)).unwrap();
        assert_eq!(meta.generation, Some(3));
        assert_eq!(meta.retry_after_ms, None);

        let (id, res) = parse_response(&format_err(9, "queue full")).unwrap();
        assert_eq!(id, 9);
        assert_eq!(res.unwrap_err(), "queue full");
    }

    #[test]
    fn reject_carries_retry_hint() {
        let meta = parse_response_meta(&format_reject(5, "overloaded", 40)).unwrap();
        assert_eq!(meta.id, 5);
        assert_eq!(meta.retry_after_ms, Some(40));
        assert_eq!(meta.result.unwrap_err(), "overloaded");
    }

    #[test]
    fn reload_round_trip() {
        let line = format_reload(11, Some("demo"), "/tmp/ckpt");
        match parse_command(&line).unwrap() {
            Command::Reload { id, model, path } => {
                assert_eq!(id, 11);
                assert_eq!(model.as_deref(), Some("demo"));
                assert_eq!(path, "/tmp/ckpt");
            }
            other => panic!("expected Reload, got {other:?}"),
        }
        // model defaults to the server default when omitted
        match parse_command(&format_reload(12, None, "/tmp/c2")).unwrap() {
            Command::Reload { model, .. } => assert!(model.is_none()),
            other => panic!("expected Reload, got {other:?}"),
        }
        // path is mandatory
        assert!(parse_command("{\"id\":1,\"cmd\":\"reload\"}")
            .unwrap_err()
            .contains("path"));

        let (id, info) = parse_reload_response(&format_reload_ok(11, 2, 4, 137)).unwrap();
        assert_eq!(id, 11);
        assert_eq!(
            info.unwrap(),
            ReloadInfo { generation: 2, replicas: 4, drained: 137 }
        );
        let (_, info) = parse_reload_response(&format_err(11, "no such model")).unwrap();
        assert_eq!(info.unwrap_err(), "no such model");
    }

    #[test]
    fn extract_id_survives_malformed_lines() {
        // well-formed
        assert_eq!(extract_id("{\"id\":42,\"values\":[1]}"), Some(42));
        // whitespace around the colon
        assert_eq!(extract_id("{\"id\" : 7}"), Some(7));
        // truncated mid-line (e.g. an over-long line cut at the cap)
        assert_eq!(extract_id("{\"id\":9,\"values\":[1,2,3"), Some(9));
        // id not first
        assert_eq!(extract_id("{\"t0\":0,\"id\":3}"), Some(3));
        // a non-numeric "id" is skipped, a later numeric one found
        assert_eq!(extract_id("{\"id\":\"x\",\"id\":5}"), Some(5));
        // nothing plausible
        assert_eq!(extract_id("not json at all"), None);
        assert_eq!(extract_id("{\"id\":\"abc\"}"), None);
        assert_eq!(extract_id(""), None);
    }

    #[test]
    fn metrics_command_round_trip() {
        match parse_command("{\"id\":3,\"cmd\":\"metrics\"}").unwrap() {
            Command::Metrics { id } => assert_eq!(id, 3),
            other => panic!("expected Metrics, got {other:?}"),
        }
        assert!(parse_command("{\"id\":3,\"cmd\":\"nope\"}")
            .unwrap_err()
            .contains("unknown cmd"));
        // Lines without cmd parse as forecasts.
        let line = "{\"id\":1,\"t0\":0,\"values\":[1,2]}";
        assert!(matches!(parse_command(line).unwrap(), Command::Forecast(_)));

        let text = "lttf_up 1\nlttf_serve_queue_depth{model=\"demo\"} 0\n";
        let (id, res) = parse_metrics_response(&format_metrics(3, text)).unwrap();
        assert_eq!(id, 3);
        assert_eq!(res.unwrap(), text, "newlines survive the one-line framing");
    }

    #[test]
    fn stats_round_trip() {
        match parse_command("{\"id\":4,\"cmd\":\"stats\",\"model\":\"demo\"}").unwrap() {
            Command::Stats { id, model } => {
                assert_eq!(id, 4);
                assert_eq!(model.as_deref(), Some("demo"));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        match parse_command(&format_stats_request(5, None)).unwrap() {
            Command::Stats { model, .. } => assert!(model.is_none()),
            other => panic!("expected Stats, got {other:?}"),
        }

        let report = StatsReport {
            model: "demo".to_string(),
            generation: 2,
            replicas: 3,
            queue_depth: 1,
            served_total: 400,
            window_ms: 120_000,
            window_count: 37,
            p50_ms: 1.5,
            p95_ms: 4.25,
            p99_ms: 9.0,
            queue_p50_ms: 0.5,
            service_p50_ms: 1.0,
            cpu_p50_ms: 0.75,
            cpu_p95_ms: 2.5,
            alloc_p50_bytes: 8_192.0,
            alloc_p95_bytes: 65_536.0,
            mem_live_bytes: 1_048_576,
            mem_peak_bytes: 2_097_152,
            shed_per_sec: 0.25,
            rejected_per_sec: 0.0,
            resubmitted_per_sec: 0.125,
            drift_available: true,
            drift_alert: true,
            drift_scores: vec![0.5, 3.25],
            drift_prediction_score: 0.75,
            drift_threshold: 1.0,
            drift_window_count: 640,
            sessions_open: 3,
            sessions_opened: 11,
            session_evictions: 2,
            adapt_enabled: true,
            adapt_state: "published".to_string(),
            adapt_steps: 12,
            adapt_rollbacks: 1,
            adapt_publishes: 2,
            adapt_cpu_ms: 350.5,
            adapt_alloc_bytes: 4_194_304,
        };
        let (id, got) = parse_stats_response(&format_stats(9, &report)).unwrap();
        assert_eq!(id, 9);
        assert_eq!(got.unwrap(), report);

        let (_, err) = parse_stats_response(&format_err(9, "unknown model 'x'")).unwrap();
        assert!(err.unwrap_err().contains("unknown model"));
    }

    #[test]
    fn session_command_round_trips() {
        match parse_command(&format_open(1, Some("demo"), 1_700_000_000, 60)).unwrap() {
            Command::Open { id, model, t0, dt } => {
                assert_eq!(id, 1);
                assert_eq!(model.as_deref(), Some("demo"));
                assert_eq!(t0, 1_700_000_000);
                assert_eq!(dt, 60);
            }
            other => panic!("expected Open, got {other:?}"),
        }
        // model/t0/dt are all optional on open
        match parse_command("{\"id\":2,\"cmd\":\"open\"}").unwrap() {
            Command::Open { model, t0, dt, .. } => {
                assert!(model.is_none());
                assert_eq!((t0, dt), (0, 3600));
            }
            other => panic!("expected Open, got {other:?}"),
        }

        match parse_command(&format_push(3, 17, &[1.5, -2.25])).unwrap() {
            Command::Push { id, session, values } => {
                assert_eq!((id, session), (3, 17));
                assert_eq!(values, vec![1.5, -2.25]);
            }
            other => panic!("expected Push, got {other:?}"),
        }
        assert!(parse_command("{\"id\":1,\"cmd\":\"push\",\"values\":[1]}")
            .unwrap_err()
            .contains("session"));
        assert!(parse_command("{\"id\":1,\"cmd\":\"push\",\"session\":1}")
            .unwrap_err()
            .contains("values"));
        assert!(parse_command("{\"id\":1,\"cmd\":\"push\",\"session\":1,\"values\":[]}")
            .unwrap_err()
            .contains("non-empty"));
        assert!(
            parse_command("{\"id\":1,\"cmd\":\"push\",\"session\":1,\"values\":[1,null]}")
                .unwrap_err()
                .contains("non-finite")
        );

        match parse_command(&format_close(4, 17)).unwrap() {
            Command::Close { id, session } => assert_eq!((id, session), (4, 17)),
            other => panic!("expected Close, got {other:?}"),
        }
        assert!(parse_command("{\"id\":1,\"cmd\":\"close\"}")
            .unwrap_err()
            .contains("session"));
    }

    #[test]
    fn session_response_round_trips() {
        let (id, res) = parse_open_response(&format_open_ok(5, 42, 16)).unwrap();
        assert_eq!(id, 5);
        assert_eq!(res.unwrap(), (42, 16));
        let (_, res) = parse_open_response(&format_err(5, "session table full")).unwrap();
        assert!(res.unwrap_err().contains("full"));

        let (id, res) = parse_push_response(&format_push_pending(6, 42, 9)).unwrap();
        assert_eq!(id, 6);
        assert_eq!(res.unwrap(), PushReply::Pending(9));

        let forecast = vec![0.1f32, -3.5e-5, f32::MIN_POSITIVE];
        let (id, res) = parse_push_response(&format_push_ok(7, 42, 3, true, &forecast)).unwrap();
        assert_eq!(id, 7);
        assert_eq!(
            res.unwrap(),
            PushReply::Forecast { generation: 3, adapted: true, forecast },
            "forecast floats survive the wire bit-for-bit"
        );
        let (_, res) = parse_push_response(&format_err(7, "unknown session")).unwrap();
        assert!(res.unwrap_err().contains("unknown session"));

        let (id, res) = parse_close_response(&format_close_ok(8, 42, 20, 5)).unwrap();
        assert_eq!(id, 8);
        assert_eq!(res.unwrap(), (20, 5));
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"values\":[1,2]}").is_err()); // no id
        assert!(parse_request("{\"id\":1,\"t0\":0}").is_err()); // no values
        // non-finite input must be caught before it reaches the model
        let line = "{\"id\":1,\"t0\":0,\"values\":[1,null,2]}";
        assert!(parse_request(line).unwrap_err().contains("non-finite"));
        // A forecast line routed through parse_command gets the same checks.
        for line in [
            "{\"values\":[1,2]}",
            "{\"id\":1,\"t0\":0}",
            "{\"id\":1,\"values\":[1,2]}",
            line,
        ] {
            let want = parse_request(line).unwrap_err();
            let got = parse_command(line).map(|_| ()).unwrap_err();
            assert_eq!(got, want, "{line}");
        }
        // Which fault wins when a line has several: an unknown command is
        // named before a missing id, and push checks id, then session,
        // then its values.
        for (line, want) in [
            ("{\"cmd\":\"bogus\"}", "unknown cmd 'bogus'"),
            ("{\"cmd\":\"push\",\"values\":[1]}", "missing numeric 'id'"),
            ("{\"id\":1,\"cmd\":\"push\",\"values\":[]}", "push requires a numeric 'session'"),
            (
                "{\"id\":1,\"cmd\":\"push\",\"session\":1,\"values\":[]}",
                "push requires a non-empty 'values'",
            ),
            (
                "{\"id\":1,\"cmd\":\"push\",\"session\":1,\"values\":[1,null]}",
                "'values' contains a non-finite entry",
            ),
        ] {
            assert_eq!(parse_command(line).map(|_| ()).unwrap_err(), want, "{line}");
        }
    }

    #[test]
    fn every_response_parser_shares_one_envelope() {
        type Verdict = Result<(u64, Result<(), String>), String>;
        type Parser = fn(&str) -> Verdict;
        fn erase<T>(r: Result<(u64, Result<T, String>), String>) -> Verdict {
            r.map(|(id, res)| (id, res.map(|_| ())))
        }
        let parsers: [(&str, Parser); 7] = [
            ("reload", |l| erase(parse_reload_response(l))),
            ("open", |l| erase(parse_open_response(l))),
            ("push", |l| erase(parse_push_response(l))),
            ("close", |l| erase(parse_close_response(l))),
            ("metrics", |l| erase(parse_metrics_response(l))),
            ("stats", |l| erase(parse_stats_response(l))),
            ("meta", |l| parse_response_meta(l).map(|m| (m.id, m.result.map(|_| ())))),
        ];
        fn fail<T>(e: &str) -> Result<T, String> {
            Err(e.to_string())
        }
        for (name, parse) in parsers {
            assert!(parse("not json").is_err(), "{name}");
            assert_eq!(parse("{\"ok\":false,\"error\":\"x\"}"), fail("missing numeric 'id'"), "{name}");
            assert_eq!(parse("{\"error\":\"x\"}"), fail("missing numeric 'id'"), "{name}");
            assert_eq!(parse("{\"id\":\"7\",\"ok\":true}"), fail("missing numeric 'id'"), "{name}");
            assert_eq!(parse("{\"id\":3,\"error\":\"x\"}"), fail("missing 'ok'"), "{name}");
            assert_eq!(parse("{\"id\":3,\"ok\":1}"), fail("missing 'ok'"), "{name}");
            assert_eq!(parse(&format_err(4, "boom")), Ok((4, fail("boom"))), "{name}");
            assert_eq!(parse("{\"id\":5,\"ok\":false}"), Ok((5, fail("unknown"))), "{name}");
        }
        // The backoff hint rides on errors only.
        let hinted = parse_response_meta("{\"id\":1,\"ok\":true,\"forecast\":[1],\"retry_after_ms\":9}");
        assert_eq!(hinted.unwrap().retry_after_ms, None);
        let hinted = parse_response_meta("{\"id\":2,\"ok\":false,\"retry_after_ms\":9}").unwrap();
        assert_eq!((hinted.retry_after_ms, hinted.result), (Some(9), fail("unknown")));
        assert_eq!(parse_response_meta(&format_err(3, "x")).unwrap().retry_after_ms, None);
    }
}
