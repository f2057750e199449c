//! One benchmark run: set the service up, drive it over the wire from a
//! closed-loop client, check the answers, and derive the metrics.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pq_core::PlannerOptions;
use pq_data::{loader, Database, Tuple};
use pq_engine::governor::ExecutionContext;
use pq_ivm::{RelationDelta, ViewQuery, ViewRegistry};
use pq_query::parse_cq;
use pq_service::{MetricsSnapshot, QueryService, ServerHandle};

use crate::gen::{self, ColdStream, MixedStream, Op, QueryOp, WriteGen, WriteOp, VIEW};
use crate::replay::{self, ReplayCtx, ReplayTotals};
use crate::spec::{self, Workload, DB};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::wire::{self, parse_epoch, parse_query_header, Client};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Stop each client after this many operations per window (for exact,
    /// repeatable counts); `None` runs for `seconds`.
    pub max_ops: Option<u64>,
    /// Directory for the durable catalog and the span log.
    pub work_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// `ERR` replies, wrong answers, and missing, extra or wrong deltas.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Failure bookkeeping shared by every phase.
#[derive(Debug, Default)]
struct Failures {
    count: u64,
    notes: Vec<String>,
}

impl Failures {
    fn add(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for n in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(n);
            }
        }
    }
}

// ------------------------------------------------------------ records

/// A `QUERY` kept for checking or replay after the window.
#[derive(Debug, Clone)]
struct QueryRec {
    sent: Instant,
    done: Instant,
    line: String,
    header: String,
    rows: Vec<String>,
}

/// One write as the writer saw it.
#[derive(Debug, Clone)]
struct WriteRec {
    op: WriteOp,
    sent: Instant,
    rtt_us: f64,
    epoch: u64,
}

/// The operations sent in one sub-window, the span they took, and the
/// share of the machine's CPU time the hypervisor gave elsewhere meanwhile.
#[derive(Debug, Clone, Copy, Default)]
struct SubWindow {
    ops: u64,
    first_sent: Option<Instant>,
    last_done: Option<Instant>,
    steal: f64,
}

impl SubWindow {
    fn note(&mut self, sent: Instant, done: Instant) {
        self.ops += 1;
        self.first_sent = Some(self.first_sent.map_or(sent, |f| f.min(sent)));
        self.last_done = Some(self.last_done.map_or(done, |l| l.max(done)));
    }

    /// Completed operations per second over the measured span.
    fn throughput(&self) -> f64 {
        match (self.first_sent, self.last_done) {
            (Some(f), Some(l)) if l > f => self.ops as f64 / l.duration_since(f).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Everything the client did in one phase (window, warm-up, probe or final
/// check).
#[derive(Debug, Default)]
struct ClientLog {
    ops: u64,
    /// Round-trip time of every `QUERY` in µs, by the sub-window it was
    /// sent in (`f32` keeps the log small next to the service's memory).
    lat_us: [Vec<f32>; SUB_WINDOWS],
    /// Operations per sub-window (by the time they were sent).
    win: [SubWindow; SUB_WINDOWS],
    /// The queries kept for checking.
    kept: Vec<QueryRec>,
    writes: Vec<WriteRec>,
    failures: Failures,
    trace: Option<Trace>,
    totals: ReplayTotals,
}

// ------------------------------------------------------------ subscriber

/// One `DELTA` frame, stamped on arrival.
#[derive(Debug, Clone)]
struct Frame {
    epoch: u64,
    at: Instant,
    added: Vec<String>,
    removed: Vec<String>,
}

/// The connection holding the `SUBSCRIBE` stream and its reader thread.
struct Subscriber {
    control: TcpStream,
    id: u64,
    initial: Vec<String>,
    frames: mpsc::Receiver<Frame>,
    reader: JoinHandle<Result<(), String>>,
}

impl Subscriber {
    fn start(addr: SocketAddr) -> Result<Subscriber, String> {
        let mut reader = Client::connect(addr).map_err(|e| format!("subscriber connect: {e}"))?;
        let head = reader
            .request(&format!("SUBSCRIBE {DB} {VIEW}"))
            .map_err(|e| format!("subscribe: {e}"))?;
        let control = reader
            .try_clone_writer()
            .map_err(|e| format!("subscriber control: {e}"))?;
        let id = head
            .first()
            .and_then(|h| h.strip_prefix("OK subscribed "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("subscribe refused: {head:?}"))?;
        let initial = head[1..].to_vec();
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            let lines = reader
                .read_frame()
                .map_err(|e| format!("delta stream: {e}"))?;
            let at = Instant::now();
            let Some(header) = lines.first() else {
                return Err("empty delta frame".to_string());
            };
            if header.starts_with("OK unsubscribed") {
                return Ok(());
            }
            if !header.starts_with("DELTA ") {
                return Err(format!("unexpected frame `{header}`"));
            }
            let epoch = parse_epoch(header).ok_or_else(|| format!("no epoch in `{header}`"))?;
            let mut frame = Frame {
                epoch,
                at,
                added: Vec::new(),
                removed: Vec::new(),
            };
            for l in &lines[1..] {
                if let Some(r) = l.strip_prefix("+ ") {
                    frame.added.push(r.to_string());
                } else if let Some(r) = l.strip_prefix("- ") {
                    frame.removed.push(r.to_string());
                }
            }
            if tx.send(frame).is_err() {
                return Ok(());
            }
        });
        Ok(Subscriber {
            control,
            id,
            initial,
            frames,
            reader,
        })
    }

    /// Collect frames until every epoch in `expected` has arrived (or a
    /// grace period passes), then end the subscription.
    fn finish(self, expected: &BTreeSet<u64>) -> Result<Vec<Frame>, String> {
        let mut frames = Vec::new();
        let mut missing = expected.clone();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !missing.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.frames.recv_timeout(left) {
                Ok(f) => {
                    missing.remove(&f.epoch);
                    frames.push(f);
                }
                Err(_) => break,
            }
        }
        // Any input line ends the subscription.
        let mut control = self.control;
        control
            .write_all(b"END\n")
            .map_err(|e| format!("unsubscribe: {e}"))?;
        let joined = self
            .reader
            .join()
            .map_err(|_| "delta reader panicked".to_string())?;
        frames.extend(self.frames.try_iter());
        joined.map(|()| frames)
    }
}

// ------------------------------------------------------------ environment

/// A running service, its server and (for mixed-write) the subscriber.
struct Env {
    svc: Arc<QueryService>,
    server: ServerHandle,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Env {
    fn start(dir: PathBuf, text: &str) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Arc::new(
            QueryService::try_new(spec::service_config(&dir))
                .map_err(|e| format!("service start: {e}"))?,
        );
        let server = pq_service::serve("127.0.0.1:0", Arc::clone(&svc))
            .map_err(|e| format!("serve: {e}"))?;
        let addr = server.local_addr();
        svc.load_str(DB, text).map_err(|e| format!("load: {e}"))?;
        Ok(Env {
            svc,
            server,
            addr,
            dir,
        })
    }

    fn stop(self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cold-analytic warm-up requests: three of each template.
const COLD_WARMUP: usize = 27;

/// Sub-windows of a measured window (and chunks of the write probe) whose
/// figures are combined by their median.
const SUB_WINDOWS: usize = 10;

/// CPU time stolen by the hypervisor and all CPU time, in clock ticks
/// summed over the CPUs, from the first line of `/proc/stat`; zeros where
/// that file does not exist.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Attributes stolen CPU time to the sub-window it fell in.
struct StealClock {
    at: (u64, u64),
    win: usize,
}

impl StealClock {
    fn start() -> StealClock {
        StealClock {
            at: cpu_ticks(),
            win: 0,
        }
    }

    /// Close the current sub-window if `win` is a later one (and at the
    /// end of the phase, with `win` past the last).
    fn advance(&mut self, win: usize, log: &mut ClientLog) {
        if win == self.win {
            return;
        }
        let now = cpu_ticks();
        let total = now.1.saturating_sub(self.at.1);
        if total > 0 {
            log.win[self.win].steal = now.0.saturating_sub(self.at.0) as f64 / total as f64;
        }
        self.at = now;
        self.win = win;
    }
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------ driving

/// The client's operation stream.
type Source = Box<dyn Iterator<Item = Op>>;

fn source(w: Workload, data: &gen::Data, seed: u64) -> Source {
    let s = w.sizing();
    match w {
        Workload::ColdAnalytic => Box::new(ColdStream::new(&s, seed).map(Op::Query)),
        Workload::MixedWrite => Box::new(MixedStream::new(data, &s, seed)),
    }
}

/// A measured phase: its clock and how its client treats replies.
#[derive(Clone, Copy)]
struct Phase<'a> {
    /// Start of the measured window.
    start: Instant,
    /// Length of one sub-window.
    sub: Duration,
    /// Replay each reply through the layers (traced runs).
    replay: Option<&'a ReplayCtx>,
    /// Keep every n-th query for checking against direct evaluation.
    sample_every: u64,
}

/// Send one query and record it; `keep` keeps its reply for checking.
fn do_query(
    client: &mut Client,
    q: &QueryOp,
    keep: bool,
    log: &mut ClientLog,
    phase: Phase<'_>,
    request_id: u64,
) -> Result<(), String> {
    let sent = Instant::now();
    let reply = client
        .request(&q.line)
        .map_err(|e| format!("query I/O: {e}"))?;
    let done = Instant::now();
    let win = phase.sub_window(sent);
    log.ops += 1;
    log.win[win].note(sent, done);
    log.lat_us[win].push((done.duration_since(sent).as_secs_f64() * 1e6) as f32);
    let Some(header) = reply.first().and_then(|h| parse_query_header(h)) else {
        log.failures
            .add(format!("`{}` -> {:?}", q.line, reply.first()));
        return Ok(());
    };
    let rows = &reply[1..];
    if rows.len() != header.rows {
        log.failures.add(format!(
            "`{}`: header says {} rows, got {}",
            q.line,
            header.rows,
            rows.len()
        ));
    }
    if let (Some(ctx), Some(trace)) = (phase.replay, log.trace.as_mut()) {
        let ok = replay::replay_query(
            ctx,
            trace,
            &mut log.totals,
            request_id,
            &q.line,
            &header,
            rows,
            sent,
            done,
        );
        if let Err(e) = ok {
            log.failures.add(format!("replay of `{}`: {e}", q.line));
        }
    }
    if keep {
        log.kept.push(QueryRec {
            sent,
            done,
            line: q.line.clone(),
            header: reply[0].clone(),
            rows: rows.to_vec(),
        });
    }
    Ok(())
}

impl Phase<'_> {
    /// Settings outside any measured window: no replay, no sampling.
    fn plain() -> Phase<'static> {
        Phase {
            start: Instant::now(),
            sub: Duration::MAX,
            replay: None,
            sample_every: 0,
        }
    }

    fn sub_window(&self, at: Instant) -> usize {
        let since = at.saturating_duration_since(self.start).as_secs_f64();
        ((since / self.sub.as_secs_f64()) as usize).min(SUB_WINDOWS - 1)
    }
}

/// Send one write and record it.
fn do_write(
    client: &mut Client,
    w: &WriteOp,
    log: &mut ClientLog,
    phase: Phase<'_>,
) -> Result<(), String> {
    let line = w.line();
    let sent = Instant::now();
    let reply = client
        .request(&line)
        .map_err(|e| format!("write I/O: {e}"))?;
    let done = Instant::now();
    let rtt_us = done.duration_since(sent).as_secs_f64() * 1e6;
    log.ops += 1;
    log.win[phase.sub_window(sent)].note(sent, done);
    let head = reply.first().map(String::as_str).unwrap_or("");
    let applied = head.split_whitespace().nth(2) == Some("1");
    match parse_epoch(head) {
        Some(epoch) if head.starts_with("OK ") && applied => log.writes.push(WriteRec {
            op: w.clone(),
            sent,
            rtt_us,
            epoch,
        }),
        _ => log.failures.add(format!("`{line}` -> `{head}`")),
    }
    Ok(())
}

/// Run the client closed-loop until `deadline` (or `max_ops`).
fn drive(
    addr: SocketAddr,
    source: &mut Source,
    deadline: Instant,
    max_ops: Option<u64>,
    phase: Phase<'_>,
    origin: Instant,
) -> Result<ClientLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("client connect: {e}"))?;
    let mut log = ClientLog {
        trace: phase.replay.map(|_| Trace::new(origin)),
        ..ClientLog::default()
    };
    let mut k: u64 = 0;
    let mut steal = StealClock::start();
    while Instant::now() < deadline && max_ops.is_none_or(|m| k < m) {
        steal.advance(phase.sub_window(Instant::now()), &mut log);
        match source.next().expect("streams are endless") {
            Op::Query(q) => {
                let keep = phase.sample_every > 0 && k.is_multiple_of(phase.sample_every);
                do_query(&mut client, &q, keep, &mut log, phase, k)?;
            }
            Op::Write(w) => do_write(&mut client, &w, &mut log, phase)?,
        }
        k += 1;
    }
    steal.advance(SUB_WINDOWS, &mut log);
    Ok(log)
}

// ------------------------------------------------------------ checks

fn row_set<S: AsRef<str>>(rows: &[S]) -> BTreeSet<Tuple> {
    wire::parse_rows(rows).into_iter().collect()
}

/// Check `rows` (the wire answer to `line`) against direct evaluation.
fn check_answer(line: &str, rows: &[String], db: &Database, failures: &mut Failures) {
    let Ok(pq_service::protocol::Request::Query { src, count, .. }) =
        pq_service::parse_request(line)
    else {
        failures.add(format!("unparsable request `{line}`"));
        return;
    };
    let q = match parse_cq(&src) {
        Ok(q) => q,
        Err(e) => {
            failures.add(format!("`{src}`: {e}"));
            return;
        }
    };
    let direct = match pq_core::evaluate(&q, db, &PlannerOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            failures.add(format!("evaluate `{src}`: {e}"));
            return;
        }
    };
    if count.is_some() {
        // Counts are checked against enumerate-then-count.
        let expected = direct.len().to_string();
        if rows.len() != 1 || rows[0] != expected {
            failures.add(format!(
                "`{line}`: count {rows:?}, enumeration gives {expected}"
            ));
        }
    } else if row_set(rows) != direct.iter().cloned().collect::<BTreeSet<Tuple>>() {
        failures.add(format!(
            "`{line}`: {} rows on the wire, {} by direct evaluation",
            rows.len(),
            direct.len()
        ));
    }
}

/// The expected view delta of each write, from replaying the writes on a
/// local copy of the database through `ViewRegistry::maintain`.
struct WriteReplay {
    deltas: Vec<(BTreeSet<String>, BTreeSet<String>)>,
    insert_us: Vec<f64>,
    maintain_us: Vec<f64>,
    delta_rows: u64,
}

fn replay_writes(text: &str, writes: &[WriteRec]) -> Result<WriteReplay, String> {
    let mut db = loader::parse_database(text).map_err(|e| format!("local load: {e}"))?;
    let mut views = ViewRegistry::new();
    let view = parse_cq(VIEW).map_err(|e| format!("view: {e}"))?;
    views
        .register(
            "v",
            ViewQuery::Cq(view),
            &db,
            &ExecutionContext::unlimited(),
        )
        .map_err(|e| format!("local view: {e}"))?;
    let mut out = WriteReplay {
        deltas: Vec::with_capacity(writes.len()),
        insert_us: Vec::new(),
        maintain_us: Vec::with_capacity(writes.len()),
        delta_rows: 0,
    };
    for w in writes {
        let row = Tuple::new([
            pq_data::Value::Int(w.op.row.0),
            pq_data::Value::Int(w.op.row.1),
        ]);
        let start = Instant::now();
        let changed = if w.op.insert {
            db.insert_rows(w.op.relation, [row])
        } else {
            db.delete_rows(w.op.relation, &[row])
        }
        .map_err(|e| format!("local write: {e}"))?;
        if w.op.insert {
            out.insert_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let delta = RelationDelta {
            relation: w.op.relation.to_string(),
            added: if w.op.insert {
                changed.clone()
            } else {
                Vec::new()
            },
            removed: if w.op.insert { Vec::new() } else { changed },
        };
        let start = Instant::now();
        let outcomes = views.maintain(&db, &[delta], ExecutionContext::new);
        out.maintain_us.push(start.elapsed().as_secs_f64() * 1e6);
        let (added, removed) = outcomes
            .first()
            .map(|o| {
                (
                    o.delta.added.iter().map(wire::render_row).collect(),
                    o.delta.removed.iter().map(wire::render_row).collect(),
                )
            })
            .unwrap_or_default();
        out.delta_rows += (outcomes
            .first()
            .map_or(0, |o| o.delta.added.len() + o.delta.removed.len()))
            as u64;
        out.deltas.push((added, removed));
    }
    Ok(out)
}

/// Match delta frames to writes by epoch: every non-empty expected delta
/// must arrive exactly once with the expected rows, and nothing else may
/// arrive. Returns the lag of each matched frame in ms, in write order.
fn check_deltas(
    writes: &[WriteRec],
    expected: &WriteReplay,
    frames: &[Frame],
    failures: &mut Failures,
) -> Vec<f64> {
    let mut by_epoch: HashMap<u64, Vec<&Frame>> = HashMap::new();
    for f in frames {
        by_epoch.entry(f.epoch).or_default().push(f);
    }
    let mut lags = Vec::new();
    for (w, (added, removed)) in writes.iter().zip(&expected.deltas) {
        let got = by_epoch.remove(&w.epoch).unwrap_or_default();
        if added.is_empty() && removed.is_empty() {
            if !got.is_empty() {
                failures.add(format!(
                    "epoch {}: delta for a write that changes no answer",
                    w.epoch
                ));
            }
            continue;
        }
        match got.as_slice() {
            [] => failures.add(format!("epoch {}: missing delta", w.epoch)),
            [f] => {
                let fa: BTreeSet<String> = f.added.iter().cloned().collect();
                let fr: BTreeSet<String> = f.removed.iter().cloned().collect();
                if &fa != added || &fr != removed {
                    failures.add(format!(
                        "epoch {}: delta rows differ from maintenance",
                        w.epoch
                    ));
                }
                lags.push(f.at.saturating_duration_since(w.sent).as_secs_f64() * 1e3);
            }
            _ => failures.add(format!(
                "epoch {}: {} duplicated deltas",
                w.epoch,
                got.len()
            )),
        }
    }
    for (epoch, fs) in by_epoch {
        failures.add(format!("epoch {epoch}: {} deltas match no write", fs.len()));
    }
    lags
}

/// Rebuild the view from the initial answer and the frames and compare it
/// with direct evaluation on the final snapshot.
fn check_mirror(initial: &[String], frames: &[Frame], db: &Database, failures: &mut Failures) {
    let mut mirror: BTreeSet<String> = initial.iter().cloned().collect();
    let mut ordered: Vec<&Frame> = frames.iter().collect();
    ordered.sort_by_key(|f| f.epoch);
    for f in ordered {
        for r in &f.removed {
            mirror.remove(r);
        }
        mirror.extend(f.added.iter().cloned());
    }
    let view = parse_cq(VIEW).expect("the view parses");
    match pq_core::evaluate(&view, db, &PlannerOptions::default()) {
        Ok(direct) => {
            let direct: BTreeSet<String> = direct.iter().map(wire::render_row).collect();
            if direct != mirror {
                failures.add(format!(
                    "view mirror has {} rows, direct evaluation {}",
                    mirror.len(),
                    direct.len()
                ));
            }
        }
        Err(e) => failures.add(format!("evaluate view: {e}")),
    }
}

// ------------------------------------------------------------ the run

/// A window's end-to-end figures.
#[derive(Debug, Clone, Copy, Default)]
struct WindowFigures {
    throughput: f64,
    query_p50_ms: f64,
    query_p99_ms: f64,
}

/// Share of the CPU time the hypervisor may steal in a sub-window without
/// the sub-window counting as disturbed.
const STEAL_FLOOR: f64 = 0.02;

/// The sub-windows a window's figures come from: those in which the
/// hypervisor stole no larger a share of the CPU than in the median
/// sub-window or [`STEAL_FLOOR`]. On a shared host the stolen share changes
/// from second to second, and a run's figures follow it; where little is
/// stolen every sub-window is kept.
fn quiet_windows(log: &ClientLog) -> Vec<usize> {
    let used: Vec<usize> = (0..SUB_WINDOWS).filter(|&i| log.win[i].ops > 0).collect();
    let mut shares: Vec<f64> = used.iter().map(|&i| log.win[i].steal).collect();
    let limit = median(&mut shares).max(STEAL_FLOOR);
    used.into_iter()
        .filter(|&i| log.win[i].steal <= limit)
        .collect()
}

/// A window's figures over its quiet sub-windows. Throughput and the median
/// are medians over those sub-windows, so a passing disturbance moves one
/// sub-window only; the 99th percentile pools them, which it needs for
/// samples.
fn figures(log: &ClientLog) -> WindowFigures {
    let kept = quiet_windows(log);
    let mut throughput: Vec<f64> = kept.iter().map(|&i| log.win[i].throughput()).collect();
    let mut p50 = Vec::with_capacity(kept.len());
    let mut pooled: Vec<f32> = Vec::new();
    for &i in &kept {
        let mut v = log.lat_us[i].clone();
        p50.push(f64::from(percentile(&mut v, 0.50)) / 1e3);
        pooled.append(&mut v);
    }
    WindowFigures {
        throughput: median(&mut throughput),
        query_p50_ms: median(&mut p50),
        query_p99_ms: f64::from(percentile(&mut pooled, 0.99)) / 1e3,
    }
}

/// Median over `SUB_WINDOWS` consecutive chunks of the per-chunk
/// `p`-quantile of `samples` (in issue order).
fn chunked_percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut per: Vec<f64> = (0..SUB_WINDOWS)
        .filter_map(|k| {
            let lo = k * samples.len() / SUB_WINDOWS;
            let hi = (k + 1) * samples.len() / SUB_WINDOWS;
            (hi > lo).then(|| percentile(&mut samples[lo..hi].to_vec(), p))
        })
        .collect();
    median(&mut per)
}

fn diff(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run one workload and derive its metrics.
///
/// # Errors
/// Set-up failures and lost connections (wrong answers are failures in the
/// outcome, not errors).
#[allow(clippy::too_many_lines)]
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let s = w.sizing();
    let data = gen::data(&s, opts.seed);
    let mut failures = Failures::default();
    let mut attempted: u64 = 0;
    let state_dir = |rep: usize| {
        opts.work_dir
            .join(format!("state-{}-{}-{rep}", w.name(), std::process::id()))
    };

    // ---- set-up, repeated; the last one is kept for the measurement.
    let mut setup_s = Vec::with_capacity(spec::SETUP_REPS);
    let mut kept = None;
    for rep in 0..spec::SETUP_REPS {
        let t0 = Instant::now();
        let env = Env::start(state_dir(rep), &data.text)?;
        let subscriber = if w == Workload::MixedWrite {
            Some(Subscriber::start(env.addr)?)
        } else {
            None
        };
        let warm: Vec<QueryOp> = match w {
            Workload::ColdAnalytic => ColdStream::new(&s, opts.seed ^ 0x5eed_5eed)
                .take(COLD_WARMUP)
                .collect(),
            Workload::MixedWrite => MixedStream::new(&data, &s, opts.seed).pool.entries,
        };
        let mut warm_log = ClientLog::default();
        let mut client = Client::connect(env.addr).map_err(|e| format!("connect: {e}"))?;
        for q in &warm {
            do_query(&mut client, q, true, &mut warm_log, Phase::plain(), 0)?;
        }
        drop(client);
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += warm_log.ops;
        if rep + 1 < spec::SETUP_REPS {
            if let Some(sub) = subscriber {
                sub.finish(&BTreeSet::new())?;
            }
            env.stop();
        } else {
            kept = Some((env, subscriber, warm, warm_log));
        }
    }
    let (env, mut subscriber, warm, warm_log) = kept.expect("at least one set-up");
    eprintln!(
        "set up {} times, median {:.3} s",
        setup_s.len(),
        median(&mut setup_s.clone())
    );
    failures.merge(warm_log.failures);

    // Every warm-up reply is checked against direct evaluation.
    let snap0 = env.svc.snapshot(DB).map_err(|e| format!("snapshot: {e}"))?;
    for rec in &warm_log.kept {
        check_answer(&rec.line, &rec.rows, &snap0.db, &mut failures);
    }

    let origin = Instant::now();
    let shapes = vec![(
        format!("sub-{}", subscriber.as_ref().map_or(0, |s| s.id)),
        parse_cq(VIEW).map_err(|e| format!("view: {e}"))?,
    )];
    let ctx = ReplayCtx {
        svc: Arc::clone(&env.svc),
        planner: env.svc.config().planner.clone(),
        view_shapes: shapes,
        view_sub: subscriber.as_ref().map(|s| s.id),
    };
    let sample_every = if w == Workload::ColdAnalytic { 16 } else { 0 };
    // One stream per client, continued across the phases.
    let mut stream = source(w, &data, opts.seed);

    // ---- measured window(s). Traced runs measure an untraced half and a
    // traced half, so the tracing overhead is their difference.
    let before = env.svc.stats();
    let mut logs: Vec<ClientLog> = Vec::with_capacity(2);
    let mut plain = WindowFigures::default();
    let mut traced = WindowFigures::default();
    // Warm-up requests are requests of the workload too: a traced run
    // replays them.
    let mut warm_trace = Trace::new(origin);
    let mut warm_totals = ReplayTotals::default();
    if opts.trace {
        for (i, rec) in warm_log.kept.iter().enumerate() {
            let Some(header) = parse_query_header(&rec.header) else {
                continue;
            };
            let id = (1 << 50) | i as u64;
            if let Err(e) = replay::replay_query(
                &ctx,
                &mut warm_trace,
                &mut warm_totals,
                id,
                &rec.line,
                &header,
                &rec.rows,
                rec.sent,
                rec.done,
            ) {
                failures.add(format!("replay of `{}`: {e}", rec.line));
            }
        }
    }
    let phases: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let window = Duration::from_secs_f64(opts.seconds / phases.len() as f64);
    for &traced_phase in phases {
        let start = Instant::now();
        let log = drive(
            env.addr,
            &mut stream,
            start + window,
            opts.max_ops,
            Phase {
                start,
                sub: window / SUB_WINDOWS as u32,
                replay: traced_phase.then_some(&ctx),
                sample_every,
            },
            origin,
        )?;
        let fig = figures(&log);
        if traced_phase {
            traced = fig;
        } else {
            plain = fig;
        }
        logs.push(log);
    }
    let after = env.svc.stats();

    // ---- write probe for the read-only workloads, closed-loop on a
    // service of its own that holds a database of `PROBE` sizes.
    let mut writes: Vec<WriteRec> = logs.iter().flat_map(|l| l.writes.clone()).collect();
    let mut probe_env = None;
    let (write_before, write_after) = if w == Workload::MixedWrite {
        (before, after)
    } else {
        let probe_data = gen::data(&spec::PROBE, opts.seed);
        let penv = Env::start(state_dir(spec::SETUP_REPS), &probe_data.text)?;
        subscriber = Some(Subscriber::start(penv.addr)?);
        let mut gen = WriteGen::new(&probe_data, &spec::PROBE, opts.seed);
        let mut probe = ClientLog::default();
        let mut client = Client::connect(penv.addr).map_err(|e| format!("connect: {e}"))?;
        let b = penv.svc.stats();
        for _ in 0..s.probe_writes {
            do_write(&mut client, &gen.next_write(), &mut probe, Phase::plain())?;
        }
        let a = penv.svc.stats();
        attempted += probe.ops;
        failures.merge(probe.failures);
        writes = probe.writes;
        probe_env = Some((penv, probe_data.text));
        (b, a)
    };
    let subscriber = subscriber.expect("every workload subscribes");
    // The service and database the writes went to.
    let (write_env, write_text) = probe_env
        .as_ref()
        .map_or((&env, &data.text), |(e, t)| (e, t));
    // Before the checks, which hold a second copy of the database.
    let peak_rss = peak_rss_mb();
    eprintln!("measured in {:.1} s", origin.elapsed().as_secs_f64());

    // ---- checks, outside the timed window.
    let checks = Instant::now();
    for log in &mut logs {
        attempted += log.ops;
        failures.merge(std::mem::take(&mut log.failures));
    }
    let expected = replay_writes(write_text, &writes)?;
    let expected_epochs: BTreeSet<u64> = writes
        .iter()
        .zip(&expected.deltas)
        .filter(|(_, (a, r))| !a.is_empty() || !r.is_empty())
        .map(|(w, _)| w.epoch)
        .collect();
    let initial = subscriber.initial.clone();
    let frames = subscriber.finish(&expected_epochs)?;
    let lag_ms = check_deltas(&writes, &expected, &frames, &mut failures);
    let final_snap = write_env
        .svc
        .snapshot(DB)
        .map_err(|e| format!("snapshot: {e}"))?;
    check_mirror(&initial, &frames, &final_snap.db, &mut failures);
    match w {
        Workload::ColdAnalytic => {
            for rec in logs.iter().flat_map(|l| &l.kept) {
                check_answer(&rec.line, &rec.rows, &snap0.db, &mut failures);
            }
        }
        Workload::MixedWrite => {
            let mut client = Client::connect(env.addr).map_err(|e| format!("connect: {e}"))?;
            let mut fin = ClientLog::default();
            for q in &warm {
                do_query(&mut client, q, true, &mut fin, Phase::plain(), 0)?;
            }
            attempted += fin.ops;
            failures.merge(std::mem::take(&mut fin.failures));
            for rec in &fin.kept {
                check_answer(&rec.line, &rec.rows, &final_snap.db, &mut failures);
            }
        }
    }

    // ---- end-to-end figures.
    let write_ms: Vec<f64> = writes.iter().map(|w| w.rtt_us / 1e3).collect();
    let user_bytes: usize = writes.iter().map(|w| w.op.row_text().len()).sum();
    let wal_bytes = diff(write_before.wal_bytes, write_after.wal_bytes);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !opts.trace {
        let values = [
            ("setup_s", median(&mut setup_s)),
            ("throughput_ops_s", plain.throughput),
            ("query_p50_ms", plain.query_p50_ms),
            ("query_p99_ms", plain.query_p99_ms),
            ("write_p50_ms", chunked_percentile(&write_ms, 0.50)),
            ("write_p90_ms", chunked_percentile(&write_ms, 0.90)),
            ("delta_lag_p50_ms", chunked_percentile(&lag_ms, 0.50)),
            ("delta_lag_p90_ms", chunked_percentile(&lag_ms, 0.90)),
            (
                "wal_bytes_per_user_byte",
                ratio(wal_bytes, user_bytes as f64),
            ),
            ("peak_rss_mb", peak_rss),
        ];
        for ((name, value), (spec_name, unit, _, _)) in values.into_iter().zip(spec::END_TO_END) {
            assert_eq!(name, spec_name);
            metrics.push((spec_name, value, unit));
        }
    } else {
        let mut trace = warm_trace;
        let mut totals = warm_totals;
        for log in &mut logs {
            if let Some(t) = log.trace.take() {
                trace.absorb(t);
            }
            totals.add(&log.totals);
        }
        let layer = per_layer(
            &trace,
            &totals,
            &before,
            &after,
            &write_before,
            &write_after,
            &writes,
            &expected,
            &env,
            &data.text,
            plain,
            traced,
        )?;
        for ((name, value), (spec_name, unit, _, _)) in layer.into_iter().zip(spec::PER_LAYER) {
            assert_eq!(name, spec_name);
            metrics.push((spec_name, value, unit));
        }
        let path = opts.work_dir.join(format!("trace-{}.jsonl", w.name()));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("span log {}: {e}", path.display()))?;
        if totals.mismatches > 0 {
            failures.add(format!(
                "{} replayed answers differ from the wire",
                totals.mismatches
            ));
        }
    }
    env.stop();
    if let Some((penv, _)) = probe_env {
        penv.stop();
    }
    eprintln!("checked in {:.1} s", checks.elapsed().as_secs_f64());
    Ok(Outcome {
        attempted,
        failed: failures.count,
        failures: failures.notes,
        metrics,
    })
}

/// Median self time of the spans named `name`, in µs.
fn self_us(times: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |v| median(&mut v.clone()))
}

/// Median of `f` over repeated calls, in µs.
fn repeat_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut v)
}

/// The per-layer metrics, in catalogue order: self times from the spans,
/// ratios of replay counters and of `stats()` deltas over the window (the
/// write probe for the write layers), and calls timed after the window.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    trace: &Trace,
    totals: &ReplayTotals,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    write_before: &MetricsSnapshot,
    write_after: &MetricsSnapshot,
    writes: &[WriteRec],
    expected: &WriteReplay,
    env: &Env,
    text: &str,
    plain: WindowFigures,
    traced: WindowFigures,
) -> Result<Vec<(&'static str, f64)>, String> {
    let times = trace.self_times_us();
    let st = |n: &str| self_us(&times, n);
    let result_hits = diff(before.result_hits, after.result_hits);
    let result_misses = diff(before.result_misses, after.result_misses);
    let plan_hits = diff(before.plan_hits, after.plan_hits);
    let plan_misses = diff(before.plan_misses, after.plan_misses);
    let mutations = diff(write_before.mutations, write_after.mutations);
    let mut write_us: Vec<f64> = writes.iter().map(|w| w.rtt_us).collect();
    let wire_us = st("request");
    let snap = env.svc.snapshot(DB).map_err(|e| format!("snapshot: {e}"))?;
    let db_clone_us = repeat_us(5, || {
        std::hint::black_box(snap.db.as_ref().clone());
    });
    let load_us = repeat_us(3, || {
        std::hint::black_box(loader::parse_database(std::hint::black_box(text)).ok());
    });
    let mut persist_err = None;
    let persist_us = repeat_us(3, || {
        if let Err(e) = env.svc.persist() {
            persist_err = Some(e.to_string());
        }
    });
    if let Some(e) = persist_err {
        return Err(format!("persist: {e}"));
    }
    Ok(vec![
        ("wire.overhead_us", wire_us),
        ("protocol.parse_request_us", st("protocol.parse_request")),
        ("protocol.render_us", st("protocol.render")),
        ("query.parse_us", st("query.parse")),
        ("query.canonical_us", st("query.canonical")),
        ("analyze.us", st("analyze")),
        ("core.plan_us", st("core.plan")),
        ("core.execute_us.yannakakis", st("core.execute.yannakakis")),
        ("core.execute_us.hypertree", st("core.execute.hypertree")),
        (
            "core.execute_us.colorcoding",
            st("core.execute.colorcoding"),
        ),
        ("core.execute_us.naive", st("core.execute.naive")),
        ("core.execute_us.view-scan", st("core.execute.view-scan")),
        ("core.count_us", st("core.count")),
        (
            "engine.tuples_per_answer",
            ratio(totals.tuples_materialized as f64, totals.answer_rows as f64),
        ),
        (
            "engine.ticks_per_query",
            ratio(totals.ticks as f64, totals.executions as f64),
        ),
        (
            "exec.tasks_run",
            diff(before.exec_tasks_run, after.exec_tasks_run),
        ),
        ("exec.peak_active", after.exec_peak_active as f64),
        (
            "cache.result_hit_ratio",
            ratio(result_hits, result_hits + result_misses),
        ),
        (
            "cache.plan_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses),
        ),
        (
            "cache.semantic_hits",
            diff(before.semantic_cache_hits, after.semantic_cache_hits),
        ),
        (
            "service.view_answered",
            diff(before.view_answered_queries, after.view_answered_queries),
        ),
        ("service.query_us", st("service.query")),
        // A write reply carries no server time: the service's share is the
        // round trip less the wire overhead measured on the queries.
        ("service.write_us", median(&mut write_us) - wire_us),
        (
            "wal.bytes_per_write",
            ratio(
                diff(write_before.wal_bytes, write_after.wal_bytes),
                mutations,
            ),
        ),
        (
            "wal.snapshots",
            diff(write_before.snapshots_taken, write_after.snapshots_taken),
        ),
        ("durable.persist_us", persist_us),
        ("data.db_clone_us", db_clone_us),
        (
            "data.insert_rows_us",
            median(&mut expected.insert_us.clone()),
        ),
        ("data.load_us", load_us),
        ("ivm.maintain_us", median(&mut expected.maintain_us.clone())),
        (
            "ivm.fallbacks",
            diff(
                write_before.ivm_maintain_fallbacks,
                write_after.ivm_maintain_fallbacks,
            ),
        ),
        (
            "ivm.delta_rows_per_write",
            ratio(expected.delta_rows as f64, writes.len() as f64),
        ),
        (
            "trace.query_p50_overhead_ms",
            traced.query_p50_ms - plain.query_p50_ms,
        ),
        (
            "trace.throughput_overhead_ops_s",
            plain.throughput - traced.throughput,
        ),
    ])
}
