//! The serving workloads, against the shipped `lhr_serve --jobs 2`.
//!
//! - `serve_cells`: two closed-loop clients (the server speaks
//!   `Connection: close`, so each request is one connection; at most two
//!   are open at once). 78% of requests are first touches of cells drawn
//!   from the chip x configuration x workload space, 20% Zipf re-reads
//!   of earlier touches, which the LRU (`--cache-cells`, below the cells a
//!   run touches) has often evicted, and 2% `/healthz` probes.
//! - `serve_campaign`: one client keeps seeded campaigns from three
//!   tenants of different weights live on configurations nothing else
//!   touches, polling each to completion; the other re-reads hot cells
//!   for the whole run.
//!
//! Each server gets a fresh campaign directory, writes its stdout and
//! stderr to files, and is stopped with `POST /admin/drain`, which must
//! end it with exit code 0. The servers run without `--store-dir`: its
//! 19 fsyncs per resolved cell made throughput follow the shared disk
//! (see the crate README), so the store is measured by the replay.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use lhr_bench::artifact::fnv64;
use lhr_bench::httpc::{self, HttpResponse};
use lhr_bench::Fidelity;
use lhr_core::{Evaluation, Harness, MeasureHealth};
use lhr_obs::{push_json_number, push_json_string};
use lhr_uarch::ChipConfig;

use crate::ledger::Tracer;
use crate::replay::{load_queries, replay_journal, replay_store, replay_writes, CellReplay};
use crate::report::{Report, Tail, Window};
use crate::util::{fresh_dir, median, peak_rss_mib, program, Rng};
use crate::Args;

/// A server's `/metrics` counters and sums by Prometheus name.
type Counters = BTreeMap<String, f64>;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

/// `--cache-cells` for the server: well below the distinct cells a run
/// touches, so some re-reads miss.
const CACHE_CELLS: usize = 1024;

/// Per-request budget; a slower answer counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The percentile reported as `tail_ms` on the serving workloads.
pub const TAIL_QUANTILE: f64 = 0.90;

/// Requests of the seeded stream the count pass sends, in order, over
/// one connection.
const COUNT_PASS_REQUESTS: usize = 120;

/// First-touch cells the traced pass replays outside in.
const REPLAY_CELLS: usize = 24;

/// Clock points per chip and topology in the `serve_cells` space (about
/// 7,400 cells, so a 20 s run never runs out of first touches).
pub const CLOCKS: usize = 60;

/// The chip tokens the server accepts.
pub const CHIPS: [&str; 8] = [
    "p4-130", "c2d-65", "c2q-65", "i7-45", "atom-45", "c2d-45", "atomd-45", "i5-32",
];

/// One `/v1/cell` target.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Chip token.
    pub chip: &'static str,
    /// Configuration descriptor (`2C1T@1.87`).
    pub config: String,
    /// Workload name.
    pub workload: &'static str,
}

impl Cell {
    fn target(&self) -> String {
        format!(
            "/v1/cell?chip={}&workload={}&config={}",
            self.chip, self.workload, self.config
        )
    }

    /// The configuration the server builds for this cell.
    ///
    /// # Panics
    ///
    /// Panics on a descriptor the generator did not validate.
    #[must_use]
    pub fn chip_config(&self) -> ChipConfig {
        let id = lhr_serve::chip_by_token(self.chip).expect("generated chip token");
        lhr_serve::build_config(id, &self.config, None).expect("generated descriptor")
    }
}

/// Valid `NCMT@GHz` descriptors for a chip: every core count, SMT on and
/// off where the chip has it, and `clocks` evenly spaced clocks.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn descriptors(chip: &str, clocks: usize) -> Vec<String> {
    let id = lhr_serve::chip_by_token(chip).expect("known chip token");
    let spec = id.spec();
    let (lo, hi) = (spec.min_clock.value() / 1e9, spec.base_clock.value() / 1e9);
    let mut out = Vec::new();
    for cores in 1..=spec.cores {
        for threads in 1..=spec.smt_ways.min(2) {
            for i in 0..clocks {
                let ghz = lo + (hi - lo) * i as f64 / (clocks - 1).max(1) as f64;
                // Round inward so the descriptor stays within the range.
                let ghz = ((ghz * 1000.0).round() / 1000.0).clamp(
                    (lo * 1000.0).ceil() / 1000.0,
                    (hi * 1000.0).floor() / 1000.0,
                );
                let d = format!("{cores}C{threads}T@{ghz:.3}");
                if lhr_serve::build_config(id, &d, None).is_ok() && !out.contains(&d) {
                    out.push(d);
                }
            }
        }
    }
    out
}

/// Whether a cell drives the simulated sensor rig into saturation: at
/// quick fidelity, xalan and sunflow on the i7 (45) with two or more
/// active cores
/// draws past the range the rig is calibrated for, and the runner's
/// retries either exhaust their budget (a 500) or change the body's
/// health counts. That is the modelled sensor chain doing its job, not a
/// serving fault, so the stream leaves these cells out.
#[must_use]
pub fn saturates(chip: &str, descriptor: &str, workload: &str) -> bool {
    chip == "i7-45" && matches!(workload, "xalan" | "sunflow") && !descriptor.starts_with('1')
}

/// The quick workload set the server serves.
#[must_use]
pub fn served_workloads() -> Vec<&'static str> {
    Harness::quick_set().iter().map(|w| w.name()).collect()
}

/// The `/v1/cell` body the server renders for an evaluation.
#[must_use]
pub fn cell_body(config: &ChipConfig, eval: &Evaluation, health: &MeasureHealth) -> String {
    let m = &eval.measurement;
    let mut body = String::with_capacity(256);
    body.push_str("{\"chip\":");
    push_json_string(&mut body, config.spec().short);
    body.push_str(",\"config\":");
    push_json_string(&mut body, &config.label());
    body.push_str(",\"workload\":");
    push_json_string(&mut body, m.workload);
    body.push_str(",\"group\":");
    push_json_string(&mut body, &m.group.to_string());
    body.push_str(",\"seconds\":");
    push_json_number(&mut body, m.time.mean());
    body.push_str(",\"watts\":");
    push_json_number(&mut body, m.power.mean());
    body.push_str(",\"joules\":");
    push_json_number(&mut body, m.time.mean() * m.power.mean());
    body.push_str(",\"perf_norm\":");
    push_json_number(&mut body, eval.perf_norm);
    body.push_str(",\"energy_norm\":");
    push_json_number(&mut body, eval.energy_norm);
    body.push_str(",\"health\":{\"retries\":");
    push_json_number(&mut body, health.retries as f64);
    body.push_str(",\"recalibrations\":");
    push_json_number(&mut body, health.recalibrations as f64);
    body.push_str(",\"rejected_outliers\":");
    push_json_number(&mut body, health.rejected_outliers as f64);
    body.push_str("}}\n");
    body
}

/// Measures cells in process exactly as the server does
/// (`Runner::fast()` over `Harness::quick_set()`), to check bodies.
pub struct Oracle {
    harness: Harness,
    cache: BTreeMap<Cell, (ChipConfig, Evaluation, String)>,
}

impl Default for Oracle {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle {
    /// A fresh oracle.
    #[must_use]
    pub fn new() -> Self {
        Self {
            harness: Fidelity::Quick.harness(),
            cache: BTreeMap::new(),
        }
    }

    /// The expected body of a cell (and its evaluation).
    ///
    /// # Errors
    ///
    /// A failed in-process measurement.
    pub fn cell(&mut self, cell: &Cell) -> Result<&(ChipConfig, Evaluation, String), String> {
        if !self.cache.contains_key(cell) {
            let config = cell.chip_config();
            let w = lhr_workloads::by_name(cell.workload).ok_or("unknown workload")?;
            let (eval, health) = self
                .harness
                .try_evaluate_workload(&config, w)
                .map_err(|e| e.to_string())?;
            let body = cell_body(&config, &eval, &health);
            self.cache.insert(cell.clone(), (config, eval, body));
        }
        Ok(&self.cache[cell])
    }
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

/// A running `lhr_serve`.
pub struct Server {
    child: Option<Child>,
    /// Bound address.
    pub addr: SocketAddr,
    /// Its work directory (campaigns, stdout, stderr, trace).
    pub dir: PathBuf,
}

impl Server {
    /// Starts `lhr_serve --jobs 2` on an ephemeral port with a fresh
    /// campaign directory under `dir` (and `--trace` there when `trace`),
    /// and waits until it listens.
    ///
    /// # Errors
    ///
    /// A spawn failure, or a server that exits or does not listen
    /// within 20 s.
    pub fn start(dir: &Path, trace: bool) -> Result<Self, String> {
        let bin = program("lhr_serve")?;
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let out_path = dir.join("stdout.txt");
        let out = File::create(&out_path).map_err(|e| e.to_string())?;
        let err = File::create(dir.join("stderr.txt")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&bin);
        cmd.args(["--addr", "127.0.0.1:0", "--jobs", "2", "--cache-cells"])
            .arg(CACHE_CELLS.to_string())
            .arg("--campaign-dir")
            .arg(dir.join("campaigns"));
        if trace {
            cmd.arg("--trace").arg(dir.join("trace.jsonl"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir: dir.to_owned(),
        };
        let t = Instant::now();
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(rest) = text.split("listening on http://").nth(1) {
                let addr = rest.lines().next().unwrap_or("");
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad address {addr:?}: {e}"))?;
                return Ok(server);
            }
            let exited = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("lhr_serve exited {status} before listening"));
            }
            if t.elapsed() > Duration::from_secs(20) {
                return Err("lhr_serve did not listen within 20 s".to_owned());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's peak resident set, in MiB.
    #[must_use]
    pub fn peak_rss_mib(&self) -> f64 {
        self.child
            .as_ref()
            .and_then(|c| peak_rss_mib(&c.id().to_string()))
            .unwrap_or(f64::NAN)
    }

    /// `GET /metrics?format=prometheus`, parsed into `name -> value`
    /// (summaries keep only their `_sum` and `_count`).
    #[must_use]
    pub fn metrics(&self) -> Counters {
        let Ok(r) = httpc::get(self.addr, "/metrics?format=prometheus", TIMEOUT) else {
            return BTreeMap::new();
        };
        r.body_str()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect()
    }

    /// Stops the server with `POST /admin/drain`; ok only when it then
    /// exits with code 0 within 30 s.
    ///
    /// # Errors
    ///
    /// A drain request that fails, or an exit other than 0.
    pub fn drain(mut self) -> Result<(), String> {
        let posted = httpc::post(self.addr, "/admin/drain", TIMEOUT);
        let mut child = self.child.take().expect("running until drained");
        let t = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("lhr_serve did not exit within 30 s of a drain".to_owned());
                }
            }
        };
        posted.map_err(|e| format!("drain request: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("lhr_serve exited {status} after a drain"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The cell every set-up requests first: it builds the reference set.
fn setup_cell() -> Cell {
    Cell {
        chip: "i7-45",
        config: "stock".to_owned(),
        workload: "jess",
    }
}

/// Launch to the first `/v1/cell` answered, [`SETUPS`] times; the last
/// server is kept running. Returns the set-up times and the server.
fn setups(work: &Path, trace: bool) -> Result<(Vec<f64>, Server), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t = Instant::now();
        let server = Server::start(&work.join(format!("server-{i}")), trace)?;
        let r = httpc::get(server.addr, &setup_cell().target(), TIMEOUT)
            .map_err(|e| format!("first cell: {e}"))?;
        if r.status != 200 {
            return Err(format!("first cell answered {}", r.status));
        }
        times.push(t.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return Ok((times, server));
        }
        server.drain()?;
    }
    unreachable!("SETUPS > 0")
}

// ---------------------------------------------------------------------
// serve_cells
// ---------------------------------------------------------------------

/// One request of the `serve_cells` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// A cell no earlier request named.
    First(Cell),
    /// A Zipf re-read of an earlier first touch.
    Reread(Cell),
    /// `GET /healthz`.
    Health,
}

/// One client's request stream: disjoint first touches per client.
pub struct Stream {
    rng: Rng,
    fresh: Vec<Cell>,
    touched: Vec<Cell>,
}

impl Stream {
    /// Client `client` of two, for `seed`.
    #[must_use]
    pub fn new(seed: u64, client: u64) -> Self {
        let workloads = served_workloads();
        let mut space = Vec::new();
        for chip in CHIPS {
            for d in descriptors(chip, CLOCKS) {
                for w in &workloads {
                    if saturates(chip, &d, w) {
                        continue;
                    }
                    space.push(Cell {
                        chip,
                        config: d.clone(),
                        workload: w,
                    });
                }
            }
        }
        Rng::new(seed, 31).shuffle(&mut space);
        let mut fresh: Vec<Cell> = space.into_iter().skip(client as usize).step_by(2).collect();
        fresh.reverse();
        Self {
            rng: Rng::new(seed, 40 + client),
            fresh,
            touched: Vec::new(),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let u = self.rng.unit();
        if u < 0.02 {
            Req::Health
        } else if u < 0.80 || self.touched.is_empty() {
            match self.fresh.pop() {
                Some(cell) => {
                    self.touched.push(cell.clone());
                    Req::First(cell)
                }
                None => Req::Reread(self.touched[self.rng.zipf(self.touched.len())].clone()),
            }
        } else {
            Req::Reread(self.touched[self.rng.zipf(self.touched.len())].clone())
        }
    }
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientLog {
    /// `(class, latency ms)` of every request.
    latencies: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// Sampled `/v1/cell` bodies to compare with the oracle.
    samples: Vec<(Cell, Vec<u8>)>,
}

impl ClientLog {
    /// Counts a failed op, describing the first few on stderr.
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("failed op: {what}");
        }
    }
}

fn send(addr: SocketAddr, req: &Req) -> Result<HttpResponse, httpc::ClientError> {
    match req {
        Req::First(c) | Req::Reread(c) => httpc::get(addr, &c.target(), TIMEOUT),
        Req::Health => httpc::get(addr, "/healthz", TIMEOUT),
    }
}

/// Whether a response passes its per-request check.
fn response_ok(req: &Req, r: &HttpResponse) -> bool {
    if r.status != 200 {
        return false;
    }
    let body = r.body_str();
    match req {
        Req::First(c) | Req::Reread(c) => {
            body.contains(&format!("\"workload\":\"{}\"", c.workload))
        }
        Req::Health => body.contains("\"status\":\"ok\""),
    }
}

fn class(req: &Req) -> &'static str {
    match req {
        Req::First(_) => "first",
        Req::Reread(_) => "reread",
        Req::Health => "health",
    }
}

/// Drives one closed-loop client until `stop`; samples about one cell
/// body in sixteen for the oracle.
fn client(addr: SocketAddr, mut stream: Stream, seed: u64, stop: &AtomicBool) -> ClientLog {
    let mut log = ClientLog::default();
    let mut pick = Rng::new(seed, 50);
    while !stop.load(Ordering::Relaxed) {
        let req = stream.next_req();
        let t = Instant::now();
        let result = send(addr, &req);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        match result {
            Ok(r) if response_ok(&req, &r) => {
                log.latencies.push((class(&req), ms));
                if let (Req::First(c) | Req::Reread(c), true) =
                    (&req, pick.below(16) == 0 && log.samples.len() < 48)
                {
                    log.samples.push((c.clone(), r.body));
                }
            }
            Ok(r) => log.fail(&format!(
                "{} answered {}: {}",
                class(&req),
                r.status,
                r.body_str().trim()
            )),
            Err(e) => log.fail(&format!("{}: {e}", class(&req))),
        }
    }
    log
}

/// Compares sampled bodies with the oracle; returns the mismatches.
///
/// # Errors
///
/// A failed in-process measurement.
pub fn check_samples(oracle: &mut Oracle, samples: &[(Cell, Vec<u8>)]) -> Result<u64, String> {
    let mut bad = 0;
    for (cell, body) in samples {
        if oracle.cell(cell)?.2.as_bytes() != body.as_slice() {
            eprintln!(
                "failed op: /v1/cell body for {} differs from the in-process measurement",
                cell.target()
            );
            bad += 1;
        }
    }
    Ok(bad)
}

/// A timed window of two clients against `server`.
fn cells_window(server: &Server, seed: u64, seconds: f64) -> (Vec<ClientLog>, f64) {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let logs = thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let stream = Stream::new(seed, c);
                let stop = &stop;
                s.spawn(move || client(server.addr, stream, seed ^ c, stop))
            })
            .collect();
        thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (logs, t0.elapsed().as_secs_f64())
}

fn diff(before: &Counters, after: &Counters, name: &str) -> f64 {
    // `+ 0.0` turns an unchanged counter's -0.0 into 0.0.
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0) + 0.0
}

fn diff_matching(before: &Counters, after: &Counters, keep: impl Fn(&str) -> bool) -> f64 {
    after
        .keys()
        .filter(|k| keep(k))
        .map(|k| diff(before, after, k))
        .sum()
}

/// Runs `serve_cells`.
///
/// # Errors
///
/// A server that will not start, or missing query files.
pub fn run_cells(args: &Args) -> Result<Report, String> {
    let work = fresh_dir("serve_cells")?;
    let result = if args.trace {
        cells_traced(args, &work)
    } else {
        cells_untraced(args, &work)
    };
    crate::util::remove_dir(&work);
    result
}

#[allow(clippy::cast_precision_loss)]
fn cells_untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let (setups_s, server) = setups(work, false)?;
    let before = server.metrics();
    let (logs, window_s) = cells_window(&server, args.seed, args.seconds as f64);
    let after = server.metrics();
    let peak = server.peak_rss_mib();
    let drained = server.drain();
    let mut oracle = Oracle::new();
    let mut w = Window {
        setups_s,
        window_s,
        peak_rss_mib: peak,
        cells: diff(&before, &after, "runner_measurements") as u64,
        ..Window::default()
    };
    for log in &logs {
        w.attempted += log.attempted;
        w.failed += log.failed + check_samples(&mut oracle, &log.samples)?;
        w.requests += log.latencies.len() as u64;
        w.latencies_ms
            .extend(log.latencies.iter().map(|(_, ms)| ms));
    }
    w.op_walls_s = w.latencies_ms.iter().map(|ms| ms / 1e3).collect();
    // The drain is an op too: the server must exit 0.
    w.attempted += 1;
    w.failed += u64::from(drained.is_err());
    Ok(Report::from_window(&w, Tail::Quantile(TAIL_QUANTILE)).into_e2e())
}

/// Sends the first `n` requests of client 0's stream, in order, over one
/// connection to a fresh server, and returns the server's counter deltas
/// -- counts that repeat exactly at one seed.
fn count_pass(work: &Path, seed: u64) -> Result<(Counters, Counters), String> {
    let server = Server::start(&work.join("count-pass"), false)?;
    let before = server.metrics();
    let mut stream = Stream::new(seed, 0);
    for _ in 0..COUNT_PASS_REQUESTS {
        let req = stream.next_req();
        let r = send(server.addr, &req).map_err(|e| format!("count pass: {e}"))?;
        if !response_ok(&req, &r) {
            return Err(format!("count pass: {} answered {}", class(&req), r.status));
        }
    }
    let after = server.metrics();
    server.drain()?;
    Ok((before, after))
}

/// The first `n` first-touch cells of client 0's stream.
fn first_touches(seed: u64, n: usize) -> Vec<Cell> {
    let mut stream = Stream::new(seed, 0);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if let Req::First(c) = stream.next_req() {
            out.push(c);
        }
    }
    out
}

/// Server-side per-layer numbers from `/metrics` deltas.
#[allow(clippy::cast_precision_loss)]
fn serve_counters(r: &mut Report, before: &Counters, after: &Counters, window_s: f64) {
    let measured = diff(before, after, "runner_measurements");
    let hits = diff(before, after, "runner_cache_hits");
    r.set(
        "serve.cache_hit_ratio",
        hits / (hits + measured).max(1.0),
        "ratio",
    );
    r.set(
        "serve.coalesce_hits",
        diff(before, after, "serve_coalesce_hits"),
        "count",
    );
    r.set(
        "serve.shed",
        diff(before, after, "serve_shed_503") + diff(before, after, "serve_shed_flights"),
        "count",
    );
    r.set(
        "serve.timeouts",
        diff(before, after, "serve_timeout_504"),
        "count",
    );
    let request_ms = 1e3
        * diff_matching(before, after, |k| {
            k.starts_with("serve_request_") && k.ends_with("_seconds_sum")
        });
    let measure_ms = 1e3 * diff(before, after, "runner_measure_seconds_sum");
    // Every measurement runs inside a request or a campaign cell.
    let campaign_ms = 1e3 * diff(before, after, "campaign_cell_seconds_sum");
    r.set("serve.request_busy_ms", request_ms, "ms");
    r.set("serve.measure_busy_ms", measure_ms, "ms");
    r.set(
        "serve.overhead_ms",
        request_ms + campaign_ms - measure_ms,
        "ms",
    );
    r.set(
        "serve.campaign_cells",
        diff(before, after, "campaign_cells_done"),
        "count",
    );
    r.set(
        "serve.quota_deferrals",
        diff(before, after, "campaign_quota_deferrals"),
        "count",
    );
    r.set(
        "serve.journal_errors",
        diff_matching(before, after, |k| {
            k.starts_with("campaign_") && k.contains("error")
        }),
        "count",
    );
    // Cores busy measuring, on average over the window.
    r.set("core.busy_cores", measure_ms / (window_s * 1e3), "cores");
}

fn class_p50(logs: &[ClientLog], class: &str) -> f64 {
    let v: Vec<f64> = logs
        .iter()
        .flat_map(|l| {
            l.latencies
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, ms)| *ms)
        })
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

#[allow(clippy::cast_precision_loss)]
fn cells_traced(args: &Args, work: &Path) -> Result<Report, String> {
    // Half the window untraced, half on a server run with --trace.
    let half = args.seconds as f64 / 2.0;
    let mut p50 = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut traced_logs = Vec::new();
    let (mut before, mut after) = (BTreeMap::new(), BTreeMap::new());
    let mut window_s = 0.0;
    let mut samples = Vec::new();
    for trace in [false, true] {
        let (_, server) = setups(&work.join(format!("trace-{trace}")), trace)?;
        let b = server.metrics();
        let (logs, took) = cells_window(&server, args.seed, half);
        let a = server.metrics();
        // The drain is an op too: the server must exit 0.
        attempted += 1;
        failed += u64::from(server.drain().is_err());
        let lat: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.latencies.iter().map(|(_, ms)| *ms))
            .collect();
        p50.push(median(&lat));
        for l in &logs {
            attempted += l.attempted;
            failed += l.failed;
            samples.extend(l.samples.iter().cloned());
        }
        if trace {
            (before, after, traced_logs, window_s) = (b, a, logs, took);
        }
    }
    // Both halves' sampled bodies against the oracle, after the windows.
    failed += check_samples(&mut Oracle::new(), &samples)?;
    let mut r = Report {
        attempted,
        failed,
        ..Report::default()
    };
    r.set("obs.trace_overhead_ratio", p50[1] / p50[0] - 1.0, "ratio");
    serve_counters(&mut r, &before, &after, window_s);
    r.set("serve.floor_ms", class_p50(&traced_logs, "health"), "ms");
    r.set("serve.hit_ms", class_p50(&traced_logs, "reread"), "ms");
    r.set("serve.miss_ms", class_p50(&traced_logs, "first"), "ms");

    let (cb, ca) = count_pass(work, args.seed)?;
    r.set(
        "serve.cells_measured",
        diff(&cb, &ca, "serve_cells_measured"),
        "count",
    );
    let measured = diff(&cb, &ca, "runner_measurements");
    let hits = diff(&cb, &ca, "runner_cache_hits");
    r.set("core.measurements", measured, "count");
    r.set("core.cache_hits", hits, "count");
    r.set(
        "core.cache_hit_ratio",
        hits / (hits + measured).max(1.0),
        "ratio",
    );
    r.set("core.retries", diff(&cb, &ca, "runner_retries"), "count");

    // Outside-in replay of the first cold cells, then the store.
    let cells = first_touches(args.seed, REPLAY_CELLS);
    let (mut t, replay, evaluated) = replay_cells(&cells)?;
    let store = replay_store(
        &mut t,
        &work.join("replay-store"),
        &evaluated,
        &load_queries()?,
    )?;
    store_metrics(&mut r, &t, &store);
    r.set("serve.query_ms", t.call_ms("Store::query"), "ms");
    r.set(
        "core.reference_ms",
        t.call_ms("Harness::try_reference"),
        "ms",
    );
    r.add_replay(&t, &replay.counts);
    t.write_jsonl(&args.workload, args.seed)?;
    Ok(r.into_per_layer())
}

/// The replayed cells with the evaluations the store replay records.
type Replayed = (Tracer, CellReplay, Vec<(ChipConfig, Evaluation)>);

/// Times the quick reference set, replays `cells` outside in -- before
/// anything else in this process has measured them, so the simulator's
/// memos are as cold as the server's were -- then evaluates them through
/// `Harness::try_evaluate_workload` for the store replay.
fn replay_cells(cells: &[Cell]) -> Result<Replayed, String> {
    let mut sample = Vec::with_capacity(cells.len());
    for c in cells {
        let w = lhr_workloads::by_name(c.workload).ok_or("unknown workload")?;
        sample.push((c.chip_config(), w));
    }
    let mut replay = CellReplay::new(Fidelity::Quick);
    let mut t = Tracer::new();
    let harness = Fidelity::Quick.harness();
    t.time("core", "Harness::try_reference", || harness.try_reference())
        .map_err(|e| format!("reference: {e}"))?;
    for (config, w) in &sample {
        replay.cell(&mut t, config, w)?;
    }
    let mut evaluated = Vec::with_capacity(sample.len());
    for (config, w) in sample {
        let (eval, _) = t
            .time("core", "Harness::try_evaluate_workload", || {
                harness.try_evaluate_workload(&config, w)
            })
            .map_err(|e| e.to_string())?;
        evaluated.push((config, eval));
    }
    Ok((t, replay, evaluated))
}

#[allow(clippy::cast_precision_loss)]
fn store_metrics(r: &mut Report, t: &Tracer, store: &crate::replay::StoreCounts) {
    r.set("store.upserts", store.upserts as f64, "count");
    r.set("store.rows", store.rows as f64, "count");
    r.set("store.upsert_ms", t.call_ms("Store::upsert"), "ms");
    r.set("store.open_ms", t.call_ms("Store::open"), "ms");
    r.set("store.query_ms", t.call_ms("Store::query"), "ms");
}

// ---------------------------------------------------------------------
// serve_campaign
// ---------------------------------------------------------------------

/// The interactive reader's pause between reads.
const READ_THINK: Duration = Duration::from_millis(2);

/// Hot cells the interactive client re-reads.
const HOT_CELLS: usize = 24;

/// Campaigns per submitted batch, one per tenant.
const TENANTS: [(&str, f64); 3] = [("t-light", 1.0), ("t-mid", 2.0), ("t-heavy", 4.0)];

/// Chips per campaign and workloads per campaign.
const CAMPAIGN_CHIPS: usize = 2;
const CAMPAIGN_WORKLOADS: usize = 12;

/// One submitted campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Owning tenant.
    pub tenant: &'static str,
    /// Fair-share weight.
    pub weight: f64,
    /// Chip tokens.
    pub chips: Vec<&'static str>,
    /// Configuration descriptor shared by every chip.
    pub config: String,
    /// Workload names.
    pub workloads: Vec<&'static str>,
}

impl CampaignSpec {
    fn target(&self) -> String {
        format!(
            "/v1/campaigns?tenant={}&weight={}&quota=1000&chips={}&config={}&workloads={}",
            self.tenant,
            self.weight,
            self.chips.join(","),
            self.config,
            self.workloads.join(",")
        )
    }

    /// The cells, chip-major, as the server orders them.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        self.chips
            .iter()
            .flat_map(|chip| {
                self.workloads.iter().map(move |w| Cell {
                    chip,
                    config: self.config.clone(),
                    workload: w,
                })
            })
            .collect()
    }
}

/// Seeded campaign batches over configurations no other request names:
/// every core the two chips share, on a 1 MHz clock grid, never
/// repeated.
pub struct CampaignGen {
    rng: Rng,
    used: BTreeSet<(&'static str, String)>,
}

impl CampaignGen {
    /// The generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 60),
            used: BTreeSet::new(),
        }
    }

    /// The next batch: one campaign per tenant.
    ///
    /// # Panics
    ///
    /// Panics when no unused configuration turns up in 100,000 draws --
    /// about 4,000 campaigns fit the 1 MHz grid, several times what a
    /// 60 s window submits on a 2-core host.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn batch(&mut self) -> Vec<CampaignSpec> {
        let workloads = served_workloads();
        TENANTS
            .iter()
            .map(|&(tenant, weight)| {
                for _ in 0..100_000 {
                    let mut chips: Vec<&'static str> = CHIPS.to_vec();
                    self.rng.shuffle(&mut chips);
                    chips.truncate(CAMPAIGN_CHIPS);
                    // A 1 MHz clock strictly inside the range the chips
                    // share, never used before in this run and never the
                    // hot set's `stock`.
                    let specs: Vec<_> = chips
                        .iter()
                        .map(|c| lhr_serve::chip_by_token(c).expect("chip").spec())
                        .collect();
                    let lo = (specs
                        .iter()
                        .map(|s| s.min_clock.value())
                        .fold(0.0, f64::max)
                        / 1e6)
                        .ceil() as u64;
                    let hi = (specs
                        .iter()
                        .map(|s| s.base_clock.value())
                        .fold(f64::MAX, f64::min)
                        / 1e6)
                        .floor() as u64;
                    if hi < lo + 2 {
                        continue;
                    }
                    let mhz = lo + 1 + self.rng.below((hi - lo - 1) as usize) as u64;
                    // Every core and SMT thread the chips share, so each
                    // cell's simulation outweighs its journal fsync.
                    let cores = specs.iter().map(|s| s.cores).min().unwrap_or(1);
                    let threads = specs.iter().map(|s| s.smt_ways.min(2)).min().unwrap_or(1);
                    let config = format!("{cores}C{threads}T@{}.{:03}", mhz / 1000, mhz % 1000);
                    let mut ws = workloads.clone();
                    self.rng.shuffle(&mut ws);
                    ws.truncate(CAMPAIGN_WORKLOADS);
                    if chips
                        .iter()
                        .any(|c| ws.iter().any(|w| saturates(c, &config, w)))
                    {
                        continue;
                    }
                    let fresh = chips
                        .iter()
                        .all(|c| !self.used.contains(&(*c, config.clone())));
                    let valid = chips.iter().all(|c| {
                        lhr_serve::build_config(
                            lhr_serve::chip_by_token(c).expect("chip"),
                            &config,
                            None,
                        )
                        .is_ok()
                    });
                    if !fresh || !valid {
                        continue;
                    }
                    for c in &chips {
                        self.used.insert((c, config.clone()));
                    }
                    return CampaignSpec {
                        tenant,
                        weight,
                        chips,
                        config,
                        workloads: ws,
                    };
                }
                panic!("the campaign configuration grid is exhausted");
            })
            .collect()
    }
}

/// The artifact the server writes for a finished campaign, rendered
/// from in-process evaluations.
///
/// # Errors
///
/// A failed in-process measurement.
pub fn expected_artifact(
    oracle: &mut Oracle,
    id: &str,
    spec: &CampaignSpec,
) -> Result<String, String> {
    let mut body = String::from("{\"campaign\":\"lhr-serve\",\"id\":");
    push_json_string(&mut body, id);
    body.push_str(",\"tenant\":");
    push_json_string(&mut body, spec.tenant);
    body.push_str(",\"config\":");
    push_json_string(&mut body, &spec.config);
    body.push_str(",\"chips\":");
    push_json_string(&mut body, &spec.chips.join(","));
    body.push_str(",\"workloads\":");
    push_json_string(&mut body, &spec.workloads.join(","));
    body.push_str(",\"cells\":[");
    let cells = spec.cells();
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let (config, eval, _) = oracle.cell(cell)?;
        let m = &eval.measurement;
        body.push_str("{\"config\":");
        push_json_string(&mut body, &config.label());
        body.push_str(",\"workload\":");
        push_json_string(&mut body, cell.workload);
        body.push_str(",\"status\":\"ok\",\"seconds\":");
        push_json_number(&mut body, m.time.mean());
        body.push_str(",\"watts\":");
        push_json_number(&mut body, m.power.mean());
        body.push_str(",\"joules\":");
        push_json_number(&mut body, m.time.mean() * m.power.mean());
        body.push_str(",\"perf_norm\":");
        push_json_number(&mut body, eval.perf_norm);
        body.push_str(",\"energy_norm\":");
        push_json_number(&mut body, eval.energy_norm);
        body.push('}');
    }
    body.push_str(&format!("],\"ok\":{},\"err\":0}}\n", cells.len()));
    Ok(body)
}

/// The artifact checksum a campaign journal recorded, if any.
#[must_use]
pub fn journaled_sum(journal: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(journal).ok()?;
    let line = text.lines().rev().find(|l| l.contains("\"artifact\":"))?;
    u64::from_str_radix(&lhr_bench::campaign::parse_str(line, "sum")?, 16).ok()
}

/// A finished campaign as the client saw it.
#[derive(Debug, Clone)]
struct Finished {
    id: String,
    spec: CampaignSpec,
    wall_s: f64,
    /// Done, `failed: 0`, and the served artifact matched its journal.
    ok: bool,
    artifact: Vec<u8>,
}

/// Campaigns the client keeps submitted and unfinished, so the
/// background lane never runs dry between batches.
const LIVE_CAMPAIGNS: usize = 6;

/// Finished campaigns at which `serve_campaign` reads the server's peak
/// RSS. `lhr_serve` keeps finished campaigns in memory, so its RSS grows
/// with campaigns done; read at a fixed count, it compares the same work
/// on every run, and a faster campaign engine does not read as more
/// memory. A 15 s run reaches it after about 5 s.
const RSS_AT_CAMPAIGNS: usize = 128;

/// Submits a campaign; returns its id.
fn submit(server: &Server, spec: &CampaignSpec) -> Option<String> {
    let r = httpc::post(server.addr, &spec.target(), TIMEOUT).ok()?;
    if (200..300).contains(&r.status) {
        lhr_bench::campaign::parse_str(&r.body_str(), "id")
    } else {
        None
    }
}

/// Fetches a finished campaign's artifact and checks it: `failed: 0`,
/// and the bytes hash to the checksum its journal recorded.
fn finish(server: &Server, id: String, spec: CampaignSpec, status: &str, wall_s: f64) -> Finished {
    let artifact = httpc::get(
        server.addr,
        &format!("/v1/campaigns/{id}/artifact"),
        TIMEOUT,
    )
    .ok()
    .filter(|a| a.status == 200)
    .map(|a| a.body)
    .unwrap_or_default();
    let journal = server.dir.join("campaigns").join(format!("{id}.jsonl"));
    let ok = status.contains("\"failed\":0") && journaled_sum(&journal) == Some(fnv64(&artifact));
    Finished {
        id,
        spec,
        wall_s,
        ok,
        artifact,
    }
}

/// Keeps [`LIVE_CAMPAIGNS`] campaigns submitted until `stop`, then lets
/// the live ones finish. Polls the oldest live campaign every 10 ms and,
/// once it is done, the next ones in submission order. Returns the
/// finished campaigns, the errors, and the server's peak RSS when the
/// [`RSS_AT_CAMPAIGNS`]th campaign finished.
fn campaign_client(
    server: &Server,
    mut gen: CampaignGen,
    stop: &AtomicBool,
) -> (Vec<Finished>, u64, Option<f64>) {
    let mut done = Vec::new();
    let mut errors = 0;
    let mut rss = None;
    let mut queued: Vec<CampaignSpec> = Vec::new();
    let mut live: std::collections::VecDeque<(String, CampaignSpec, Instant)> =
        std::collections::VecDeque::new();
    loop {
        while !stop.load(Ordering::Relaxed) && live.len() < LIVE_CAMPAIGNS {
            if queued.is_empty() {
                queued = gen.batch();
                queued.reverse();
            }
            let spec = queued.pop().expect("a fresh batch is not empty");
            let t = Instant::now();
            match submit(server, &spec) {
                Some(id) => live.push_back((id, spec, t)),
                None => errors += 1,
            }
        }
        if live.is_empty() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
        while let Some((id, _, t)) = live.front() {
            let status = match httpc::get(server.addr, &format!("/v1/campaigns/{id}"), TIMEOUT) {
                Ok(r) if r.status == 200 => r.body_str().into_owned(),
                _ => String::new(),
            };
            if status.contains("\"state\":\"done\"") {
                let wall_s = t.elapsed().as_secs_f64();
                let (id, spec, _) = live.pop_front().expect("front exists");
                done.push(finish(server, id, spec, &status, wall_s));
                if done.len() == RSS_AT_CAMPAIGNS {
                    rss = Some(server.peak_rss_mib());
                }
            } else if status.is_empty() || t.elapsed() > TIMEOUT {
                errors += 1;
                live.pop_front();
            } else {
                break;
            }
        }
    }
    (done, errors, rss)
}

/// The hot set: stock configurations, never part of a campaign.
fn hot_cells(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 70);
    let workloads = served_workloads();
    let mut out = BTreeSet::new();
    while out.len() < HOT_CELLS {
        out.insert(Cell {
            chip: CHIPS[rng.below(CHIPS.len())],
            config: "stock".to_owned(),
            workload: workloads[rng.below(workloads.len())],
        });
    }
    out.into_iter().collect()
}

/// What a campaign window observed.
struct CampaignRun {
    finished: Vec<Finished>,
    campaign_errors: u64,
    reads: ClientLog,
    hot_bodies: BTreeMap<Cell, Vec<u8>>,
    window_s: f64,
    /// The server's peak RSS at [`RSS_AT_CAMPAIGNS`] finished campaigns.
    rss_mib: Option<f64>,
}

/// Reads every hot cell once, so later reads are cache hits; returns the
/// bodies every later read must repeat.
fn warm_hot(server: &Server, seed: u64) -> Result<BTreeMap<Cell, Vec<u8>>, String> {
    let mut bodies = BTreeMap::new();
    for c in hot_cells(seed) {
        let r = httpc::get(server.addr, &c.target(), TIMEOUT).map_err(|e| format!("warm: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm: {} answered {}", c.target(), r.status));
        }
        bodies.insert(c, r.body);
    }
    Ok(bodies)
}

/// Runs the campaign client beside the interactive reader of the warmed
/// hot set for `seconds` (the live campaigns then finish).
fn campaign_window(
    server: &Server,
    seed: u64,
    seconds: f64,
    hot_bodies: BTreeMap<Cell, Vec<u8>>,
) -> CampaignRun {
    let hot: Vec<Cell> = hot_bodies.keys().cloned().collect();
    let stop = AtomicBool::new(false);
    let reads_done = AtomicBool::new(false);
    let t0 = Instant::now();
    let ((finished, campaign_errors, rss_mib), reads) = thread::scope(|s| {
        let campaigns = s.spawn(|| {
            let out = campaign_client(server, CampaignGen::new(seed), &stop);
            reads_done.store(true, Ordering::Relaxed);
            out
        });
        let reader = s.spawn(|| {
            let mut log = ClientLog::default();
            let mut rng = Rng::new(seed, 71);
            while !reads_done.load(Ordering::Relaxed) {
                // A reader that looks at each answer before asking again.
                thread::sleep(READ_THINK);
                let cell = &hot[rng.zipf(hot.len())];
                let t = Instant::now();
                let r = httpc::get(server.addr, &cell.target(), TIMEOUT);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                log.attempted += 1;
                match r {
                    Ok(r) if r.status == 200 && Some(&r.body) == hot_bodies.get(cell) => {
                        log.latencies.push(("hot", ms));
                    }
                    Ok(r) => log.fail(&format!(
                        "hot read answered {} with a different body",
                        r.status
                    )),
                    Err(e) => log.fail(&format!("hot read: {e}")),
                }
            }
            log
        });
        thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        let campaigns = campaigns.join().expect("campaign thread");
        (campaigns, reader.join().expect("reader thread"))
    });
    CampaignRun {
        finished,
        campaign_errors,
        reads,
        hot_bodies,
        window_s: t0.elapsed().as_secs_f64(),
        rss_mib,
    }
}

/// Checks hot bodies and a seeded sample of artifacts against the
/// oracle; returns the failures.
fn check_campaigns(run: &CampaignRun, seed: u64) -> Result<u64, String> {
    let mut oracle = Oracle::new();
    let hot: Vec<(Cell, Vec<u8>)> = run
        .hot_bodies
        .iter()
        .map(|(c, b)| (c.clone(), b.clone()))
        .collect();
    let mut rng = Rng::new(seed, 80);
    let sampled: Vec<(&str, &CampaignSpec, &[u8])> = run
        .finished
        .iter()
        .filter(|f| f.ok)
        .filter(|_| rng.below(4) == 0)
        .map(|f| (f.id.as_str(), &f.spec, f.artifact.as_slice()))
        .collect();
    Ok(check_samples(&mut oracle, &hot)? + check_artifacts(&mut oracle, &sampled)?)
}

/// Re-renders each campaign's artifact in process and compares it byte
/// for byte with what the server served; returns the mismatches.
///
/// # Errors
///
/// A failed in-process measurement.
pub fn check_artifacts(
    oracle: &mut Oracle,
    artifacts: &[(&str, &CampaignSpec, &[u8])],
) -> Result<u64, String> {
    let mut bad = 0;
    for (id, spec, served) in artifacts {
        if expected_artifact(oracle, id, spec)?.as_bytes() != *served {
            eprintln!("failed op: campaign {id}'s artifact differs from the in-process rendering");
            bad += 1;
        }
    }
    Ok(bad)
}

/// Runs `serve_campaign`.
///
/// # Errors
///
/// A server that will not start.
pub fn run_campaign(args: &Args) -> Result<Report, String> {
    let work = fresh_dir("serve_campaign")?;
    let result = if args.trace {
        campaign_traced(args, &work)
    } else {
        campaign_untraced(args, &work)
    };
    crate::util::remove_dir(&work);
    result
}

#[allow(clippy::cast_precision_loss)]
fn campaign_untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let (setups_s, server) = setups(work, false)?;
    let hot = warm_hot(&server, args.seed)?;
    let run = campaign_window(&server, args.seed, args.seconds as f64, hot);
    // A window too short to reach the mark reports the peak at its end.
    let peak = run.rss_mib.unwrap_or_else(|| server.peak_rss_mib());
    let drained = server.drain();
    let bad = check_campaigns(&run, args.seed)?;
    let cells: usize = run.finished.iter().map(|f| f.spec.cells().len()).sum();
    let mut w = Window {
        setups_s,
        window_s: run.window_s,
        peak_rss_mib: peak,
        cells: cells as u64,
        op_walls_s: run.finished.iter().map(|f| f.wall_s).collect(),
        latencies_ms: run.reads.latencies.iter().map(|(_, ms)| *ms).collect(),
        requests: run.reads.latencies.len() as u64,
        ..Window::default()
    };
    w.attempted = run.reads.attempted + run.finished.len() as u64 + run.campaign_errors + 1;
    w.failed = run.reads.failed
        + run.finished.iter().filter(|f| !f.ok).count() as u64
        + run.campaign_errors
        + bad
        + u64::from(drained.is_err());
    Ok(Report::from_window(&w, Tail::Quantile(TAIL_QUANTILE)).into_e2e())
}

#[allow(clippy::cast_precision_loss)]
fn campaign_traced(args: &Args, work: &Path) -> Result<Report, String> {
    let half = args.seconds as f64 / 2.0;
    let mut rates = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut runs = Vec::new();
    for trace in [false, true] {
        let (_, server) = setups(&work.join(format!("trace-{trace}")), trace)?;
        let before = server.metrics();
        let hot = warm_hot(&server, args.seed)?;
        let warmed = server.metrics();
        let run = campaign_window(&server, args.seed, half, hot);
        let after = server.metrics();
        let dir = server.dir.clone();
        // The drain is an op too: the server must exit 0.
        attempted += 1;
        failed += u64::from(server.drain().is_err());
        let cells: usize = run.finished.iter().map(|f| f.spec.cells().len()).sum();
        rates.push(cells as f64 / run.window_s);
        attempted += run.reads.attempted + run.finished.len() as u64 + run.campaign_errors;
        failed += run.reads.failed
            + run.finished.iter().filter(|f| !f.ok).count() as u64
            + run.campaign_errors;
        runs.push((before, warmed, after, run, dir));
    }
    // Both halves' hot bodies and sampled artifacts against the oracle,
    // after the windows.
    for (_, _, _, run, _) in &runs {
        failed += check_campaigns(run, args.seed)?;
    }
    let (before, warmed, after, run, dir) = runs.pop().expect("the traced half ran");
    let mut r = Report {
        attempted,
        failed,
        ..Report::default()
    };
    r.set(
        "obs.trace_overhead_ratio",
        rates[0] / rates[1] - 1.0,
        "ratio",
    );
    serve_counters(&mut r, &warmed, &after, run.window_s);
    r.set(
        "serve.hit_ms",
        class_p50(std::slice::from_ref(&run.reads), "hot"),
        "ms",
    );
    // Counted over the hot-set warm-up, a fixed unit of work.
    r.set(
        "serve.cells_measured",
        diff(&before, &warmed, "serve_cells_measured"),
        "count",
    );

    // Replay the first batch: its cells outside in, its journals through
    // the journal append, its artifacts through write_atomic, its cells
    // through the store.
    let first = CampaignGen::new(args.seed).batch();
    let cells: Vec<Cell> = first.iter().flat_map(CampaignSpec::cells).collect();
    let (mut t, replay, evaluated) = replay_cells(&cells)?;
    let mut appends = 0;
    let mut files = Vec::new();
    for f in run.finished.iter().take(first.len()) {
        let journal = dir.join("campaigns").join(format!("{}.jsonl", f.id));
        appends += replay_journal(
            &mut t,
            &journal,
            &work.join(format!("replay-{}.jsonl", f.id)),
        )?;
        files.push((format!("{}.result.json", f.id), f.artifact.clone()));
    }
    let out = work.join("replay-out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    replay_writes(&mut t, &files, &out)?;
    let store = replay_store(
        &mut t,
        &work.join("replay-store"),
        &evaluated,
        &load_queries()?,
    )?;
    store_metrics(&mut r, &t, &store);
    r.set("bench.journal_appends", appends as f64, "count");
    r.set(
        "bench.journal_ms",
        t.call_ms("JournalWriter::create") + t.call_ms("JournalWriter::record_raw"),
        "ms",
    );
    r.set("bench.write_ms", t.call_ms("artifact::write_atomic"), "ms");
    r.set(
        "core.reference_ms",
        t.call_ms("Harness::try_reference"),
        "ms",
    );
    r.set(
        "core.measurements",
        replay.counter("runner.measurements") as f64,
        "count",
    );
    r.add_replay(&t, &replay.counts);
    t.write_jsonl(&args.workload, args.seed)?;
    Ok(r.into_per_layer())
}
