//! `resident_daemon`: a closed-loop read/write mix against `warlockd`.
//!
//! `warlockd` serves four fleet warehouses on loopback TCP. Two drift
//! and run with `auto_advise` on; two are stable. One process drives it
//! over two persistent connections, each sending its next request only
//! after the previous reply (operator tools wait for each answer).
//! Connection 0 owns the drifting warehouses and connection 1 the
//! stable ones, so every warehouse sees one deterministic request order
//! and the whole stream can be replayed in process, request for
//! request, through `Service::handle_line` to check the replies and to
//! time the service and JSON layers without the transport.
//!
//! Reads: `rank`, `what_if_disks`, `analyze`, `drift_status`,
//! `cache_stats`, `ping`. Writes: `observe_stats` batches that replay
//! each drifting trajectory once (then hold at its last batch; one
//! trajectory fires exactly one re-advise), `set_mix` re-weights and
//! `reload` of a rewritten config file on the stable warehouses. Each
//! request draws its op uniformly from its connection's ops.
//!
//! `warlockd` writes each reply line in two segments, so with Nagle's
//! algorithm on the server every reply waits for the client's delayed
//! ACK (about 40 ms on Linux). Until that is fixed, the client-observed
//! figures measure that timer; the traced run's in-process service and
//! JSON timings show the layers behind it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use warlock::config_file::render_config;
use warlock::json::{self, Json};
use warlock::serial::observation_to_json;
use warlock::{Registry, Service};

use crate::gen::{self, Warehouse};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, quantile, Rng};
use crate::{layers, Ctx};

/// Requests per connection in one pass of the stream; the exact
/// counters cover the first pass.
const PASS_LEN: usize = 200;

/// The write ops.
const WRITES: [&str; 3] = ["observe_stats", "set_mix", "reload"];

/// The ops of connection 0 (drifting warehouses w0, w1) and of
/// connection 1 (stable warehouses w2, w3). Each request draws its op
/// uniformly from its connection's list: the repository records no
/// operator traffic to weight them by, so the mix is an assumption,
/// and the simplest one.
const CONN_OPS: [&[&str]; 2] = [
    &[
        "rank",
        "what_if_disks",
        "analyze",
        "drift_status",
        "cache_stats",
        "ping",
        "observe_stats",
    ],
    &[
        "rank",
        "what_if_disks",
        "analyze",
        "drift_status",
        "cache_stats",
        "ping",
        "set_mix",
        "reload",
    ],
];

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: &'static str,
    pub warehouse: usize,
    pub line: String,
    /// For `reload`: which config variant to write before sending.
    pub variant: Option<usize>,
}

impl Request {
    pub fn is_write(&self) -> bool {
        WRITES.contains(&self.op)
    }
}

/// The config-file variants of a stable warehouse that `reload`
/// alternates between: as generated, and with its class weights
/// reversed.
fn variants(w: &Warehouse) -> [String; 2] {
    let original = render_config(&w.parsed);
    let mut reweighted = w.parsed.clone();
    let shares: Vec<f64> = w
        .parsed
        .mix
        .classes()
        .iter()
        .map(|c| c.share)
        .rev()
        .collect();
    let mut builder = warlock::workload::QueryMix::builder();
    for (class, share) in w.parsed.mix.classes().iter().zip(shares) {
        builder = builder.class(class.class.clone(), share);
    }
    reweighted.mix = builder.build().expect("a re-weighted mix stays valid");
    [original, render_config(&reweighted)]
}

/// Deterministic request generator of one connection.
pub struct Stream {
    conn: usize,
    rng: Rng,
    warehouses: Vec<usize>,
    /// Next trajectory batch per drifting warehouse.
    cursor: BTreeMap<usize, usize>,
    reloads: BTreeMap<usize, usize>,
    id: u64,
}

impl Stream {
    pub fn new(seed: u64, conn: usize) -> Self {
        Self {
            conn,
            rng: Rng::new(seed ^ (0x5354_5245_414d_0000 + conn as u64)),
            warehouses: if conn == 0 { vec![0, 1] } else { vec![2, 3] },
            cursor: BTreeMap::new(),
            reloads: BTreeMap::new(),
            id: 0,
        }
    }

    pub fn next(&mut self, fleet: &[Warehouse]) -> Request {
        let op = self.rng.pick(CONN_OPS[self.conn]);
        let warehouse = self.warehouses[self.rng.range(0, 1) as usize];
        let w = &fleet[warehouse];
        self.id += 1;
        let mut variant = None;
        let params = match op {
            "what_if_disks" => {
                let disks = w.parsed.system.num_disks;
                let n = if self.rng.chance(0.5) {
                    (disks / 2).max(1)
                } else {
                    disks * 2
                };
                Json::object([("disks", Json::Int(i64::from(n)))])
            }
            "analyze" => Json::object([("rank", Json::Int(1))]),
            "observe_stats" => {
                let next = self.cursor.entry(warehouse).or_insert(0);
                let batch = &w.trajectory[(*next).min(w.trajectory.len() - 1)];
                *next += 1;
                Json::object([(
                    "observations",
                    Json::Arr(batch.iter().map(observation_to_json).collect()),
                )])
            }
            "set_mix" => Json::object([(
                "weights",
                Json::object(w.parsed.mix.classes().iter().map(|c| {
                    (
                        c.class.name().to_owned(),
                        Json::Num(1.0 + self.rng.range(0, 9000) as f64 / 1000.0),
                    )
                })),
            )]),
            "reload" => {
                let count = self.reloads.entry(warehouse).or_insert(0);
                *count += 1;
                variant = Some(*count % 2);
                Json::Obj(Vec::new())
            }
            _ => Json::Obj(Vec::new()),
        };
        let line = Json::object([
            ("v", Json::Int(2)),
            ("id", Json::Int(self.id as i64)),
            ("op", Json::Str(op.to_owned())),
            ("warehouse", Json::Str(w.name.clone())),
            ("params", params),
        ])
        .render();
        Request {
            op,
            warehouse,
            line,
            variant,
        }
    }
}

/// The daemon's input files: one config per warehouse plus the two
/// variants each stable warehouse's `reload` alternates between.
struct Files {
    dir: PathBuf,
    variants: Vec<[String; 2]>,
}

impl Files {
    fn write(dir: PathBuf, fleet: &[Warehouse]) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let variants: Vec<[String; 2]> = fleet.iter().map(variants).collect();
        for (w, v) in fleet.iter().zip(&variants) {
            std::fs::write(dir.join(format!("{}.cfg", w.name)), &v[0])?;
        }
        Ok(Self { dir, variants })
    }

    fn path(&self, w: &Warehouse) -> PathBuf {
        self.dir.join(format!("{}.cfg", w.name))
    }

    /// Writes the config variant a `reload` request expects.
    fn prepare(&self, fleet: &[Warehouse], request: &Request) {
        if let Some(v) = request.variant {
            let w = &fleet[request.warehouse];
            std::fs::write(self.path(w), &self.variants[request.warehouse][v])
                .expect("the benchmark's output directory is writable");
        }
    }
}

/// A running `warlockd`.
struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stderr until it exits.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn boot(binary: &Path, fleet: &[Warehouse], files: &Files) -> Result<Self, String> {
        let mut command = Command::new(binary);
        for w in fleet {
            command
                .arg("--warehouse")
                .arg(format!("{}={}", w.name, files.path(w).display()));
        }
        let mut child = command
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("warlockd: listening on ") {
                        break addr.trim().to_owned();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("warlockd exited before listening".into());
                }
            }
        };
        // Keep draining stderr so the daemon never blocks on it.
        let drain = Some(std::thread::spawn(move || for _ in lines {}));
        let daemon = Self { child, addr, drain };
        let mut conn = daemon.connect()?;
        let reply = conn.call(r#"{"v":2,"op":"ping"}"#)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("first ping failed: {reply}"));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to stop and waits up to ten seconds for it to
    /// exit; dropping it then kills it if it has not.
    fn stop(mut self) {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.call(r#"{"v":2,"op":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    /// Kills the daemon if it is still running, reaps it and joins the
    /// stderr drain (which ends when the daemon's stderr closes).
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed".into());
        }
        Ok(reply.trim_end().to_owned())
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    request: Request,
    reply: Result<String, String>,
    latency_ms: f64,
}

/// Drives one connection until `seconds` elapse (and at least one
/// pass), returning what it sent and its loop's wall-clock seconds.
fn client(
    daemon: &Daemon,
    fleet: &[Warehouse],
    files: &Files,
    seed: u64,
    conn_index: usize,
    seconds: f64,
    tracer: &Tracer,
) -> Result<(Vec<Sent>, f64), String> {
    let mut conn = daemon.connect()?;
    let mut stream = Stream::new(seed, conn_index);
    let mut sent = Vec::new();
    let start = Instant::now();
    while sent.len() < PASS_LEN || start.elapsed().as_secs_f64() < seconds {
        let request = stream.next(fleet);
        files.prepare(fleet, &request);
        let t0 = Instant::now();
        let reply = conn.call(&request.line);
        let t1 = Instant::now();
        tracer.record("daemon.request", sent.len() as u64, t0, t1);
        tracer.count("daemon.requests", 1.0);
        if let Ok(line) = &reply {
            tracer.count("daemon.reply_bytes", line.len() as f64);
        }
        let failed = reply.is_err();
        sent.push(Sent {
            request,
            reply,
            latency_ms: (t1 - t0).as_secs_f64() * 1e3,
        });
        if failed {
            break;
        }
    }
    Ok((sent, start.elapsed().as_secs_f64()))
}

/// Both connections' requests, the loop seconds, and each client's
/// tracer and own loop seconds.
type Drive = (Vec<Vec<Sent>>, f64, Vec<(Tracer, f64)>);

/// One connection's requests, loop seconds and tracer.
type ClientRun = (Vec<Sent>, f64, Tracer);

/// Runs both connections concurrently.
fn drive(
    daemon: &Daemon,
    fleet: &[Warehouse],
    files: &Files,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Drive, String> {
    let start = Instant::now();
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let tracer = Tracer::new(trace);
                    client(daemon, fleet, files, seed, c, seconds, &tracer)
                        .map(|(sent, wall_s)| (sent, wall_s, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut streams = Vec::new();
    let mut tracers = Vec::new();
    for r in results {
        let (sent, wall_s, tracer) = r?;
        streams.push(sent);
        tracers.push((tracer, wall_s));
    }
    Ok((streams, elapsed, tracers))
}

/// In-process timings of one replayed request.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub op: &'static str,
    pub reply: String,
    pub parse_us: f64,
    pub handle_us: f64,
    pub render_us: f64,
    pub fired: bool,
    pub recosted: u64,
}

fn events_emitted(reply: &str) -> Option<u64> {
    json::parse(reply)
        .ok()?
        .get("result")?
        .get("events_emitted")?
        .as_u64()
}

/// Replays `requests` through an in-process service over a registry
/// loaded from `files`, timing the JSON parse of each request line, the
/// service's handling and the re-render of each reply.
pub fn replay(
    fleet: &[Warehouse],
    dir: PathBuf,
    requests: &[Request],
    tracer: &Tracer,
) -> Result<Vec<Replayed>, String> {
    let files = Files::write(dir, fleet).map_err(|e| e.to_string())?;
    let registry = Registry::new(fleet[0].name.clone());
    for w in fleet {
        registry
            .load(w.name.clone(), files.path(w).display().to_string())
            .map_err(|e| e.to_string())?;
    }
    let registry = Arc::new(registry);
    let service = Service::with_registry(Arc::clone(&registry));
    let mut events = vec![0u64; fleet.len()];
    let mut out = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        files.prepare(fleet, request);
        let w = &fleet[request.warehouse];
        let misses_before = registry
            .get(&w.name)
            .map(|h| h.session().cache_stats().misses)
            .unwrap_or(0);
        let t0 = Instant::now();
        let parsed = tracer.span("json.parse", i as u64, || json::parse(&request.line));
        let t1 = Instant::now();
        std::hint::black_box(parsed.map_err(|e| e.to_string())?);
        let reply = tracer.span("service.handle", i as u64, || {
            service.handle_line(&request.line)
        });
        let t2 = Instant::now();
        let doc = json::parse(&reply.line).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        std::hint::black_box(tracer.span("json.render", i as u64, || doc.render()));
        let render_us = t3.elapsed().as_secs_f64() * 1e6;
        let mut fired = false;
        let mut recosted = 0;
        if request.op == "observe_stats" {
            if let Some(n) = events_emitted(&reply.line) {
                fired = n > events[request.warehouse];
                events[request.warehouse] = n;
            }
            if fired {
                let misses = registry
                    .get(&w.name)
                    .map(|h| h.session().cache_stats().misses)
                    .unwrap_or(0);
                recosted = misses - misses_before;
                tracer.count("workload.readvise_events", 1.0);
                tracer.count("workload.readvise_recosted", recosted as f64);
            }
        }
        out.push(Replayed {
            op: request.op,
            reply: reply.line,
            parse_us: (t1 - t0).as_secs_f64() * 1e6,
            handle_us: (t2 - t1).as_secs_f64() * 1e6,
            render_us,
            fired,
            recosted,
        });
    }
    Ok(out)
}

fn top_label(reply: &str) -> Option<String> {
    let doc = json::parse(reply).ok()?;
    let ranking = doc.get("result")?.get("ranking")?.as_array()?;
    Some(ranking.first()?.get("label")?.as_str()?.to_owned())
}

/// Ops whose per-op in-process handling time is reported.
pub const OPS: [&str; 9] = [
    "rank",
    "what_if_disks",
    "analyze",
    "drift_status",
    "cache_stats",
    "ping",
    "observe_stats",
    "set_mix",
    "reload",
];

/// Records the JSON and service metrics of a replay.
pub fn service_metrics(out: &mut Outcome, replayed: &[Replayed]) {
    let parse: Vec<f64> = replayed.iter().map(|r| r.parse_us).collect();
    let render: Vec<f64> = replayed.iter().map(|r| r.render_us).collect();
    out.metric("json.parse_us", median(&parse), "us");
    out.metric("json.render_us", median(&render), "us");
    for op in OPS {
        let handle: Vec<f64> = replayed
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.handle_us)
            .collect();
        out.metric(&format!("service.handle_us.{op}"), median(&handle), "us");
    }
    let bytes: usize = replayed.iter().map(|r| r.reply.len()).sum();
    out.metric("service.reply_bytes", bytes as f64, "bytes");
}

/// What one daemon served: both connections' requests, the loop time,
/// the client tracers with their loop seconds, each warehouse's advice
/// events, and its peak RSS.
struct Driven {
    streams: Vec<Vec<Sent>>,
    elapsed_s: f64,
    tracers: Vec<(Tracer, f64)>,
    events: Vec<Result<String, String>>,
    rss: Option<f64>,
}

/// Drives `daemon` for `seconds`, collects its advice events and peak
/// memory, and stops it.
fn serve(
    daemon: Daemon,
    fleet: &[Warehouse],
    files: &Files,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Driven, String> {
    let result = (|| {
        let (streams, elapsed_s, tracers) = drive(&daemon, fleet, files, seed, seconds, trace)?;
        let mut conn = daemon.connect()?;
        let events = fleet
            .iter()
            .map(|w| {
                conn.call(&format!(
                    r#"{{"v":2,"op":"advice_events","warehouse":"{}"}}"#,
                    w.name
                ))
            })
            .collect();
        Ok(Driven {
            streams,
            elapsed_s,
            tracers,
            events,
            rss: daemon.peak_rss_mb(),
        })
    })();
    daemon.stop();
    result
}

fn latencies(driven: &Driven) -> Vec<f64> {
    driven
        .streams
        .iter()
        .flatten()
        .map(|s| s.latency_ms)
        .collect()
}

/// Consecutive requests of one connection per window of the tail
/// statistic: about 9 s at the transport timer's 22 requests/s.
const TAIL_WINDOW: usize = 200;

/// The request tail: the median, over windows of [`TAIL_WINDOW`]
/// consecutive requests of one connection, of each window's p99. A
/// burst of the shared host moves the windows it falls in, not the
/// statistic. A run too short for one window uses all its requests.
fn windowed_p99(driven: &Driven) -> f64 {
    let tails: Vec<f64> = driven
        .streams
        .iter()
        .flat_map(|s| s.chunks_exact(TAIL_WINDOW))
        .map(|w| quantile(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>(), 0.99))
        .collect();
    if tails.is_empty() {
        quantile(&latencies(driven), 0.99)
    } else {
        median(&tails)
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let binary = ctx
        .warlockd
        .clone()
        .ok_or("resident_daemon needs --warlockd <path to the warlockd binary>")?;
    let mut out = Outcome::new("resident_daemon", ctx.seed, ctx.trace);
    let dir = ctx.out_dir().join(format!("daemon-seed{}", ctx.seed));

    // Set-up: generate and write the configs, boot to the first good
    // ping; repeated, and the median is `setup_s`. The last daemon stays
    // up; a traced run keeps the last two, one per half.
    let keep = if ctx.trace { 2 } else { 1 };
    let mut boots = Vec::new();
    let mut kept = Vec::new();
    for i in 0..crate::SETUPS {
        let start = Instant::now();
        let fleet = gen::reparse(gen::daemon_fleet());
        let files =
            Files::write(dir.join(format!("served{i}")), &fleet).map_err(|e| e.to_string())?;
        let daemon = Daemon::boot(&binary, &fleet, &files)?;
        boots.push(start.elapsed().as_secs_f64());
        if i + keep >= crate::SETUPS {
            kept.push((fleet, files, daemon));
        } else {
            daemon.stop();
        }
    }
    let setup_s = median(&boots);
    out.detail("setup_s", setup_s, "s");

    let (fleet, files, daemon) = kept.pop().expect("one daemon is kept");
    out.inputs(&fleet);
    let driven = if let Some((fleet_u, files_u, daemon_u)) = kept.pop() {
        // Half the time untraced, half traced, each on a fresh daemon:
        // the difference of the two medians is the tracing overhead.
        let plain = serve(
            daemon_u,
            &fleet_u,
            &files_u,
            ctx.seed,
            ctx.seconds / 2.0,
            false,
        )?;
        for s in plain.streams.iter().flatten() {
            out.check(match &s.reply {
                Ok(reply) if reply.contains(r#""ok":true"#) => Ok(()),
                Ok(reply) => Err(format!("{}: {reply}", s.request.op)),
                Err(e) => Err(format!("{}: {e}", s.request.op)),
            });
        }
        let traced = serve(daemon, &fleet, &files, ctx.seed, ctx.seconds / 2.0, true)?;
        let overhead = median(&latencies(&traced)) / median(&latencies(&plain)) - 1.0;
        out.metric("trace.overhead_pct", overhead * 100.0, "%");
        traced
    } else {
        serve(daemon, &fleet, &files, ctx.seed, ctx.seconds, false)?
    };

    // Replay each connection's stream in process and compare.
    let quiet = Tracer::new(false);
    let replay_tracer = Tracer::new(ctx.trace);
    let replay_start = Instant::now();
    let mut replays = Vec::new();
    for (c, sent) in driven.streams.iter().enumerate() {
        let requests: Vec<Request> = sent.iter().map(|s| s.request.clone()).collect();
        let tracer = if ctx.trace { &replay_tracer } else { &quiet };
        replays.push(replay(
            &fleet,
            dir.join(format!("replay{c}")),
            &requests,
            tracer,
        )?);
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    for (sent, replayed) in driven.streams.iter().zip(&replays) {
        for (s, r) in sent.iter().zip(replayed) {
            let check = match &s.reply {
                Err(e) => Err(format!("{}: {e}", s.request.op)),
                Ok(reply) if !reply.contains(r#""ok":true"#) => {
                    Err(format!("{}: {reply}", s.request.op))
                }
                Ok(reply) if s.request.op == "rank" && top_label(reply) != top_label(&r.reply) => {
                    Err(format!(
                        "rank on {}: daemon top {:?} != in-process {:?}",
                        fleet[s.request.warehouse].name,
                        top_label(reply),
                        top_label(&r.reply)
                    ))
                }
                Ok(_) => Ok(()),
            };
            out.check(check);
        }
    }
    // Each drifting trajectory fires exactly one re-advise; the stable
    // warehouses none.
    let event_counts: Vec<u64> = driven
        .events
        .iter()
        .map(|e| {
            e.as_ref()
                .map_or(0, |r| r.matches("recommendation_changed").count() as u64)
        })
        .collect();
    for ((w, reply), n) in fleet.iter().zip(&driven.events).zip(&event_counts) {
        let expected = u64::from(!w.trajectory.is_empty());
        out.check(match reply {
            Ok(_) if *n == expected => Ok(()),
            Ok(_) => Err(format!(
                "{}: {n} recommendation_changed events, expected {expected}",
                w.name
            )),
            Err(e) => Err(format!("advice_events on {}: {e}", w.name)),
        });
    }

    // Exact counters over the first pass of each connection.
    let first: Vec<&Sent> = driven
        .streams
        .iter()
        .flat_map(|s| s.iter().take(PASS_LEN))
        .collect();
    let replayed_first: Vec<&Replayed> = replays
        .iter()
        .flat_map(|r| r.iter().take(PASS_LEN))
        .collect();
    let reply_bytes: usize = first
        .iter()
        .map(|s| s.reply.as_ref().map_or(0, String::len))
        .sum();
    out.counter("requests.pass", first.len() as u64);
    out.counter("reply_bytes.pass", reply_bytes as u64);
    out.counter("readvise.events", event_counts.iter().sum());
    out.counter(
        "readvise.recosted",
        replayed_first.iter().map(|r| r.recosted).sum(),
    );
    for key in ["hits", "misses", "entries"] {
        // The last cache_stats reply of each connection's first pass.
        let total: u64 = replays
            .iter()
            .filter_map(|r| {
                r[..PASS_LEN.min(r.len())]
                    .iter()
                    .rev()
                    .find(|x| x.op == "cache_stats")
                    .and_then(|x| json::parse(&x.reply).ok())
                    .and_then(|d| d.get("result")?.get(key)?.as_u64())
            })
            .sum();
        out.counter(&format!("cache.{key}"), total);
    }

    let all: Vec<&Sent> = driven.streams.iter().flatten().collect();
    let latency = latencies(&driven);
    let writes: Vec<f64> = all
        .iter()
        .filter(|s| s.request.is_write())
        .map(|s| s.latency_ms)
        .collect();
    let req_per_s = all.len() as f64 / driven.elapsed_s;
    out.detail("req_ms.p50", median(&latency), "ms");
    let tail = windowed_p99(&driven);
    out.detail("req_ms.p99", tail, "ms");
    out.detail("req_ms.n", latency.len() as f64, "count");
    out.detail("write_ms.p50", median(&writes), "ms");
    out.detail("write_ms.n", writes.len() as f64, "count");
    out.detail("req_per_s", req_per_s, "1/s");
    out.detail("loop_s", driven.elapsed_s, "s");
    let rss = driven.rss.unwrap_or(0.0);
    out.detail("peak_rss_mb", rss, "MB");

    if ctx.trace {
        let tracer = Tracer::new(true);
        let mut wall_s = replay_s;
        for (t, client_s) in driven.tracers {
            tracer.absorb(t);
            wall_s += client_s;
        }
        let replayed: Vec<Replayed> = replays.iter().flatten().cloned().collect();
        service_metrics(&mut out, &replayed);
        let pass_bytes: usize = replayed_first.iter().map(|r| r.reply.len()).sum();
        out.metric("service.reply_bytes", pass_bytes as f64, "bytes");
        let transport: Vec<f64> = all
            .iter()
            .zip(&replayed)
            .map(|(s, r)| s.latency_ms * 1e3 - r.handle_us)
            .collect();
        out.metric("daemon.transport_us", median(&transport), "us");
        let handle_ms = |keep: &dyn Fn(&Replayed) -> bool| -> Vec<f64> {
            replayed
                .iter()
                .filter(|r| keep(r))
                .map(|r| r.handle_us / 1e3)
                .collect()
        };
        out.metric(
            "workload.observe_ms",
            median(&handle_ms(&|r| r.op == "observe_stats" && !r.fired)),
            "ms",
        );
        out.metric(
            "workload.readvise_ms",
            median(&handle_ms(&|r| r.fired)),
            "ms",
        );
        out.metric(
            "workload.readvise_recosted",
            replayed.iter().map(|r| r.recosted).sum::<u64>() as f64,
            "count",
        );
        out.metric(
            "core.analyze_ms",
            median(&handle_ms(&|r| r.op == "analyze")),
            "ms",
        );
        // First visit of a (warehouse, disks) what-if against revisits.
        let mut seen = std::collections::BTreeSet::new();
        let (mut first_ms, mut revisit_ms) = (Vec::new(), Vec::new());
        for (s, r) in all.iter().zip(&replayed) {
            if s.request.op == "what_if_disks" {
                let key = (
                    s.request.warehouse,
                    s.request.line.split("params").nth(1).map(str::to_owned),
                );
                if seen.insert(key) {
                    first_ms.push(r.handle_us / 1e3);
                } else {
                    revisit_ms.push(r.handle_us / 1e3);
                }
            }
        }
        out.metric("core.whatif_first_ms", median(&first_ms), "ms");
        out.metric("core.whatif_revisit_ms", median(&revisit_ms), "ms");
        crate::cache_metrics(&mut out);
        tracer.absorb(replay_tracer);
        crate::self_time_table(&mut out, &tracer.spans(), wall_s * 1e3);
        let probe_tracer = Tracer::new(true);
        if let Err(e) = layers::probe(&fleet[0], &probe_tracer, &mut out) {
            out.check(Err(format!("probe on {}: {e}", fleet[0].name)));
        }
        crate::fill_from_probe(&mut out);
        tracer.absorb(probe_tracer);
        crate::write_trace(ctx, &tracer);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("op_ms.p50", median(&latency), "ms");
        out.metric("op_ms.tail", tail, "ms");
        out.metric("stage_ms.p50", median(&writes), "ms");
        out.metric("rate_per_s", req_per_s, "1/s");
        out.metric("peak_rss_mb", rss, "MB");
    }
    Ok(out)
}
