//! The WARLOCK benchmark: two seeded workloads with end-to-end
//! metrics, and a traced run with per-layer metrics. See
//! `perfbench/README.md`.
//!
//! ```text
//! perfbench run --workload <advise_large|resident_daemon> --seed N
//!               --seconds S --trace 0|1 --root perfbench [--warlockd PATH]
//! perfbench compare BASELINE.json CANDIDATE.json --benchmark BENCHMARK.json
//! perfbench golden --seeds A..B --root perfbench
//! ```

mod advise;
mod daemon;
mod gen;
mod layers;
mod report;
mod speed;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Golden, Outcome, Verdict};
use trace::Tracer;
use util::median;

#[global_allocator]
static ALLOC: warlock_bench::alloc_probe::CountingAlloc = warlock_bench::alloc_probe::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 25;

/// The workloads.
const WORKLOADS: [&str; 2] = ["advise_large", "resident_daemon"];

/// Every per-layer metric with its unit, reported by every traced run.
/// Metrics of a layer a workload does not reach read 0 (the transport
/// exists only in the daemon workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("config.parse_ms", "ms"),
    ("bitmap.derive_ms", "ms"),
    ("fragment.enumerate_ms", "ms"),
    ("fragment.layout_us_per_cand", "us"),
    ("fragment.candidates", "count"),
    ("fragment.pre_excluded", "count"),
    ("fragment.threshold_excluded", "count"),
    ("cost.tables_ms", "ms"),
    ("cost.eval_us_per_cand", "us"),
    ("cost.scalar_eval_us", "us"),
    ("core.rank_self_ms", "ms"),
    ("core.parallel_speedup", "ratio"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.misses", "count"),
    ("core.cache.entries", "count"),
    ("core.whatif_first_ms", "ms"),
    ("core.whatif_revisit_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("alloc.plan_ms.round_robin", "ms"),
    ("alloc.plan_ms.greedy", "ms"),
    ("alloc.plan_ms.graph", "ms"),
    ("sim.judge_ms", "ms"),
    ("sim.judge_share", "ratio"),
    ("workload.observe_ms", "ms"),
    ("workload.readvise_ms", "ms"),
    ("workload.readvise_recosted", "count"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("service.handle_us.rank", "us"),
    ("service.handle_us.what_if_disks", "us"),
    ("service.handle_us.analyze", "us"),
    ("service.handle_us.drift_status", "us"),
    ("service.handle_us.cache_stats", "us"),
    ("service.handle_us.ping", "us"),
    ("service.handle_us.observe_stats", "us"),
    ("service.handle_us.set_mix", "us"),
    ("service.handle_us.reload", "us"),
    ("service.reply_bytes", "bytes"),
    ("daemon.transport_us", "us"),
    ("mem.allocs_per_cand", "count"),
    ("mem.rank_peak_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("self_ms.bench", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.alloc", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.daemon", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.json", "ms"),
    ("self_ms.total", "ms"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The benchmark's own directory (golden values, output).
    pub root: PathBuf,
    pub warlockd: Option<PathBuf>,
}

impl Ctx {
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("out")
    }
}

/// Runs `setup` [`SETUPS`] times; returns the last result and the
/// median duration in seconds.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Repeats whole passes until `seconds` have elapsed (at least one);
/// returns the elapsed seconds.
pub fn whole_passes(seconds: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed().as_secs_f64() >= seconds {
            return start.elapsed().as_secs_f64();
        }
    }
}

/// Runs whole passes for `seconds`, alternating an untraced and a
/// traced pass (at least one of each), so slow phases of the machine
/// fall on both sides alike. Returns the untraced and the traced
/// passes' results and the traced passes' total seconds.
pub fn alternating_passes<T>(
    seconds: f64,
    quiet: &Tracer,
    tracer: &Tracer,
    mut pass: impl FnMut(&Tracer) -> Vec<T>,
) -> (Vec<T>, Vec<T>, f64) {
    let (mut untraced, mut traced, mut traced_s) = (Vec::new(), Vec::new(), 0.0);
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        untraced.extend(pass(quiet));
        let t = Instant::now();
        traced.extend(pass(tracer));
        traced_s += t.elapsed().as_secs_f64();
    }
    (untraced, traced, traced_s)
}

/// The evaluation-memo metrics, from the run's exact cache counters.
pub fn cache_metrics(out: &mut Outcome) {
    let get = |k: &str| out.counters.get(k).copied().unwrap_or(0) as f64;
    let (hits, misses, entries) = (get("cache.hits"), get("cache.misses"), get("cache.entries"));
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.metric("core.cache.hit_ratio", ratio, "ratio");
    out.metric("core.cache.misses", misses, "count");
    out.metric("core.cache.entries", entries, "count");
}

/// Records the per-layer self-time table of the traced loop, and checks
/// that the layers' self times add up to no more than `wall_ms`, the
/// wall-clock time of the loop they sit inside, measured apart from the
/// spans (summed over the threads that recorded them). Spans that
/// overlap or escape their loop fail the check.
pub fn self_time_table(out: &mut Outcome, spans: &[trace::Span], wall_ms: f64) {
    let (layers, roots) = trace::layer_self_ms(spans);
    let sum: f64 = layers.values().sum();
    // One microsecond of slack for the float sums.
    out.check(if sum <= wall_ms + 1e-3 {
        Ok(())
    } else {
        Err(format!(
            "layer self times {sum} ms exceed the traced loop's wall time {wall_ms} ms"
        ))
    });
    out.detail("trace.loop_wall_ms", wall_ms, "ms");
    for (layer, ms) in &layers {
        out.self_time_ms.insert((*layer).to_owned(), *ms);
        out.metric(&format!("self_ms.{layer}"), *ms, "ms");
    }
    out.self_time_ms.insert("total".into(), roots);
    out.metric("self_ms.total", roots, "ms");
}

/// Uses the probe's figure for each layer metric the workload's own
/// loop does not drive, then reports every remaining per-layer metric
/// as 0.
pub fn fill_from_probe(out: &mut Outcome) {
    for (metric, probe) in [
        ("core.whatif_first_ms", "probe.whatif_first_ms"),
        ("core.whatif_revisit_ms", "probe.whatif_revisit_ms"),
        ("core.analyze_ms", "probe.analyze_ms"),
        ("sim.judge_ms", "probe.judge_ms"),
        ("sim.judge_share", "probe.judge_share"),
        ("workload.observe_ms", "probe.observe_ms"),
        ("workload.readvise_ms", "probe.readvise_ms"),
        ("workload.readvise_recosted", "probe.readvise_recosted"),
    ] {
        if !out.metrics.contains_key(metric) {
            if let Some(m) = out.detail.get(probe).cloned() {
                out.metrics.insert(metric.to_owned(), m);
            }
        }
    }
    for (name, unit) in PER_LAYER {
        if !out.metrics.contains_key(*name) {
            out.metric(name, 0.0, unit);
        }
    }
    out.metrics
        .retain(|name, _| PER_LAYER.iter().any(|(n, _)| n == name));
}

/// The service and JSON layers of an in-process workload: a fixed
/// script of the daemon's ops against `w`, replayed three times.
pub fn service_probe(ctx: &Ctx, w: &gen::Warehouse, out: &mut Outcome) {
    use warlock::json::Json;
    let mut w = w.clone();
    w.name = "p0".into();
    let disks = w.parsed.system.num_disks * 2;
    let steady: Vec<Json> = w
        .parsed
        .mix
        .classes()
        .iter()
        .map(|c| {
            Json::object([
                ("class", Json::Str(c.class.name().to_owned())),
                (
                    "count",
                    Json::Int((c.share * 1000.0).round().max(1.0) as i64),
                ),
            ])
        })
        .collect();
    let weights = Json::object(
        w.parsed
            .mix
            .classes()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.class.name().to_owned(), Json::Num(1.0 + i as f64))),
    );
    let script: Vec<(&'static str, Json, Option<usize>)> = vec![
        ("ping", Json::Obj(Vec::new()), None),
        ("rank", Json::Obj(Vec::new()), None),
        (
            "what_if_disks",
            Json::object([("disks", Json::Int(i64::from(disks)))]),
            None,
        ),
        (
            "what_if_disks",
            Json::object([("disks", Json::Int(i64::from(disks)))]),
            None,
        ),
        ("analyze", Json::object([("rank", Json::Int(1))]), None),
        ("drift_status", Json::Obj(Vec::new()), None),
        ("cache_stats", Json::Obj(Vec::new()), None),
        ("set_mix", Json::object([("weights", weights)]), None),
        (
            "observe_stats",
            Json::object([("observations", Json::Arr(steady))]),
            None,
        ),
        ("reload", Json::Obj(Vec::new()), Some(1)),
        ("rank", Json::Obj(Vec::new()), None),
    ];
    let requests: Vec<daemon::Request> = (0..3)
        .flat_map(|_| script.iter().cloned())
        .enumerate()
        .map(|(i, (op, params, variant))| daemon::Request {
            op,
            warehouse: 0,
            line: Json::object([
                ("v", Json::Int(2)),
                ("id", Json::Int(i as i64)),
                ("op", Json::Str(op.to_owned())),
                ("warehouse", Json::Str("p0".into())),
                ("params", params),
            ])
            .render(),
            variant,
        })
        .collect();
    let dir = ctx
        .out_dir()
        .join(format!("service-probe-{}-seed{}", out.workload, ctx.seed));
    match daemon::replay(
        std::slice::from_ref(&w),
        dir,
        &requests,
        &Tracer::new(false),
    ) {
        Ok(replayed) => {
            for r in &replayed {
                out.check(if r.reply.contains(r#""ok":true"#) {
                    Ok(())
                } else {
                    Err(format!("service probe {}: {}", r.op, r.reply))
                });
            }
            daemon::service_metrics(out, &replayed);
        }
        Err(e) => out.check(Err(format!("service probe: {e}"))),
    }
}

/// Writes the traced run's spans and counters.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer) {
    let dir = ctx.out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let name = dir.join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    let _ = std::fs::write(name, tracer.to_json().render());
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench run --workload <{}> --seed N --seconds S --trace 0|1 --root DIR [--warlockd PATH]\n       \
         perfbench compare BASELINE.json CANDIDATE.json --benchmark BENCHMARK.json\n       \
         perfbench golden --seeds A..B --root DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let parse = |name: &str| -> Result<f64, String> {
        flag(args, name)
            .ok_or(format!("missing {name}"))?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let ctx = Ctx {
        workload: workload.clone(),
        seed: flag(args, "--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: parse("--seconds")?,
        trace: parse("--trace")? != 0.0,
        root: PathBuf::from(flag(args, "--root").ok_or("missing --root")?),
        warlockd: flag(args, "--warlockd").map(PathBuf::from),
    };
    if !ctx.root.join("golden").is_dir() {
        return Err(format!(
            "{} is not the benchmark directory",
            ctx.root.display()
        ));
    }
    let outcome = match workload.as_str() {
        "advise_large" => advise::run(&ctx),
        "resident_daemon" => daemon::run(&ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let document = outcome.document();
    let _ = std::fs::create_dir_all(ctx.out_dir());
    let path = ctx.out_dir().join(format!(
        "result-{workload}-seed{}-trace{}.json",
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let _ = std::fs::write(&path, document.pretty());
    eprintln!("{}", document.pretty());
    println!("{}", outcome.summary().render());
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (Some(base), Some(cand)) = (args.first(), args.get(1)) else {
        return Err("compare needs two result documents".into());
    };
    let benchmark = flag(args, "--benchmark").unwrap_or_else(|| "BENCHMARK.json".into());
    let bounds = report::bounds(&report::read_json(Path::new(&benchmark))?)?;
    let verdict = report::compare(
        &report::read_json(Path::new(base))?,
        &report::read_json(Path::new(cand))?,
        &bounds,
    );
    println!("{verdict:?}");
    Ok(match verdict {
        Verdict::Pass => ExitCode::SUCCESS,
        Verdict::DifferentProgram(_) => ExitCode::from(3),
        Verdict::WrongOutputs(_) | Verdict::Regressed(_) => ExitCode::from(1),
    })
}

fn golden(args: &[String]) -> Result<ExitCode, String> {
    let root = PathBuf::from(flag(args, "--root").ok_or("missing --root")?);
    let seeds = flag(args, "--seeds").ok_or("missing --seeds")?;
    let (a, b) = seeds.split_once("..").ok_or("--seeds wants A..B")?;
    let (a, b): (u64, u64) = (
        a.parse().map_err(|e| format!("{e}"))?,
        b.parse().map_err(|e| format!("{e}"))?,
    );
    let path = Golden::path(&root, "advise_large");
    let mut golden = Golden::load(&path);
    for seed in a..=b {
        let values = advise::golden(seed).map_err(|e| format!("seed {seed}: {e}"))?;
        for (name, fp) in values {
            golden.0.insert((seed % gen::INSTANCES, name), fp);
        }
        eprintln!("seed {seed} recorded");
    }
    std::fs::write(&path, golden.render("advise_large")).map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "run" => run(&args[1..]),
        "compare" => compare(&args[1..]),
        "golden" => golden(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock::json::Json;

    fn benchmark() -> Json {
        report::read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, list: &str) -> Vec<String> {
        doc.get(list)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn per_layer_list_matches_the_benchmark_file() {
        let listed = names(&benchmark(), "per_layer");
        let ours: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn untraced_fixtures_report_exactly_the_end_to_end_metrics() {
        let mut expected = names(&benchmark(), "end_to_end");
        expected.sort();
        for workload in WORKLOADS {
            let path =
                Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("fixtures/{workload}.json"));
            let doc = report::read_json(&path).expect("fixture parses");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("{workload}: no metrics")
            };
            let mut got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            got.sort();
            assert_eq!(got, expected, "{workload}");
            assert_eq!(
                doc.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
        }
    }

    #[test]
    fn self_times_beyond_the_loop_wall_time_fail() {
        let t = Tracer::new(true);
        let start = Instant::now();
        let end = start + std::time::Duration::from_millis(5);
        // Two spans over the same 5 ms, as overlapping spans would be.
        t.record("core.rank", 1, start, end);
        t.record("core.rank", 2, start, end);
        let mut out = Outcome::new("advise_large", 1, true);
        self_time_table(&mut out, &t.spans(), 10.0);
        assert_eq!((out.attempted, out.failed), (1, 0));
        self_time_table(&mut out, &t.spans(), 5.0);
        assert_eq!((out.attempted, out.failed), (2, 1));
    }

    #[test]
    fn fill_reports_every_per_layer_metric_and_nothing_else() {
        let mut out = Outcome::new("advise_large", 1, true);
        out.metric("op_ms.p50", 1.0, "ms");
        out.detail("probe.judge_ms", 2.0, "ms");
        fill_from_probe(&mut out);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(out.metrics["sim.judge_ms"].value, 2.0);
        assert!(!out.metrics.contains_key("op_ms.p50"));
    }
}
