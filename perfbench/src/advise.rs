//! `advise_large`: one cold full advisory per large-tier warehouse.
//!
//! Each advisory opens a fresh session at `parallelism = 1` and runs
//! build → `rank` → `analyze(1)` → `plan_allocation(1)`
//! → `recommend_policy`. The evaluation memo stays cold and no service
//! layer is involved. Passes over the seven warehouses repeat until the
//! run's time is up; only whole passes are measured, so every run
//! weighs every warehouse equally.
//!
//! The gated latencies are geometric means over the warehouses of each
//! one's median, and the rate is the median over passes: a slow spell
//! of the host moves a few samples of each, not the statistic, and no
//! statistic falls on the edge between two warehouses' samples. They
//! are reported at the reference host speed (see `speed`), which takes
//! out the slow and fast spells of the shared host that whole runs fall
//! into.

use std::time::Instant;

use warlock::{Warlock, WarlockError};
use warlock_bench::alloc_probe::{allocation_profile, probe_installed};

use crate::gen::{self, Warehouse};
use crate::report::{ranking_fingerprint, verify_ranking, Golden, Outcome};
use crate::speed::Reference;
use crate::trace::{durations, Tracer};
use crate::util::{geomean, median, ms_since, quantile};
use crate::{alternating_passes, layers, setup_repeated, whole_passes, Ctx};

/// Percentile of the advisory tail. A 45 s run holds about 200
/// advisories, so p80 keeps about forty samples beyond it; with seven warehouses
/// per pass it also falls mid-way into the second-slowest warehouse's
/// samples instead of on the edge between two warehouses.
const TAIL: f64 = 0.80;

/// Host-speed reference samples after each pass (about 1% of a pass).
const REFERENCE_PER_PASS: usize = 3;

#[derive(Debug, Clone)]
struct Advisory {
    warehouse: String,
    advise_ms: f64,
    rank_ms: f64,
    judge_ms: f64,
    enumerated: u64,
    evaluated: u64,
    excluded: u64,
    fingerprint: u64,
    misses: u64,
    hits: u64,
    entries: u64,
}

fn advisory(w: &Warehouse, tracer: &Tracer, request: u64) -> Result<Advisory, WarlockError> {
    let start = Instant::now();
    tracer.span("bench.advisory", request, || {
        let session = tracer.span("core.build", request, || {
            Warlock::from_parsed(w.parsed.clone())
        })?;
        let rank_start = Instant::now();
        let (fingerprint, enumerated, evaluated, excluded) =
            tracer.span("core.rank", request, || {
                session.rank().map(|r| {
                    (
                        ranking_fingerprint(r),
                        r.enumerated as u64,
                        r.evaluated as u64,
                        r.excluded.total() as u64,
                    )
                })
            })?;
        let rank_ms = ms_since(rank_start);
        tracer.count("candidates.enumerated", enumerated as f64);
        tracer.count("candidates.evaluated", evaluated as f64);
        tracer.count("candidates.excluded", excluded as f64);
        tracer.span("core.analyze", request, || session.analyze(1))?;
        tracer.span("alloc.plan", request, || session.plan_allocation(1))?;
        let judge_start = Instant::now();
        tracer.span("sim.judge", request, || session.recommend_policy())?;
        let judge_ms = ms_since(judge_start);
        let cache = session.cache_stats();
        tracer.count("cache.hits", cache.hits as f64);
        tracer.count("cache.misses", cache.misses as f64);
        tracer.count("cache.entries", cache.entries as f64);
        Ok(Advisory {
            warehouse: w.name.clone(),
            advise_ms: ms_since(start),
            rank_ms,
            judge_ms,
            enumerated,
            evaluated,
            excluded,
            fingerprint,
            misses: cache.misses,
            hits: cache.hits,
            entries: cache.entries as u64,
        })
    })
}

/// Candidates enumerated per second of advisory wall-clock.
fn cand_per_s(advisories: &[Advisory]) -> f64 {
    let enumerated: u64 = advisories.iter().map(|a| a.enumerated).sum();
    let ms: f64 = advisories.iter().map(|a| a.advise_ms).sum();
    enumerated as f64 / (ms / 1e3)
}

/// The reference ranking of `w` at one worker: its fingerprint, and the
/// allocations the cold ranking made.
fn reference(w: &Warehouse) -> Result<(u64, u64), WarlockError> {
    let mut parsed = w.parsed.clone();
    parsed.advisor.parallelism = 1;
    let session = Warlock::from_parsed(parsed)?;
    let (report, allocations, _) = allocation_profile(|| session.run());
    Ok((ranking_fingerprint(&report?), allocations))
}

/// The golden fingerprints of the instance `seed` selects: every
/// warehouse ranked at one worker.
pub fn golden(seed: u64) -> Result<Vec<(String, u64)>, WarlockError> {
    gen::reparse(gen::large_tier(seed))
        .iter()
        .map(|w| reference(w).map(|(fp, _)| (w.name.clone(), fp)))
        .collect()
}

fn pass(
    tier: &[Warehouse],
    tracer: &Tracer,
    out: &mut Outcome,
    request: &mut u64,
) -> Vec<Advisory> {
    let mut advisories = Vec::new();
    for w in tier {
        *request += 1;
        match advisory(w, tracer, *request) {
            Ok(a) => advisories.push(a),
            Err(e) => out.check(Err(format!("{}: {e}", w.name))),
        }
    }
    advisories
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new("advise_large", ctx.seed, ctx.trace);
    let (tier, setup_s) = setup_repeated(|| gen::load(gen::large_tier(ctx.seed)));
    let tier = match tier {
        Ok(tier) => tier,
        Err(e) => {
            out.check(Err(format!("set-up: {e}")));
            return out;
        }
    };
    out.detail("setup_s", setup_s, "s");
    out.inputs(&tier);

    let quiet = Tracer::new(false);
    let tracer = Tracer::new(true);
    let mut request = 0;
    let mut host = Reference::new();
    let (advisories, pass_rates, elapsed_s) = if ctx.trace {
        // Untraced and traced passes alternate: the difference of the
        // two medians is the tracing overhead.
        let (untraced, traced, traced_s) = alternating_passes(ctx.seconds, &quiet, &tracer, |t| {
            pass(&tier, t, &mut out, &mut request)
        });
        let plain = median(&untraced.iter().map(|a| a.advise_ms).collect::<Vec<_>>());
        let with = median(&traced.iter().map(|a| a.advise_ms).collect::<Vec<_>>());
        out.metric("trace.overhead_pct", (with / plain - 1.0) * 100.0, "%");
        (traced, Vec::new(), traced_s)
    } else {
        let mut advisories = Vec::new();
        let mut pass_rates = Vec::new();
        let elapsed = whole_passes(ctx.seconds, || {
            let done = pass(&tier, &quiet, &mut out, &mut request);
            pass_rates.push(cand_per_s(&done));
            advisories.extend(done);
            for _ in 0..REFERENCE_PER_PASS {
                host.sample();
            }
        });
        (advisories, pass_rates, elapsed)
    };

    // Output checks: every ranking against the golden value of the
    // seed's instance and against the ranking at one worker.
    let golden = Golden::load(&Golden::path(&ctx.root, "advise_large"));
    let mut allocations = 0u64;
    let references: Vec<(String, Result<u64, String>)> = tier
        .iter()
        .map(|w| {
            let r = reference(w).map(|(fp, allocs)| {
                allocations += allocs;
                fp
            });
            (w.name.clone(), r.map_err(|e| e.to_string()))
        })
        .collect();
    for a in &advisories {
        out.check(verify_ranking(
            &golden,
            &references,
            ctx.seed,
            &a.warehouse,
            a.fingerprint,
        ));
    }

    // Exact counters over the first pass.
    let first: Vec<&Advisory> = advisories.iter().take(tier.len()).collect();
    let sum = |f: fn(&Advisory) -> u64| first.iter().map(|a| f(a)).sum::<u64>();
    out.counter("candidates.enumerated", sum(|a| a.enumerated));
    out.counter("candidates.evaluated", sum(|a| a.evaluated));
    out.counter("candidates.excluded", sum(|a| a.excluded));
    out.counter("cache.hits", sum(|a| a.hits));
    out.counter("cache.misses", sum(|a| a.misses));
    out.counter("cache.entries", sum(|a| a.entries));
    if probe_installed() {
        out.counter("alloc.rank_p1_allocations", allocations);
    }

    let advise: Vec<f64> = advisories.iter().map(|a| a.advise_ms).collect();
    let (mut advise_p50s, mut rank_p50s) = (Vec::new(), Vec::new());
    for w in &tier {
        let of = |f: fn(&Advisory) -> f64| -> Vec<f64> {
            advisories
                .iter()
                .filter(|a| a.warehouse == w.name)
                .map(f)
                .collect()
        };
        let (advise_p50, rank_p50) = (median(&of(|a| a.advise_ms)), median(&of(|a| a.rank_ms)));
        advise_p50s.push(advise_p50);
        rank_p50s.push(rank_p50);
        out.detail(&format!("{}.advise_ms.p50", w.name), advise_p50, "ms");
        out.detail(&format!("{}.rank_ms.p50", w.name), rank_p50, "ms");
        out.detail(
            &format!("{}.judge_ms.p50", w.name),
            median(&of(|a| a.judge_ms)),
            "ms",
        );
    }
    let (advise_p50, rank_p50) = (geomean(&advise_p50s), geomean(&rank_p50s));
    let rate = median(&pass_rates);
    out.detail("advise_ms.p50", advise_p50, "ms");
    out.detail("advise_ms.p80", quantile(&advise, TAIL), "ms");
    out.detail("advise_ms.n", advise.len() as f64, "count");
    out.detail("rank_ms.p50", rank_p50, "ms");
    out.detail("advise_cand_per_s", rate, "1/s");
    out.detail("passes", pass_rates.len() as f64, "count");
    out.detail("loop_s", elapsed_s, "s");
    out.detail("reference_ms.p50", host.median_ms(), "ms");
    out.detail("reference_ms.n", host.samples() as f64, "count");
    let rss = crate::util::peak_rss_mb("self").unwrap_or(0.0);
    out.detail("peak_rss_mb", rss, "MB");

    if ctx.trace {
        let spans = tracer.spans();
        let judge = durations(&spans, "sim.judge");
        let total: f64 = durations(&spans, "bench.advisory").iter().sum();
        out.metric("sim.judge_ms", median(&judge), "ms");
        out.metric(
            "sim.judge_share",
            judge.iter().sum::<f64>() / total,
            "ratio",
        );
        out.metric(
            "core.analyze_ms",
            median(&durations(&spans, "core.analyze")),
            "ms",
        );
        crate::cache_metrics(&mut out);
        crate::self_time_table(&mut out, &spans, elapsed_s * 1e3);
        let probe_tracer = Tracer::new(true);
        let target = &tier[tier.len() / 2];
        if let Err(e) = layers::probe(target, &probe_tracer, &mut out) {
            out.check(Err(format!("probe on {}: {e}", target.name)));
        }
        crate::service_probe(ctx, target, &mut out);
        crate::fill_from_probe(&mut out);
        tracer.absorb(probe_tracer);
        crate::write_trace(ctx, &tracer);
    } else {
        // Timings at the reference speed; see `speed`. Set-up is timed
        // before the loop, so it stays raw.
        let f = host.factor();
        out.metric("setup_s", setup_s, "s");
        out.metric("op_ms.p50", advise_p50 * f, "ms");
        out.metric("op_ms.tail", quantile(&advise, TAIL) * f, "ms");
        out.metric("stage_ms.p50", rank_p50 * f, "ms");
        out.metric("rate_per_s", rate / f, "1/s");
        out.metric("peak_rss_mb", rss, "MB");
    }
    out
}
