//! Per-layer probes for the traced run.
//!
//! The advisor has no internal instrumentation, so the traced run
//! measures its layers from outside: it replays the stages of one cold
//! ranking through each crate's public functions on one of the
//! workload's own warehouses (enumeration and structural pre-exclusion,
//! layout and thresholds, cost tables, the batched kernel, the scalar
//! top-N refill), times the full cold ranking at one worker and at all
//! cores, and times the single calls of the other layers (config parse,
//! bitmap derivation, allocation per policy, the simulator judge, a
//! first and a repeated what-if, observation with and without a
//! re-advise). Every probe runs inside a span of the run's tracer.

use std::time::Instant;

use warlock::alloc::AllocationPolicy;
use warlock::bitmap::BitmapScheme;
use warlock::config_file::{parse_config, render_config};
use warlock::cost::{
    evaluate_chunk_kernel, ChunkBatch, CostModel, CostTables, KernelBackend, PerQueryDetail,
};
use warlock::fragment::{CandidateSource, FragmentLayout, LayoutScratch};
use warlock::{ClassObservation, Warlock, WarlockError};
use warlock_bench::alloc_probe::{allocation_profile, probe_installed};

use crate::gen::Warehouse;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, ms_since};

/// Request id of every probe span.
pub const PROBE: u64 = u64::MAX;

/// Candidates per costing call, as in the engine's worker groups.
const GROUP: usize = 64;

fn session(w: &Warehouse, parallelism: usize) -> Result<Warlock, WarlockError> {
    let mut parsed = w.parsed.clone();
    parsed.advisor.parallelism = parallelism;
    Warlock::from_parsed(parsed)
}

/// Median of `n` timed runs of `f`, in ms.
fn timed<R>(tracer: &Tracer, name: &'static str, n: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(tracer.span(name, PROBE, &mut f));
            ms_since(start)
        })
        .collect();
    median(&samples)
}

/// Runs every layer probe on `w` and records the per-layer metrics.
pub fn probe(w: &Warehouse, tracer: &Tracer, out: &mut Outcome) -> Result<(), WarlockError> {
    let parsed = &w.parsed;
    let schema = &parsed.schema;
    let advisor = &parsed.advisor;

    // setup: config parse and bitmap derivation.
    let text = render_config(parsed);
    let parse_ms = timed(tracer, "config.parse", 5, || {
        parse_config(&text).expect("rendered configs parse")
    });
    out.metric("config.parse_ms", parse_ms, "ms");
    let derive_ms = timed(tracer, "bitmap.derive", 5, || {
        BitmapScheme::derive(schema, &parsed.mix, advisor.scheme)
    });
    out.metric("bitmap.derive_ms", derive_ms, "ms");

    // fragment: enumeration with the structural pre-check, then layout
    // and thresholds on the survivors.
    let reference = session(w, 1)?;
    let ctx = reference.threshold_context();
    let max_fragments = u128::from(advisor.thresholds.max_fragments);
    let start = Instant::now();
    let (kept, pre_excluded) = tracer.span("fragment.enumerate", PROBE, || {
        let mut kept = Vec::new();
        let mut pre_excluded = 0u64;
        for f in CandidateSource::ranged(schema, advisor.max_dimensionality, &advisor.range_options)
        {
            if f.num_fragments(schema) > max_fragments {
                pre_excluded += 1;
            } else {
                kept.push(f);
            }
        }
        (kept, pre_excluded)
    });
    let enumerate_ms = ms_since(start);
    let candidates = kept.len() as u64 + pre_excluded;

    let mut scratch = LayoutScratch::new();
    let start = Instant::now();
    let survivors = tracer.span("fragment.layout", PROBE, || {
        let mut survivors = Vec::new();
        for f in &kept {
            let layout =
                FragmentLayout::new_in(&mut scratch, schema, f.clone(), advisor.fact_index);
            if advisor.thresholds.check(&layout, ctx).is_ok() {
                survivors.push(layout.recycle(&mut scratch));
            } else {
                let _ = layout.recycle(&mut scratch);
            }
        }
        survivors
    });
    let layout_ms = ms_since(start);
    let threshold_excluded = kept.len() as u64 - survivors.len() as u64;
    out.metric("fragment.enumerate_ms", enumerate_ms, "ms");
    out.metric(
        "fragment.layout_us_per_cand",
        layout_ms * 1e3 / kept.len().max(1) as f64,
        "us",
    );
    out.metric("fragment.candidates", candidates as f64, "count");
    out.metric("fragment.pre_excluded", pre_excluded as f64, "count");
    out.metric(
        "fragment.threshold_excluded",
        threshold_excluded as f64,
        "count",
    );

    // cost: tables, the batched kernel over 64-candidate groups, and the
    // scalar evaluation of the top-N refill.
    let scheme = reference.scheme().clone();
    let model = CostModel::new(schema, &parsed.system, &scheme, &parsed.mix)
        .with_fact_index(advisor.fact_index)
        .map_err(WarlockError::Config)?;
    let start = Instant::now();
    let tables = tracer.span("cost.tables", PROBE, || {
        CostTables::build(&model, &advisor.range_options)
    });
    let tables_ms = ms_since(start);
    let backend = KernelBackend::resolve(advisor.kernel);
    let mut batch = ChunkBatch::new();
    let mut eval_ms = 0.0;
    tracer.span("cost.eval", PROBE, || {
        for group in survivors.chunks(GROUP) {
            for f in group {
                let layout =
                    FragmentLayout::new_in(&mut scratch, schema, f.clone(), advisor.fact_index);
                batch.push(layout, &mut scratch);
            }
            let start = Instant::now();
            std::hint::black_box(evaluate_chunk_kernel(
                &tables,
                &mut batch,
                PerQueryDetail::Omit,
                backend,
            ));
            eval_ms += ms_since(start);
            batch.clear();
        }
    });
    out.metric("cost.tables_ms", tables_ms, "ms");
    out.metric(
        "cost.eval_us_per_cand",
        eval_ms * 1e3 / survivors.len().max(1) as f64,
        "us",
    );

    // core: cold rankings at one worker (with the allocation probe) and
    // at all cores, each in a fresh session.
    let mut rank_p1 = Vec::new();
    let mut rank_pn = Vec::new();
    let mut top = Vec::new();
    for i in 0..3 {
        let serial = session(w, 1)?;
        let start = Instant::now();
        let (report, allocations, peak) = if i == 0 {
            tracer.span("core.rank_p1", PROBE, || {
                allocation_profile(|| serial.run())
            })
        } else {
            (tracer.span("core.rank_p1", PROBE, || serial.run()), 0, 0)
        };
        rank_p1.push(ms_since(start));
        let report = report?;
        if i == 0 {
            if probe_installed() {
                out.metric(
                    "mem.allocs_per_cand",
                    allocations as f64 / report.enumerated.max(1) as f64,
                    "count",
                );
                out.metric("mem.rank_peak_bytes", peak as f64, "bytes");
            }
            top = report
                .ranked
                .iter()
                .map(|r| r.cost.fragmentation.clone())
                .collect();
        }
        let parallel = session(w, 0)?;
        let start = Instant::now();
        tracer.span("core.rank", PROBE, || parallel.run())?;
        rank_pn.push(ms_since(start));
    }
    let scalar_ms = timed(tracer, "cost.scalar_eval", 1, || {
        for f in &top {
            std::hint::black_box(model.evaluate(f));
        }
    });
    out.metric(
        "cost.scalar_eval_us",
        scalar_ms * 1e3 / top.len().max(1) as f64,
        "us",
    );
    let rank_p1_ms = median(&rank_p1);
    let stages = enumerate_ms + layout_ms + tables_ms + eval_ms + scalar_ms;
    out.metric("core.rank_self_ms", (rank_p1_ms - stages).max(0.0), "ms");
    out.metric(
        "core.parallel_speedup",
        rank_p1_ms / median(&rank_pn),
        "ratio",
    );
    out.detail("core.rank_p1_ms", rank_p1_ms, "ms");
    out.detail("core.rank_pn_ms", median(&rank_pn), "ms");

    // A cold advisory on the probe warehouse: analyze, the allocation
    // policies, the simulator judge, and a first and repeated what-if.
    let advised = session(w, 0)?;
    let start = Instant::now();
    tracer.span("core.rank", PROBE, || advised.rank().map(|_| ()))?;
    let rank_ms = ms_since(start);
    let analyze_ms = timed(tracer, "core.analyze", 3, || {
        advised.analyze(1).expect("rank 1 exists")
    });
    let mut plan_total = 0.0;
    for (name, policy) in [
        ("alloc.plan_ms.round_robin", AllocationPolicy::RoundRobin),
        ("alloc.plan_ms.greedy", AllocationPolicy::GreedySize),
        (
            "alloc.plan_ms.graph",
            AllocationPolicy::GraphPartition { seed: 0 },
        ),
    ] {
        let mut config = advised.config().clone();
        config.allocation_policy = policy;
        let mut planner = advised.clone();
        planner.set_config(config)?;
        let ms = timed(tracer, "alloc.plan", 3, || {
            planner.plan_allocation(1).expect("rank 1 exists")
        });
        plan_total += ms;
        out.metric(name, ms, "ms");
    }
    let judge_ms = timed(tracer, "sim.judge", 1, || {
        advised.recommend_policy().expect("rank 1 exists")
    });
    out.detail("probe.analyze_ms", analyze_ms, "ms");
    out.detail("probe.judge_ms", judge_ms, "ms");
    out.detail(
        "probe.judge_share",
        judge_ms / (rank_ms + analyze_ms + plan_total / 3.0 + judge_ms),
        "ratio",
    );
    let disks = (advised.system().num_disks * 2).min(256);
    let first = timed(tracer, "core.whatif", 1, || {
        advised.what_if_disks(disks).expect("what-if")
    });
    let revisit = timed(tracer, "core.whatif", 1, || {
        advised.what_if_disks(disks).expect("what-if")
    });
    out.detail("probe.whatif_first_ms", first, "ms");
    out.detail("probe.whatif_revisit_ms", revisit, "ms");

    // workload: an observation that matches the configured mix (no
    // drift), then traffic concentrated on the lightest class until the
    // detector fires one re-advise.
    let mut observer = session(w, 0)?;
    observer.set_auto_advise(true)?;
    observer.rank()?;
    let shares: Vec<(String, f64)> = observer
        .mix()
        .classes()
        .iter()
        .map(|c| (c.class.name().to_owned(), c.share))
        .collect();
    let steady: Vec<ClassObservation> = shares
        .iter()
        .map(|(name, share)| {
            ClassObservation::new(name.clone(), (share * 1000.0).round().max(1.0) as u64)
        })
        .collect();
    let start = Instant::now();
    tracer.span("workload.observe", PROBE, || observer.observe(&steady))?;
    out.detail("probe.observe_ms", ms_since(start), "ms");
    if let Some((lightest, _)) = shares.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        let skewed = vec![ClassObservation::new(lightest.clone(), 4000)];
        let misses = observer.cache_stats().misses;
        let start = Instant::now();
        let status = tracer.span("workload.readvise", PROBE, || observer.observe(&skewed))?;
        if status.events_emitted == 1 {
            out.detail("probe.readvise_ms", ms_since(start), "ms");
            out.detail(
                "probe.readvise_recosted",
                (observer.cache_stats().misses - misses) as f64,
                "count",
            );
        }
    }
    Ok(())
}
