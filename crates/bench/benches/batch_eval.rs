//! Criterion: scalar vs batched candidate costing over one sweep of the
//! APB-1-like candidate space, the `CostTables` precompute itself, and
//! the Yao page-hit evaluation behind the batched evaluator's Yao stage.
//!
//! The bench binary installs the counting allocator and prints a
//! one-shot allocation profile (allocations per candidate, peak extra
//! live bytes) for both paths before the timed runs, so the steady-state
//! allocation story of the hot path is visible next to the throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use warlock_bench::alloc_probe::{self, CountingAlloc};
use warlock_bench::Fixture;
use warlock_cost::{
    evaluate_chunk_kernel, yao_page_hits, ChunkBatch, CostModel, CostTables, KernelBackend,
    PerQueryDetail,
};
use warlock_fragment::{enumerate_candidates_ranged, FragmentLayout, Fragmentation, LayoutScratch};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Chunk width of the batched sweep — matches the engine's evaluation
/// group size.
const GROUP: usize = 64;

struct Sweep {
    fixture: Fixture,
    candidates: Vec<Fragmentation>,
}

fn sweep() -> Sweep {
    let fixture = Fixture::demo();
    let candidates = enumerate_candidates_ranged(&fixture.schema, 2, &[3])
        .into_iter()
        .filter(|f| f.num_fragments(&fixture.schema) <= u128::from(u64::MAX))
        .collect();
    Sweep {
        fixture,
        candidates,
    }
}

fn model_of(s: &Sweep) -> CostModel<'_> {
    CostModel::new(
        &s.fixture.schema,
        &s.fixture.system,
        &s.fixture.scheme,
        &s.fixture.mix,
    )
}

/// The pre-batching hot path: one `FragmentLayout` allocation and one
/// scalar `evaluate_layout` per candidate.
fn scalar_sweep(s: &Sweep, model: &CostModel<'_>) -> f64 {
    let mut sink = 0.0;
    for frag in &s.candidates {
        let layout = FragmentLayout::new(&s.fixture.schema, frag.clone(), model.fact_index());
        sink += model.evaluate_layout(&layout).io_cost_ms;
    }
    sink
}

/// The batched hot path: table-driven costing in chunks of
/// [`GROUP`], layouts built in a reusable scratch arena.
fn batched_sweep(
    s: &Sweep,
    model: &CostModel<'_>,
    tables: &CostTables,
    scratch: &mut LayoutScratch,
    batch: &mut ChunkBatch,
) -> f64 {
    let mut sink = 0.0;
    for group in s.candidates.chunks(GROUP) {
        for frag in group {
            let layout = FragmentLayout::new_in(
                scratch,
                &s.fixture.schema,
                frag.clone(),
                model.fact_index(),
            );
            batch.push(layout, scratch);
        }
        for cost in
            evaluate_chunk_kernel(tables, batch, PerQueryDetail::Omit, KernelBackend::Scalar)
        {
            sink += cost.io_cost_ms;
        }
    }
    sink
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let unit = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}

/// Candidates per synthetic Yao block — a few engine chunks' worth.
const YAO_N: usize = 4096;

/// Synthetic `yao_page_hits` arguments mixing the exact-Yao regime
/// (rows divisible by pages) with the Cardenas fallback, like real
/// fragment geometry does.
fn yao_fixture() -> Vec<(u64, u64, f64)> {
    let mut state = 0x5eed_cafe_f00d_0001u64;
    (0..YAO_N)
        .map(|_| {
            let rows = 1 + splitmix(&mut state) % 1_000_000;
            let pages = 1 + splitmix(&mut state) % 4096;
            (rows, pages, uniform(&mut state, 0.0, rows as f64))
        })
        .collect()
}

/// One pass of the Yao stage's page-hit evaluation over the fixture —
/// the work every memo miss costs.
fn yao_stage(args: &[(u64, u64, f64)]) -> f64 {
    args.iter()
        .map(|&(rows, pages, k)| yao_page_hits(rows, pages, k))
        .sum()
}

fn report_allocations(s: &Sweep) {
    if !alloc_probe::probe_installed() {
        return;
    }
    let model = model_of(s);
    let n = s.candidates.len() as f64;
    let (_, allocs, peak) = alloc_probe::allocation_profile(|| black_box(scalar_sweep(s, &model)));
    eprintln!(
        "batch_eval: scalar sweep   {:.1} allocs/candidate, peak {} B",
        allocs as f64 / n,
        peak
    );
    let tables = CostTables::build(&model, &[3]);
    let mut scratch = LayoutScratch::new();
    let mut batch = ChunkBatch::new();
    // Warm the arenas and the Yao memo so the profile shows steady state.
    black_box(batched_sweep(s, &model, &tables, &mut scratch, &mut batch));
    let (_, allocs, peak) = alloc_probe::allocation_profile(|| {
        black_box(batched_sweep(s, &model, &tables, &mut scratch, &mut batch))
    });
    eprintln!(
        "batch_eval: batched sweep  {:.1} allocs/candidate, peak {} B",
        allocs as f64 / n,
        peak
    );
}

fn bench_sweeps(c: &mut Criterion) {
    let s = sweep();
    report_allocations(&s);

    let model = model_of(&s);
    c.bench_function("eval/scalar_sweep", |b| {
        b.iter(|| black_box(scalar_sweep(&s, &model)))
    });

    c.bench_function("eval/tables_build", |b| {
        b.iter(|| black_box(CostTables::build(&model, &[3])))
    });

    let tables = CostTables::build(&model, &[3]);
    let mut scratch = LayoutScratch::new();
    let mut batch = ChunkBatch::new();
    c.bench_function("eval/batched_sweep", |b| {
        b.iter(|| black_box(batched_sweep(&s, &model, &tables, &mut scratch, &mut batch)))
    });

    let yao = yao_fixture();
    c.bench_function("eval/yao_stage", |b| b.iter(|| black_box(yao_stage(&yao))));
}

/// Bounded-runtime criterion config: benchmark sweeps stay meaningful but
/// `cargo bench --workspace` completes in minutes, not hours.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_sweeps
}
criterion_main!(benches);
