//! Criterion: the per-session evaluation cache and the streaming
//! candidate pipeline.
//!
//! `cache/*` contrasts a cold what-if variation (every candidate
//! re-costed) with a warm one (pure cache hits).
//!
//! `space/*` sweeps the candidate space itself: point vs ranged
//! enumeration, chunked-streaming vs materialized. A counting global
//! allocator records allocation counts and **peak live bytes** around
//! each variant (printed once before the timed runs), so the perf
//! trajectory captures the streaming memory win, not just wall-clock.
//! `engine/run_chunk_*` re-costs the full 168-candidate APB-1-like
//! pipeline at several chunk sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use warlock::AdvisorConfig;
use warlock_bench::alloc_probe::{allocation_profile, CountingAlloc};
use warlock_bench::Fixture;
use warlock_fragment::CandidateSource;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bench_cold_vs_warm_what_if(c: &mut Criterion) {
    let f = Fixture::demo();
    let mut group = c.benchmark_group("cache");
    group.bench_function("what_if_disks_cold", |b| {
        b.iter(|| {
            let session = f.session();
            black_box(session.what_if_disks(64).unwrap())
        })
    });
    group.bench_function("what_if_disks_warm", |b| {
        let session = f.session();
        session.rank().unwrap();
        let _ = session.what_if_disks(64).unwrap(); // populate the variation's entries
        b.iter(|| black_box(session.what_if_disks(64).unwrap()))
    });
    group.finish();
}

/// The candidate-space sweep: point vs ranged, chunked-streaming vs
/// materialized. Before the timed runs, prints one allocation/peak-
/// memory line per variant — the streaming path's peak live bytes must
/// stay flat while the materialized path's grows with the space.
fn bench_candidate_space_sweep(c: &mut Criterion) {
    let f = Fixture::demo();
    const RANGES: &[u64] = &[2, 3, 5, 10];

    // One-shot allocation profile (not timed): enumerate the point and
    // ranged spaces materialized vs streamed.
    for (label, options) in [("point", &[][..]), ("ranged", RANGES)] {
        let (n_mat, allocs_mat, peak_mat) = allocation_profile(|| {
            warlock_fragment::enumerate_candidates_ranged(&f.schema, 4, options).len()
        });
        let (n_stream, allocs_stream, peak_stream) =
            allocation_profile(|| CandidateSource::ranged(&f.schema, 4, options).count());
        assert_eq!(n_mat, n_stream);
        println!(
            "space/alloc-profile {label:<6}: {n_mat:>6} candidates | \
             materialized {allocs_mat:>7} allocs, {peak_mat:>9} peak bytes | \
             streamed {allocs_stream:>7} allocs, {peak_stream:>9} peak bytes"
        );
    }

    // Timed: enumeration alone (materialize vs stream), point vs ranged.
    let mut group = c.benchmark_group("space");
    for (label, options) in [("point", &[][..]), ("ranged", RANGES)] {
        group.bench_function(BenchmarkId::new("materialize", label), |b| {
            b.iter(|| {
                black_box(
                    warlock_fragment::enumerate_candidates_ranged(black_box(&f.schema), 4, options)
                        .len(),
                )
            })
        });
        group.bench_function(BenchmarkId::new("stream", label), |b| {
            b.iter(|| black_box(CandidateSource::ranged(black_box(&f.schema), 4, options).count()))
        });
    }
    group.finish();

    // Timed: the full pipeline under different chunk sizes (identical
    // reports; the knob trades memory against batching).
    let mut group = c.benchmark_group("engine");
    for chunk in [1usize, 16, 256] {
        let mut session = f.session_with(AdvisorConfig {
            chunk_size: chunk,
            ..Default::default()
        });
        group.bench_function(BenchmarkId::new("run_chunk", chunk), |b| {
            b.iter(|| {
                // Drop the memo so every iteration re-costs all 168
                // candidates — this measures evaluation, not the cache.
                session.invalidate();
                black_box(session.rank().unwrap().ranked.len())
            })
        });
    }
    group.finish();
}

/// Bounded-runtime criterion config (see `advisor.rs`).
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_cold_vs_warm_what_if, bench_candidate_space_sweep
}
criterion_main!(benches);
