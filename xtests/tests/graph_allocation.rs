//! Property tests for the co-access graph partitioning backend.
//!
//! The partitioner promises three things no matter what workload it is
//! handed: every fragment lands on exactly one in-bounds disk, equal
//! inputs yield byte-identical allocations (under any value of the
//! retired `parallelism` field), and a graph without co-access signal
//! degrades to the paper's greedy size-based placement.

use proptest::prelude::*;

use warlock::prelude::*;
use warlock_alloc::{
    greedy_by_size, partition_coaccess, AllocationPolicy, AllocationScheme, CoAccessGraph,
};

/// A random co-access workload: fragment sizes plus query groups with
/// joint heats, ready to feed the graph builder.
#[derive(Debug, Clone)]
struct ArbWorkload {
    sizes: Vec<u64>,
    groups: Vec<(Vec<u32>, f64)>,
}

fn arb_workload() -> impl Strategy<Value = ArbWorkload> {
    proptest::collection::vec(1u64..5_000, 2..120).prop_flat_map(|sizes| {
        let n = sizes.len() as u32;
        let group = (
            proptest::collection::vec(0..n, 2..8),
            0.01f64..10.0, // joint heat
        );
        proptest::collection::vec(group, 0..24).prop_map(move |groups| ArbWorkload {
            sizes: sizes.clone(),
            groups,
        })
    })
}

fn build_graph(w: &ArbWorkload) -> CoAccessGraph {
    let mut b = CoAccessGraph::builder(w.sizes.clone());
    for (frags, heat) in &w.groups {
        b.add_group(frags, *heat);
        for &f in frags {
            b.add_heat(f, *heat);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn covers_every_fragment_exactly_once_within_bounds(
        w in arb_workload(),
        disks in 1u32..16,
        seed in any::<u64>(),
    ) {
        let part = partition_coaccess(&build_graph(&w), disks, seed);
        prop_assert_eq!(part.num_fragments(), w.sizes.len());
        prop_assert!(part.placements().iter().all(|&d| d < disks));
        // The per-disk counts re-derive the placements: no fragment is
        // counted twice or dropped.
        let total: u32 = part.fragment_counts().iter().sum();
        prop_assert_eq!(total as usize, w.sizes.len());
        let bytes: u64 = part.occupancy().iter().sum();
        prop_assert_eq!(bytes, w.sizes.iter().sum::<u64>());
    }

    #[test]
    fn same_inputs_yield_byte_identical_allocations(
        w in arb_workload(),
        disks in 1u32..16,
        seed in any::<u64>(),
    ) {
        let a = partition_coaccess(&build_graph(&w), disks, seed);
        let b = partition_coaccess(&build_graph(&w), disks, seed);
        prop_assert_eq!(a.placements(), b.placements());
        prop_assert_eq!(a.scheme(), b.scheme());
    }

    #[test]
    fn edgeless_graphs_degrade_to_greedy(
        sizes in proptest::collection::vec(1u64..5_000, 1..80),
        disks in 1u32..16,
        seed in any::<u64>(),
    ) {
        // No groups at all: the builder emits zero edges.
        let g = CoAccessGraph::builder(sizes.clone()).build();
        prop_assert_eq!(g.num_edges(), 0);
        let part = partition_coaccess(&g, disks, seed);
        prop_assert_eq!(part.scheme(), AllocationScheme::GreedySize);
        let greedy = greedy_by_size(sizes, disks);
        prop_assert_eq!(part.placements(), greedy.placements());
    }
}

/// `parallelism` is a retired execution knob, never an advice knob:
/// the graph allocation must be bit-identical whatever value a session
/// is configured with.
#[test]
fn graph_allocation_is_identical_at_any_worker_count() {
    let plan_at = |parallelism: usize| {
        let session = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(AdvisorConfig {
                allocation_policy: AllocationPolicy::GraphPartition { seed: 42 },
                parallelism,
                ..Default::default()
            })
            .build()
            .unwrap();
        session.plan_allocation(1).unwrap()
    };
    let serial = plan_at(1);
    assert_eq!(serial.allocation.scheme(), AllocationScheme::GraphPartition);
    for parallelism in [0, 2, 4, 8] {
        let other = plan_at(parallelism);
        assert_eq!(
            serial.allocation.placements(),
            other.allocation.placements(),
            "allocation diverged at parallelism = {parallelism}"
        );
        assert_eq!(serial.label, other.label);
    }
}
