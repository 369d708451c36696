//! The retired `AdvisorConfig::parallelism` field has no effect:
//! sessions configured with any value must produce `AdvisorReport`s
//! bit-identical (ranking order, excluded set, per-query costs) to a
//! `parallelism = 1` session, on arbitrary valid inputs — and the
//! per-session evaluation cache must never change a result either,
//! only skip work.

use proptest::prelude::*;

use warlock::prelude::*;
use warlock_schema::{random_schema, RandomSchemaConfig};
use warlock_workload::{GeneratorConfig, WorkloadGenerator};

fn session_for(seed: u64, parallelism: usize) -> Warlock {
    let schema = random_schema(seed, RandomSchemaConfig::default()).unwrap();
    let mix = WorkloadGenerator::new(
        seed.wrapping_mul(0x9e37_79b9),
        GeneratorConfig {
            num_classes: 5,
            max_dimensionality: 3,
            range_probability: 0.25,
        },
    )
    .mix(&schema);
    let disks = 1 + (seed % 24) as u32;
    Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(disks))
        .mix(mix)
        .config(AdvisorConfig {
            parallelism,
            ..Default::default()
        })
        .build()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_run_is_bit_identical_to_serial(
        seed in 0u64..4096,
        parallelism in 0usize..9,
    ) {
        let serial = session_for(seed, 1).run().unwrap();
        let other = session_for(seed, parallelism).run().unwrap();
        // Full structural equality: same ranking order, same excluded
        // candidates with the same reasons, same per-query costs.
        prop_assert_eq!(&serial, &other);
        // And bit-identical floats, not merely approximately equal.
        for (a, b) in serial.ranked.iter().zip(&other.ranked) {
            prop_assert_eq!(a.cost.response_ms.to_bits(), b.cost.response_ms.to_bits());
            prop_assert_eq!(a.cost.io_cost_ms.to_bits(), b.cost.io_cost_ms.to_bits());
            for (qa, qb) in a.cost.per_query.iter().zip(&b.cost.per_query) {
                prop_assert_eq!(qa.response_ms.to_bits(), qb.response_ms.to_bits());
                prop_assert_eq!(qa.busy_ms.to_bits(), qb.busy_ms.to_bits());
            }
        }
    }

    #[test]
    fn what_if_variations_agree_across_worker_counts(
        seed in 0u64..1024,
        parallelism in 0usize..7,
    ) {
        let serial = session_for(seed, 1);
        let other = session_for(seed, parallelism);
        let (sr, sd) = serial.what_if_disks(32).unwrap();
        let (pr, pd) = other.what_if_disks(32).unwrap();
        prop_assert_eq!(sr, pr);
        prop_assert_eq!(sd, pd);
        let (sr, _) = serial.what_if_fixed_prefetch(8).unwrap();
        let (pr, _) = other.what_if_fixed_prefetch(8).unwrap();
        prop_assert_eq!(sr, pr);
    }

    #[test]
    fn warm_cache_reruns_are_identical_and_skip_work(
        seed in 0u64..1024,
    ) {
        let s = session_for(seed, 0);
        let cold = s.rank().unwrap().clone();
        let (first, _) = s.what_if_disks(48).unwrap();
        let misses_after_first = s.cache_stats().misses;
        let (second, _) = s.what_if_disks(48).unwrap();
        prop_assert_eq!(&first, &second);
        // A warm re-run must not re-cost anything.
        prop_assert_eq!(s.cache_stats().misses, misses_after_first);
        // The warm session still reproduces its own baseline exactly.
        prop_assert_eq!(&cold, &s.run().unwrap());
    }
}
