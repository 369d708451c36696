//! Property tests for the scenario generator: seed determinism across
//! the parameter grid, and every generated scenario materializing into
//! a session that completes a full rank without error.

use proptest::prelude::*;

use warlock_scenarios::{generate_fleet, ScenarioGenerator, ScenarioSpace};

/// A sampled grid of scenario spaces: the knobs a caller is most likely
/// to turn, kept small enough to rank quickly.
fn arb_space() -> impl Strategy<Value = ScenarioSpace> {
    (
        proptest::sample::select(vec![vec![4u32, 8], vec![16u32], vec![8u32, 32, 64]]),
        proptest::sample::select(vec![(100_000u64, 500_000u64), (1_000_000, 20_000_000)]),
        proptest::sample::select(vec![(2usize, 4usize), (4, 8)]),
        proptest::sample::select(vec![0.0f64, 0.25, 1.0]),
    )
        .prop_map(
            |(disks, (min_rows, max_rows), mix_classes, ranged)| ScenarioSpace {
                disks,
                min_fact_rows: min_rows,
                max_fact_rows: max_rows,
                mix_classes,
                ranged_probability: ranged,
                graph_probability: 0.0,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ byte-identical scenario set, for any seed and any
    /// point of the sampled space grid.
    #[test]
    fn generator_is_seed_deterministic(
        seed in any::<u64>(),
        space in arb_space(),
    ) {
        let render = |fleet: &[warlock_scenarios::Scenario]| -> String {
            fleet
                .iter()
                .map(|s| format!("# {}\n{}", s.label(), s.config_string()))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = generate_fleet(seed, 12, &space);
        let b = generate_fleet(seed, 12, &space);
        prop_assert_eq!(render(&a), render(&b));
        // A different seed must not reproduce the same set.
        let c = generate_fleet(seed.wrapping_add(1), 12, &space);
        prop_assert_ne!(render(&a), render(&c));
    }

    /// Every generated scenario validates and completes a rank without
    /// error, across seeds and the sampled space grid.
    #[test]
    fn every_scenario_ranks_without_error(
        seed in any::<u64>(),
        space in arb_space(),
        id in 0u32..144,
    ) {
        let generator = ScenarioGenerator::new(seed, space).unwrap();
        let scenario = generator.scenario(id);
        let label = scenario.label();
        prop_assert!(
            scenario.parsed.mix.validate(&scenario.parsed.schema).is_ok(),
            "{}: mix does not validate", label
        );
        let session = scenario.session().map_err(|e| {
            proptest::TestCaseError::fail(format!("{label}: session: {e}"))
        })?;
        let ranking = session.rank().map_err(|e| {
            proptest::TestCaseError::fail(format!("{label}: rank: {e}"))
        })?;
        prop_assert!(!ranking.ranked.is_empty(), "{}: empty ranking", label);
        prop_assert!(session.candidate_space_size() > 0);
    }
}
