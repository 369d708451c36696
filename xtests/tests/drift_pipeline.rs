//! The resident optimizer end-to-end: seeded drift trajectories
//! replayed through `Warlock::observe` must fire the auto re-advise
//! exactly once past hysteresis, the warm re-rank must be bit-identical
//! to a cold advisor at the same observed mix, and the cache statistics
//! must prove the re-advise recombined cached class costs instead of
//! re-costing. Plus the property side: drift scoring is a pure function
//! of the ordered observation stream (any batch split), and the
//! hysteresis band cannot flap.

use proptest::prelude::*;
use warlock::prelude::*;
use warlock_scenarios::{generate_fleet, MixShape, ScenarioSpace};
use warlock_workload::{mix_divergence, ClassObservation, DriftDetector, DriftState, StatsWindow};

/// Every drifting scenario of the default fleet, replayed through an
/// auto-advising session: exactly one recommendation change, fired
/// strictly past the first batch (hysteresis needs the trajectory to
/// build up), with the adopted ranking bit-identical to a cold session
/// ranked at the same observed mix.
#[test]
fn seeded_trajectories_fire_exactly_one_warm_readvise() {
    let fleet = generate_fleet(42, 12, &ScenarioSpace::default());
    let drifting: Vec<_> = fleet
        .iter()
        .filter(|s| s.class.mix == MixShape::Drifting)
        .collect();
    assert_eq!(drifting.len(), 3, "mix shape cycles fastest in the grid");

    for scenario in drifting {
        let mut session = scenario.session().expect("scenario must build");
        session.set_auto_advise(true).unwrap();
        session.rank().unwrap();
        let cold_misses = session.cache_stats().misses;

        let mut fired_at = None;
        for (i, batch) in scenario.drift_trajectory().iter().enumerate() {
            let status = session.observe(batch).unwrap();
            if status.events_emitted > 0 && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        let fired_at = fired_at.unwrap_or_else(|| panic!("{} never fired", scenario.label()));
        assert!(
            fired_at > 0,
            "{}: fired on the very first batch",
            scenario.label()
        );
        let events = session.advice_events(0);
        assert_eq!(
            events.len(),
            1,
            "{}: re-advised more than once",
            scenario.label()
        );

        // The warm re-advise recombined cached class costs: the miss
        // counter must not have moved (the trajectory keeps every
        // configured class alive, so the structure fingerprints all
        // hit), and the hit rate is strictly above the cold rank's.
        let stats = session.cache_stats();
        assert_eq!(
            stats.misses,
            cold_misses,
            "{}: re-advise re-costed",
            scenario.label()
        );
        assert!(
            stats.hits > 0,
            "{}: re-advise never hit the cache",
            scenario.label()
        );

        // Bit-identical to a cold advisor at the same observed mix.
        let adopted = session.mix().clone();
        let mut cold = scenario.session().unwrap();
        cold.set_mix(adopted).unwrap();
        let cold_report = cold.rank().unwrap();
        let warm_report = session.ranking().unwrap();
        assert_eq!(warm_report.ranked.len(), cold_report.ranked.len());
        for (w, c) in warm_report.ranked.iter().zip(cold_report.ranked.iter()) {
            assert_eq!(w.label, c.label, "{}", scenario.label());
            assert_eq!(
                w.cost.response_ms.to_bits(),
                c.cost.response_ms.to_bits(),
                "{}: warm re-rank diverged from cold at {}",
                scenario.label(),
                w.label
            );
        }
    }
}

/// The typed empty-mix error surfaces through the drift path: traffic
/// made only of classes the configuration does not define pushes the
/// score up but cannot be costed, so the auto re-advise fails loudly
/// instead of silently keeping the stale ranking.
#[test]
fn unknown_only_traffic_surfaces_the_typed_empty_mix_error() {
    let scenario = &generate_fleet(42, 4, &ScenarioSpace::default())[3];
    assert_eq!(scenario.class.mix, MixShape::Drifting);
    let mut session = scenario.session().unwrap();
    session.set_auto_advise(true).unwrap();
    session.rank().unwrap();

    let alien = vec![ClassObservation::new("not_a_configured_class", 50_000)];
    let mut last = None;
    for _ in 0..16 {
        match session.observe(&alien) {
            Ok(status) => last = Some(status),
            Err(e) => {
                assert!(
                    matches!(e, WarlockError::Workload(_)),
                    "expected the typed workload error, got {e:?}"
                );
                return;
            }
        }
    }
    panic!("never errored; last status {last:?}");
}

fn observation_stream() -> impl Strategy<Value = Vec<ClassObservation>> {
    proptest::collection::vec(
        (0usize..6, 1u64..500, proptest::option::of(0.1f64..50.0)).prop_map(
            |(class, count, latency)| {
                let obs = ClassObservation::new(format!("q{class:02}"), count);
                match latency {
                    Some(ms) => obs.with_latency_ms(ms),
                    None => obs,
                }
            },
        ),
        1..60,
    )
}

/// Splits `stream` into batches at the given cut points and replays
/// them through a fresh window, collecting the score after each
/// observation boundary shared by every split: the final state.
fn replay(stream: &[ClassObservation], cuts: &[usize], half_life: f64) -> (StatsWindow, Vec<u64>) {
    let mut window = StatsWindow::new(half_life);
    let mut sizes = Vec::new();
    let mut start = 0;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut > start {
            window.ingest(&stream[start..cut]);
            sizes.push((cut - start) as u64);
            start = cut;
        }
    }
    if start < stream.len() {
        window.ingest(&stream[start..]);
        sizes.push((stream.len() - start) as u64);
    }
    (window, sizes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decayed window — and therefore every drift score — is a
    /// pure function of the ordered observation stream: any batch
    /// split produces bit-identical weights.
    #[test]
    fn window_state_is_invariant_under_batch_splits(
        stream in observation_stream(),
        cuts in proptest::collection::vec(0usize..60, 0..8),
        half_life in 10.0f64..10_000.0,
    ) {
        let mut sorted = cuts.clone();
        sorted.sort_unstable();
        let (one_shot, _) = replay(&stream, &[], half_life);
        let (split, _) = replay(&stream, &sorted, half_life);
        prop_assert_eq!(one_shot.observed_queries(), split.observed_queries());
        prop_assert_eq!(one_shot.len(), split.len());
        for (class, weight) in one_shot.weights() {
            prop_assert!(
                weight.to_bits() == split.weight_of(class).to_bits(),
                "weight of {} diverged under the split",
                class
            );
        }
        for (class, _) in one_shot.weights() {
            match (one_shot.mean_latency_ms(class), split.mean_latency_ms(class)) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => prop_assert!(false, "latency of {} diverged: {:?} vs {:?}", class, a, b),
            }
        }
    }

    /// Detector determinism: the transition sequence is a pure function
    /// of the score sequence, and replaying any prefix lands in the
    /// same state.
    #[test]
    fn detector_transitions_are_deterministic(
        scores in proptest::collection::vec(0.0f64..1.0, 1..50),
        enter in 0.05f64..0.9,
        band in 0.0f64..0.5,
    ) {
        let exit = enter * (1.0 - band);
        let mut a = DriftDetector::new(enter, exit);
        let mut b = DriftDetector::new(enter, exit);
        for &s in &scores {
            let ta = a.update(s);
            let tb = b.update(s);
            prop_assert_eq!(ta, tb);
        }
        prop_assert_eq!(a.state(), b.state());
    }

    /// Hysteresis never flaps: a score pinned exactly on a threshold
    /// produces at most one transition no matter how often it repeats —
    /// entering takes `score > enter` strictly, exiting takes
    /// `score < exit` strictly.
    #[test]
    fn detector_does_not_flap_on_exact_thresholds(
        enter in 0.05f64..0.9,
        band in 0.0f64..0.5,
        repeats in 1usize..30,
    ) {
        let exit = enter * (1.0 - band);
        let mut detector = DriftDetector::new(enter, exit);

        // Sitting exactly on the enter threshold never enters…
        for _ in 0..repeats {
            prop_assert_eq!(detector.update(enter), None);
            prop_assert_eq!(detector.state(), DriftState::Stable);
        }
        // …strictly above enters exactly once…
        let mut transitions = 0;
        for _ in 0..repeats {
            if detector.update(enter + 1e-6).is_some() {
                transitions += 1;
            }
        }
        prop_assert_eq!(transitions, 1);
        prop_assert_eq!(detector.state(), DriftState::Drifting);
        // …and sitting exactly on the exit threshold never exits.
        for _ in 0..repeats {
            prop_assert_eq!(detector.update(exit), None);
            prop_assert_eq!(detector.state(), DriftState::Drifting);
        }
        let mut exits = 0;
        for _ in 0..repeats {
            if detector.update(exit - 1e-6).is_some() {
                exits += 1;
            }
        }
        prop_assert_eq!(exits, if exit > 0.0 { 1 } else { 0 });
    }

    /// The drift score agrees with a matching mix: traffic distributed
    /// exactly like the configured weights scores (near) zero. The
    /// half-life dwarfs the batch so the per-observation decay cannot
    /// skew the within-batch ordering.
    #[test]
    fn matching_traffic_scores_low(
        seed_class in 0usize..36,
        scale in 10u64..1000,
    ) {
        let fleet = generate_fleet(42, 36, &ScenarioSpace::default());
        let scenario = &fleet[seed_class];
        let mix = &scenario.parsed.mix;
        let batch: Vec<ClassObservation> = mix
            .iter()
            .map(|(class, share)| {
                ClassObservation::new(
                    class.name().to_owned(),
                    ((share * scale as f64 * 100.0).round() as u64).max(1),
                )
            })
            .collect();
        let mut window = StatsWindow::new(1e12);
        window.ingest(&batch);
        let score = mix_divergence(mix, &window);
        prop_assert!(score < 0.02, "matching traffic scored {}", score);
    }
}
