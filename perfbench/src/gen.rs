//! Seeded workload inputs, built on the `warlock-scenarios` generator.
//!
//! Every input is a pure function of the benchmark seed. The program
//! under test receives only the generated configurations (and, for the
//! daemon, configuration files and request lines).
//!
//! Each tier has a fixed **shape**, drawn once from the scenario
//! generator at [`SHAPE_SEED`]: schemas, query-class predicates, skew,
//! disk count, page and prefetch settings, thresholds. The shape fixes
//! how much work a pass is (candidates enumerated, excluded and costed),
//! so the benchmark's figures compare across seeds. The run seed draws
//! the **instance** on that shape: every class weight and the disk
//! mechanics (seek, rotation, transfer rate), which move every ranking,
//! what-if outcome, allocation plan and judged policy. For the daemon
//! the seed draws the request stream.
//!
//! The **large** tier takes wide and deep fleet scenarios, refines
//! every dimension by finer levels over a larger fact table, and opens
//! the ranged (MDHF) candidate space. Appending levels keeps every
//! existing level id, so the scenario's mix, skew and system stay
//! valid. It ranks at `parallelism = 1`: on a shared 2-core host two
//! workers rank no faster than one, and their hand-offs make the timing
//! depend on how soon the host wakes the idle core. Each tier
//! member is the first refinement whose exact candidate space lands
//! within 5% of its target size. The daemon serves four warehouses of
//! the generator's default parameter space (a few dozen to a few
//! hundred candidates each).
//!
//! A seed selects one of [`INSTANCES`] large-tier instances (`seed mod
//! INSTANCES`); `perfbench/golden/advise_large.txt` holds the golden
//! ranking fingerprints of every one, so every seed's rankings are
//! checked against a recorded value.

use warlock::config_file::{parse_config, render_config, ParsedConfig};
use warlock::fragment::CandidateSource;
use warlock::schema::{Dimension, FactTable, StarSchema};
use warlock::ClassObservation;
use warlock_scenarios::{MixShape, ScenarioGenerator, ScenarioSpace, SchemaShape};

use crate::util::Rng;

/// One generated warehouse.
#[derive(Debug, Clone)]
pub struct Warehouse {
    /// Short routing name, e.g. `L3` or `f07`.
    pub name: String,
    /// The scenario label it derives from, plus its tier.
    pub label: String,
    pub parsed: ParsedConfig,
    /// The seeded drift trajectory (empty unless the mix drifts).
    pub trajectory: Vec<Vec<ClassObservation>>,
    /// Exact candidate-space size.
    pub space: u128,
}

/// Candidate-space targets of the large tier: about 10^4 to a few 10^5,
/// an odd count so the median advisory falls inside one warehouse.
pub const LARGE_TARGETS: [u128; 7] = [12_000, 20_000, 32_000, 50_000, 80_000, 130_000, 210_000];

/// MDHF range sizes opened on refined warehouses.
const RANGE_OPTIONS: [u64; 5] = [2, 3, 4, 6, 8];

/// Fact-row bounds of refined warehouses.
const REFINED_ROWS: (u64, u64) = (200_000_000, 4_000_000_000);
const REFINED_ROWS_LN_SPAN: f64 = 2.995_732_273_553_991; // ln(4e9 / 2e8)

/// Range of the instance factors a seed draws.
const JITTER: (f64, f64) = (0.8, 1.25);

/// Accepted relative distance from a tier target.
const BAND: f64 = 0.05;

/// Distinct large-tier instances; a seed selects `seed % INSTANCES`.
pub const INSTANCES: u64 = 512;

/// The fleet seed every tier shape is drawn from (the fleet harness's
/// committed seed).
pub const SHAPE_SEED: u64 = 42;

const LARGE_SALT: u64 = 0x4c41_5247_4500_0001;
const DAEMON_SALT: u64 = 0x4441_454d_4f4e_0003;

/// Refines every dimension of `parsed` by finer levels (one or two on
/// wide schemas, three or four on deep ones), scales the fact table and
/// opens the ranged candidate space.
fn refine(parsed: &ParsedConfig, shape: SchemaShape, rng: &mut Rng) -> ParsedConfig {
    let (min_extra, max_extra) = match shape {
        SchemaShape::Deep => (3, 4),
        _ => (1, 2),
    };
    let mut builder = StarSchema::builder();
    for dim in parsed.schema.dimensions() {
        let mut refined = Dimension::builder(dim.name());
        for level in dim.levels() {
            refined = refined.level(level.name(), level.cardinality());
        }
        let mut cardinality = dim.bottom().cardinality();
        for extra in 0..rng.range(min_extra, max_extra) {
            cardinality *= rng.pick(&[6u64, 8, 12, 16, 24]);
            refined = refined.level(format!("x{extra}"), cardinality);
        }
        builder = builder.dimension(refined.build().expect("integral fan-outs by construction"));
    }
    // Finer hierarchies describe a larger warehouse: draw the fact
    // volume log-uniformly from REFINED_ROWS so fine fragmentations stay
    // above the prefetch granule.
    let rows = (rng.range(0, 1 << 20) as f64 / (1u64 << 20) as f64 * REFINED_ROWS_LN_SPAN).exp()
        * REFINED_ROWS.0 as f64;
    for fact in parsed.schema.facts() {
        let mut refined = FactTable::builder(fact.name());
        for measure in fact.measures() {
            refined = refined.measure(measure.name(), measure.bytes());
        }
        builder = builder.fact(refined.rows(rows as u64).build());
    }
    let schema = builder
        .build()
        .expect("refined schemas are valid by construction");
    let mut advisor = parsed.advisor.clone();
    advisor.range_options = RANGE_OPTIONS.to_vec();
    advisor.max_dimensionality = match shape {
        SchemaShape::Deep => schema.num_dimensions(),
        _ => (rng.range(3, 4) as usize).min(schema.num_dimensions()),
    };
    advisor.parallelism = 1;
    ParsedConfig {
        schema,
        mix: parsed.mix.clone(),
        system: parsed.system,
        advisor,
    }
}

fn space_of(parsed: &ParsedConfig) -> u128 {
    CandidateSource::ranged(
        &parsed.schema,
        parsed.advisor.max_dimensionality,
        &parsed.advisor.range_options,
    )
    .space_size()
}

/// Draws one refined warehouse per target from the wide and deep
/// scenarios of the fleet seeded with `seed`.
fn refined_tier(seed: u64, targets: &[u128], prefix: &str) -> Vec<Warehouse> {
    let space = ScenarioSpace {
        mix_classes: (6, 6),
        ..ScenarioSpace::default()
    };
    let generator = ScenarioGenerator::new(seed, space).expect("valid scenario space");
    let mut rng = Rng::new(seed);
    let mut id = 0u32;
    targets
        .iter()
        .enumerate()
        .map(|(i, &target)| loop {
            let scenario = generator.scenario(id);
            id += 1;
            if scenario.class.schema == SchemaShape::Narrow {
                continue;
            }
            let found = (0..16).find_map(|_| {
                let parsed = refine(&scenario.parsed, scenario.class.schema, &mut rng);
                let space = space_of(&parsed);
                let distance = (space as f64 / target as f64 - 1.0).abs();
                (distance <= BAND).then_some((parsed, space))
            });
            if let Some((parsed, space)) = found {
                break Warehouse {
                    name: format!("{prefix}{i}"),
                    label: format!("{}+refined", scenario.label()),
                    parsed,
                    trajectory: scenario.drift_trajectory(),
                    space,
                };
            }
        })
        .collect()
}

/// Draws the instance of `seed` on a warehouse's shape: every class
/// weight and each disk-mechanics figure scaled by a factor drawn from
/// [`JITTER`]. The shape's dominant classes stay dominant, so a seed
/// moves rankings among close candidates without turning the warehouse
/// into a different one.
fn instance(mut w: Warehouse, rng: &mut Rng) -> Warehouse {
    let mut factor =
        || JITTER.0 + (JITTER.1 - JITTER.0) * rng.range(0, 1 << 20) as f64 / (1u64 << 20) as f64;
    let mut mix = warlock::workload::QueryMix::builder();
    for class in w.parsed.mix.classes() {
        mix = mix.class(class.class.clone(), class.share * factor());
    }
    w.parsed.mix = mix.build().expect("re-weighted mixes stay valid");
    let disk = &mut w.parsed.system.disk;
    disk.avg_seek_ms *= factor();
    disk.avg_rotational_ms *= factor();
    disk.transfer_mb_per_s *= factor();
    w
}

fn instances(tier: Vec<Warehouse>, seed: u64, salt: u64) -> Vec<Warehouse> {
    let mut rng = Rng::new(seed ^ salt);
    tier.into_iter().map(|w| instance(w, &mut rng)).collect()
}

/// The `advise_large` warehouses of instance `seed % INSTANCES`,
/// smallest first.
pub fn large_tier(seed: u64) -> Vec<Warehouse> {
    let shape = refined_tier(SHAPE_SEED ^ LARGE_SALT, &LARGE_TARGETS, "L");
    instances(shape, seed % INSTANCES, LARGE_SALT)
}

/// Renders every warehouse to its config file form and parses it back,
/// as a user loading the generated files would.
pub fn reparse(mut warehouses: Vec<Warehouse>) -> Vec<Warehouse> {
    for w in &mut warehouses {
        w.parsed = parse_config(&render_config(&w.parsed)).expect("rendered configs parse");
    }
    warehouses
}

/// [`reparse`], then one session build per warehouse, which validates
/// it and derives its bitmap scheme: the set-up of the in-process
/// workloads.
pub fn load(warehouses: Vec<Warehouse>) -> Result<Vec<Warehouse>, warlock::WarlockError> {
    let warehouses = reparse(warehouses);
    for w in &warehouses {
        std::hint::black_box(warlock::Warlock::from_parsed(w.parsed.clone())?);
    }
    Ok(warehouses)
}

/// The four `resident_daemon` warehouses: two drifting fleet scenarios
/// (auto re-advise on) and two stable ones, in that order. They keep
/// their generated weights, which their drift trajectories start from;
/// the seed draws the daemon's request stream instead.
pub fn daemon_fleet() -> Vec<Warehouse> {
    let generator = ScenarioGenerator::new(SHAPE_SEED ^ DAEMON_SALT, ScenarioSpace::default())
        .expect("valid scenario space");
    let mut drifting = Vec::new();
    let mut stable = Vec::new();
    for id in 0u32.. {
        if drifting.len() == 2 && stable.len() == 2 {
            break;
        }
        let scenario = generator.scenario(id);
        let mut parsed = scenario.parsed.clone();
        let is_drifting = scenario.class.mix == MixShape::Drifting;
        let slot = if is_drifting {
            &mut drifting
        } else {
            &mut stable
        };
        if slot.len() == 2 {
            continue;
        }
        parsed.advisor.auto_advise = is_drifting;
        slot.push(Warehouse {
            name: String::new(),
            label: scenario.label(),
            space: space_of(&parsed),
            trajectory: scenario.drift_trajectory(),
            parsed,
        });
    }
    let mut all: Vec<Warehouse> = drifting.into_iter().chain(stable).collect();
    for (i, w) in all.iter_mut().enumerate() {
        w.name = format!("w{i}");
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_draw_instances_on_one_shape() {
        let (a, b) = (large_tier(1), large_tier(2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.parsed.schema, y.parsed.schema);
            assert_ne!(x.parsed.mix, y.parsed.mix);
        }
    }

    #[test]
    fn tiers_are_seed_deterministic_and_in_band() {
        let a = large_tier(3);
        let b = large_tier(3);
        assert_eq!(a.len(), LARGE_TARGETS.len());
        for ((x, y), target) in a.iter().zip(&b).zip(LARGE_TARGETS) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.space, y.space);
            assert!((x.space as f64 / target as f64 - 1.0).abs() <= BAND);
        }
    }

    #[test]
    fn daemon_fleet_has_two_drifting_warehouses() {
        let fleet = daemon_fleet();
        assert_eq!(fleet.len(), 4);
        assert!(fleet[..2].iter().all(|w| !w.trajectory.is_empty()));
        assert!(fleet[..2].iter().all(|w| w.parsed.advisor.auto_advise));
        assert!(fleet[2..].iter().all(|w| w.trajectory.is_empty()));
    }
}
