//! Result documents, golden fingerprints and the run-to-run comparison.
//!
//! A run produces one [`Outcome`]. Its last stdout line is the summary
//! the benchmark contract asks for; the full document (every metric by
//! name with its unit and sample count, the exact work counters, the
//! per-layer self-time table, the first failures) is printed to stderr
//! and written under `perfbench/out/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use warlock::json::{self, Json};
use warlock::AdvisorReport;

use crate::gen::INSTANCES;
use crate::util::Fnv;

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// The metrics of the summary line: the `end_to_end` set untraced,
    /// the `per_layer` set traced.
    pub metrics: BTreeMap<String, Metric>,
    /// Workload-specific names of the same measurements (e.g.
    /// `advise_ms.p50`), sample counts and `error_rate`.
    pub detail: BTreeMap<String, Metric>,
    /// Deterministic work counters, compared exactly between runs.
    pub counters: BTreeMap<String, u64>,
    /// Self time per layer over the traced loop, in ms, plus `total`.
    pub self_time_ms: BTreeMap<String, f64>,
    /// `(name, scenario label, candidate-space size)` per warehouse.
    pub warehouses: Vec<(String, String, u128)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_owned(),
            seed,
            trace,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
            },
        );
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.detail.insert(
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
            },
        );
    }

    pub fn inputs(&mut self, warehouses: &[crate::gen::Warehouse]) {
        self.warehouses = warehouses
            .iter()
            .map(|w| (w.name.clone(), w.label.clone(), w.space))
            .collect();
    }

    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Counts one checked operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(message);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn metrics_json(metrics: &BTreeMap<String, Metric>) -> Json {
        Json::object(metrics.iter().map(|(name, m)| {
            (
                name.clone(),
                Json::object([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            )
        }))
    }

    /// The summary line of the benchmark contract.
    pub fn summary(&self) -> Json {
        Json::object([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Self::metrics_json(&self.metrics)),
        ])
    }

    /// The full result document.
    pub fn document(&self) -> Json {
        Json::object([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Int(self.seed as i64)),
            ("trace", Json::Bool(self.trace)),
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("error_rate", Json::Num(self.error_rate())),
            ("metrics", Self::metrics_json(&self.metrics)),
            ("detail", Self::metrics_json(&self.detail)),
            (
                "counters",
                Json::object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64))),
                ),
            ),
            (
                "self_time_ms",
                Json::object(
                    self.self_time_ms
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v))),
                ),
            ),
            (
                "warehouses",
                Json::Arr(
                    self.warehouses
                        .iter()
                        .map(|(name, label, space)| {
                            Json::object([
                                ("name", Json::Str(name.clone())),
                                ("label", Json::Str(label.clone())),
                                ("candidates", Json::Str(space.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// The fingerprint of one ranking: labels, fragment counts and the
/// exact bits of both cost figures of every ranked candidate, plus the
/// enumerated and evaluated counts.
pub fn ranking_fingerprint(report: &AdvisorReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(report.enumerated as u64);
    h.u64(report.evaluated as u64);
    for r in &report.ranked {
        h.str(&r.label);
        h.u64(r.cost.num_fragments);
        h.u64(r.cost.io_cost_ms.to_bits());
        h.u64(r.cost.response_ms.to_bits());
    }
    h.0
}

/// Golden ranking fingerprints: `(instance, warehouse) -> fingerprint`,
/// stored one per line as `instance warehouse hex` in
/// `perfbench/golden/<workload>.txt`. A seed selects instance
/// `seed % INSTANCES`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden(pub BTreeMap<(u64, String), u64>);

impl Golden {
    pub fn path(root: &Path, workload: &str) -> PathBuf {
        root.join("golden").join(format!("{workload}.txt"))
    }

    pub fn load(path: &Path) -> Self {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.split_whitespace();
            if let (Some(seed), Some(name), Some(fp)) = (parts.next(), parts.next(), parts.next()) {
                if let (Ok(seed), Ok(fp)) = (seed.parse(), u64::from_str_radix(fp, 16)) {
                    map.insert((seed, name.to_owned()), fp);
                }
            }
        }
        Self(map)
    }

    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "# Golden ranking fingerprints of the {workload} workload, recorded at parallelism 1.\n\
             # instance warehouse fingerprint (a seed selects instance seed % {INSTANCES})\n"
        );
        for ((seed, name), fp) in &self.0 {
            out.push_str(&format!("{seed} {name} {fp:016x}\n"));
        }
        out
    }

    /// Checks `fingerprint` of `warehouse` against the value recorded
    /// for the instance `seed` selects. A missing value fails the check:
    /// every instance is recorded, so only a stale or truncated golden
    /// file can lack one.
    pub fn verify(&self, seed: u64, warehouse: &str, fingerprint: u64) -> Result<(), String> {
        let instance = seed % INSTANCES;
        match self.0.get(&(instance, warehouse.to_owned())) {
            Some(&golden) if golden == fingerprint => Ok(()),
            Some(&golden) => Err(format!(
                "{warehouse}: ranking fingerprint {fingerprint:016x} != golden {golden:016x}"
            )),
            None => Err(format!(
                "{warehouse}: no golden fingerprint for instance {instance}"
            )),
        }
    }
}

/// Checks one ranking fingerprint of `warehouse` against the golden
/// value of `seed` and against the warehouse's ranking at one worker
/// (`references`: warehouse name → fingerprint or error).
pub fn verify_ranking(
    golden: &Golden,
    references: &[(String, Result<u64, String>)],
    seed: u64,
    warehouse: &str,
    fingerprint: u64,
) -> Result<(), String> {
    golden.verify(seed, warehouse, fingerprint)?;
    match references.iter().find(|(name, _)| name == warehouse) {
        Some((_, Ok(fp))) if *fp == fingerprint => Ok(()),
        Some((_, Ok(fp))) => Err(format!(
            "{warehouse}: {fingerprint:016x} != parallelism-1 {fp:016x}"
        )),
        Some((_, Err(e))) => Err(format!("{warehouse}: reference failed: {e}")),
        None => Err(format!("{warehouse}: no reference")),
    }
}

/// How one end-to-end metric of the benchmark is judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The verdict of comparing a candidate result document with a
/// baseline one of the same workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every metric within its bound, counters identical, no failures.
    Pass,
    /// The exact work counters differ: the documents come from
    /// different programs (or inputs), so timings are not comparable.
    DifferentProgram(Vec<String>),
    /// The candidate failed operations.
    WrongOutputs(u64),
    /// Metrics that worsened by more than their bound.
    Regressed(Vec<String>),
}

fn counters_of(doc: &Json) -> BTreeMap<String, String> {
    match doc.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.render()))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn metric_value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares `candidate` against `baseline` under `bounds`.
pub fn compare(baseline: &Json, candidate: &Json, bounds: &[Bound]) -> Verdict {
    let (a, b) = (counters_of(baseline), counters_of(candidate));
    if a != b {
        let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        let diffs = keys
            .into_iter()
            .filter(|k| a.get(*k) != b.get(*k))
            .map(|k| format!("{k}: {:?} -> {:?}", a.get(k), b.get(k)))
            .collect();
        return Verdict::DifferentProgram(diffs);
    }
    let failed = candidate.get("failed").and_then(Json::as_u64).unwrap_or(1);
    if failed > 0 {
        return Verdict::WrongOutputs(failed);
    }
    let mut regressed = Vec::new();
    for bound in bounds {
        let (Some(base), Some(new)) = (
            metric_value(baseline, &bound.name),
            metric_value(candidate, &bound.name),
        ) else {
            continue;
        };
        let worse = if bound.lower_is_better {
            new / base - 1.0
        } else {
            base / new - 1.0
        };
        if worse > bound.bound {
            regressed.push(format!(
                "{}: {base:.6} -> {new:.6} ({:+.1}% worse, bound {:.0}%)",
                bound.name,
                worse * 100.0,
                bound.bound * 100.0
            ));
        }
    }
    if regressed.is_empty() {
        Verdict::Pass
    } else {
        Verdict::Regressed(regressed)
    }
}

/// A copy of `doc` with every timing slowed by `factor`: durations
/// (`ms`, `s`, `us`) multiply, rates (`1/s`) divide. Used by the
/// self-tests to show the comparison trips on a uniform slowdown.
#[cfg(test)]
pub fn slowed(doc: &Json, factor: f64) -> Json {
    fn scale(metrics: &Json, factor: f64) -> Json {
        let Json::Obj(members) = metrics else {
            return metrics.clone();
        };
        Json::Obj(
            members
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    let value = match unit {
                        "ms" | "s" | "us" => value * factor,
                        "1/s" => value / factor,
                        _ => value,
                    };
                    (
                        name.clone(),
                        Json::object([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
    let Json::Obj(members) = doc else {
        return doc.clone();
    };
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| {
                if k == "metrics" || k == "detail" {
                    (k.clone(), scale(v, factor))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect(),
    )
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::LARGE_TARGETS;

    fn root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    fn benchmark_bounds() -> Vec<Bound> {
        let doc = read_json(&root().join("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        bounds(&doc).expect("bounds")
    }

    fn fixtures() -> Vec<(String, Json)> {
        ["advise_large", "resident_daemon"]
            .iter()
            .map(|w| {
                let path = root().join("fixtures").join(format!("{w}.json"));
                (w.to_string(), read_json(&path).expect("fixture parses"))
            })
            .collect()
    }

    #[test]
    fn a_document_compared_with_itself_passes() {
        let bounds = benchmark_bounds();
        for (workload, doc) in fixtures() {
            assert_eq!(compare(&doc, &doc, &bounds), Verdict::Pass, "{workload}");
        }
    }

    #[test]
    fn a_uniform_slowdown_trips_every_workload() {
        let bounds = benchmark_bounds();
        let widest = bounds.iter().map(|b| b.bound).fold(0.0, f64::max);
        for (workload, doc) in fixtures() {
            let slow = slowed(&doc, 1.0 + widest * 1.5);
            match compare(&doc, &slow, &bounds) {
                Verdict::Regressed(list) => {
                    // Every timing metric trips, not just one.
                    let timings = bounds.iter().filter(|b| b.name != "peak_rss_mb").count();
                    assert_eq!(list.len(), timings, "{workload}: {list:?}");
                }
                other => panic!("{workload}: slowdown not caught: {other:?}"),
            }
            // A slowdown inside every bound passes.
            let slight = slowed(
                &doc,
                1.0 + bounds.iter().map(|b| b.bound).fold(1.0, f64::min) / 2.0,
            );
            assert_eq!(compare(&doc, &slight, &bounds), Verdict::Pass, "{workload}");
        }
    }

    #[test]
    fn changed_counters_mean_a_different_program() {
        let bounds = benchmark_bounds();
        for (workload, doc) in fixtures() {
            let Json::Obj(mut members) = doc.clone() else {
                panic!("{workload}: document is an object")
            };
            for (k, v) in members.iter_mut() {
                if k == "counters" {
                    if let Json::Obj(counters) = v {
                        let (_, first) = counters.first_mut().expect("counters recorded");
                        *first = Json::Int(first.as_i64().unwrap_or(0) + 1);
                    }
                }
            }
            let changed = Json::Obj(members);
            assert!(
                matches!(
                    compare(&doc, &changed, &bounds),
                    Verdict::DifferentProgram(_)
                ),
                "{workload}"
            );
        }
    }

    #[test]
    fn a_flipped_golden_fingerprint_raises_the_error_rate() {
        let golden = Golden::load(&Golden::path(&root(), "advise_large"));
        let (&(seed, ref name), &fp) = golden.0.iter().next().expect("golden values recorded");
        let mut outcome = Outcome::new("advise_large", seed, false);
        outcome.check(golden.verify(seed, name, fp));
        assert_eq!(outcome.error_rate(), 0.0);
        let mut flipped = golden.clone();
        flipped.0.insert((seed, name.clone()), fp ^ 1);
        outcome.check(flipped.verify(seed, name, fp));
        assert_eq!(outcome.failed, 1);
        assert!(outcome.error_rate() > 0.0);
        assert_eq!(
            outcome.summary().get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn a_seed_without_a_golden_value_fails() {
        assert!(Golden::default().verify(7, "L0", 1).is_err());
    }

    #[test]
    fn the_golden_file_covers_every_instance_and_round_trips() {
        let path = Golden::path(&root(), "advise_large");
        let golden = Golden::load(&path);
        assert_eq!(
            golden.0.len() as u64,
            INSTANCES * LARGE_TARGETS.len() as u64
        );
        for instance in 0..INSTANCES {
            for i in 0..LARGE_TARGETS.len() {
                assert!(golden.0.contains_key(&(instance, format!("L{i}"))));
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(golden.render("advise_large"), text);
    }
}
