//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call into a layer: its name (the
//! layer, a dot, and the operation, e.g. `core.rank`), start and end,
//! its parent span, and a request id shared by the spans of one
//! advisory, session or request. Counters are recorded at the same
//! boundaries. Nothing is written until [`Tracer::to_json`] at the end
//! of the run. A disabled tracer records nothing and only runs the
//! closure, so the untraced run pays one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use warlock::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

/// A single-threaded span recorder (each client thread of the daemon
/// workload owns its own).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                stack: Vec::new(),
                counters: BTreeMap::new(),
            }),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` under request `request`.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut state = self.state.borrow_mut();
            let parent = state.stack.last().copied();
            let start_us = self.now_us();
            state.spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                request,
            });
            let index = state.spans.len() - 1;
            state.stack.push(index);
            index
        };
        let result = f();
        let end_us = self.now_us();
        let mut state = self.state.borrow_mut();
        state.spans[index].end_us = end_us;
        state.stack.pop();
        result
    }

    /// Records an already-measured interval as a root span (used where
    /// the interval was timed by another thread or process).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut state = self.state.borrow_mut();
        let parent = state.stack.last().copied();
        state.spans.push(Span {
            name,
            start_us: at(start),
            end_us: at(end),
            parent,
            request,
        });
    }

    /// Adds `by` to counter `name`.
    pub fn count(&self, name: &str, by: f64) {
        if !self.enabled {
            return;
        }
        *self
            .state
            .borrow_mut()
            .counters
            .entry(name.to_owned())
            .or_default() += by;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Moves every span and counter of `other` into this tracer, on
    /// this tracer's time axis.
    pub fn absorb(&self, other: Tracer) {
        let shift = if other.origin >= self.origin {
            (other.origin - self.origin).as_secs_f64() * 1e6
        } else {
            -(self.origin - other.origin).as_secs_f64() * 1e6
        };
        let other = other.state.into_inner();
        let mut state = self.state.borrow_mut();
        let base = state.spans.len();
        for mut span in other.spans {
            span.start_us += shift;
            span.end_us += shift;
            span.parent = span.parent.map(|p| p + base);
            state.spans.push(span);
        }
        for (name, value) in other.counters {
            *state.counters.entry(name).or_default() += value;
        }
    }

    pub fn counters(&self) -> BTreeMap<String, f64> {
        self.state.borrow().counters.clone()
    }

    /// The spans and counters as a JSON document.
    pub fn to_json(&self) -> Json {
        let state = self.state.borrow();
        let spans: Vec<Json> = state
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("request", Json::Int(s.request as i64)),
                ])
            })
            .collect();
        let counters = state
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)));
        Json::object([
            ("spans", Json::Arr(spans)),
            ("counters", Json::object(counters)),
        ])
    }
}

/// Self time per span: its duration minus the union of the intervals
/// its direct children cover (children of one parent never overlap on
/// a single-threaded tracer, so the union is their sum clipped to the
/// parent).
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut child_cover = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_us.max(parent.start_us);
            let end = span.end_us.min(parent.end_us);
            child_cover[p] += (end - start).max(0.0);
        }
    }
    spans
        .iter()
        .zip(&child_cover)
        .map(|(s, cover)| ((s.end_us - s.start_us - cover) / 1e3).max(0.0))
        .collect()
}

/// Per-layer totals of self time, plus the total time of root spans.
pub fn layer_self_ms(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let selfs = self_times_ms(spans);
    let mut layers = BTreeMap::new();
    for (span, self_ms) in spans.iter().zip(selfs) {
        *layers.entry(span.layer()).or_insert(0.0) += self_ms;
    }
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ms)
        .sum();
    (layers, roots)
}

/// Durations (ms) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let t = Tracer::new(true);
        t.span("bench.advisory", 1, || {
            t.span("core.rank", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            t.span("sim.judge", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        let (layers, roots) = layer_self_ms(&spans);
        let sum: f64 = layers.values().sum();
        assert!((sum - roots).abs() < 1e-6, "{sum} vs {roots}");
        assert!(layers["core"] >= 3.0 && layers["sim"] >= 2.0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].request, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.rank", 1, || 7), 7);
        t.count("x", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.counters().is_empty());
    }
}
