//! Benchmark-side span recorder.
//!
//! Spans wrap each call the benchmark makes into a crate's public API
//! (data generation, bigraph build, partitioning, a training run, a layer
//! replay). Each span records its name, start, end, parent span and run id,
//! and stays in memory until the benchmark writes the trace out at the end.
//! A span's self time is its duration minus the part of it that its child
//! spans cover.
//!
//! Spans are opened only from the benchmark's main thread, so the
//! recorder uses `RefCell`s and needs no locking.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use hetgmp_telemetry::Json;

/// One closed (or still open) span; times are seconds since the
/// recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub run: String,
    pub start: f64,
    pub end: f64,
}

/// In-memory span store for one benchmark process.
pub struct Tracer {
    origin: Instant,
    base_run: String,
    run: Cell<usize>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder whose run ids are `<base_run>/<n>`.
    pub fn new(base_run: String) -> Self {
        Self {
            origin: Instant::now(),
            base_run,
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Starts a new run id; later spans carry it.
    pub fn next_run(&self) {
        self.run.set(self.run.get() + 1);
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                name,
                run: format!("{}/{}", self.base_run, self.run.get()),
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Duration of the most recently closed span named `name`, seconds.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.spans
            .borrow()
            .iter()
            .rev()
            .find(|s| s.name == name && s.end.is_finite())
            .map(|s| s.end - s.start)
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
            .collect()
    }

    /// The whole trace as JSON: every span plus per-name totals.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times();
        let spans = self.spans.borrow();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += own;
        }
        let us = |secs: f64| Json::F64(secs * 1e6);
        Json::obj([
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .zip(&selfs)
                        .map(|(s, &own)| {
                            Json::obj([
                                ("id", Json::U64(s.id as u64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                                ),
                                ("name", Json::from(s.name)),
                                ("run", Json::from(s.run.as_str())),
                                ("start_us", us(s.start)),
                                ("end_us", us(s.end)),
                                ("self_us", us(own)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "by_name",
                Json::Obj(
                    by_name
                        .into_iter()
                        .map(|(name, (count, total, own))| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::U64(count)),
                                    ("total_s", Json::F64(total)),
                                    ("self_s", Json::F64(own)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: f64, end: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn traced<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Like [`traced`], and also returns the call's wall seconds.
pub fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = traced(tracer, name, f);
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new("test".into());
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let selfs = t.self_times();
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        let outer = spans[0].end - spans[0].start;
        let inner = spans[1].end - spans[1].start;
        assert!((selfs[0] - (outer - inner)).abs() < 1e-9);
        assert!((selfs[1] - inner).abs() < 1e-12);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(2.0, 4.0), (1.0, 3.0), (5.0, 12.0)];
        assert!((covered(0.0, 10.0, &mut iv) - 8.0).abs() < 1e-12);
    }
}
