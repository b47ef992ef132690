//! Spans the harness records around its calls into each layer, kept in
//! memory and written as JSON when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cm5_serve::Json;

/// One span: `parent` indexes the span list; `request` groups the spans of
/// one service request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name.
    pub name: String,
    /// Request id for request spans and their phases.
    pub request: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// In-memory span recorder. When off, nothing is recorded.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `on` is the run's `--trace` setting.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Microseconds from the recorder's epoch to `t`.
    pub fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index (0 when off).
    pub fn push(
        &mut self,
        name: &str,
        request: Option<u64>,
        parent: Option<usize>,
        start_us: f64,
        dur: Duration,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent,
            start_us,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        self.spans.len() - 1
    }

    /// Open a span starting now, for children to name as parent; pair
    /// with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.offset_us(Instant::now());
        self.push(name, None, parent, start, Duration::ZERO)
    }

    /// End a span opened with [`Spans::open`].
    pub fn close(&mut self, idx: usize) {
        let now = self.offset_us(Instant::now());
        if let Some(s) = self.spans.get_mut(idx).filter(|_| self.on) {
            s.dur_us = now - s.start_us;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let start = self.offset_us(t);
        self.push(name, None, parent, start, t.elapsed());
        out
    }

    /// Self time per span name, in microseconds: each span's duration
    /// minus the part of it that its children's intervals cover.
    pub fn self_time_us(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.start_us + s.dur_us));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            let (mut covered, mut reach) = (0.0, lo);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name.clone()).or_insert(0.0) += s.dur_us - covered;
        }
        out
    }

    /// The spans as a JSON array of {name, request, parent, start_us, dur_us}.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::int);
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name.clone())),
                        ("request".into(), opt(s.request)),
                        ("parent".into(), opt(s.parent.map(|p| p as u64))),
                        ("start_us".into(), Json::num(s.start_us)),
                        ("dur_us".into(), Json::num(s.dur_us)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(true);
        let root = s.push("pass", None, None, 0.0, Duration::from_micros(100));
        // Two overlapping children cover [10, 60) and one more [80, 90).
        s.push("a", Some(1), Some(root), 10.0, Duration::from_micros(40));
        s.push("b", Some(2), Some(root), 30.0, Duration::from_micros(30));
        s.push("c", Some(3), Some(root), 80.0, Duration::from_micros(10));
        let st = s.self_time_us();
        assert!((st["pass"] - 40.0).abs() < 1e-6, "{st:?}");
        assert!((st["a"] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        s.time("x", None, || ());
        assert_eq!(s.to_json(), Json::Arr(vec![]));
    }
}
