//! The benchmark's own spans: name, start, end and parent of every timed
//! call into a library layer, kept in memory and written out when the
//! traced pass ends. A disabled recorder hands out inert guards.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Inclusive and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanAgg {
    /// Mean inclusive duration in seconds (0 when no span has the name).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e9
        }
    }
}

pub struct Spans {
    on: bool,
    t0: Instant,
    recs: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span on drop.
#[must_use = "a span measures the scope it is alive for"]
pub struct Guard<'a> {
    spans: &'a Spans,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            let now = self.spans.now();
            self.spans.recs.borrow_mut()[i].end_ns = now;
            self.spans.open.borrow_mut().pop();
        }
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            recs: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; it nests under the innermost open one.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                spans: self,
                idx: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let mut recs = self.recs.borrow_mut();
        let idx = recs.len();
        recs.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
        });
        self.open.borrow_mut().push(idx);
        Guard {
            spans: self,
            idx: Some(idx),
        }
    }

    /// Per-name aggregates. Self time is a span's duration minus the
    /// durations of its direct children (children never outlive their
    /// parent: guards close in reverse order).
    pub fn aggregate(&self) -> BTreeMap<&'static str, SpanAgg> {
        let recs = self.recs.borrow();
        let mut child_ns = vec![0u64; recs.len()];
        for s in recs.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        for (s, child) in recs.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d - child;
        }
        out
    }

    /// One JSON object per span, in open order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.recs.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
