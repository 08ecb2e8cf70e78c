//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a call into a layer, or a phase inside one.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    /// Index of the enclosing span among the tracer's spans.
    parent: Option<usize>,
    /// The repetition (run id) the span belongs to.
    run: usize,
    /// Nanoseconds since the tracer was created.
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. A span is recorded once its call has returned, from
/// instants stamped around the call; children name their parent's index.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Total and self time of one span name.
#[derive(Default, Debug)]
pub struct Ledger {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span whose bounds were stamped elsewhere (another thread,
    /// or a report read after the call).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            parent,
            run,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records one span per stamped call.
    pub fn record_calls(&mut self, name: &str, run: usize, stamps: &[(Instant, Instant)]) {
        for &(a, b) in stamps {
            self.record(name, None, run, a, b);
        }
    }

    /// Per span name: how many, their total duration, and their self time
    /// (duration minus the part of it that child spans cover).
    pub fn ledger(&self) -> BTreeMap<String, Ledger> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, Ledger> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(covered(kids, s.start_ns, s.end_ns));
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"run\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children may
/// overlap (parallel threads), so their union, not their sum, is covered.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let mut iv = vec![(10, 40), (20, 50), (70, 80)];
        assert_eq!(covered(&mut iv, 0, 100), 50);
        assert_eq!(covered(&mut iv, 30, 75), 25);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let base = t.origin;
        let at = |ns: u64| base + std::time::Duration::from_nanos(ns);
        let root = t.record("root", None, 0, at(0), at(100));
        t.record("child", Some(root), 0, at(10), at(30));
        t.record("child", Some(root), 0, at(20), at(60));
        let l = t.ledger();
        assert_eq!(l["root"].total_ns, 100);
        assert_eq!(l["root"].self_ns, 50);
        assert_eq!(l["child"].count, 2);
        assert_eq!(l["child"].total_ns, 60);
    }
}
