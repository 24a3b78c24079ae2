//! Spans recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented).
//!
//! A span is `(name, parent, op id, start, end)`. Spans of one op share
//! the op id; a layer's self time for an op is its span's duration minus
//! the durations of its child spans for the same op. Spans are kept in
//! memory and written out when the run ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept at most; later ones are counted but dropped.
const MAX_SPANS: usize = 1_000_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `server` or `serve.score`.
    pub name: &'static str,
    /// Name of the enclosing boundary, if any.
    pub parent: Option<&'static str>,
    /// Op the span belongs to.
    pub op: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: Mutex<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: Mutex::new(0),
        }
    }

    /// Record a span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            parent,
            op,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            *self.dropped.lock().expect("span counter poisoned") += 1;
        }
    }

    /// Time `f` as a span and return its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, op, start, Instant::now());
        out
    }

    /// Move `other`'s spans into this tracer (for writing them out
    /// together); their times are re-based onto this tracer's origin.
    pub fn absorb(&self, other: Tracer) {
        let shift = |ns: u64| {
            let at = other.origin + std::time::Duration::from_nanos(ns);
            at.saturating_duration_since(self.origin).as_nanos() as u64
        };
        let moved = other.spans.into_inner().expect("span buffer poisoned");
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.extend(moved.into_iter().map(|s| Span {
            start_ns: shift(s.start_ns),
            end_ns: shift(s.end_ns),
            ..s
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time (ns) of `name` per op: its duration minus the durations
    /// of its child spans of the same op.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent == Some(name)) {
            *children.entry(s.op).or_insert(0) += s.dur();
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                s.dur()
                    .saturating_sub(children.get(&s.op).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Write every span as tab-separated lines
    /// (`name parent op start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tparent\top\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name,
                s.parent.unwrap_or("-"),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_op() {
        let t = Tracer::new();
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        t.record("server", None, 1, at(0), at(100));
        t.record("serve", Some("server"), 1, at(10), at(40));
        t.record("server", None, 2, at(0), at(50));
        t.record("serve", Some("server"), 2, at(10), at(20));
        let mut own = t.self_times("server");
        own.sort_unstable();
        assert_eq!(own, vec![40_000, 70_000]);
    }
}
