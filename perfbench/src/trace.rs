//! Benchmark-side tracing: spans around calls into each module's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span is opened with [`Tracer::enter`] and closed with
//! [`Tracer::exit`]; spans nest, and each one's *self time* is its
//! duration minus the time covered by the spans opened inside it. Every
//! span adds to a per-name aggregate (calls, total and self nanoseconds);
//! coarse spans (one per set-up, run or check, not per frame) are also
//! kept as individual records with their parent, so the trace file shows
//! the shape of every rep.
//!
//! A disabled tracer does nothing but test a flag, so untraced reps pay
//! (almost) nothing for the instrumentation.

use std::collections::BTreeMap;
use std::time::Instant;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One recorded coarse span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: bool,
}

/// The span recorder. See the module docs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, Layer>,
    records: Vec<SpanRecord>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            layers: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span kept as its own record (a coarse boundary).
    pub fn enter(&mut self, name: &'static str) {
        self.open(name, true);
    }

    /// Opens a span that only adds to its name's aggregate (per-call
    /// boundaries such as one frame's encode).
    pub fn enter_hot(&mut self, name: &'static str) {
        self.open(name, false);
    }

    #[inline]
    fn open(&mut self, name: &'static str, record: bool) {
        if !self.on {
            return;
        }
        let id = if record {
            self.next_id += 1;
            self.next_id
        } else {
            0
        };
        self.stack.push(Open {
            id,
            name,
            start: Instant::now(),
            child_ns: 0,
            record,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = self.stack.last_mut();
        let parent_id = parent.as_ref().map_or(0, |p| p.id);
        if let Some(p) = parent {
            p.child_ns += dur;
        }
        let layer = self.layers.entry(open.name).or_default();
        layer.calls += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(open.child_ns);
        if open.record {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.records.push(SpanRecord {
                id: open.id,
                parent: parent_id,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    /// Times `f` as a coarse span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Credits `ns` measured elsewhere (for example inside a probe the
    /// simulator owns) to the layer `name`, as time spent inside spans
    /// named `inside`: the layer gains it as self time and `inside` loses
    /// it from its own. Works whether or not the `inside` span is still
    /// open, since only the per-name totals change.
    pub fn attribute(&mut self, inside: &'static str, name: &'static str, ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let layer = self.layers.entry(name).or_default();
        layer.calls += calls;
        layer.total_ns += ns;
        layer.self_ns += ns;
        let outer = self.layers.entry(inside).or_default();
        outer.self_ns = outer.self_ns.saturating_sub(ns);
    }

    /// Aggregate for `name` (zero when the span never ran).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }
}
