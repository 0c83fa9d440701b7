//! Host-time attribution from the outside: spans around the calls this
//! benchmark makes into each layer's public functions. Nothing inside the
//! crates is instrumented, so a span's time is the layer's time plus the
//! call boundary.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulates span time and call counts per layer. A disabled tracer
/// calls straight through, so the untraced path pays no clock reads.
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, Span>,
}

/// Everything recorded under one span name.
#[derive(Clone, Copy, Default)]
struct Span {
    ns: u128,
    calls: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos();
        let span = self.spans.entry(layer).or_default();
        span.ns += ns;
        span.calls += 1;
        out
    }

    /// Total milliseconds recorded under `layer`, divided by `per`.
    pub fn ms_per(&self, layer: &str, per: u64) -> f64 {
        self.spans.get(layer).map_or(0.0, |s| s.ns as f64 / 1e6) / per.max(1) as f64
    }

    /// Total nanoseconds recorded under `layer`.
    pub fn ns(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |s| s.ns as f64)
    }

    /// Mean microseconds per call of `layer`.
    pub fn us_per_call(&self, layer: &str) -> f64 {
        self.spans
            .get(layer)
            .map_or(0.0, |s| s.ns as f64 / 1e3 / s.calls.max(1) as f64)
    }
}
