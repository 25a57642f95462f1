//! In-memory span recorder: one span per call into a layer, kept until the
//! run ends, then aggregated into per-layer self times and exported as
//! Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span can be charged to, in report order.
pub const LAYERS: [&str; 10] = [
    "frontend", "opt", "sched", "pipeline", "bind", "nir", "sim", "lint", "netlist", "fault",
];

pub struct Span {
    /// A layer from [`LAYERS`], or `"op"` / `"attempt"` for the enclosing
    /// spans that carry no layer work of their own.
    pub layer: &'static str,
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub dur: f64,
    /// The operation the span belongs to (shared by all its spans).
    pub op: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Spec index of each traced operation.
    pub op_specs: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            op_specs: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn record<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let op = self.op_specs.len().saturating_sub(1) as u32;
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            name,
            start: (start - self.origin).as_secs_f64(),
            dur,
            op,
        });
        out
    }

    /// Runs one operation of spec `spec` under an `op` span.
    pub fn op<T>(&mut self, spec: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op_specs.push(spec);
        self.record("op", "op", f)
    }

    /// A nested span that groups layer spans (one synthesis attempt).
    pub fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.record("attempt", name, f)
    }

    /// One call into a layer.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(layer, name, |_| f())
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_default() += v;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    pub fn ops(&self) -> usize {
        self.op_specs.len()
    }

    /// Total time of the `op` spans.
    pub fn op_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == "op")
            .map(|s| s.dur)
            .sum()
    }

    /// Summed duration of the spans matching `layer` and, if given, `name`.
    /// Layer spans never nest, so this is also their self time.
    pub fn seconds(&self, layer: &str, name: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n))
            .map(|s| s.dur)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Time inside `op` spans that no layer span covers: cloning inputs,
    /// building results, the recovery bookkeeping.
    pub fn uncovered_seconds(&self) -> f64 {
        let layers: f64 = LAYERS.iter().map(|l| self.seconds(l, None)).sum();
        self.op_seconds() - layers
    }

    /// Per spec index: summed seconds of the spans matching `pred`.
    pub fn per_spec(&self, pred: impl Fn(&Span) -> bool) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| pred(s)) {
            *out.entry(self.op_specs[s.op as usize]).or_default() += s.dur;
        }
        out
    }

    /// Chrome trace-event JSON: complete (`X`) events on one thread, so
    /// nesting follows from containment.
    pub fn chrome_json(&self, spec_ids: &[&str]) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = if s.layer == "op" {
                spec_ids[self.op_specs[s.op as usize]]
            } else {
                s.name
            };
            let _ = write!(
                out,
                "{}{{\"name\": \"{name}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"op\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.layer,
                s.start * 1e6,
                s.dur * 1e6,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
