//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: layer, name, operation id, parent span, start and end host
//! time, and the heap allocations made inside. Spans nest (a call made
//! inside another span becomes its child) and never overlap otherwise,
//! because the traced pass is single-threaded. A layer's self time is
//! its spans' durations minus the child spans they cover.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub op: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and self allocations of one layer over a range of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            // Reserved up front so recording a span never allocates
            // inside the parent span it is charged to.
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(64),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let (a0, b0) = alloc::snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let (a1, b1) = alloc::snapshot();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.allocs = a1 - a0;
        s.alloc_bytes = b1 - b0;
        out
    }

    /// Index the next span will get; bounds a range for [`Recorder::costs`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans in `range` matching `layer`/`name`.
    pub fn total_ns(&self, range: std::ops::Range<usize>, layer: &str, name: &str) -> u64 {
        self.spans[range]
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Per-layer self time and self allocations over the spans in
    /// `range`: each span's totals minus those of its direct children.
    pub fn costs(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, LayerCost> {
        let mut own: Vec<LayerCost> = self.spans[range.clone()]
            .iter()
            .map(|s| LayerCost {
                self_ns: s.ns(),
                allocs: s.allocs,
                alloc_bytes: s.alloc_bytes,
            })
            .collect();
        for s in &self.spans[range.clone()] {
            if let Some(p) = s.parent.filter(|p| range.contains(p)) {
                let c = &mut own[p - range.start];
                c.self_ns -= s.ns();
                c.allocs -= s.allocs;
                c.alloc_bytes -= s.alloc_bytes;
            }
        }
        let mut out: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
        for (s, c) in self.spans[range].iter().zip(own) {
            let e = out.entry(s.layer).or_default();
            e.self_ns += c.self_ns;
            e.allocs += c.allocs;
            e.alloc_bytes += c.alloc_bytes;
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let lines: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                    s.layer,
                    s.name,
                    opt(s.op),
                    opt(s.parent),
                    s.start_ns,
                    s.end_ns,
                    s.allocs,
                    s.alloc_bytes
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}
