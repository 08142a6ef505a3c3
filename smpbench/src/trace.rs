//! In-memory spans recorded from the harness, around its calls into each
//! layer; written out as JSON when the workload ends.  Nothing here touches
//! the program under test: spans inside it are a later change.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One interval: what ran, when, which span caused it, and which request
/// (solve repetition or query) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// A span recorder.  Disabled recorders (`--trace 0`) drop everything, so
/// the end-to-end pass pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread that shares this one's time origin;
    /// fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records an interval measured elsewhere (a server-reported queue wait
    /// or solve wall) as a child laid at the start of its parent.
    pub fn child_interval(
        &mut self,
        name: &str,
        parent: Option<usize>,
        offset_ns: u64,
        len_ns: u64,
    ) {
        let Some(parent_id) = parent else { return };
        let (start, req) = (
            self.spans[parent_id].start_ns + offset_ns,
            self.spans[parent_id].req,
        );
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start + len_ns,
            parent,
            req,
        });
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let result = f();
        self.end(id);
        result
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Summed self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        self_times(&self.spans)
    }

    pub fn to_json(&self, workload: &str, valid: bool) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}",
                    json::quote(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.req
                )
            })
            .collect();
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, ns)| format!("{}: {ns}", json::quote(name)))
            .collect();
        format!(
            "{{\n\"workload\": {},\n\"valid\": {valid},\n\"self_ns\": {{{}}},\n\"spans\": [\n{}\n]\n}}\n",
            json::quote(workload),
            selfs.join(", "),
            spans.join(",\n")
        )
    }
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    let mut totals = BTreeMap::new();
    for (span, mut covered) in spans.iter().zip(children) {
        covered.sort_unstable();
        let mut covered_ns = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in covered {
            if end > reach {
                covered_ns += end - start.max(reach);
                reach = end;
            }
        }
        let own = (span.end_ns - span.start_ns).saturating_sub(covered_ns);
        *totals.entry(span.name.clone()).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("solve", 0, 100, None),
            span("explore", 10, 30, Some(0)),
            span("evaluate", 40, 90, Some(0)),
            span("spoint", 40, 60, Some(2)),
            span("spoint", 60, 85, Some(2)),
            // Overlaps `explore` by 10 ns and pokes 5 ns out of the parent:
            // only [30, 35) is new cover.
            span("compile", 20, 35, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own["solve"], 100 - (20 + 50 + 5));
        assert_eq!(own["explore"], 20);
        assert_eq!(own["evaluate"], 50 - 45);
        assert_eq!(own["spoint"], 45);
        assert_eq!(own["compile"], 15);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("query", 100, 200, None),
            span("wall", 150, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)["query"], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("x", None, 0);
        tracer.end(id);
        assert!(tracer.self_times().is_empty());
    }
}
