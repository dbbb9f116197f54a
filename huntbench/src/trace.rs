//! The benchmark's own tracer: spans and counters recorded around calls into
//! the program's layers, from outside the program.
//!
//! A span records a name, its start and end, the span that was open when it
//! began (its parent) and the operation it belongs to (one generated
//! statement or DML program). Spans and counters live in memory on the
//! tracing thread and are taken out when the traced run ends. The traced
//! replay is single-threaded, so a thread-local store needs no locking and
//! costs one `Instant::now()` per span edge.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span. Times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        })
    });
}

/// Stop recording and hand back every span and counter recorded since
/// [`start`]. Spans left open are closed at the current time.
pub fn finish() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    TRACER.with(|t| match t.borrow_mut().take() {
        Some(mut tr) => {
            let now = tr.epoch.elapsed().as_nanos() as u64;
            for idx in tr.open.drain(..) {
                tr.spans[idx].end_ns = now;
            }
            (tr.spans, tr.counters)
        }
        None => (Vec::new(), BTreeMap::new()),
    })
}

/// Mark the start of a new operation; later spans carry its id.
pub fn next_op() {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.op += 1;
        }
    });
}

/// Add `n` to a named counter (no-op when not recording).
pub fn count(name: &'static str, n: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            *tr.counters.entry(name).or_insert(0) += n;
        }
    });
}

/// Open a span that closes when the returned guard drops. When no tracer
/// is recording on this thread the guard does nothing.
pub fn span(name: &'static str) -> SpanGuard {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut()?;
        let idx = tr.spans.len();
        let start_ns = tr.epoch.elapsed().as_nanos() as u64;
        tr.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: tr.open.last().copied(),
            op: tr.op,
        });
        tr.open.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

/// Closes its span on drop.
pub struct SpanGuard {
    idx: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.spans[idx].end_ns = tr.epoch.elapsed().as_nanos() as u64;
                if let Some(pos) = tr.open.iter().rposition(|&i| i == idx) {
                    tr.open.remove(pos);
                }
            }
        });
    }
}

/// Layers whose spans are probes: direct calls that repeat work an oracle
/// also does inside its check, to measure that work on its own. Their time
/// is reported per layer but is not part of the replayed hunt.
pub const PROBE_LAYERS: [&str; 2] = ["groundtruth", "optimizer"];

pub fn is_probe(span: &Span) -> bool {
    PROBE_LAYERS.contains(&span.layer())
}

/// The number of spans recorded so far, to pass to [`probe_ns_since`].
pub fn mark() -> usize {
    TRACER.with(|t| t.borrow().as_ref().map_or(0, |tr| tr.spans.len()))
}

/// Total duration of the closed probe spans recorded since `mark`.
pub fn probe_ns_since(mark: usize) -> u64 {
    TRACER.with(|t| {
        t.borrow().as_ref().map_or(0, |tr| {
            tr.spans[mark.min(tr.spans.len())..]
                .iter()
                .filter(|s| is_probe(s))
                .map(Span::duration_ns)
                .sum()
        })
    })
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent's
/// interval and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("oracle.check", 10, 60, Some(0)),
            span("engine.exec", 20, 30, Some(1)),
            span("engine.exec", 40, 55, Some(1)),
            span("persist.append", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 10, 15, 10]);
    }

    #[test]
    fn child_ending_exactly_at_parent_end_is_fully_covered() {
        let spans = vec![
            span("minimize.run", 0, 50, None),
            span("oracle.check", 5, 50, Some(0)),
            span("engine.exec", 30, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![5, 25, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("cell", 10, 20, None),
            span("gen.query", 5, 14, Some(0)),
            span("gen.query", 12, 16, Some(0)),
            span("gen.query", 18, 25, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 2);
    }

    #[test]
    fn recorded_spans_nest_and_carry_operation_ids() {
        start();
        {
            let _outer = super::span("oracle.check");
            next_op();
            let _inner = super::span("engine.exec");
            count("engine.statements", 2);
        }
        let _open = super::span("campaign.drain");
        let (spans, counters) = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        assert_eq!(spans[1].layer(), "engine");
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[2].parent, None);
        assert_eq!(counters["engine.statements"], 2);
        // Recording stopped: guards and counters are inert.
        count("engine.statements", 1);
        assert!(finish().0.is_empty());
    }
}
