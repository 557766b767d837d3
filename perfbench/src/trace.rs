//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out when the run ends.
//!
//! A span is `(id, parent, name, key, start, end)`; `key` is the request
//! index or schedule index the span belongs to. Hot loops buffer spans in
//! a thread-local `Vec` and hand the whole buffer over once, so recording
//! takes no lock per request.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer-boundary name, e.g. `wdog-target.start`.
    pub name: &'static str,
    /// Request or schedule id the span belongs to.
    pub key: u64,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id (0 when disabled).
    fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Reserves `n` consecutive ids and returns the first.
    pub fn ids(&self, n: u64) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(n, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records one finished span.
    fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    /// Hands over a thread-local buffer of finished spans.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span buffer poisoned")
                .extend(spans);
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, passing it the
    /// span's id (for child spans) and returning its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        if self.enabled {
            self.record(Span {
                id,
                parent,
                name,
                key,
                start_ns: self.ns(start),
                end_ns: self.ns(Instant::now()),
            });
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one tab-separated line
    /// (`id parent name key start_ns end_ns`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tkey\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by children), ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children clipped to the parent,
/// overlapping children counted once). Returned per span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration();
        e.self_ns += own.get(&s.id).copied().unwrap_or(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) > child [10,40) > grandchild [15,25)
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 15, 25)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50) and [30,70) overlap on [30,50): union is 60.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child running past its parent's end only covers the overlap.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 90, 150),
            span(3, 1, 200, 300),
        ];
        assert_eq!(self_times(&spans)[&1], 90);
    }

    #[test]
    fn by_name_sums_self_and_total() {
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40)];
        spans[1].name = "child";
        let agg = by_name(&spans);
        assert_eq!(agg["s"].total_ns, 100);
        assert_eq!(agg["s"].self_ns, 70);
        assert_eq!(agg["child"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", 0, 0, |id| id + 1);
        assert_eq!(v, 1);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("x", 0, 7, |_| ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].key, 7);
    }
}
