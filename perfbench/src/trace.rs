//! In-memory span recorder and the counting allocator of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions; nothing inside the runtime is instrumented. A
//! disabled [`Tracer`] records nothing, so the untraced run pays one branch
//! per call site.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// System allocator that counts allocation events (alloc, alloc_zeroed and
/// realloc) while counting is switched on. Off, it costs one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is forwarded to `System` unchanged; the counter is
// a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn count_event() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Switch allocation counting on or off (process-wide).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation events counted so far.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which variant or phase the span belongs to (`am`, `array`, `probe`, ...).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. Spans nest: a span entered while another is
/// open becomes its child.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tag: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared by every PE so
    /// spans of different PEs line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer { on: false, epoch, tag: "", spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_tag(&mut self, tag: &'static str) {
        self.tag = tag;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns `None` (and records nothing) when tracing is off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, tag: self.tag, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `enter` returned.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of one recorder with their child lists, for self-time analysis.
pub struct SpanTree<'a> {
    pub spans: &'a [Span],
    children: Vec<Vec<usize>>,
}

impl<'a> SpanTree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        SpanTree { spans, children }
    }

    /// Length of the union of the children's intervals, clipped to `i`.
    pub fn child_coverage_ns(&self, i: usize) -> u64 {
        let parent = &self.spans[i];
        let mut ivs: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| {
                let s = &self.spans[c];
                (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        ivs.sort_unstable();
        let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
        for (a, b) in ivs {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        covered + cur.map_or(0, |(a, b)| b - a)
    }

    /// Duration minus the part of it that child spans cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].dur_ns() - self.child_coverage_ns(i)
    }

    /// Children of `i` that stick out of it or overlap a sibling: a span
    /// tree that accounts for its time has none.
    pub fn misnested_children(&self, i: usize) -> usize {
        let p = &self.spans[i];
        let mut kids: Vec<&Span> = self.children[i].iter().map(|&c| &self.spans[c]).collect();
        kids.sort_unstable_by_key(|s| s.start_ns);
        let outside =
            kids.iter().filter(|s| s.start_ns < p.start_ns || s.end_ns > p.end_ns).count();
        let overlapping = kids.windows(2).filter(|w| w[1].start_ns < w[0].end_ns).count();
        outside + overlapping
    }
}

/// Write labelled span recorders as JSON lines (one span per line).
pub fn write_spans(
    path: &std::path::Path,
    recorders: &[(String, Vec<Span>)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rec, spans) in recorders {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"rec\":\"{rec}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, tag: "", start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span("kernel", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let t = SpanTree::new(&spans);
        assert_eq!(t.child_coverage_ns(0), 30 + 10);
        assert_eq!(t.self_ns(0), 60);
        assert_eq!(t.misnested_children(0), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.span("x", || ());
        t.set_on(true);
        let k = t.enter("kernel");
        t.span("child", || ());
        t.exit(k);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
