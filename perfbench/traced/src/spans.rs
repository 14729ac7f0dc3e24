//! Spans around calls into the layers, kept in memory and written out
//! when the run ends. `perfbench/run.py` turns them into self times.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; thread 0 is the
/// main thread, other threads are workers a span fanned out to.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub thread: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans on the main thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from; worker threads time against it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            thread: 0,
            parent: self.open.last().copied(),
            start_ns: ns_since(self.epoch),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let end = ns_since(self.epoch);
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, id);
        let out = f();
        self.exit(span);
        out
    }

    /// Adds a span another thread timed against [`Self::epoch`].
    pub fn record(
        &mut self,
        parent: usize,
        name: &'static str,
        id: u64,
        thread: u32,
        (start_ns, end_ns): (u64, u64),
    ) {
        self.spans.push(Span {
            name,
            id,
            thread,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    /// Writes one tab-separated line per span: name, id, thread, parent
    /// index (-1 for a root), start and end in nanoseconds.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.thread, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
