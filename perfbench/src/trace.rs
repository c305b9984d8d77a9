//! Spans recorded from outside the program, around each call into a
//! layer's public functions.
//!
//! Each span records its name, start, end, parent and the operation
//! (build request, fleet cell, oracle subject) it belongs to; children
//! inherit the operation of the span they nest in. Spans stay in
//! per-thread buffers and are merged when a thread calls [`flush`]. A
//! span's self time is its duration minus that of its direct children.
//! With tracing off, [`span`] records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    /// Index of the parent span in the merged list, if any.
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    op: u64,
    start: Instant,
    child_ns: u64,
    /// Position this span will take in the thread buffer.
    slot: usize,
}

#[derive(Default)]
struct ThreadBuf {
    tid: u32,
    stack: Vec<Open>,
    /// Closed spans; `parent` holds a thread-local slot until [`flush`].
    done: Vec<Option<Span>>,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Names the calling thread's spans (thread ids are assigned by the
/// caller so they repeat across runs).
pub fn set_thread(tid: u32) {
    BUF.with(|b| b.borrow_mut().tid = tid);
}

/// Closes its span when dropped.
#[must_use]
pub struct Guard(bool);

/// Opens a span that belongs to the enclosing span's operation.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Opens a span that starts operation `op`.
pub fn root(name: &'static str, op: u64) -> Guard {
    open(name, Some(op))
}

fn open(name: &'static str, op: Option<u64>) -> Guard {
    if !enabled() {
        return Guard(false);
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let op = op.unwrap_or_else(|| b.stack.last().map_or(0, |o| o.op));
        let slot = b.done.len();
        b.done.push(None);
        b.stack.push(Open {
            name,
            op,
            start: Instant::now(),
            child_ns: 0,
            slot,
        });
    });
    Guard(true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end = Instant::now();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let open = b.stack.pop().expect("span guards drop in nesting order");
            let dur_ns = end.duration_since(open.start).as_nanos() as u64;
            let parent = b.stack.last_mut().map(|p| {
                p.child_ns += dur_ns;
                p.slot
            });
            let tid = b.tid;
            b.done[open.slot] = Some(Span {
                name: open.name,
                tid,
                parent,
                op: open.op,
                start_ns: open.start.duration_since(epoch()).as_nanos() as u64,
                dur_ns,
                self_ns: dur_ns.saturating_sub(open.child_ns),
            });
        });
    }
}

/// Moves the calling thread's closed spans into the merged list. Every
/// thread that recorded spans calls this before it ends, with no span
/// open.
pub fn flush() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        assert!(b.stack.is_empty(), "flush with a span still open");
        let mut all = FINISHED.lock().expect("trace buffer lock poisoned");
        let base = all.len();
        for span in b.done.drain(..) {
            let mut span = span.expect("every opened span closed");
            span.parent = span.parent.map(|p| p + base);
            all.push(span);
        }
    });
}

/// Every flushed span, in flush order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *FINISHED.lock().expect("trace buffer lock poisoned"))
}

/// Per-name totals: (spans, total duration ns, total self ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 += s.self_ns;
    }
    out
}

/// Writes `spans` as Chrome trace-event JSON (one complete event per
/// span; the operation and parent ride in `args`).
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.op
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_propagate() {
        enable();
        std::thread::spawn(|| {
            set_thread(7);
            {
                let _r = root("outer", 42);
                let _c = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            flush();
        })
        .join()
        .unwrap();
        let spans: Vec<Span> = take().into_iter().filter(|s| s.tid == 7).collect();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.op, 42);
        assert!(inner.parent.is_some());
        assert!(inner.dur_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
    }
}
