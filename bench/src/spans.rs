//! The benchmark's own spans: each one is put around a call into a layer's
//! public function, from the benchmark's side. Nothing is added inside the
//! program.
//!
//! Every thread records into a thread-local [`Tracer`]. Spans nest through
//! an open-span stack, so a span's self time is its duration minus the time
//! its children cover. Each span feeds a per-name aggregate (count, total,
//! self); the first [`RETAINED_PER_THREAD`] spans of each thread are also
//! kept in memory for the Chrome trace written at the end, later ones are
//! counted as dropped.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept per thread for the trace file; the aggregates see all.
pub const RETAINED_PER_THREAD: usize = 20_000;

/// A closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u32,
    pub job: Option<u64>,
    pub shard: Option<u64>,
}

/// Count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's recording.
#[derive(Default)]
pub struct Tracer {
    tid: u32,
    next_id: u64,
    stack: Vec<Open>,
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, u64>,
    job: Option<u64>,
    shard: Option<u64>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

impl Tracer {
    fn close(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64, child_ns: u64) {
        let duration = end_ns.saturating_sub(start_ns);
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(child_ns);
        let parent = self.stack.last_mut().map(|open| {
            open.child_ns += duration;
            open.id
        });
        if self.spans.len() < RETAINED_PER_THREAD {
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
                tid: self.tid,
                job: self.job,
                shard: self.shard,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        (u64::from(self.tid) << 40) | self.next_id
    }
}

/// Names this thread's track in the trace (call once per thread first).
pub fn set_thread(tid: u32) {
    TRACER.with(|t| t.borrow_mut().tid = tid);
}

/// Job/shard ids stamped on the spans that follow.
pub fn set_ids(job: Option<u64>, shard: Option<u64>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.job = job;
        t.shard = shard;
    });
}

pub fn enter(name: &'static str) {
    let start_ns = ns_since_epoch(Instant::now());
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.fresh_id();
        t.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    });
}

pub fn exit() {
    let end_ns = ns_since_epoch(Instant::now());
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("exit matches an enter");
        t.close(open.name, open.id, open.start_ns, end_ns, open.child_ns);
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    enter(name);
    let out = f();
    exit();
    out
}

/// Records a leaf span measured by the caller (for calls whose result
/// borrows something the classification needs afterwards).
pub fn record(name: &'static str, start: Instant, end: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.fresh_id();
        t.close(name, id, ns_since_epoch(start), ns_since_epoch(end), 0);
    });
}

/// Adds `n` to the counter `name`.
pub fn count(name: &'static str, n: u64) {
    TRACER.with(|t| *t.borrow_mut().counts.entry(name).or_default() += n);
}

/// Hands this thread's recording over (and starts a fresh one).
pub fn take() -> Tracer {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tid = t.tid;
        let taken = std::mem::take(&mut *t);
        t.tid = tid;
        taken
    })
}

/// All threads' recordings of one traced run.
#[derive(Default)]
pub struct Ledger {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn absorb(&mut self, tracer: Tracer) {
        self.spans.extend(tracer.spans);
        self.dropped += tracer.dropped;
        for (name, agg) in tracer.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += agg.count;
            mine.total_ns += agg.total_ns;
            mine.self_ns += agg.self_ns;
        }
        for (name, n) in tracer.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the spans named `name`, in ns (0 if none ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let agg = self.agg(name);
        if agg.count == 0 {
            0.0
        } else {
            agg.total_ns as f64 / agg.count as f64
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The retained spans as Chrome trace-event JSON (`ph:"X"`, µs
    /// timestamps, one track per thread); loads in Perfetto.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 256);
        let _ = write!(
            out,
            r#"{{"displayTimeUnit":"ns","otherData":{{"workload":"{workload}","dropped_spans":{}}},"traceEvents":["#,
            self.dropped
        );
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut first = true;
        for tid in tids {
            let label = match tid {
                0 => "bench-main".to_string(),
                t if t >= crate::traced::SPLIT_TID => {
                    format!("bench-split-{}", t - crate::traced::SPLIT_TID)
                }
                t => format!("bench-worker-{t}"),
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{label}"}}}}"#
            );
        }
        for span in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                r#"{{"name":"{}","cat":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"span":{}"#,
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.tid,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                span.id
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, r#","parent":{parent}"#);
            }
            if let Some(job) = span.job {
                let _ = write!(out, r#","job":{job}"#);
            }
            if let Some(shard) = span.shard {
                let _ = write!(out, r#","shard":{shard}"#);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_excludes_children_and_trace_parses() {
        std::thread::spawn(|| {
            set_thread(3);
            set_ids(Some(7), Some(1));
            span("outer", || {
                span("inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                count("things", 2);
            });
            let mut ledger = Ledger::default();
            ledger.absorb(take());
            let (outer, inner) = (ledger.agg("outer"), ledger.agg("inner"));
            assert_eq!((outer.count, inner.count), (1, 1));
            assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
            assert!(inner.total_ns >= 2_000_000);
            assert_eq!(ledger.count("things"), 2);
            let trace = Json::parse(&ledger.chrome_trace("unit")).expect("valid JSON");
            let events = trace.get("traceEvents").expect("events").as_arr();
            let inner_event = events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some("inner"))
                .expect("inner recorded");
            let args = inner_event.get("args").expect("args");
            assert_eq!(args.u64_at("job"), Some(7));
            assert!(args.get("parent").is_some());
        })
        .join()
        .expect("tracing thread");
    }
}
