//! Hierarchical phase spans: where the time went *inside* a shard.
//!
//! The metrics plane ([`crate::metrics`]) aggregates and the decision trace
//! ([`crate::trace`]) sequences, but neither attributes wall-clock to the
//! stages of the flatten→compile→search pipeline. This module records
//! monotonic-clock enter/exit pairs into bounded per-worker rings:
//!
//! * a [`SpanRecorder`] owns the clock epoch, the global id/seq counters and
//!   one ring per worker; it is shared (`Arc`) between the worker pool, the
//!   registry and the wire surface;
//! * each thread records through its own [`SpanSink`] — a stack of open
//!   spans plus the ambient [`SpanIds`] context (job/shard/lease/tenant/
//!   worker, the same ids the waitgraph uses) — so the hot path takes no
//!   cross-thread lock until a span *completes* and lands in its ring;
//! * stages that repeat once per variant are not recorded one span each:
//!   the drain times them as *laps* ([`SpanSink::lap`], one clock read per
//!   phase boundary) into per-phase tallies on the sink, which publish as
//!   one aggregate span per phase and batch ([`Span::count`] occurrences
//!   laid back to back), so the per-variant cost is the clock reads alone;
//! * every completed [`Span`] carries its parent id, its static [`PhaseId`],
//!   and the [`TraceCapture`](crate::trace::TraceCapture) sequence watermark
//!   observed at enter and exit, so spans and scheduler decisions
//!   cross-correlate (`trace_first..trace_last` is exactly the window of
//!   decisions that overlapped the span).
//!
//! The overhead discipline is the [`MetricsRegistry`](crate::MetricsRegistry)
//! one: a disabled recorder hands out no-op sinks, and every record site
//! collapses to a single `enabled` branch. Rings drop **oldest-first** on
//! overflow and count what they forgot, so a slow reader costs history,
//! never throughput.
//!
//! On top of the raw spans this module derives the served views:
//! [`Profile::from_spans`] (per-phase totals + log-linear histograms +
//! folded flamegraph stacks + per-job critical paths) and [`chrome_trace`]
//! (Chrome trace-event JSON loadable in Perfetto / `chrome://tracing`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use spi_model::json::JsonValue;

use crate::metrics::Histogram;

/// Default per-worker span ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// The static identity of an instrumented pipeline stage.
///
/// Phases are a closed enum (like the metric ids): recording a span costs an
/// enum copy, not a string, and every consumer can enumerate [`ALL`]
/// phases without scraping.
///
/// [`ALL`]: PhaseId::ALL
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseId {
    /// One whole shard drain: the worker's Gray walk over its contiguous
    /// rank range.
    DrainShard,
    /// An incremental flatten that **patched** the previous flat graph.
    FlattenPatch,
    /// A flatten that had to **rebuild** from the skeleton (first rank of a
    /// drain, post-error reset, or a patch fallback).
    FlattenRebuild,
    /// Lowering a variant to the compiled synthesis form: from per-cluster
    /// task blocks in a drain's evaluation session (lapped from the end of
    /// the flatten, so it also covers decoding the choice and the lower
    /// bound), or from a flat graph (`compiled_from_flat_graph`).
    CompileLower,
    /// The branch-and-bound partition search over a compiled graph.
    PartitionSearch,
    /// A batch merge renewing the lease deadline (`report_batch`).
    LeaseRenew,
    /// Committing a shard's staged report into the job (`complete_shard`).
    ShardCommit,
    /// One write-ahead-log append (inside the commit, or standalone for
    /// submits/cancels).
    WalAppend,
}

impl PhaseId {
    /// Every phase, in pipeline order.
    pub const ALL: [PhaseId; 8] = [
        PhaseId::DrainShard,
        PhaseId::FlattenPatch,
        PhaseId::FlattenRebuild,
        PhaseId::CompileLower,
        PhaseId::PartitionSearch,
        PhaseId::LeaseRenew,
        PhaseId::ShardCommit,
        PhaseId::WalAppend,
    ];

    /// The stable wire name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::DrainShard => "drain_shard",
            PhaseId::FlattenPatch => "flatten_patch",
            PhaseId::FlattenRebuild => "flatten_rebuild",
            PhaseId::CompileLower => "compile_lower",
            PhaseId::PartitionSearch => "partition_search",
            PhaseId::LeaseRenew => "lease_renew",
            PhaseId::ShardCommit => "shard_commit",
            PhaseId::WalAppend => "wal_append",
        }
    }

    /// The phase with the given wire name, if any.
    pub fn from_name(name: &str) -> Option<PhaseId> {
        PhaseId::ALL.into_iter().find(|phase| phase.name() == name)
    }
}

/// The scheduler-entity ids a span is attributed to — the same id space the
/// waitgraph nodes use (`job:{job}`, `shard:{job}/{shard}`, `lease:{lease}`,
/// `tenant:{tenant}`, `worker:{worker}`), so every span resolves against a
/// waitgraph snapshot. All fields are optional: registry-side spans outside
/// any lease (a submit's WAL append, say) carry none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanIds {
    /// The job the span worked for.
    pub job: Option<u64>,
    /// The shard index within the job.
    pub shard: Option<u64>,
    /// The lease the work ran under.
    pub lease: Option<u64>,
    /// The job's fair-queuing tenant. `Arc<str>` so per-span context clones
    /// never allocate.
    pub tenant: Option<Arc<str>>,
    /// The worker thread that did the work.
    pub worker: Option<Arc<str>>,
}

impl SpanIds {
    fn json_field(value: &Option<Arc<str>>) -> JsonValue {
        match value {
            Some(text) => JsonValue::string(text.as_ref()),
            None => JsonValue::Null,
        }
    }

    fn json_num(value: Option<u64>) -> JsonValue {
        match value {
            Some(n) => JsonValue::Int(i128::from(n)),
            None => JsonValue::Null,
        }
    }
}

/// One completed enter/exit pair, or an aggregate of `count` lapped
/// occurrences of one phase (see [`SpanSink::lap`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Global completion order across all workers (exit time order per
    /// worker; a strictly monotone cursor for streaming readers).
    pub seq: u64,
    /// Globally unique span id, assigned at enter.
    pub id: u64,
    /// The id of the enclosing open span on the same sink, if any.
    pub parent: Option<u64>,
    /// What stage this span timed.
    pub phase: PhaseId,
    /// Monotonic enter time, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Monotonic exit time, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Total duration of direct child spans, for self-time attribution.
    pub child_ns: u64,
    /// The scheduler-trace sequence watermark at enter.
    pub trace_first: u64,
    /// The scheduler-trace sequence watermark at exit: decisions with
    /// `trace_first <= seq < trace_last` overlapped this span.
    pub trace_last: u64,
    /// Waitgraph-compatible attribution ids.
    pub ids: SpanIds,
    /// How many occurrences of `phase` the span stands for: 1 for an
    /// entered/exited span; for a published lap tally, the lapped
    /// occurrences, laid back to back from the first one's start so that the
    /// span's duration is their total.
    pub count: u64,
}

impl Span {
    /// Wall-clock duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the time spent in direct children.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }

    /// The span as one canonical JSON object (what `spans` watch frames
    /// carry).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("seq", JsonValue::Int(i128::from(self.seq))),
            ("id", JsonValue::Int(i128::from(self.id))),
            ("parent", SpanIds::json_num(self.parent)),
            ("phase", JsonValue::string(self.phase.name())),
            ("start_ns", JsonValue::Int(i128::from(self.start_ns))),
            ("end_ns", JsonValue::Int(i128::from(self.end_ns))),
            ("self_ns", JsonValue::Int(i128::from(self.self_ns()))),
            ("count", JsonValue::Int(i128::from(self.count))),
            ("trace_first", JsonValue::Int(i128::from(self.trace_first))),
            ("trace_last", JsonValue::Int(i128::from(self.trace_last))),
            ("job", SpanIds::json_num(self.ids.job)),
            ("shard", SpanIds::json_num(self.ids.shard)),
            ("lease", SpanIds::json_num(self.ids.lease)),
            ("tenant", SpanIds::json_field(&self.ids.tenant)),
            ("worker", SpanIds::json_field(&self.ids.worker)),
        ])
    }
}

/// Completed spans read from the rings, oldest `seq` first, plus how many
/// the rings had to forget (oldest-first) since the recorder started.
#[derive(Debug, Clone, Default)]
pub struct SpanDrain {
    /// The buffered spans with `seq >= since`, sorted by `seq`.
    pub spans: Vec<Span>,
    /// Total spans dropped to ring overflow over the recorder's lifetime.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct RingInner {
    ring: VecDeque<Span>,
    dropped: u64,
}

/// One worker's bounded ring of completed spans. Only the owning sink
/// pushes; readers merge across rings through
/// [`SpanRecorder::read_since`].
#[derive(Debug, Default)]
struct WorkerRing {
    inner: Mutex<RingInner>,
}

/// The shared recorder: clock epoch, global counters, per-worker rings and
/// the optional link to the scheduler trace's sequence watermark.
///
/// A recorder built with capacity `0` (or [`disabled`](Self::disabled)) is
/// fully inert: every sink it hands out is a no-op and
/// [`is_enabled`](Self::is_enabled) gates each instrumentation site down to
/// one branch.
#[derive(Debug)]
pub struct SpanRecorder {
    capacity: usize,
    epoch: Instant,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    trace_seq: OnceLock<Arc<AtomicU64>>,
    rings: Mutex<BTreeMap<String, Arc<WorkerRing>>>,
}

impl SpanRecorder {
    /// A recorder whose per-worker rings hold at most `capacity` completed
    /// spans each; `0` disables recording entirely.
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            capacity,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            trace_seq: OnceLock::new(),
            rings: Mutex::new(BTreeMap::new()),
        }
    }

    /// A recorder at [`DEFAULT_SPAN_CAPACITY`].
    pub fn with_default_capacity() -> SpanRecorder {
        SpanRecorder::new(DEFAULT_SPAN_CAPACITY)
    }

    /// The inert recorder: hands out no-op sinks, records nothing.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder::new(0)
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured per-worker ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder's epoch, from the monotonic clock.
    pub fn now_ns(&self) -> u64 {
        ns_between(self.epoch, Instant::now())
    }

    /// Links the scheduler trace's live sequence watermark (see
    /// [`TraceCapture::seq_mirror`](crate::trace::TraceCapture::seq_mirror)):
    /// every span records the watermark at enter and exit. At most one link
    /// sticks; later calls are ignored.
    pub fn link_trace_seq(&self, mirror: Arc<AtomicU64>) {
        let _ = self.trace_seq.set(mirror);
    }

    fn trace_watermark(&self) -> u64 {
        self.trace_seq
            .get()
            .map_or(0, |mirror| mirror.load(Ordering::Relaxed))
    }

    /// The sequence number the next completed span will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Total spans dropped to ring overflow across all workers.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .expect("span rings lock")
            .values()
            .map(|ring| ring.inner.lock().expect("span ring lock").dropped)
            .sum()
    }

    /// A recording sink for `worker`, creating its ring on first use. The
    /// same worker name always maps to the same ring, so a worker thread
    /// that re-enters the loop keeps appending where it left off. On a
    /// disabled recorder this is a no-op sink.
    pub fn sink(self: &Arc<Self>, worker: &str) -> SpanSink {
        if !self.is_enabled() {
            return SpanSink::disabled();
        }
        let ring = Arc::clone(
            self.rings
                .lock()
                .expect("span rings lock")
                .entry(worker.to_string())
                .or_default(),
        );
        SpanSink {
            shared: Some(SinkShared {
                recorder: Arc::clone(self),
                ring,
            }),
            state: RefCell::new(SinkState::default()),
        }
    }

    /// Non-destructive merged read of every buffered span with
    /// `seq >= since`, sorted by completion `seq`. `dropped` is the
    /// recorder-lifetime overflow total — a reader whose cursor observes it
    /// growing knows its window has gaps.
    pub fn read_since(&self, since: u64) -> SpanDrain {
        let mut spans = Vec::new();
        let mut dropped = 0;
        {
            let rings = self.rings.lock().expect("span rings lock");
            for ring in rings.values() {
                let inner = ring.inner.lock().expect("span ring lock");
                dropped += inner.dropped;
                spans.extend(inner.ring.iter().filter(|s| s.seq >= since).cloned());
            }
        }
        spans.sort_by_key(|span| span.seq);
        SpanDrain { spans, dropped }
    }

    /// Every buffered span, sorted by completion `seq`.
    pub fn spans(&self) -> Vec<Span> {
        self.read_since(0).spans
    }
}

/// Nanoseconds from `start` to `end` (zero if `end` is earlier).
fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A `(monotonic instant, trace watermark)` pair: one lap boundary.
#[derive(Debug, Clone, Copy)]
struct SpanStamp {
    at: Instant,
    /// The scheduler-trace sequence watermark at stamp time.
    trace_seq: u64,
}

#[derive(Debug)]
struct SinkShared {
    recorder: Arc<SpanRecorder>,
    ring: Arc<WorkerRing>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    phase: PhaseId,
    start_ns: u64,
    trace_first: u64,
    child_ns: u64,
}

/// The lapped occurrences of one phase since the sink last published.
#[derive(Debug)]
struct Tally {
    phase: PhaseId,
    count: u64,
    total_ns: u64,
    first: SpanStamp,
    last: SpanStamp,
}

#[derive(Debug, Default)]
struct SinkState {
    context: SpanIds,
    stack: Vec<OpenSpan>,
    /// Where the running lap started, once a chain is started.
    lap: Option<SpanStamp>,
    /// Open spans when the chain started: its tallies are children of the
    /// innermost of them, even while an evaluator's own span nests deeper.
    lap_depth: usize,
    /// Unpublished lap tallies, in first-lapped order.
    tallies: Vec<Tally>,
}

/// A single thread's recording handle: an open-span stack plus the ambient
/// [`SpanIds`] context. Interior-mutable (`&self` methods) so a drain loop
/// and its flush callback can share one sink; deliberately `!Sync` — one
/// sink per thread.
#[derive(Debug)]
pub struct SpanSink {
    shared: Option<SinkShared>,
    state: RefCell<SinkState>,
}

impl SpanSink {
    /// The no-op sink: every method is a cheap early return.
    pub fn disabled() -> SpanSink {
        SpanSink {
            shared: None,
            state: RefCell::new(SinkState::default()),
        }
    }

    /// True when this sink records into a live ring.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// How many spans are currently open on this sink.
    pub fn depth(&self) -> usize {
        self.state.borrow().stack.len()
    }

    /// Replaces the ambient attribution context; spans completed after this
    /// call carry a clone of `ids`.
    pub fn set_context(&self, ids: SpanIds) {
        if self.shared.is_none() {
            return;
        }
        self.state.borrow_mut().context = ids;
    }

    /// Resets the ambient context to all-`None`.
    pub fn clear_context(&self) {
        self.set_context(SpanIds::default());
    }

    /// Opens a span of `phase` nested under the current top of the stack.
    pub fn enter(&self, phase: PhaseId) {
        let Some(shared) = &self.shared else {
            return;
        };
        let open = OpenSpan {
            id: shared.recorder.next_id.fetch_add(1, Ordering::Relaxed),
            phase,
            start_ns: shared.recorder.now_ns(),
            trace_first: shared.recorder.trace_watermark(),
            child_ns: 0,
        };
        self.state.borrow_mut().stack.push(open);
    }

    /// Closes the innermost open span under the phase it was entered as.
    pub fn exit(&self) {
        self.finish(None);
    }

    /// Closes the innermost open span, recording it as `phase` instead of
    /// the phase it was entered as — for stages whose identity is only known
    /// at exit (a flatten classified as patch vs rebuild, say).
    pub fn exit_as(&self, phase: PhaseId) {
        self.finish(Some(phase));
    }

    /// Starts a chain of [`lap`](Self::lap)s at `at` — an instant the caller
    /// has already read (a drain reads the clock once per variant anyway), so
    /// starting a chain costs no clock read of its own.
    pub fn lap_start(&self, at: Instant) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut state = self.state.borrow_mut();
        state.lap = Some(SpanStamp {
            at,
            trace_seq: shared.recorder.trace_watermark(),
        });
        state.lap_depth = state.stack.len();
    }

    /// The last lap boundary (the latest [`lap`](Self::lap) or
    /// [`lap_start`](Self::lap_start)) while a chain runs; `None` otherwise
    /// and on a disabled sink. A caller that needs the time right after a lap
    /// reads it here instead of reading the clock again.
    pub fn lap_time(&self) -> Option<Instant> {
        self.state.borrow().lap.map(|stamp| stamp.at)
    }

    /// Ends the running lap as one occurrence of `phase` and starts the next
    /// lap at the same instant: one clock read per phase boundary. The
    /// occurrence is added to the sink's tally of `phase` instead of being
    /// recorded as a span of its own; tallies are published, as one
    /// aggregate span per phase, by [`flush_tallies`](Self::flush_tallies) or
    /// when the span the chain started under exits (spans entered and exited
    /// between laps leave the chain alone). Without a started chain this only
    /// starts one.
    pub fn lap(&self, phase: PhaseId) {
        let Some(shared) = &self.shared else {
            return;
        };
        let now = SpanStamp {
            at: Instant::now(),
            trace_seq: shared.recorder.trace_watermark(),
        };
        let mut state = self.state.borrow_mut();
        if state.lap.is_none() {
            state.lap_depth = state.stack.len();
        }
        if let Some(start) = state.lap.replace(now) {
            let duration = ns_between(start.at, now.at);
            match state.tallies.iter_mut().find(|tally| tally.phase == phase) {
                Some(tally) => {
                    tally.count += 1;
                    tally.total_ns += duration;
                    tally.last = now;
                }
                None => state.tallies.push(Tally {
                    phase,
                    count: 1,
                    total_ns: duration,
                    first: start,
                    last: now,
                }),
            }
        }
    }

    /// Publishes the lap tallies as children of the span the chain started
    /// under: one span per phase carrying its occurrence [`count`](Span::count), laid
    /// back to back from the earliest lap's start (each span's duration is its
    /// phase's total), and ends the lap chain. A drain calls this once per
    /// report batch, so a long drain's phases become readable as it goes.
    pub fn flush_tallies(&self) {
        if let Some(shared) = &self.shared {
            Self::publish_tallies(shared, &mut self.state.borrow_mut());
        }
    }

    fn publish_tallies(shared: &SinkShared, state: &mut SinkState) {
        state.lap = None;
        let Some(first) = state.tallies.iter().map(|tally| tally.first.at).min() else {
            return;
        };
        let mut cursor = ns_between(shared.recorder.epoch, first);
        let trace_last = state
            .tallies
            .iter()
            .map(|tally| tally.last.trace_seq)
            .max()
            .unwrap_or(0);
        for tally in std::mem::take(&mut state.tallies) {
            let enclosing = state.lap_depth.checked_sub(1);
            let parent = enclosing
                .and_then(|at| state.stack.get_mut(at))
                .map(|enclosing| {
                    enclosing.child_ns += tally.total_ns;
                    enclosing.id
                });
            let start_ns = cursor;
            cursor += tally.total_ns;
            shared.push(Span {
                seq: shared.recorder.next_seq.fetch_add(1, Ordering::Relaxed),
                id: shared.recorder.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                phase: tally.phase,
                start_ns,
                end_ns: cursor,
                child_ns: 0,
                trace_first: tally.first.trace_seq,
                trace_last,
                ids: state.context.clone(),
                count: tally.count,
            });
        }
    }

    fn finish(&self, phase: Option<PhaseId>) {
        let Some(shared) = &self.shared else {
            return;
        };
        let mut state = self.state.borrow_mut();
        if state.stack.len() <= state.lap_depth {
            // The chain's enclosing span is closing: its laps go with it.
            Self::publish_tallies(shared, &mut state);
        }
        let Some(open) = state.stack.pop() else {
            debug_assert!(false, "span exit without a matching enter");
            return;
        };
        let end_ns = shared.recorder.now_ns();
        let duration = end_ns.saturating_sub(open.start_ns);
        let parent = state.stack.last_mut().map(|enclosing| {
            enclosing.child_ns += duration;
            enclosing.id
        });
        let span = Span {
            seq: shared.recorder.next_seq.fetch_add(1, Ordering::Relaxed),
            id: open.id,
            parent,
            phase: phase.unwrap_or(open.phase),
            start_ns: open.start_ns,
            end_ns,
            child_ns: open.child_ns,
            trace_first: open.trace_first,
            trace_last: shared.recorder.trace_watermark(),
            ids: state.context.clone(),
            count: 1,
        };
        drop(state);
        shared.push(span);
    }
}

impl SinkShared {
    /// Appends a completed span to the worker's ring, dropping the oldest
    /// span when the ring is full.
    fn push(&self, span: Span) {
        let mut inner = self.ring.inner.lock().expect("span ring lock");
        if inner.ring.len() == self.recorder.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(span);
    }
}

/// Per-phase aggregate over a set of spans.
#[derive(Debug)]
pub struct PhaseProfile {
    /// The phase.
    pub phase: PhaseId,
    /// Occurrences of this phase: one per span, [`Span::count`] per
    /// aggregate span.
    pub count: u64,
    /// Summed wall-clock duration.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
    /// Log-linear histogram of span durations (bounded ~3% quantile error;
    /// an aggregate span contributes its occurrences at their mean).
    pub histogram: Histogram,
}

/// One step of a job's critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// The phase of the step's span.
    pub phase: PhaseId,
    /// The lease the step ran under, if any.
    pub lease: Option<u64>,
    /// The worker that ran the step, if known.
    pub worker: Option<Arc<str>>,
    /// Span start, ns since the recorder epoch.
    pub start_ns: u64,
    /// Span end, ns since the recorder epoch.
    pub end_ns: u64,
}

impl PathStep {
    fn of(span: &Span) -> PathStep {
        PathStep {
            phase: span.phase,
            lease: span.ids.lease,
            worker: span.ids.worker.clone(),
            start_ns: span.start_ns,
            end_ns: span.end_ns,
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("phase", JsonValue::string(self.phase.name())),
            ("lease", SpanIds::json_num(self.lease)),
            ("worker", SpanIds::json_field(&self.worker)),
            ("start_ns", JsonValue::Int(i128::from(self.start_ns))),
            ("end_ns", JsonValue::Int(i128::from(self.end_ns))),
        ])
    }
}

/// A job's longest observed span chain: consecutive root spans walking
/// backwards from the job's last exit, each starting after the previous one
/// ended. The final step is the **straggler** — the lease whose completion
/// gated the job's wall clock (the lease hedging should have targeted).
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The job.
    pub job: u64,
    /// First span enter to last span exit across the whole job.
    pub wall_ns: u64,
    /// The chain, in chronological order.
    pub steps: Vec<PathStep>,
    /// The last-finishing step (straggler lease attribution).
    pub straggler: Option<PathStep>,
}

impl CriticalPath {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("job", JsonValue::Int(i128::from(self.job))),
            ("wall_ns", JsonValue::Int(i128::from(self.wall_ns))),
            (
                "straggler",
                self.straggler
                    .as_ref()
                    .map_or(JsonValue::Null, PathStep::to_json),
            ),
            (
                "steps",
                JsonValue::Array(self.steps.iter().map(PathStep::to_json).collect()),
            ),
        ])
    }
}

/// The aggregated view the `profile` op serves: per-phase totals, folded
/// flamegraph stacks and per-job critical paths.
#[derive(Debug, Default)]
pub struct Profile {
    /// Phases with at least one span, in [`PhaseId::ALL`] order.
    pub phases: Vec<PhaseProfile>,
    /// Folded stacks (`root;child;leaf self_ns`), one entry per distinct
    /// stack, sorted — the exact input `inferno` / `flamegraph.pl` take.
    pub folded: Vec<(String, u64)>,
    /// One critical path per job that had spans, in job-id order.
    pub critical_paths: Vec<CriticalPath>,
    /// Spans the rings dropped to overflow (the profile is missing them).
    pub dropped: u64,
}

impl Profile {
    /// Aggregates `spans` (any order) into the served profile. `dropped` is
    /// carried through verbatim from the [`SpanDrain`].
    pub fn from_spans(spans: &[Span], dropped: u64) -> Profile {
        let mut by_phase: BTreeMap<PhaseId, PhaseProfile> = BTreeMap::new();
        for span in spans {
            let entry = by_phase.entry(span.phase).or_insert_with(|| PhaseProfile {
                phase: span.phase,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                histogram: Histogram::new(),
            });
            entry.count += span.count;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.self_ns();
            // An aggregate contributes its occurrences at their mean.
            entry
                .histogram
                .record_n(span.duration_ns() / span.count.max(1), span.count);
        }
        let phases = PhaseId::ALL
            .into_iter()
            .filter_map(|phase| by_phase.remove(&phase))
            .collect();

        // Folded stacks: walk each span's parent chain to its root. A parent
        // the ring already dropped truncates the chain there — the span
        // still folds, just rooted shallower.
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|span| (span.id, span)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for span in spans {
            let mut names = vec![span.phase.name()];
            let mut cursor = span.parent;
            while let Some(parent_id) = cursor {
                let Some(parent) = by_id.get(&parent_id) else {
                    break;
                };
                names.push(parent.phase.name());
                cursor = parent.parent;
            }
            names.reverse();
            *folded.entry(names.join(";")).or_insert(0) += span.self_ns();
        }
        let folded = folded.into_iter().collect();

        // Critical path per job, over root spans only (nested spans are
        // already covered by their roots).
        let mut jobs: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for span in spans {
            if let (Some(job), None) = (span.ids.job, span.parent) {
                jobs.entry(job).or_default().push(span);
            }
        }
        let critical_paths = jobs
            .into_iter()
            .map(|(job, mut roots)| {
                roots.sort_by_key(|span| (span.end_ns, span.start_ns));
                let first_start = roots.iter().map(|s| s.start_ns).min().unwrap_or(0);
                let last = *roots.last().expect("a job group is non-empty");
                let mut steps = vec![PathStep::of(last)];
                let mut current_start = last.start_ns;
                // Chain backwards: the latest-ending root that exited before
                // the current step entered is the step that gated it.
                while let Some(prev) = roots.iter().rev().find(|span| span.end_ns <= current_start)
                {
                    current_start = prev.start_ns;
                    steps.push(PathStep::of(prev));
                }
                steps.reverse();
                CriticalPath {
                    job,
                    wall_ns: last.end_ns.saturating_sub(first_start),
                    straggler: Some(PathStep::of(last)),
                    steps,
                }
            })
            .collect();

        Profile {
            phases,
            folded,
            critical_paths,
            dropped,
        }
    }

    /// Summed self time across every phase — approximates total busy worker
    /// time when the drain roots cover the workers' running time.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|phase| phase.self_ns).sum()
    }

    /// The profile as one canonical JSON object (what the `profile` op
    /// returns and quiesce persists as `profile.json`).
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|entry| {
                JsonValue::object([
                    ("phase", JsonValue::string(entry.phase.name())),
                    ("count", JsonValue::Int(i128::from(entry.count))),
                    ("total_ns", JsonValue::Int(i128::from(entry.total_ns))),
                    ("self_ns", JsonValue::Int(i128::from(entry.self_ns))),
                    ("duration_ns", entry.histogram.summary()),
                ])
            })
            .collect();
        let folded = self
            .folded
            .iter()
            .map(|(stack, self_ns)| JsonValue::string(format!("{stack} {self_ns}")))
            .collect();
        let paths = self
            .critical_paths
            .iter()
            .map(CriticalPath::to_json)
            .collect();
        JsonValue::object([
            ("dropped", JsonValue::Int(i128::from(self.dropped))),
            ("phases", JsonValue::Array(phases)),
            ("folded", JsonValue::Array(folded)),
            ("critical_paths", JsonValue::Array(paths)),
        ])
    }
}

/// Renders `spans` as Chrome trace-event JSON — an object with a
/// `traceEvents` array of `ph:"X"` complete events (pid = tenant,
/// tid = worker, ts/dur in microseconds) plus `ph:"M"` metadata events
/// naming each pid/tid, loadable directly in Perfetto or `chrome://tracing`.
/// Each event's `args` carries the span's waitgraph node ids
/// (`job:{j}`, `shard:{j}/{s}`, `lease:{l}`, ...) and its
/// `trace_first`/`trace_last` scheduler-trace window.
pub fn chrome_trace(spans: &[Span]) -> JsonValue {
    // Stable small integer ids: tenants (pids) and workers (tids) in sorted
    // name order, 0 reserved for "no attribution" (registry-side spans).
    let mut tenants: Vec<&str> = spans
        .iter()
        .filter_map(|span| span.ids.tenant.as_deref())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    let mut workers: Vec<&str> = spans
        .iter()
        .filter_map(|span| span.ids.worker.as_deref())
        .collect();
    workers.sort_unstable();
    workers.dedup();
    let pid_of = |tenant: Option<&str>| {
        tenant.map_or(0, |name| {
            tenants
                .iter()
                .position(|t| *t == name)
                .expect("tenant indexed") as i128
                + 1
        })
    };
    let tid_of = |worker: Option<&str>| {
        worker.map_or(0, |name| {
            workers
                .iter()
                .position(|w| *w == name)
                .expect("worker indexed") as i128
                + 1
        })
    };

    let mut events = Vec::new();
    let mut named: Vec<(i128, i128)> = Vec::new();
    let meta = |name: &str, pid: i128, tid: i128, label: String| {
        JsonValue::object([
            ("name", JsonValue::string(name)),
            ("ph", JsonValue::string("M")),
            ("pid", JsonValue::Int(pid)),
            ("tid", JsonValue::Int(tid)),
            (
                "args",
                JsonValue::object([("name", JsonValue::string(label))]),
            ),
        ])
    };
    events.push(meta("process_name", 0, 0, "store".to_string()));
    for (index, tenant) in tenants.iter().enumerate() {
        events.push(meta(
            "process_name",
            index as i128 + 1,
            0,
            format!("tenant:{tenant}"),
        ));
    }
    for span in spans {
        let pid = pid_of(span.ids.tenant.as_deref());
        let tid = tid_of(span.ids.worker.as_deref());
        if !named.contains(&(pid, tid)) {
            named.push((pid, tid));
            let label = span
                .ids
                .worker
                .as_deref()
                .map_or("registry".to_string(), |worker| format!("worker:{worker}"));
            events.push(meta("thread_name", pid, tid, label));
        }
        let args = JsonValue::object([
            ("span", JsonValue::Int(i128::from(span.id))),
            ("parent", SpanIds::json_num(span.parent)),
            ("count", JsonValue::Int(i128::from(span.count))),
            (
                "job",
                span.ids.job.map_or(JsonValue::Null, |job| {
                    JsonValue::string(format!("job:{job}"))
                }),
            ),
            (
                "shard",
                match (span.ids.job, span.ids.shard) {
                    (Some(job), Some(shard)) => JsonValue::string(format!("shard:{job}/{shard}")),
                    _ => JsonValue::Null,
                },
            ),
            (
                "lease",
                span.ids.lease.map_or(JsonValue::Null, |lease| {
                    JsonValue::string(format!("lease:{lease}"))
                }),
            ),
            (
                "tenant",
                span.ids.tenant.as_deref().map_or(JsonValue::Null, |t| {
                    JsonValue::string(format!("tenant:{t}"))
                }),
            ),
            (
                "worker",
                span.ids.worker.as_deref().map_or(JsonValue::Null, |w| {
                    JsonValue::string(format!("worker:{w}"))
                }),
            ),
            ("dur_ns", JsonValue::Int(i128::from(span.duration_ns()))),
            ("self_ns", JsonValue::Int(i128::from(span.self_ns()))),
            ("trace_first", JsonValue::Int(i128::from(span.trace_first))),
            ("trace_last", JsonValue::Int(i128::from(span.trace_last))),
        ]);
        events.push(JsonValue::object([
            ("name", JsonValue::string(span.phase.name())),
            ("cat", JsonValue::string("spi")),
            ("ph", JsonValue::string("X")),
            ("pid", JsonValue::Int(pid)),
            ("tid", JsonValue::Int(tid)),
            ("ts", JsonValue::Int(i128::from(span.start_ns / 1_000))),
            (
                "dur",
                JsonValue::Int(i128::from(span.duration_ns() / 1_000)),
            ),
            ("args", args),
        ]));
    }
    JsonValue::object([
        ("displayTimeUnit", JsonValue::string("ns")),
        ("traceEvents", JsonValue::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::new(capacity))
    }

    #[test]
    fn laps_publish_one_aggregate_per_phase_under_the_enclosing_span() {
        let recorder = recorder(64);
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::DrainShard);
        // Without a started chain a lap only starts one.
        sink.lap(PhaseId::CompileLower);
        sink.flush_tallies();
        assert!(recorder.spans().is_empty());
        for _ in 0..3 {
            sink.lap_start(Instant::now());
            sink.lap(PhaseId::FlattenPatch);
            sink.lap(PhaseId::CompileLower);
            sink.lap(PhaseId::PartitionSearch);
        }
        sink.lap_start(Instant::now());
        sink.lap(PhaseId::FlattenRebuild);
        sink.exit();

        let spans = recorder.spans();
        let phases: Vec<(PhaseId, u64)> = spans.iter().map(|s| (s.phase, s.count)).collect();
        assert_eq!(
            phases,
            [
                (PhaseId::FlattenPatch, 3),
                (PhaseId::CompileLower, 3),
                (PhaseId::PartitionSearch, 3),
                (PhaseId::FlattenRebuild, 1),
                (PhaseId::DrainShard, 1),
            ]
        );
        let (aggregates, drain) = spans.split_at(4);
        let drain = &drain[0];
        for pair in aggregates.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns, "laid back to back");
        }
        assert!(aggregates[0].start_ns >= drain.start_ns);
        assert!(aggregates[3].end_ns <= drain.end_ns);
        assert!(aggregates.iter().all(|s| s.parent == Some(drain.id)));
        let lapped: u64 = aggregates.iter().map(Span::duration_ns).sum();
        assert_eq!(drain.child_ns, lapped);

        let profile = Profile::from_spans(&spans, 0);
        let search = profile
            .phases
            .iter()
            .find(|p| p.phase == PhaseId::PartitionSearch)
            .unwrap();
        assert_eq!((search.count, search.histogram.count()), (3, 3));
    }

    #[test]
    fn spans_nested_between_laps_leave_the_chain_alone() {
        let recorder = recorder(64);
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::DrainShard);
        sink.lap_start(Instant::now());
        sink.lap(PhaseId::FlattenPatch);
        sink.enter(PhaseId::CompileLower);
        sink.exit();
        sink.lap(PhaseId::FlattenPatch);
        assert_eq!(recorder.spans().len(), 1, "only the nested span so far");
        sink.exit();

        let spans = recorder.spans();
        let drain = spans.last().unwrap();
        assert_eq!(drain.phase, PhaseId::DrainShard);
        let flatten = spans
            .iter()
            .find(|s| s.phase == PhaseId::FlattenPatch)
            .unwrap();
        assert_eq!((flatten.count, flatten.parent), (2, Some(drain.id)));
        assert_eq!(spans[0].parent, Some(drain.id));
    }

    #[test]
    fn disabled_sinks_ignore_laps() {
        let sink = SpanSink::disabled();
        sink.lap_start(Instant::now());
        sink.lap(PhaseId::FlattenPatch);
        sink.flush_tallies();
        assert_eq!(sink.depth(), 0);
    }

    #[test]
    fn disabled_recorder_hands_out_noop_sinks() {
        let recorder = Arc::new(SpanRecorder::disabled());
        assert!(!recorder.is_enabled());
        let sink = recorder.sink("w0");
        assert!(!sink.is_enabled());
        sink.enter(PhaseId::DrainShard);
        sink.exit();
        assert_eq!(recorder.next_seq(), 0);
        assert!(recorder.spans().is_empty());
    }

    #[test]
    fn nesting_assigns_parents_and_self_time() {
        let recorder = recorder(64);
        let sink = recorder.sink("w0");
        sink.set_context(SpanIds {
            job: Some(3),
            shard: Some(1),
            lease: Some(7),
            tenant: Some("team".into()),
            worker: Some("w0".into()),
        });
        sink.enter(PhaseId::DrainShard);
        sink.enter(PhaseId::FlattenRebuild);
        sink.exit();
        sink.enter(PhaseId::CompileLower);
        sink.exit();
        sink.exit();
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        let root = spans
            .iter()
            .find(|s| s.phase == PhaseId::DrainShard)
            .unwrap();
        assert_eq!(root.parent, None);
        for child in spans.iter().filter(|s| s.phase != PhaseId::DrainShard) {
            assert_eq!(child.parent, Some(root.id));
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        let children_ns: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(Span::duration_ns)
            .sum();
        assert_eq!(root.child_ns, children_ns);
        assert_eq!(root.self_ns(), root.duration_ns() - children_ns);
        assert_eq!(root.ids.job, Some(3));
        assert_eq!(root.ids.tenant.as_deref(), Some("team"));
    }

    #[test]
    fn exit_as_reclassifies_the_open_phase() {
        let recorder = recorder(8);
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::FlattenRebuild);
        sink.exit_as(PhaseId::FlattenPatch);
        assert_eq!(recorder.spans()[0].phase, PhaseId::FlattenPatch);
    }

    /// LCG-driven random nesting: every recorded span must exit at or after
    /// it entered, sit fully inside its parent, and never claim more child
    /// time than its own duration.
    #[test]
    fn random_nesting_preserves_span_invariants() {
        let phases = PhaseId::ALL;
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize
        };
        let recorder = recorder(4096);
        let sink = recorder.sink("w0");
        let mut depth = 0usize;
        for _ in 0..2000 {
            let enter = depth == 0 || (depth < 12 && next() % 3 != 0);
            if enter {
                sink.enter(phases[next() % phases.len()]);
                depth += 1;
            } else {
                sink.exit();
                depth -= 1;
            }
        }
        while depth > 0 {
            sink.exit();
            depth -= 1;
        }
        let spans = recorder.spans();
        assert!(spans.len() > 100, "the walk closed plenty of spans");
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for span in &spans {
            assert!(span.end_ns >= span.start_ns, "exit at or after enter");
            assert!(span.child_ns <= span.duration_ns() || span.duration_ns() == 0);
            assert!(span.trace_last >= span.trace_first);
            if let Some(parent) = span.parent {
                let parent = by_id[&parent];
                assert!(
                    parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                    "child [{}, {}] escapes parent [{}, {}]",
                    span.start_ns,
                    span.end_ns,
                    parent.start_ns,
                    parent.end_ns
                );
            }
        }
        // Completion (seq) order is exit order: strictly increasing end_ns
        // modulo clock resolution, and seqs are dense from 0.
        for (index, span) in spans.iter().enumerate() {
            assert_eq!(span.seq, index as u64);
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_first_and_counts() {
        let recorder = recorder(8);
        let sink = recorder.sink("w0");
        for _ in 0..20 {
            sink.enter(PhaseId::WalAppend);
            sink.exit();
        }
        let drain = recorder.read_since(0);
        assert_eq!(drain.dropped, 12);
        assert_eq!(drain.spans.len(), 8);
        // Oldest-first: the survivors are exactly the newest 8 seqs.
        let seqs: Vec<u64> = drain.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        assert_eq!(recorder.dropped(), 12);
    }

    #[test]
    fn read_since_filters_by_completion_seq_across_rings() {
        let recorder = recorder(64);
        let a = recorder.sink("a");
        let b = recorder.sink("b");
        for _ in 0..3 {
            a.enter(PhaseId::WalAppend);
            a.exit();
            b.enter(PhaseId::LeaseRenew);
            b.exit();
        }
        let all = recorder.read_since(0);
        assert_eq!(all.spans.len(), 6);
        assert!(all.spans.windows(2).all(|w| w[0].seq < w[1].seq));
        let tail = recorder.read_since(4);
        assert_eq!(tail.spans.len(), 2);
        assert!(tail.spans.iter().all(|s| s.seq >= 4));
    }

    #[test]
    fn trace_watermark_brackets_the_span() {
        let recorder = recorder(8);
        let mirror = Arc::new(AtomicU64::new(41));
        recorder.link_trace_seq(Arc::clone(&mirror));
        let sink = recorder.sink("w0");
        sink.enter(PhaseId::ShardCommit);
        mirror.store(45, Ordering::Relaxed);
        sink.exit();
        let span = &recorder.spans()[0];
        assert_eq!((span.trace_first, span.trace_last), (41, 45));
    }

    #[test]
    fn span_json_round_trips_through_the_strict_parser() {
        let recorder = recorder(8);
        let sink = recorder.sink("w0");
        sink.set_context(SpanIds {
            job: Some(1),
            shard: Some(2),
            lease: Some(3),
            tenant: Some("t".into()),
            worker: Some("w0".into()),
        });
        sink.enter(PhaseId::PartitionSearch);
        sink.exit();
        let span = &recorder.spans()[0];
        let parsed = JsonValue::parse(&span.to_json().to_line()).unwrap();
        assert_eq!(
            parsed.get("phase").unwrap().as_str(),
            Some("partition_search")
        );
        assert_eq!(parsed.get("job").unwrap().as_u64(), Some(1));
        assert_eq!(
            PhaseId::from_name(parsed.get("phase").unwrap().as_str().unwrap()),
            Some(PhaseId::PartitionSearch)
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn synthetic_span(
        seq: u64,
        id: u64,
        parent: Option<u64>,
        phase: PhaseId,
        start_ns: u64,
        end_ns: u64,
        child_ns: u64,
        job: Option<u64>,
        lease: Option<u64>,
    ) -> Span {
        Span {
            seq,
            id,
            parent,
            phase,
            start_ns,
            end_ns,
            child_ns,
            trace_first: 0,
            trace_last: 0,
            ids: SpanIds {
                job,
                shard: None,
                lease,
                tenant: None,
                worker: None,
            },
            count: 1,
        }
    }

    #[test]
    fn profile_folds_stacks_and_attributes_self_time() {
        // drain[0,100]{ flatten[10,30], search[40,90] }, plus a bare commit.
        let spans = vec![
            synthetic_span(
                0,
                1,
                Some(0),
                PhaseId::FlattenPatch,
                10,
                30,
                0,
                Some(0),
                Some(1),
            ),
            synthetic_span(
                1,
                2,
                Some(0),
                PhaseId::PartitionSearch,
                40,
                90,
                0,
                Some(0),
                Some(1),
            ),
            synthetic_span(
                2,
                0,
                None,
                PhaseId::DrainShard,
                0,
                100,
                70,
                Some(0),
                Some(1),
            ),
            synthetic_span(
                3,
                3,
                None,
                PhaseId::ShardCommit,
                100,
                110,
                0,
                Some(0),
                Some(1),
            ),
        ];
        let profile = Profile::from_spans(&spans, 5);
        assert_eq!(profile.dropped, 5);
        let drain = profile
            .phases
            .iter()
            .find(|p| p.phase == PhaseId::DrainShard)
            .unwrap();
        assert_eq!((drain.count, drain.total_ns, drain.self_ns), (1, 100, 30));
        assert_eq!(profile.total_self_ns(), 30 + 20 + 50 + 10);
        let folded: BTreeMap<&str, u64> = profile
            .folded
            .iter()
            .map(|(stack, ns)| (stack.as_str(), *ns))
            .collect();
        assert_eq!(folded["drain_shard"], 30);
        assert_eq!(folded["drain_shard;flatten_patch"], 20);
        assert_eq!(folded["drain_shard;partition_search"], 50);
        assert_eq!(folded["shard_commit"], 10);
    }

    #[test]
    fn critical_path_chains_backwards_to_the_straggler() {
        // Two "waves" of drains on job 0: [0,50] and [10,60] overlap, then
        // [70,200] runs after both — the path is one early drain plus the
        // straggler, and the wall clock spans first enter to last exit.
        let spans = vec![
            synthetic_span(0, 0, None, PhaseId::DrainShard, 0, 50, 0, Some(0), Some(10)),
            synthetic_span(
                1,
                1,
                None,
                PhaseId::DrainShard,
                10,
                60,
                0,
                Some(0),
                Some(11),
            ),
            synthetic_span(
                2,
                2,
                None,
                PhaseId::DrainShard,
                70,
                200,
                0,
                Some(0),
                Some(12),
            ),
        ];
        let profile = Profile::from_spans(&spans, 0);
        assert_eq!(profile.critical_paths.len(), 1);
        let path = &profile.critical_paths[0];
        assert_eq!(path.job, 0);
        assert_eq!(path.wall_ns, 200);
        assert_eq!(path.straggler.as_ref().unwrap().lease, Some(12));
        let leases: Vec<Option<u64>> = path.steps.iter().map(|s| s.lease).collect();
        assert_eq!(leases, vec![Some(11), Some(12)]);
    }

    #[test]
    fn chrome_trace_emits_metadata_and_complete_events() {
        let recorder = recorder(16);
        let sink = recorder.sink("w0");
        sink.set_context(SpanIds {
            job: Some(0),
            shard: Some(2),
            lease: Some(9),
            tenant: Some("team-a".into()),
            worker: Some("w0".into()),
        });
        sink.enter(PhaseId::DrainShard);
        sink.enter(PhaseId::FlattenRebuild);
        sink.exit();
        sink.exit();
        let trace = chrome_trace(&recorder.spans());
        let parsed = JsonValue::parse(&trace.to_line()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for event in &complete {
            let args = event.get("args").unwrap();
            assert_eq!(args.get("job").unwrap().as_str(), Some("job:0"));
            assert_eq!(args.get("shard").unwrap().as_str(), Some("shard:0/2"));
            assert_eq!(args.get("lease").unwrap().as_str(), Some("lease:9"));
            assert_eq!(args.get("tenant").unwrap().as_str(), Some("tenant:team-a"));
            assert_eq!(args.get("worker").unwrap().as_str(), Some("worker:w0"));
        }
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(JsonValue::as_str)
            .collect();
        assert!(names.contains(&"tenant:team-a"));
        assert!(names.contains(&"worker:w0"));
    }
}
