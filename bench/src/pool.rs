//! An in-process mirror of the service's worker loop: a `JobRegistry`
//! behind one mutex, drained by `nproc` threads through `lease_as` →
//! `drain_lease`, with the benchmark's spans around every call. Builds the
//! `restart` store and drives the traced replays.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spi_explore::{
    drain_lease, DurabilitySink, Evaluation, Evaluator, FlushResponse, JobRegistry, WalSink,
};
use spi_model::json::JsonValue;
use spi_model::SpiGraph;
use spi_variants::VariantChoice;

use crate::spans::{self, span};

/// The service's default batch size (`--batch`).
pub const BATCH: usize = 256;

/// Times `lower_bound` and `evaluate` of the wrapped evaluator. `spec` is
/// passed through, so cache digests are unchanged.
pub struct TimedEvaluator(pub Arc<dyn Evaluator>);

impl Evaluator for TimedEvaluator {
    fn lower_bound(&self, choice: &VariantChoice, graph: &SpiGraph) -> u64 {
        span("evaluator.lower_bound", || {
            self.0.lower_bound(choice, graph)
        })
    }

    fn spec(&self) -> Option<JsonValue> {
        self.0.spec()
    }

    fn evaluate(
        &self,
        index: usize,
        choice: &VariantChoice,
        graph: &SpiGraph,
        incumbent: u64,
    ) -> spi_explore::Result<Evaluation> {
        span("evaluator.evaluate", || {
            self.0.evaluate(index, choice, graph, incumbent)
        })
    }
}

/// Times appends and compactions of the WAL and counts the bytes appended.
pub struct TimedSink(pub WalSink);

impl DurabilitySink for TimedSink {
    fn append(&mut self, record: &JsonValue) -> Result<(), String> {
        let before = self.0.log_bytes();
        let out = span("durability.append", || self.0.append(record));
        spans::count("durability.appends", 1);
        spans::count(
            "durability.bytes",
            self.0.log_bytes().saturating_sub(before),
        );
        out
    }

    fn compact(&mut self, snapshot: &JsonValue) -> Result<u64, String> {
        span("durability.compact", || self.0.compact(snapshot))
    }

    fn log_bytes(&self) -> u64 {
        self.0.log_bytes()
    }
}

/// A registry shared with its worker threads.
pub struct Shared {
    pub registry: Mutex<JobRegistry>,
    pub work: Condvar,
    pub stop: AtomicBool,
    /// When each job was submitted, for the shards' queue wait.
    pub submitted: Mutex<std::collections::HashMap<u64, Instant>>,
}

impl Shared {
    pub fn new(registry: JobRegistry) -> Arc<Shared> {
        Arc::new(Shared {
            registry: Mutex::new(registry),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            submitted: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// Takes the registry lock, timing the wait.
    pub fn lock(&self) -> MutexGuard<'_, JobRegistry> {
        span("registry.lock_wait", || {
            self.registry
                .lock()
                .expect("registry lock is never poisoned")
        })
    }
}

/// Starts `workers` threads mirroring the service's worker loop; each hands
/// its recording back when joined.
pub fn start_workers(
    shared: &Arc<Shared>,
    workers: usize,
) -> Vec<std::thread::JoinHandle<spans::Tracer>> {
    (0..workers)
        .map(|index| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                spans::set_thread(index as u32 + 1);
                worker_loop(&shared, &format!("bench-worker-{index}"));
                spans::take()
            })
        })
        .collect()
}

/// Stops and joins the workers, returning their recordings.
pub fn stop_workers(
    shared: &Shared,
    handles: Vec<std::thread::JoinHandle<spans::Tracer>>,
) -> Vec<spans::Tracer> {
    shared.stop.store(true, Ordering::SeqCst);
    shared.work.notify_all();
    handles
        .into_iter()
        .map(|handle| handle.join().expect("bench worker thread"))
        .collect()
}

fn worker_loop(shared: &Shared, worker: &str) {
    while !shared.stop.load(Ordering::SeqCst) {
        let lease = {
            let mut registry = shared.lock();
            registry.expire(Instant::now());
            match span("registry.lease", || {
                registry.lease_as(worker, Instant::now())
            }) {
                Some(lease) => Some(lease),
                None => {
                    let _ = shared
                        .work
                        .wait_timeout(registry, Duration::from_millis(20))
                        .expect("registry lock is never poisoned");
                    None
                }
            }
        };
        let Some(lease) = lease else { continue };
        let submitted = shared
            .submitted
            .lock()
            .expect("submit-time lock")
            .get(&lease.job.raw())
            .copied();
        if let (Some(at), false) = (submitted, lease.hedged) {
            spans::count("sched.shards_leased", 1);
            spans::count("sched.queue_wait_ns", at.elapsed().as_nanos() as u64);
        }
        spans::set_ids(Some(lease.job.raw()), Some(lease.shard as u64));
        let combinations = lease.flattener.space().count();
        let variants = (lease.shard..combinations)
            .step_by(lease.shard_count)
            .count();
        span("worker.drain", || {
            drain_lease(
                &lease,
                BATCH,
                || shared.stop.load(Ordering::SeqCst),
                |delta, is_final| {
                    let mut registry = shared.lock();
                    let result = if is_final {
                        span("registry.complete_shard", || {
                            registry
                                .complete_shard(lease.lease, delta, Instant::now())
                                .map(|_| ())
                        })
                    } else {
                        span("registry.report_batch", || {
                            registry.report_batch(lease.lease, delta, Instant::now())
                        })
                    };
                    match result {
                        Ok(()) => FlushResponse::Continue,
                        Err(_) => FlushResponse::Stop,
                    }
                },
            )
        });
        spans::count("worker.variants", variants as u64);
        spans::set_ids(None, None);
    }
}

/// Polls until `job` is terminal; returns its status.
pub fn wait_job(shared: &Shared, job: spi_explore::JobId) -> spi_explore::JobStatus {
    loop {
        let status = shared
            .registry
            .lock()
            .expect("registry lock is never poisoned")
            .poll(job)
            .expect("submitted job is known");
        if status.state.is_terminal() {
            return status;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}
