//! The traced run: the same inputs replayed in this process through the
//! layers' public functions, with the benchmark's spans around each call.
//! The spans produce the per-layer ledger; nothing is traced inside the
//! program.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_explore::{
    handle_request, rebuild_from_recipe, BestVariant, Evaluator, ExplorationService, JobRegistry,
    PartitionEvaluator, RegistryConfig, ServiceConfig, ShardReport, WalSink,
};
use spi_model::digest::digest_json;
use spi_model::json::{JsonValue, ToJson};
use spi_store::Wal;
use spi_synth::partition::{optimize_compiled, EXHAUSTIVE_LIMIT};
use spi_synth::{compiled_from_flat_graph, SearchStrategy};
use spi_variants::{DeltaFlattener, Flattener};

use crate::e2e::{expected, DaemonCounts, Metric, Outcome};
use crate::inputs::{Job, Plan, References, Workload, RESTART_COMPLETED, TENANTS_BURST};
use crate::pool::{self, Shared, TimedEvaluator, TimedSink};
use crate::reference;
use crate::spans::{self, span, Ledger};
use crate::stats::{self, JobTiming, Tally};
use crate::store;

/// Task count above which a search call fans out to one thread per core
/// (`optimize_exhaustive` runs spaces of at most 2^10 masks serially).
const SERIAL_SEARCH_TASKS: usize = 10;
/// Submits replayed through `wire::handle_request` per run.
const WIRE_SAMPLES: usize = 16;
/// Trace track ids of the per-variant split threads (workers use 1..).
pub const SPLIT_TID: u32 = 100;

pub struct Env<'a> {
    pub out: &'a Path,
    pub refs: &'a References,
    pub workers: usize,
    pub seconds: u64,
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub info: Vec<(String, String)>,
    pub trace_path: std::path::PathBuf,
}

fn check_status(
    refs: &References,
    job: &Job,
    status: &spi_explore::JobStatus,
) -> Result<(), String> {
    let e = expected(refs, job)?;
    let r = &status.report;
    if !status.cache_hit && (r.errors != 0 || r.evaluated + r.pruned != e.combinations) {
        return Err("census mismatch".to_string());
    }
    spans::count("evaluator.pruned", r.pruned);
    spans::count("evaluator.accounted", r.evaluated + r.pruned);
    match status.best() {
        Some(best) if (best.index as u64, best.cost) == (e.best_index, e.best_cost) => Ok(()),
        other => Err(format!(
            "optimum {:?} != pinned {}/{}",
            other.map(|b| (b.index, b.cost)),
            e.best_index,
            e.best_cost
        )),
    }
}

/// Rebuilds the job's recipe, builds its flattener and digests it: the
/// submit path's steps, timed one by one outside the registry.
fn submit_probes(job: &Job) {
    let recipe = store::recipe(job);
    let Ok((system, evaluator)) = span("wire.rebuild", || rebuild_from_recipe(&recipe)) else {
        return;
    };
    let Ok(flattener) = span("flatten.new", || Flattener::new(&system)) else {
        return;
    };
    let space = flattener.space().to_json();
    let spec = evaluator.spec().unwrap_or(JsonValue::Null);
    let system = recipe.get("system").cloned().unwrap_or(JsonValue::Null);
    span("digest", || {
        digest_json(&JsonValue::object([
            ("system", system),
            ("space", space),
            ("evaluator", spec),
        ]))
    });
}

/// Submits `job` through the registry with the timing evaluator attached.
fn submit_traced(
    shared: &Shared,
    job: &Job,
    name: &'static str,
) -> Result<spi_explore::JobId, String> {
    let recipe = store::recipe(job);
    let (system, evaluator) = rebuild_from_recipe(&recipe).map_err(|e| e.to_string())?;
    let evaluator: Arc<dyn Evaluator> = Arc::new(TimedEvaluator(evaluator));
    let mut registry = shared
        .registry
        .lock()
        .expect("registry lock is never poisoned");
    let id = span(name, || {
        registry.submit_with_recipe(&system, store::spec(job), evaluator, Some(recipe))
    })
    .map_err(|e| e.to_string())?;
    drop(registry);
    shared
        .submitted
        .lock()
        .expect("submit-time lock")
        .insert(id.raw(), Instant::now());
    shared.work.notify_all();
    Ok(id)
}

/// Replays `job`'s shards, with the service's stride, through each
/// per-variant call on its own: Gray-rank delta flatten, choice decode,
/// lowering, search and top-k record. `workers` threads take shards in
/// order, as the service's workers do, so calls contend for the cores as
/// they do in the daemon. Stops taking shards after `deadline` (at least one
/// shard is replayed per thread).
fn split_job(
    job: &Job,
    workers: usize,
    deadline: Instant,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let system =
        spi_workloads::scaling_system(job.interfaces, job.clusters).map_err(|e| e.to_string())?;
    let flattener = Flattener::new(&system).map_err(|e| e.to_string())?;
    let evaluator = reference::evaluator(job.params_seed);
    let next_shard = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|index| {
                let (flattener, evaluator, next_shard) = (&flattener, &evaluator, &next_shard);
                scope.spawn(move || -> Result<spans::Tracer, String> {
                    spans::set_thread(SPLIT_TID + index as u32);
                    loop {
                        let shard = next_shard.fetch_add(1, Ordering::SeqCst);
                        if shard >= job.shards {
                            break;
                        }
                        split_shard(job, flattener, evaluator, shard)?;
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    Ok(spans::take())
                })
            })
            .collect();
        for thread in threads {
            let tracer = thread.join().expect("split thread")?;
            ledger.absorb(tracer);
        }
        Ok(())
    })
}

fn split_shard(
    job: &Job,
    flattener: &Flattener,
    evaluator: &PartitionEvaluator,
    shard: usize,
) -> Result<(), String> {
    let space = flattener.space();
    let combinations = space.count();
    spans::set_ids(None, Some(shard as u64));
    span("split.shard", || -> Result<(), String> {
        let mut delta = DeltaFlattener::new(flattener);
        let mut report = ShardReport::default();
        let mut rank = shard;
        while rank < combinations {
            let patches = delta.stats().patches;
            let start = Instant::now();
            let (index, graph) = delta.flatten_gray_rank(rank).map_err(|e| e.to_string())?;
            let flattened = Instant::now();
            let choice = span("space.choice_at", || space.choice_at(index))
                .ok_or("rank outside the space")?;
            let compiled = span("bridge.compile", || {
                compiled_from_flat_graph(graph, evaluator.processor_cost, |name| {
                    Some(evaluator.params.params_for(name))
                })
            })
            .map_err(|e| e.to_string())?;
            let fans_out = matches!(
                evaluator.strategy,
                SearchStrategy::Auto | SearchStrategy::Exhaustive
            ) && compiled.task_count() > SERIAL_SEARCH_TASKS
                && compiled.task_count() <= EXHAUSTIVE_LIMIT;
            spans::count("partition.fanout_calls", u64::from(fans_out));
            let searched = span("partition.search", || {
                optimize_compiled(&compiled, evaluator.mode, evaluator.strategy)
            });
            if let Ok(result) = searched {
                spans::count("partition.candidates", result.evaluated_candidates);
                let variant = BestVariant {
                    index,
                    cost: result.cost.total(),
                    choice,
                    detail: format!(
                        "hw=[{}] sw=[{}]",
                        result.cost.hardware_tasks.join(","),
                        result.cost.software_tasks.join(",")
                    ),
                };
                span("report.record", || report.record(variant, job.top_k));
            }
            let stats = delta.stats();
            if stats.patches > patches {
                spans::record("flatten.patch", start, flattened);
                spans::count("flatten.patched_processes", stats.last_patched_processes);
            } else {
                spans::record("flatten.rebuild", start, flattened);
            }
            rank += job.shards;
        }
        Ok(())
    })?;
    spans::set_ids(None, None);
    Ok(())
}

/// The plain serial loop the service replaces, over the first job's first
/// canonical indices until `deadline`.
fn serial_reference(job: &Job, deadline: Instant) -> Result<(), String> {
    let system =
        spi_workloads::scaling_system(job.interfaces, job.clusters).map_err(|e| e.to_string())?;
    let flattener = Flattener::new(&system).map_err(|e| e.to_string())?;
    let evaluator = reference::evaluator(job.params_seed);
    let count = flattener.space().count();
    let mut index = 0;
    while index < count {
        let chunk = (index..count).take(64);
        let n = chunk.len();
        span("reference.serial", || {
            reference::serial_loop(&flattener, &evaluator, chunk)
        })?;
        spans::count("reference.variants", n as u64);
        index += n;
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(())
}

/// Drives `handle_request` of an in-process service with the run's first
/// submit lines, each followed by a poll; big jobs are cancelled right away.
fn wire_probes(plan: &Plan, config: ServiceConfig, lines: &[String]) -> Result<(), String> {
    let service = span("service.start", || ExplorationService::try_start(config))
        .map_err(|e| e.to_string())?;
    for line in lines.iter().take(WIRE_SAMPLES) {
        let request = span("wire.parse", || JsonValue::parse(line)).map_err(|e| e.to_string())?;
        let answer = span("wire.handle_submit", || handle_request(&service, &request));
        let Some(id) = answer.get("job").and_then(JsonValue::as_u64) else {
            return Err(format!("in-process submit refused: {}", answer.to_line()));
        };
        let poll = format!(r#"{{"op":"poll","job":{id}}}"#);
        let request = span("wire.parse", || JsonValue::parse(&poll)).map_err(|e| e.to_string())?;
        span("wire.handle_poll", || handle_request(&service, &request));
        if matches!(plan.workload, Workload::Sweep | Workload::Exact) {
            let _ = service.cancel(spi_explore::JobId::from_raw(id));
        }
    }
    drop(service);
    Ok(())
}

/// Parses and re-writes the store's snapshot text.
fn json_probes(dir: &Path) -> std::io::Result<()> {
    let text = std::fs::read_to_string(dir.join("snapshot.json"))?;
    spans::count("json.bytes", text.len() as u64);
    let value = span("json.parse", || JsonValue::parse(&text)).map_err(std::io::Error::other)?;
    span("json.write", || value.to_line());
    Ok(())
}

/// Registry replay of the closed-loop workloads: the `units` jobs the
/// end-to-end run got through, one at a time.
fn replay_closed(
    env: &Env,
    plan: &Plan,
    units: usize,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Vec<JobTiming> {
    let shared = Shared::new(JobRegistry::with_config(RegistryConfig::default()));
    let handles = pool::start_workers(&shared, env.workers);
    let mut timings = Vec::new();
    for job in plan.jobs.iter().take(units) {
        let arrival = Instant::now();
        match submit_traced(&shared, job, "registry.submit") {
            Ok(id) => {
                let status = pool::wait_job(&shared, id);
                timings.push(JobTiming {
                    arrival,
                    done: Instant::now(),
                    combinations: job.combinations(),
                });
                tally.record(check_status(env.refs, job, &status));
            }
            Err(why) => tally.record(Err(why)),
        }
    }
    for tracer in pool::stop_workers(&shared, handles) {
        ledger.absorb(tracer);
    }
    timings
}

/// Registry replay of `tenants`: the `units` bursts the end-to-end run got
/// through, one after another, over a WAL-backed registry.
fn replay_tenants(
    env: &Env,
    plan: &Plan,
    units: usize,
    dir: &Path,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> std::io::Result<Vec<JobTiming>> {
    let (wal, _) = Wal::open(dir).map_err(std::io::Error::other)?;
    let mut registry = JobRegistry::with_config(RegistryConfig::default());
    registry.set_sink(Box::new(TimedSink(WalSink(wal))));
    let shared = Shared::new(registry);
    let handles = pool::start_workers(&shared, env.workers);
    let mut timings = Vec::new();
    for jobs in plan.jobs.chunks(TENANTS_BURST).take(units) {
        let start = Instant::now();
        let mut outstanding = Vec::new();
        for job in jobs {
            match submit_traced(&shared, job, "registry.submit") {
                Ok(id) => outstanding.push((id, job)),
                Err(why) => tally.record(Err(why)),
            }
        }
        while !outstanding.is_empty() {
            let registry = shared
                .registry
                .lock()
                .expect("registry lock is never poisoned");
            outstanding.retain(|&(id, job)| {
                let status = registry.poll(id).expect("submitted job is known");
                if !status.state.is_terminal() {
                    return true;
                }
                timings.push(JobTiming {
                    arrival: start,
                    done: Instant::now(),
                    combinations: job.combinations(),
                });
                tally.record(check_status(env.refs, job, &status));
                false
            });
            drop(registry);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for tracer in pool::stop_workers(&shared, handles) {
        ledger.absorb(tracer);
    }
    let mut registry = Arc::try_unwrap(shared)
        .map_err(|_| std::io::Error::other("workers still hold the registry"))?
        .registry
        .into_inner()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    registry.compact_store().map_err(std::io::Error::other)?;
    drop(registry);
    json_probes(dir)?;
    Ok(timings)
}

/// Registry replay of `restart`: open and restore the store, let the
/// resumed jobs finish, resubmit the first round of cache hits.
fn replay_restart(
    env: &Env,
    plan: &Plan,
    dir: &Path,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> std::io::Result<Vec<JobTiming>> {
    let (wal, recovered) = span("wal.open", || Wal::open(dir)).map_err(std::io::Error::other)?;
    spans::count(
        "wal.snapshot_bytes",
        std::fs::metadata(dir.join("snapshot.json"))?.len(),
    );
    spans::count("wal.tail_records", recovered.records.len() as u64);
    let mut registry = JobRegistry::with_config(RegistryConfig::default());
    let rebuild = |recipe: &JsonValue| {
        let (system, evaluator) = rebuild_from_recipe(recipe)?;
        Ok((
            system,
            Arc::new(TimedEvaluator(evaluator)) as Arc<dyn Evaluator>,
        ))
    };
    span("registry.restore", || {
        registry.restore(recovered.snapshot.as_ref(), &recovered.records, &rebuild)
    })
    .map_err(std::io::Error::other)?;
    registry.set_sink(Box::new(TimedSink(WalSink(wal))));
    let shared = Shared::new(registry);
    let restored = Instant::now();
    for offset in 0..plan.tail.len() {
        shared
            .submitted
            .lock()
            .expect("submit-time lock")
            .insert((RESTART_COMPLETED + offset) as u64, restored);
    }
    let handles = pool::start_workers(&shared, env.workers);
    for (offset, job) in plan.tail.iter().enumerate() {
        let id = spi_explore::JobId::from_raw((RESTART_COMPLETED + offset) as u64);
        let status = pool::wait_job(&shared, id);
        tally.record(check_status(env.refs, job, &status));
    }
    let mut timings = Vec::new();
    for &recipe in plan.hit_rounds.first().map(Vec::as_slice).unwrap_or(&[]) {
        let job = &plan.jobs[recipe];
        let arrival = Instant::now();
        match submit_traced(&shared, job, "registry.submit_hit") {
            Ok(id) => {
                let status = shared
                    .registry
                    .lock()
                    .expect("registry lock is never poisoned")
                    .poll(id)
                    .expect("submitted job is known");
                timings.push(JobTiming {
                    arrival,
                    done: Instant::now(),
                    combinations: job.combinations(),
                });
                let hit = if status.cache_hit {
                    Ok(())
                } else {
                    Err("resubmission missed the cache".to_string())
                };
                tally.record(hit.and_then(|()| check_status(env.refs, job, &status)));
            }
            Err(why) => tally.record(Err(why)),
        }
    }
    for tracer in pool::stop_workers(&shared, handles) {
        ledger.absorb(tracer);
    }
    json_probes(dir)?;
    Ok(timings)
}

pub fn run(env: &Env, plan: &Plan, e2e: &Outcome) -> std::io::Result<Traced> {
    spans::set_thread(0);
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let root = env.out.join(format!("traced-{}", std::process::id()));
    std::fs::create_dir_all(&root)?;
    let lines: Vec<String> = match plan.workload {
        Workload::Restart => plan
            .hit_rounds
            .first()
            .into_iter()
            .flatten()
            .map(|&i| plan.jobs[i].submit_line())
            .collect(),
        _ => plan
            .jobs
            .iter()
            .take(e2e.units)
            .map(Job::submit_line)
            .collect(),
    };

    let replay_start = Instant::now();
    let (timings, store_dir) = match plan.workload {
        Workload::Sweep | Workload::Exact => (
            replay_closed(env, plan, e2e.units, &mut tally, &mut ledger),
            None,
        ),
        Workload::Tenants => {
            let dir = root.join("tenants");
            let timings = replay_tenants(env, plan, e2e.units, &dir, &mut tally, &mut ledger)?;
            (timings, None)
        }
        Workload::Restart => {
            let base = root.join("base");
            store::build(&base, &plan.jobs, &plan.tail, env.workers)
                .map_err(std::io::Error::other)?;
            let dir = root.join("replay");
            store::copy(&base, &dir)?;
            let timings = replay_restart(env, plan, &dir, &mut tally, &mut ledger)?;
            (timings, Some(base))
        }
    };
    let replay_s = replay_start.elapsed().as_secs_f64();

    for job in plan.jobs.iter().chain(&plan.tail).take(64) {
        submit_probes(job);
    }
    let budget = Duration::from_secs(env.seconds.max(3));
    let split_jobs: Vec<&Job> = match plan.workload {
        Workload::Sweep | Workload::Exact => plan.jobs.iter().take(1).collect(),
        _ => plan.jobs.iter().take(12).collect(),
    };
    let deadline = Instant::now() + budget / 3;
    for job in split_jobs {
        split_job(job, env.workers, deadline, &mut ledger).map_err(std::io::Error::other)?;
        if Instant::now() >= deadline {
            break;
        }
    }
    serial_reference(&plan.jobs[0], Instant::now() + budget / 10).map_err(std::io::Error::other)?;

    let mut config = ServiceConfig::default();
    match (plan.workload, &store_dir) {
        (Workload::Tenants, _) => config.store_dir = Some(root.join("wire-store")),
        (Workload::Restart, Some(base)) => {
            let dir = root.join("wire-store");
            store::copy(base, &dir)?;
            config.store_dir = Some(dir);
        }
        _ => {}
    }
    wire_probes(plan, config, &lines).map_err(std::io::Error::other)?;

    ledger.absorb(spans::take());
    let trace_path = env.out.join(format!("{}.trace.json", plan.workload.name()));
    std::fs::write(&trace_path, ledger.chrome_trace(plan.workload.name()))?;
    std::fs::remove_dir_all(&root)?;

    let traced_busy = stats::busy_seconds(&timings);
    let metrics = ledger_metrics(&ledger, &e2e.daemon, traced_busy, e2e.busy_s);
    let mut info = vec![
        (
            "traced_wall_s".into(),
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ),
        ("registry_replay_s".into(), format!("{replay_s:.3}")),
        (
            "spans".into(),
            format!("{} kept, {} dropped", ledger.spans.len(), ledger.dropped),
        ),
    ];
    info.extend(design_checks(plan.workload, &metrics, e2e));
    Ok(Traced {
        metrics,
        tally,
        info,
        trace_path,
    })
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// The workload-design claims the ledger must confirm, printed with the run.
fn design_checks(workload: Workload, metrics: &[Metric], e2e: &Outcome) -> Vec<(String, String)> {
    let v = |name| value(metrics, name);
    match workload {
        Workload::Restart => vec![(
            "check_recovery_share".into(),
            format!(
                "(wal.open_ms + registry.restore_ms) / setup_s = {:.3}",
                (v("wal.open_ms") + v("registry.restore_ms")) / (e2e.setup_s * 1e3)
            ),
        )],
        Workload::Sweep => vec![(
            "check_bypass".into(),
            format!(
                "partition.fanout_share = {}, durability.appends_per_job = {}, cache.hit_ratio = {}",
                v("partition.fanout_share"),
                v("durability.appends_per_job"),
                v("cache.hit_ratio")
            ),
        )],
        Workload::Exact => vec![(
            "check_search_share".into(),
            format!(
                "partition.search_ns / worker.drain_ns_per_variant = {:.3}",
                v("partition.search_ns") / v("worker.drain_ns_per_variant")
            ),
        )],
        Workload::Tenants => Vec::new(),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn ledger_metrics(
    ledger: &Ledger,
    daemon: &DaemonCounts,
    traced_busy: f64,
    e2e_busy: f64,
) -> Vec<Metric> {
    let mean = |name: &str| ledger.mean_ns(name);
    let count = |name: &str| ledger.count(name) as f64;
    let counter = |name: &str| daemon.counters.get(name).copied().unwrap_or(0.0);
    let profile_self = |phase: &str| {
        daemon
            .phases
            .get(phase)
            .map_or(0.0, |&(count, self_ns)| ratio(self_ns, count))
    };
    let patches = ledger.agg("flatten.patch").count as f64;
    let rebuilds = ledger.agg("flatten.rebuild").count as f64;
    let searches = ledger.agg("partition.search").count as f64;
    let variants = count("worker.variants");
    let drain = ledger.agg("worker.drain");
    let records_per_variant = ratio(ledger.agg("report.record").count as f64, searches);
    let split_attributed = ratio(
        mean("flatten.patch") * patches + mean("flatten.rebuild") * rebuilds,
        patches + rebuilds,
    ) + mean("space.choice_at")
        + mean("report.record") * records_per_variant;
    let json_bytes = count("json.bytes");
    let appends = counter("wal.appends");
    let cache_lookups = counter("cache.hits") + counter("cache.misses");
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("space.choice_at_ns", mean("space.choice_at"), "ns"),
        m("flatten.patch_ns", mean("flatten.patch"), "ns"),
        m("flatten.rebuild_ns", mean("flatten.rebuild"), "ns"),
        m(
            "flatten.patch_share",
            ratio(patches, patches + rebuilds),
            "ratio",
        ),
        m(
            "flatten.processes_per_patch",
            ratio(count("flatten.patched_processes"), patches),
            "count",
        ),
        m("flatten.new_us", mean("flatten.new") / 1e3, "us"),
        m("bridge.compile_ns", mean("bridge.compile"), "ns"),
        m("partition.search_ns", mean("partition.search"), "ns"),
        m(
            "partition.candidates_per_variant",
            ratio(count("partition.candidates"), searches),
            "count",
        ),
        m(
            "partition.fanout_share",
            ratio(count("partition.fanout_calls"), searches),
            "ratio",
        ),
        m(
            "evaluator.lower_bound_ns",
            mean("evaluator.lower_bound"),
            "ns",
        ),
        m(
            "evaluator.prune_ratio",
            ratio(count("evaluator.pruned"), count("evaluator.accounted")),
            "ratio",
        ),
        m(
            "evaluator.overhead_ns",
            mean("evaluator.evaluate") - mean("bridge.compile") - mean("partition.search"),
            "ns",
        ),
        m("report.record_ns", mean("report.record"), "ns"),
        m(
            "worker.drain_ns_per_variant",
            ratio(drain.total_ns as f64, variants),
            "ns",
        ),
        m(
            "worker.unattributed_ns_per_variant",
            ratio(drain.self_ns as f64, variants)
                - if variants > 0.0 {
                    split_attributed
                } else {
                    0.0
                },
            "ns",
        ),
        m("registry.submit_us", mean("registry.submit") / 1e3, "us"),
        m("registry.lease_us", mean("registry.lease") / 1e3, "us"),
        m(
            "registry.report_batch_us",
            mean("registry.report_batch") / 1e3,
            "us",
        ),
        m(
            "registry.complete_shard_us",
            mean("registry.complete_shard") / 1e3,
            "us",
        ),
        m(
            "registry.lock_wait_us",
            mean("registry.lock_wait") / 1e3,
            "us",
        ),
        m(
            "registry.submit_hit_us",
            mean("registry.submit_hit") / 1e3,
            "us",
        ),
        m("registry.restore_ms", mean("registry.restore") / 1e6, "ms"),
        m(
            "sched.queue_wait_ms",
            ratio(count("sched.queue_wait_ns"), count("sched.shards_leased")) / 1e6,
            "ms",
        ),
        m("sched.lease_expiries", counter("lease.expiries"), "count"),
        m(
            "sched.hedges_issued",
            counter("lease.hedges_issued"),
            "count",
        ),
        m("sched.hedge_wins", counter("lease.hedge_wins"), "count"),
        m(
            "durability.append_us",
            mean("durability.append") / 1e3,
            "us",
        ),
        m(
            "durability.appends_per_job",
            ratio(appends, daemon.jobs as f64),
            "count",
        ),
        m(
            "durability.bytes_per_append",
            ratio(counter("wal.append_bytes"), appends),
            "bytes",
        ),
        m("wal.open_ms", mean("wal.open") / 1e6, "ms"),
        m("wal.snapshot_bytes", count("wal.snapshot_bytes"), "bytes"),
        m("wal.tail_records", count("wal.tail_records"), "count"),
        m(
            "cache.hit_ratio",
            ratio(counter("cache.hits"), cache_lookups),
            "ratio",
        ),
        m("wire.parse_us", mean("wire.parse") / 1e3, "us"),
        m(
            "wire.handle_submit_us",
            mean("wire.handle_submit") / 1e3,
            "us",
        ),
        m("wire.handle_poll_us", mean("wire.handle_poll") / 1e3, "us"),
        m("wire.rebuild_us", mean("wire.rebuild") / 1e3, "us"),
        m(
            "json.parse_mb_per_s",
            ratio(json_bytes, ledger.agg("json.parse").total_ns as f64) * 1e3,
            "MB/s",
        ),
        m(
            "json.write_mb_per_s",
            ratio(json_bytes, ledger.agg("json.write").total_ns as f64) * 1e3,
            "MB/s",
        ),
        m("digest.us", mean("digest") / 1e3, "us"),
        m("service.start_ms", mean("service.start") / 1e6, "ms"),
        m(
            "reference.serial_ns_per_variant",
            ratio(
                ledger.agg("reference.serial").total_ns as f64,
                count("reference.variants"),
            ),
            "ns",
        ),
        m(
            "daemon.flatten_patch_self_ns",
            profile_self("flatten_patch"),
            "ns",
        ),
        m(
            "daemon.compile_lower_self_ns",
            profile_self("compile_lower"),
            "ns",
        ),
        m(
            "daemon.partition_search_self_ns",
            profile_self("partition_search"),
            "ns",
        ),
        m(
            "trace.overhead_pct",
            (ratio(traced_busy, e2e_busy) - 1.0) * 100.0,
            "%",
        ),
    ]
}
