//! Building the `restart` workload's store through the public API, once per
//! invocation; every restart then runs on a byte-identical copy.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spi_explore::{
    drain_lease, rebuild_from_recipe, FlushResponse, JobId, JobRegistry, JobSpec, RegistryConfig,
    WalSink,
};
use spi_model::json::JsonValue;
use spi_store::Wal;

use crate::inputs::Job;
use crate::pool::{self, Shared};

/// The recipe the wire records for `job`'s submit: its own `system` and
/// `evaluator` members.
pub fn recipe(job: &Job) -> JsonValue {
    let parse = |text: &str| JsonValue::parse(text).expect("recipe text is valid JSON");
    JsonValue::object([
        ("system", parse(&job.system_json())),
        ("evaluator", parse(&job.evaluator_json())),
    ])
}

pub fn spec(job: &Job) -> JobSpec {
    JobSpec {
        name: "ndjson".to_string(),
        shard_count: job.shards,
        top_k: job.top_k,
        tenant: job.tenant.to_string(),
        weight: job.weight,
        use_cache: !job.no_cache,
    }
}

/// Submits `job` as the wire would: recipe rebuilt into a system and
/// evaluator, then `submit_with_recipe`.
pub fn submit(registry: &mut JobRegistry, job: &Job) -> spi_explore::Result<JobId> {
    let recipe = recipe(job);
    let (system, evaluator) = rebuild_from_recipe(&recipe)?;
    registry.submit_with_recipe(&system, spec(job), evaluator, Some(recipe))
}

/// Writes the store: `completed` jobs run to completion and compacted into
/// `snapshot.json` (what a clean shutdown leaves), then `tail` jobs submitted
/// and cut off after about half of their shards committed, leaving their
/// submits and commits in the WAL tail (what a `kill -9` leaves).
pub fn build(dir: &Path, completed: &[Job], tail: &[Job], workers: usize) -> Result<(), String> {
    let (wal, _) = Wal::open(dir).map_err(|e| e.to_string())?;
    let mut registry = JobRegistry::with_config(RegistryConfig::default());
    registry.set_sink(Box::new(WalSink(wal)));
    let ids = completed
        .iter()
        .map(|job| submit(&mut registry, job))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;

    let shared = Shared::new(registry);
    let handles = pool::start_workers(&shared, workers);
    for id in ids {
        pool::wait_job(&shared, id);
    }
    pool::stop_workers(&shared, handles);
    let mut registry = Arc::try_unwrap(shared)
        .map_err(|_| "workers still hold the registry".to_string())?
        .registry
        .into_inner()
        .map_err(|e| e.to_string())?;
    registry.compact_store().map_err(|e| e.to_string())?;

    // The cut-off tail: drain shards on this thread until half of each tail
    // job's shards committed, then drop the registry without compacting.
    let mut to_commit: usize = tail.iter().map(|job| job.shards / 2).sum();
    for job in tail {
        submit(&mut registry, job).map_err(|e| e.to_string())?;
    }
    while to_commit > 0 {
        let lease = registry
            .lease_as("store-builder", Instant::now())
            .ok_or("tail ran out of shards")?;
        let outcome = drain_lease(
            &lease,
            pool::BATCH,
            || false,
            |delta, is_final| {
                let result = if is_final {
                    registry
                        .complete_shard(lease.lease, delta, Instant::now())
                        .map(|_| ())
                } else {
                    registry.report_batch(lease.lease, delta, Instant::now())
                };
                match result {
                    Ok(()) => FlushResponse::Continue,
                    Err(_) => FlushResponse::Stop,
                }
            },
        );
        if outcome != spi_explore::DrainOutcome::Completed {
            return Err(format!("tail drain ended {outcome:?}"));
        }
        to_commit -= 1;
    }
    Ok(())
}

/// Copies the flat store directory `from` into a fresh `to`.
pub fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
