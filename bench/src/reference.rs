//! Regenerating the pinned answers: every pool job's optimum and census from
//! a serial flatten+evaluate loop — `Flattener::flatten_at` then the default
//! `PartitionEvaluator`, one variant after another — never the service.

use std::sync::Mutex;
use std::time::Instant;

use spi_explore::{Evaluator, PartitionEvaluator, TaskParamsSpec};
use spi_variants::Flattener;

use crate::inputs::{PoolKey, Reference};
use crate::stats::Expected;

/// The evaluator every benchmark job submits: the wire's defaults with
/// hashed params of `params_seed`.
pub fn evaluator(params_seed: u64) -> PartitionEvaluator {
    PartitionEvaluator {
        params: TaskParamsSpec::Hashed { seed: params_seed },
        ..PartitionEvaluator::default()
    }
}

/// Runs the serial loop over `indices` of the job's space; returns the
/// census and the optimum (lowest cost, then lowest index).
pub fn serial_loop(
    flattener: &Flattener,
    evaluator: &PartitionEvaluator,
    indices: impl Iterator<Item = usize>,
) -> Result<Expected, String> {
    let mut expected = Expected {
        combinations: 0,
        feasible: 0,
        best_index: u64::MAX,
        best_cost: u64::MAX,
    };
    for index in indices {
        let (choice, graph) = flattener.flatten_at(index).map_err(|e| e.to_string())?;
        let evaluation = evaluator
            .evaluate(index, &choice, &graph, u64::MAX)
            .map_err(|e| e.to_string())?;
        expected.combinations += 1;
        if evaluation.feasible {
            expected.feasible += 1;
            if (evaluation.cost, index as u64) < (expected.best_cost, expected.best_index) {
                expected.best_cost = evaluation.cost;
                expected.best_index = index as u64;
            }
        }
    }
    Ok(expected)
}

/// The pinned answer of one pool job.
pub fn reference(key: PoolKey) -> Result<Expected, String> {
    let system = spi_workloads::scaling_system(key.0, key.1).map_err(|e| e.to_string())?;
    let flattener = Flattener::new(&system).map_err(|e| e.to_string())?;
    let count = flattener.space().count();
    serial_loop(&flattener, &evaluator(key.2), 0..count)
}

/// Computes every key on `threads` threads, largest jobs first.
pub fn regenerate(keys: &[PoolKey], threads: usize) -> Result<Vec<Reference>, String> {
    let mut order: Vec<PoolKey> = keys.to_vec();
    // Ascending size, so `pop` hands out the largest job first.
    order.sort_by_key(|&(i, c, _)| (c as u64).pow(i as u32));
    let queue = Mutex::new(order);
    let results = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let Some(key) = queue.lock().expect("queue lock").pop() else {
                    return;
                };
                let outcome = reference(key);
                eprintln!(
                    "  {key:?} done after {:.1}s",
                    started.elapsed().as_secs_f64()
                );
                results.lock().expect("results lock").push((key, outcome));
            });
        }
    });
    let mut rows = Vec::new();
    for (key, outcome) in results.into_inner().expect("results lock") {
        rows.push((key, outcome?));
    }
    rows.sort_by_key(|row| row.0);
    Ok(rows)
}
