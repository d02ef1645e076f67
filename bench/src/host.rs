//! Host-speed calibration.
//!
//! On a shared 2-vCPU virtual machine (the one the benchmark's bounds were
//! set on) the cores share their caches, memory and clock with other
//! guests' work. The same daemon binary, fed the same job, runs 20–30%
//! faster or slower from one minute to the next, mostly with no steal time
//! in `/proc/stat`: the cores themselves slow down. Medians over one run
//! cannot remove a drift that spans the whole run.
//!
//! So the harness measures the host's speed next to every round of jobs:
//! while the daemon is idle, a fixed kernel that contains no repository
//! code runs on as many threads as the daemon has workers, and its rate is
//! compared to the rate the same kernel reached when [`REFERENCE`] was
//! set. A round's job times are multiplied by that ratio (see
//! [`crate::stats::Round`]): a figure reads as "on a host as fast as the
//! reference". The kernel never runs repository code, so a change in the
//! daemon moves a scaled figure exactly as much as the raw one.
//!
//! The kernel mixes three kinds of work the daemon's hot loop does: small
//! allocations with hashing and sorting, random reads and writes in a
//! 1 MiB table, and cloning of nested vectors. Each is timed on its own;
//! the host's speed is the geometric mean of the three ratios.
//!
//! At times the hypervisor also takes whole slices of the CPUs away (the
//! `steal` column of `/proc/stat`, 10–40% of the CPU time for minutes). The
//! daemon's threads then stall in each other's locks and joins, and small
//! jobs slow down far more than the kernel does. [`CpuTicks`] measures that
//! share over each round, so that the rounds it hit can be left out (see
//! [`crate::stats::calm_rounds`]).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rate of each kernel in units per second on 2 threads, measured on the
/// 2-vCPU Xeon (KVM) container the benchmark's bounds were set on. Only
/// ratios to these numbers are used, so they need not be exact.
pub const REFERENCE: [f64; 3] = [75_000.0, 400_000.0, 70_000.0];

/// Spawn → answer time of the reference process (`src/bin/spawn-probe.rs`)
/// on the reference host, in seconds. A fresh daemon's start-up time is
/// scaled by this over the probe's time just before it: process start-up
/// is kernel work (exec, page faults, pipes) that moves with the host's
/// memory system more than with the kernels below.
pub const REFERENCE_SPAWN_S: f64 = 1.0e-3;

/// How long each kernel runs per calibration.
const KERNEL_WINDOW: Duration = Duration::from_millis(120);

/// Allocation, hashing, sorting and formatting on 512 pseudo-random words.
fn unit_alloc(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut words: Vec<u64> = Vec::with_capacity(512);
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(256);
    for _ in 0..512 {
        x = xorshift(x);
        words.push(x % 10_007);
        *counts.entry(x % 251).or_insert(0) += x & 7;
    }
    words.sort_unstable();
    let text: Vec<String> = words.iter().step_by(32).map(u64::to_string).collect();
    words.iter().sum::<u64>() ^ counts.values().sum::<u64>() ^ text.join(",").len() as u64
}

/// 512 dependent random reads and writes in a 1 MiB table, then a sort.
fn unit_memory(seed: u64, table: &mut [u64]) -> u64 {
    let mut x = seed | 1;
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..512 {
        x = xorshift(x);
        let at = (x as usize) & mask;
        acc = acc.wrapping_add(table[at]);
        table[(at ^ acc as usize) & mask] = x;
    }
    let mut keys: Vec<u32> = (0..256).map(|k| x.rotate_left(k) as u32).collect();
    keys.sort_unstable();
    acc ^ u64::from(keys[128])
}

/// Clones 200 short vectors and edits each.
fn unit_clone(seed: u64, base: &[Vec<u32>]) -> u64 {
    let mut copy: Vec<Vec<u32>> = base.to_vec();
    let mut x = seed | 1;
    for items in &mut copy {
        x = xorshift(x);
        items.push(x as u32);
        let len = items.len();
        items.swap(0, (x as usize) % len);
    }
    copy.iter().map(|items| u64::from(items[0])).sum()
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Units per second of `unit` run by `threads` threads for `window`; each
/// thread gets its own state from `state`.
fn rate<S>(
    threads: usize,
    window: Duration,
    state: impl Fn() -> S + Sync,
    unit: impl Fn(u64, &mut S) -> u64 + Sync,
) -> f64 {
    const BATCH: u64 = 16;
    let start = Instant::now();
    let units: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads as u64)
            .map(|thread| {
                let (state, unit) = (&state, &unit);
                scope.spawn(move || {
                    let mut own = state();
                    let (mut done, mut acc) = (0u64, 0u64);
                    while start.elapsed() < window {
                        for i in 0..BATCH {
                            let seed = (done + i) << 8 | thread;
                            acc = acc.wrapping_add(unit(seed, &mut own));
                        }
                        done += BATCH;
                    }
                    black_box(acc);
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("calibration thread"))
            .sum()
    });
    units as f64 / start.elapsed().as_secs_f64()
}

/// The host's speed now, relative to [`REFERENCE`] (1.0 = as fast; 0.8 =
/// 20% slower), measured on `threads` threads. Takes about 0.4 s.
pub fn speed(threads: usize) -> f64 {
    let threads = threads.max(1);
    let rates = [
        rate(threads, KERNEL_WINDOW, || (), |seed, _| unit_alloc(seed)),
        rate(
            threads,
            KERNEL_WINDOW,
            || vec![1u64; 1 << 17],
            |seed, table| unit_memory(seed, table),
        ),
        rate(
            threads,
            KERNEL_WINDOW,
            || -> Vec<Vec<u32>> { (0..200).map(|i| (0..i % 13 + 3).collect()).collect() },
            |seed, base| unit_clone(seed, base),
        ),
    ];
    geometric_mean(
        &rates
            .iter()
            .zip(REFERENCE)
            .map(|(rate, reference)| rate / reference)
            .collect::<Vec<_>>(),
    )
}

/// The CPUs' time counters of `/proc/stat`, in ticks summed over all CPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The counters now; all zero where `/proc/stat` cannot be read.
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| CpuTicks::parse(&text))
            .unwrap_or_default()
    }

    /// Parses the aggregate `cpu` line: user, nice, system, idle, iowait,
    /// irq, softirq, steal (guest time is already counted in user).
    fn parse(text: &str) -> Option<CpuTicks> {
        let line = text.lines().find(|line| line.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|field| field.parse().ok())
            .collect::<Option<_>>()?;
        (fields.len() == 8).then(|| CpuTicks {
            steal: fields[7],
            total: fields.iter().sum(),
        })
    }

    /// Share of the CPU time since `self` that the hypervisor stole; 0 when
    /// no tick passed.
    pub fn stolen_share(self) -> f64 {
        self.stolen_share_until(CpuTicks::now())
    }

    fn stolen_share_until(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

fn geometric_mean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 0.5, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[0.8, 0.8, 0.8]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn steal_share_comes_from_the_aggregate_cpu_line() {
        let before =
            CpuTicks::parse("cpu  100 0 20 800 5 0 1 10 0 0\ncpu0 50 0 10 400 2 0 1 5 0 0\n")
                .expect("parses");
        assert_eq!(
            before,
            CpuTicks {
                steal: 10,
                total: 936
            }
        );
        let later = CpuTicks::parse("cpu  160 0 20 900 5 0 1 50 7 0\n").expect("parses");
        // 200 ticks passed, 40 of them stolen.
        assert!((before.stolen_share_until(later) - 0.2).abs() < 1e-12);
        assert_eq!(before.stolen_share_until(before), 0.0);
        assert_eq!(CpuTicks::parse("intr 1 2 3\n"), None);
    }

    #[test]
    fn speed_is_a_positive_finite_ratio() {
        let speed = speed(1);
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }
}
