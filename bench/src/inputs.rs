//! Workload inputs: every job a run submits is drawn, by the run's seed, from
//! fixed pools whose optima are pinned in `data/reference.txt`. The daemon
//! only ever sees the ndjson lines built here.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::stats::Expected;

/// splitmix64: a tiny, well-mixed generator; the same seed gives the same
/// inputs on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The four workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Exact,
    Tenants,
    Restart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep" => Some(Workload::Sweep),
            "exact" => Some(Workload::Exact),
            "tenants" => Some(Workload::Tenants),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Exact => "exact",
            Workload::Tenants => "tenants",
            Workload::Restart => "restart",
        }
    }
}

/// `scaling_system(16, 2)`: 65,536 variants of 33 tasks, so `auto` runs
/// greedy and the per-variant hot loop dominates. A job takes ~1.2 s on 2
/// CPUs, so a run holds ~15 rounds, each between two host-speed readings.
pub const SWEEP_SYSTEM: (usize, usize) = (16, 2);
/// `scaling_system(7, 4)`: 16,384 variants of 15 tasks, so `auto` runs the
/// exhaustive search over 2^15 masks.
pub const EXACT_SYSTEM: (usize, usize) = (7, 4);
/// Interface counts of the small jobs of `tenants` and `restart`
/// (`scaling_system(9..=11, 2)`: 512 to 2,048 variants each).
pub const SMALL_INTERFACES: [usize; 3] = [9, 10, 11];

/// Params seeds of the `sweep` and `exact` pools.
pub const BIG_POOL: std::ops::RangeInclusive<u64> = 1..=8;
/// Params seeds of the small-job pool, per interface count: enough for
/// every `tenants` job of a run to have its own.
pub const SMALL_POOL: std::ops::RangeInclusive<u64> = 1..=500;

/// Jobs per `tenants` burst, 34 of each size: the fewest for which the p90
/// of one burst has 10 samples beyond it. A burst takes ~1.4 s of both
/// workers on 2 CPUs.
pub const TENANTS_BURST: usize = 102;
/// `tenants` bursts per second of `--seconds`. The count is fixed by the
/// plan, not by the time left: every job stays resident in the daemon, so
/// a run that fit more jobs in would show a higher `peak_rss_mb`.
const TENANTS_BURSTS_PER_S: f64 = 0.5;
/// Tenants and their WFQ weights.
pub const TENANTS: [(&str, u32); 3] = [("team-a", 2), ("team-b", 1), ("team-c", 1)];

/// Completed jobs compacted into the `restart` store's snapshot (a
/// multiple of the three sizes), and jobs left in its WAL tail by the
/// simulated `kill -9`.
pub const RESTART_COMPLETED: usize = 48;
pub const RESTART_TAIL: usize = 4;
/// Pipelined cache-hit resubmissions per `restart` round. Each round runs
/// on its own restarted daemon: every hit job stays resident (~28 KB each)
/// and some per-request work grows with the job count, so one long round
/// would measure a different daemon at its end than at its start.
pub const RESTART_HITS_PER_ROUND: usize = 2000;
/// Rounds every `restart` run does, however slow.
pub const RESTART_MIN_ROUNDS: usize = 3;

/// One exploration job as submitted over the wire.
#[derive(Debug, Clone)]
pub struct Job {
    pub interfaces: usize,
    pub clusters: usize,
    pub params_seed: u64,
    pub shards: usize,
    pub top_k: usize,
    pub tenant: &'static str,
    pub weight: u32,
    pub no_cache: bool,
}

impl Job {
    fn new(system: (usize, usize), params_seed: u64, shards: usize, top_k: usize) -> Job {
        Job {
            interfaces: system.0,
            clusters: system.1,
            params_seed,
            shards,
            top_k,
            tenant: "default",
            weight: 1,
            no_cache: false,
        }
    }

    pub fn key(&self) -> PoolKey {
        (self.interfaces, self.clusters, self.params_seed)
    }

    pub fn combinations(&self) -> u64 {
        (self.clusters as u64).pow(self.interfaces as u32)
    }

    pub fn system_json(&self) -> String {
        format!(
            r#"{{"scaling":{{"interfaces":{},"clusters":{}}}}}"#,
            self.interfaces, self.clusters
        )
    }

    pub fn evaluator_json(&self) -> String {
        format!(
            r#"{{"params":{{"kind":"hashed","seed":{}}}}}"#,
            self.params_seed
        )
    }

    /// The job's `submit` request line (without the newline).
    pub fn submit_line(&self) -> String {
        let mut line = format!(
            r#"{{"op":"submit","system":{},"shards":{},"top_k":{},"tenant":"{}","weight":{},"evaluator":{}"#,
            self.system_json(),
            self.shards,
            self.top_k,
            self.tenant,
            self.weight,
            self.evaluator_json()
        );
        if self.no_cache {
            line.push_str(r#","no_cache":true"#);
        }
        line.push('}');
        line
    }
}

/// Everything one run submits.
pub struct Plan {
    pub workload: Workload,
    /// `sweep`/`exact`: jobs in submission order. `tenants`: jobs with their
    /// arrivals. `restart`: the completed recipes of the store.
    pub jobs: Vec<Job>,
    /// `restart` only: jobs cut off in the WAL tail.
    pub tail: Vec<Job>,
    /// `restart` only: per restart, indices into `jobs` to resubmit.
    pub hit_rounds: Vec<Vec<usize>>,
}

fn small_jobs(rng: &mut Rng, count: usize, shards: usize, top_k: usize) -> Vec<Job> {
    let mut per_size: Vec<Vec<u64>> = SMALL_INTERFACES
        .iter()
        .map(|_| {
            let mut seeds: Vec<u64> = SMALL_POOL.collect();
            rng.shuffle(&mut seeds);
            seeds
        })
        .collect();
    // Equal shares of each size keep the work mix the same for every seed:
    // job `i` has size `i % 3` (callers shuffle).
    (0..count)
        .map(|i| {
            let size = i % SMALL_INTERFACES.len();
            let seed = per_size[size].pop().expect("pool holds enough seeds");
            Job::new((SMALL_INTERFACES[size], 2), seed, shards, top_k)
        })
        .collect()
}

/// Passes over the big pool in a closed-loop plan.
const BIG_PASSES: usize = 4;

/// [`BIG_PASSES`] passes over the big pool, each in its own seeded order; a
/// run submits as many jobs as fit its `--seconds`.
fn big_jobs(rng: &mut Rng, system: (usize, usize)) -> Vec<Job> {
    (0..BIG_PASSES)
        .flat_map(|_| {
            let mut seeds: Vec<u64> = BIG_POOL.collect();
            rng.shuffle(&mut seeds);
            seeds
        })
        .map(|seed| Job {
            no_cache: true,
            ..Job::new(system, seed, 64, 1)
        })
        .collect()
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let mut plan = Plan {
            workload,
            jobs: Vec::new(),
            tail: Vec::new(),
            hit_rounds: Vec::new(),
        };
        match workload {
            Workload::Sweep => plan.jobs = big_jobs(&mut rng, SWEEP_SYSTEM),
            Workload::Exact => plan.jobs = big_jobs(&mut rng, EXACT_SYSTEM),
            Workload::Tenants => {
                // Sizes alternate, so every burst holds the same mix before
                // it is shuffled.
                let most = SMALL_INTERFACES.len() * SMALL_POOL.count() / TENANTS_BURST;
                let bursts = ((seconds as f64 * TENANTS_BURSTS_PER_S) as usize).clamp(1, most);
                let count = bursts * TENANTS_BURST;
                let mut jobs = small_jobs(&mut rng, count, 16, 1);
                for burst in jobs.chunks_mut(TENANTS_BURST) {
                    rng.shuffle(burst);
                }
                for job in &mut jobs {
                    let (tenant, weight) = TENANTS[rng.below(TENANTS.len())];
                    job.tenant = tenant;
                    job.weight = weight;
                }
                plan.jobs = jobs;
            }
            Workload::Restart => {
                let mut jobs = small_jobs(&mut rng, RESTART_COMPLETED + RESTART_TAIL, 16, 4);
                plan.tail = jobs.split_off(RESTART_COMPLETED);
                for job in &mut plan.tail {
                    // Big enough that the kill leaves most shards pending.
                    job.shards = 32;
                }
                // Hit `i` resubmits a random recipe of size `i % 3`, so every
                // round answers the same mix of space sizes.
                let sizes = SMALL_INTERFACES.len();
                let per_size = RESTART_COMPLETED / sizes;
                // A restart plus its round takes ~1.5 s on 2 CPUs;
                // a run does as many rounds as fit its `--seconds`.
                let rounds = (seconds as usize).max(RESTART_MIN_ROUNDS);
                plan.hit_rounds = (0..rounds)
                    .map(|_| {
                        (0..RESTART_HITS_PER_ROUND)
                            .map(|i| i % sizes + sizes * rng.below(per_size))
                            .collect()
                    })
                    .collect();
                rng.shuffle(&mut plan.tail);
                plan.jobs = jobs;
            }
        }
        plan
    }
}

/// Every pool entry whose optimum is pinned.
pub fn pool() -> Vec<PoolKey> {
    let mut keys = Vec::new();
    for seed in BIG_POOL {
        keys.push((SWEEP_SYSTEM.0, SWEEP_SYSTEM.1, seed));
        keys.push((EXACT_SYSTEM.0, EXACT_SYSTEM.1, seed));
    }
    for interfaces in SMALL_INTERFACES {
        for seed in SMALL_POOL {
            keys.push((interfaces, 2, seed));
        }
    }
    keys
}

/// A pool job: `(interfaces, clusters, params_seed)`.
pub type PoolKey = (usize, usize, u64);
/// A pool job with its pinned answer.
pub type Reference = (PoolKey, Expected);
pub type References = HashMap<PoolKey, Expected>;

/// Reads `data/reference.txt`: `interfaces clusters params_seed combinations
/// feasible best_index best_cost` per line, `#` comments.
pub fn parse_references(text: &str) -> Result<References, String> {
    let mut table = HashMap::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference line {}: {e}", number + 1))?;
        let [interfaces, clusters, seed, combinations, feasible, best_index, best_cost] =
            fields[..]
        else {
            return Err(format!("reference line {}: expected 7 fields", number + 1));
        };
        table.insert(
            (interfaces as usize, clusters as usize, seed),
            Expected {
                combinations,
                feasible,
                best_index,
                best_cost,
            },
        );
    }
    Ok(table)
}

pub fn render_references(rows: &[Reference]) -> String {
    let mut out = String::from(
        "# Pinned optima of every pool job, from a serial flatten+evaluate loop\n\
         # (regenerate: see README.md). Columns: interfaces clusters params_seed\n\
         # combinations feasible best_index best_cost\n",
    );
    for ((interfaces, clusters, seed), e) in rows {
        let _ = writeln!(
            out,
            "{interfaces} {clusters} {seed} {} {} {} {}",
            e.combinations, e.feasible, e.best_index, e.best_cost
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds() {
        let keys = |plan: &Plan| plan.jobs.iter().map(Job::key).collect::<Vec<_>>();
        let a = Plan::new(Workload::Tenants, 7, 20);
        let b = Plan::new(Workload::Tenants, 7, 20);
        let c = Plan::new(Workload::Tenants, 8, 20);
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
        assert_eq!(a.jobs.len(), 10 * TENANTS_BURST);
        // Every tenants job has its own params, so every submit misses the cache.
        let mut distinct = keys(&a);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.jobs.len());
        // Every burst holds the same mix of sizes.
        for burst in a.jobs.chunks(TENANTS_BURST) {
            for size in SMALL_INTERFACES {
                let count = burst.iter().filter(|job| job.interfaces == size).count();
                assert_eq!(count, TENANTS_BURST / SMALL_INTERFACES.len());
            }
        }
    }

    #[test]
    fn restart_hits_keep_an_equal_size_mix() {
        let plan = Plan::new(Workload::Restart, 5, 20);
        for round in &plan.hit_rounds {
            let mut per_size = [0usize; 3];
            for &recipe in round {
                let size = SMALL_INTERFACES
                    .iter()
                    .position(|&i| i == plan.jobs[recipe].interfaces)
                    .expect("a small job");
                per_size[size] += 1;
            }
            let most = per_size.iter().max().expect("three sizes");
            let least = per_size.iter().min().expect("three sizes");
            assert!(most - least <= 1, "{per_size:?}");
        }
    }

    #[test]
    fn every_planned_job_is_pinned_in_the_pool() {
        let pool = pool();
        for workload in [
            Workload::Sweep,
            Workload::Exact,
            Workload::Tenants,
            Workload::Restart,
        ] {
            let plan = Plan::new(workload, 3, 20);
            for job in plan.jobs.iter().chain(&plan.tail) {
                assert!(pool.contains(&job.key()), "{:?} not pooled", job.key());
            }
        }
    }

    #[test]
    fn references_round_trip() {
        let row = (
            (9, 2, 5),
            Expected {
                combinations: 512,
                feasible: 500,
                best_index: 3,
                best_cost: 99,
            },
        );
        let table = parse_references(&render_references(&[row])).expect("parses");
        assert_eq!(table.get(&(9, 2, 5)), Some(&row.1));
        assert!(parse_references("9 2 5 512").is_err());
    }
}
