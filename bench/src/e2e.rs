//! The end-to-end runs: the shipped `spi-explored` binary, its shipped
//! defaults (metrics, spans, watchdog, hedging and trace ring on; `--workers`
//! = available parallelism), one ndjson pipe, one single-threaded client.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::daemon::Daemon;
use crate::host::{self, CpuTicks};
use crate::inputs::{
    Job, Plan, References, Workload, RESTART_COMPLETED, RESTART_MIN_ROUNDS, TENANTS_BURST,
};
use crate::json::Json;
use crate::stats::{self, check_best, check_evaluated, ok_line, JobTiming, Round, Tally};
use crate::store;

/// Fresh spawns whose median is `setup_s` on workloads without a store to
/// recover: one spawn takes 2-3 ms, so a single one would be mostly noise.
const FRESH_SPAWNS: usize = 41;
/// Outstanding requests while pipelining cache hits (128 submit lines fit
/// the pipe buffer with room to spare).
const PIPELINE_WINDOW: usize = 128;
/// Pause between two sweeps of polls over the outstanding `tenants` jobs, so
/// the client does not take a core from the two workers.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// Outstanding jobs of each tenant polled per sweep, oldest first. A
/// tenant's jobs run first in, first out, so later ones are not yet done;
/// polling all ~100 of a burst would keep a third thread busy.
const POLLS_PER_TENANT: usize = 2;

const HEALTH: &str = r#"{"op":"health"}"#;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What the daemon itself counted, read after the timed window closed.
#[derive(Default)]
pub struct DaemonCounts {
    pub counters: BTreeMap<String, f64>,
    /// Profile phase → (count, self ns).
    pub phases: BTreeMap<String, (f64, f64)>,
    pub jobs: u64,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Facts printed with the result: sample counts, submit delay, tail choice.
    pub info: Vec<(String, String)>,
    pub daemon: DaemonCounts,
    /// Busy seconds of the rounds the traced run replays (all of them, but
    /// only the first on `restart`); its overhead is measured against this.
    pub busy_s: f64,
    /// Median set-up time as measured (not scaled), for the traced run's
    /// recovery accounting, which times the same calls in-process.
    pub setup_s: f64,
    /// How many of the plan's jobs (or restart rounds) ran.
    pub units: usize,
}

pub struct Env<'a> {
    pub daemon: &'a Path,
    /// The reference process fresh spawns are compared with
    /// (`src/bin/spawn-probe.rs`).
    pub probe: &'a Path,
    pub out: &'a Path,
    pub refs: &'a References,
    pub workers: usize,
    pub read_daemon_counts: bool,
    /// The measured window: closed-loop jobs and restart rounds keep coming
    /// while the next one is expected to end within it.
    pub seconds: u64,
}

impl Env<'_> {
    /// Whether another unit of work lasting `last` still fits the window
    /// opened at `start`.
    fn fits(&self, start: Instant, last: Duration) -> bool {
        start.elapsed() + last <= Duration::from_secs(self.seconds)
    }
}

fn parse(line: &str) -> Json {
    Json::parse(line).unwrap_or(Json::Null)
}

/// The pinned answer of `job`.
pub fn expected<'r>(refs: &'r References, job: &Job) -> Result<&'r stats::Expected, String> {
    refs.get(&job.key())
        .ok_or_else(|| format!("no pinned answer for {:?}", job.key()))
}

/// A `setup_s` sample: seconds as measured and the host's speed around it.
type Setup = (f64, f64);

/// Spawns the daemon and times spawn → first answered request.
fn spawn_timed(env: &Env, tally: &mut Tally, args: &[String]) -> std::io::Result<(Daemon, f64)> {
    let (mut daemon, started) = Daemon::spawn(env.daemon, args)?;
    let (line, _, answered) = daemon.call(HEALTH)?;
    tally.record(ok_line(&parse(&line)));
    Ok((daemon, answered.duration_since(started).as_secs_f64()))
}

/// Times spawn → answer of the reference process.
fn probe_timed(env: &Env) -> std::io::Result<f64> {
    let (mut probe, started) = Daemon::spawn(env.probe, &[])?;
    let (_, _, answered) = probe.call(HEALTH)?;
    probe.kill();
    Ok(answered.duration_since(started).as_secs_f64())
}

/// [`FRESH_SPAWNS`] timed spawns of the daemon, each right after a timed
/// spawn of the reference process; a sample's speed is
/// [`host::REFERENCE_SPAWN_S`] over that spawn's time. Every daemon but the
/// last is killed at once. Returns the last daemon, the samples and a
/// host-speed reading, which opens the first round.
fn fresh_spawns(
    env: &Env,
    tally: &mut Tally,
    mut args: impl FnMut(usize) -> std::io::Result<Vec<String>>,
) -> std::io::Result<(Daemon, Vec<Setup>, f64)> {
    let mut setups = Vec::with_capacity(FRESH_SPAWNS);
    let mut last = None;
    for i in 0..FRESH_SPAWNS {
        if let Some(daemon) = last.take() {
            Daemon::kill(daemon);
        }
        let speed = host::REFERENCE_SPAWN_S / probe_timed(env)?;
        let (daemon, seconds) = spawn_timed(env, tally, &args(i)?)?;
        setups.push((seconds, speed));
        last = Some(daemon);
    }
    let daemon = last.expect("at least one spawn");
    Ok((daemon, setups, host::speed(env.workers)))
}

fn submit(
    daemon: &mut Daemon,
    tally: &mut Tally,
    job: &Job,
) -> std::io::Result<(Option<u64>, Instant)> {
    let (line, written, _) = daemon.call(&job.submit_line())?;
    let answer = parse(&line);
    let id = answer.u64_at("job");
    tally.record(ok_line(&answer).and_then(|()| id.map(|_| ()).ok_or("no job id".to_string())));
    Ok((id, written))
}

fn read_daemon_counts(daemon: &mut Daemon, jobs: u64) -> std::io::Result<DaemonCounts> {
    let mut counts = DaemonCounts {
        jobs,
        ..DaemonCounts::default()
    };
    let (metrics, _, _) = daemon.call(r#"{"op":"metrics"}"#)?;
    if let Some(Json::Obj(counters)) = parse(&metrics)
        .get("metrics")
        .and_then(|m| m.get("counters"))
    {
        for (name, value) in counters {
            counts
                .counters
                .insert(name.clone(), value.as_f64().unwrap_or(0.0));
        }
    }
    let (profile, _, _) = daemon.call(r#"{"op":"profile"}"#)?;
    let profile = parse(&profile);
    if let Some(phases) = profile.get("profile").and_then(|p| p.get("phases")) {
        for phase in phases.as_arr() {
            if let Some(name) = phase.get("phase").and_then(Json::as_str) {
                let value = |key| phase.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                counts
                    .phases
                    .insert(name.to_string(), (value("count"), value("self_ns")));
            }
        }
    }
    Ok(counts)
}

struct Figures {
    variants_per_s: f64,
    jobs_per_s: f64,
    job_p50_ms: f64,
    job_tail_ms: f64,
    /// How the first round's tail was chosen.
    tail: stats::Tail,
}

/// Each figure taken per round, then the median over rounds.
fn summarize(rounds: &[Round]) -> Figures {
    let latencies = |round: &Round| round.scaled_latencies_ms().collect::<Vec<_>>();
    let per_round = |figure: &dyn Fn(&Round) -> f64| {
        stats::median(&rounds.iter().map(figure).collect::<Vec<_>>())
    };
    Figures {
        variants_per_s: per_round(&Round::variants_per_s),
        jobs_per_s: per_round(&Round::jobs_per_s),
        job_p50_ms: per_round(&|round| stats::median(&latencies(round))),
        job_tail_ms: per_round(&|round| stats::tail(&latencies(round)).value),
        tail: stats::tail(&latencies(&rounds[0])),
    }
}

/// Turns the run's samples into the end-to-end metrics: throughputs per
/// busy second, latency as median and tail, set-up time as the median
/// sample. Every time is scaled by the host's speed around it, and rounds
/// the hypervisor stole much CPU time from are left out (see
/// [`crate::host`] and [`stats::calm_rounds`]).
fn finish(
    setups: &[Setup],
    rounds: &[Round],
    peak_rss_mb: f64,
    tally: Tally,
    mut info: Vec<(String, String)>,
    daemon: DaemonCounts,
) -> Outcome {
    let calm = stats::calm_rounds(rounds);
    let Figures {
        variants_per_s,
        jobs_per_s,
        job_p50_ms,
        job_tail_ms,
        tail,
    } = summarize(&calm);
    let measured: Vec<Round> = calm.iter().map(Round::as_measured).collect();
    let setup_s = stats::median(
        &setups
            .iter()
            .map(|(s, speed)| s * speed)
            .collect::<Vec<_>>(),
    );
    let setup_measured_s = stats::median(&setups.iter().map(|&(s, _)| s).collect::<Vec<_>>());
    let speeds: Vec<f64> = calm.iter().map(|round| round.speed).collect();
    info.push(("setup_samples".into(), setups.len().to_string()));
    info.push(("setup_s_unscaled".into(), format!("{setup_measured_s:.6}")));
    info.push((
        "rounds".into(),
        format!("{} of {} kept (steal limit)", calm.len(), rounds.len()),
    ));
    info.push((
        "steal_pct".into(),
        rounds
            .iter()
            .map(|round| format!("{:.1}", round.steal * 100.0))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    info.push((
        "host_speed".into(),
        format!(
            "median {:.3} of kept rounds: {}",
            stats::median(&speeds),
            speeds
                .iter()
                .map(|speed| format!("{speed:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ));
    let unscaled = summarize(&measured);
    info.push((
        "unscaled".into(),
        format!(
            "variants_per_s {:.1}, job_p50_ms {:.3}, job_tail_ms {:.3}",
            unscaled.variants_per_s, unscaled.job_p50_ms, unscaled.job_tail_ms
        ),
    ));
    info.push((
        "job_tail".into(),
        format!(
            "p{} of {} samples per round, {} beyond",
            tail.pct, tail.samples, tail.beyond
        ),
    ));
    Outcome {
        metrics: vec![
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "variants_per_s",
                value: variants_per_s,
                unit: "1/s",
            },
            Metric {
                name: "jobs_per_s",
                value: jobs_per_s,
                unit: "1/s",
            },
            Metric {
                name: "job_p50_ms",
                value: job_p50_ms,
                unit: "ms",
            },
            Metric {
                name: "job_tail_ms",
                value: job_tail_ms,
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MB",
            },
        ],
        tally,
        info,
        daemon,
        busy_s: rounds
            .iter()
            .map(|round| stats::busy_seconds(&round.jobs))
            .sum(),
        setup_s: setup_measured_s,
        units: rounds.len(),
    }
}

pub fn run(env: &Env, plan: &Plan) -> std::io::Result<Outcome> {
    match plan.workload {
        Workload::Sweep | Workload::Exact => closed_loop(env, plan),
        Workload::Tenants => tenants(env, plan),
        Workload::Restart => restart(env, plan),
    }
}

/// `sweep` / `exact`: one job at a time, submit → wait.
fn closed_loop(env: &Env, plan: &Plan) -> std::io::Result<Outcome> {
    let mut tally = Tally::default();
    let (mut daemon, setups, mut before) = fresh_spawns(env, &mut tally, |_| Ok(Vec::new()))?;
    // Each job is its own round, so every figure is a median over jobs.
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut last_round = Duration::ZERO;
    for job in &plan.jobs {
        if !rounds.is_empty() && !env.fits(start, last_round) {
            break;
        }
        let round_start = Instant::now();
        let ticks = CpuTicks::now();
        let (id, written) = submit(&mut daemon, &mut tally, job)?;
        let Some(id) = id else { continue };
        let (line, _, answered) = daemon.call(&format!(r#"{{"op":"wait","job":{id}}}"#))?;
        let steal = ticks.stolen_share();
        let timing = JobTiming {
            arrival: written,
            done: answered,
            combinations: job.combinations(),
        };
        tally.record(expected(env.refs, job).and_then(|e| check_evaluated(e, &parse(&line))));
        let after = host::speed(env.workers);
        rounds.push(Round::new(vec![timing], before, after, steal));
        before = after;
        last_round = round_start.elapsed();
    }
    let rss = daemon.peak_rss_mb().unwrap_or(0.0);
    let counts = if env.read_daemon_counts {
        read_daemon_counts(&mut daemon, rounds.len() as u64)?
    } else {
        DaemonCounts::default()
    };
    daemon.shutdown()?;
    let info = vec![(
        "job_ms_unscaled".into(),
        rounds
            .iter()
            .flat_map(|round| &round.jobs)
            .map(|t| format!("{:.0}", t.latency_ms()))
            .collect::<Vec<_>>()
            .join(" "),
    )];
    Ok(finish(&setups, &rounds, rss, tally, info, counts))
}

/// `tenants`: the plan's bursts of [`TENANTS_BURST`] jobs from three
/// weighted tenants, one after another; each job is timed from its burst's
/// start to the poll that saw it terminal. A burst is a round, with a
/// host-speed reading after it.
fn tenants(env: &Env, plan: &Plan) -> std::io::Result<Outcome> {
    let root = env.out.join(format!("tenants-{}", std::process::id()));
    let store_arg = |dir: PathBuf| -> std::io::Result<Vec<String>> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(vec!["--store".into(), dir.display().to_string()])
    };
    let mut tally = Tally::default();
    let (mut daemon, setups, mut before) = fresh_spawns(env, &mut tally, |i| {
        store_arg(root.join(format!("store-{i}")))
    })?;
    let mut rounds = Vec::new();
    let mut submit_ms = Vec::new();
    for jobs in plan.jobs.chunks(TENANTS_BURST) {
        let ticks = CpuTicks::now();
        let timings = burst(env, jobs, &mut daemon, &mut tally, &mut submit_ms)?;
        let steal = ticks.stolen_share();
        let after = host::speed(env.workers);
        rounds.push(Round::new(timings, before, after, steal));
        before = after;
    }
    let rss = daemon.peak_rss_mb().unwrap_or(0.0);
    let counts = if env.read_daemon_counts {
        read_daemon_counts(&mut daemon, plan.jobs.len() as u64)?
    } else {
        DaemonCounts::default()
    };
    daemon.shutdown()?;
    std::fs::remove_dir_all(&root)?;
    let info = vec![(
        "burst_submitted_ms".into(),
        format!(
            "p50 {:.3} max {:.3} (burst start to the write of its last submit)",
            stats::median(&submit_ms),
            submit_ms.iter().cloned().fold(0.0, f64::max)
        ),
    )];
    Ok(finish(&setups, &rounds, rss, tally, info, counts))
}

/// Submits every job of a burst, then polls the outstanding ones (the
/// oldest [`POLLS_PER_TENANT`] of each tenant per sweep) until all have
/// finished; returns their timings, each from the burst's start. Records
/// how long after the start the last submit was written.
fn burst(
    env: &Env,
    jobs: &[Job],
    daemon: &mut Daemon,
    tally: &mut Tally,
    submit_ms: &mut Vec<f64>,
) -> std::io::Result<Vec<JobTiming>> {
    let start = Instant::now();
    let mut outstanding: Vec<(u64, &Job)> = Vec::with_capacity(jobs.len());
    let mut last_written = start;
    for job in jobs {
        let (id, written) = submit(daemon, tally, job)?;
        last_written = written;
        if let Some(id) = id {
            outstanding.push((id, job));
        }
    }
    submit_ms.push(last_written.duration_since(start).as_secs_f64() * 1e3);
    let mut timings = Vec::with_capacity(jobs.len());
    while !outstanding.is_empty() {
        let mut still = Vec::with_capacity(outstanding.len());
        let mut polled: Vec<&str> = Vec::new();
        for (id, job) in outstanding {
            if polled.iter().filter(|&&t| t == job.tenant).count() >= POLLS_PER_TENANT {
                still.push((id, job));
                continue;
            }
            polled.push(job.tenant);
            let (line, _, answered) = daemon.call(&format!(r#"{{"op":"poll","job":{id}}}"#))?;
            let answer = parse(&line);
            let state = answer.get("state").and_then(Json::as_str).unwrap_or("");
            if !matches!(state, "completed" | "cancelled") {
                if ok_line(&answer).is_err() {
                    tally.record(ok_line(&answer));
                } else {
                    still.push((id, job));
                }
                continue;
            }
            timings.push(JobTiming {
                arrival: start,
                done: answered,
                combinations: job.combinations(),
            });
            tally.record(expected(env.refs, job).and_then(|e| check_evaluated(e, &answer)));
        }
        outstanding = still;
        std::thread::sleep(POLL_PAUSE);
    }
    Ok(timings)
}

/// `restart`: recover a prepared store (snapshot + WAL tail), let the
/// resumed jobs finish, then pipeline cache-hit resubmissions. Each round
/// restarts a daemon on a fresh byte-identical copy of the store; the
/// restart is one `setup_s` sample.
fn restart(env: &Env, plan: &Plan) -> std::io::Result<Outcome> {
    let root = env.out.join(format!("restart-{}", std::process::id()));
    let base = root.join("base");
    store::build(&base, &plan.jobs, &plan.tail, env.workers).map_err(std::io::Error::other)?;
    let run_dir = root.join("run");
    let mut tally = Tally::default();
    let mut recoveries = Vec::new();
    let mut hit_timings = Vec::new();
    // One host-speed reading before the first restart and one after each
    // round's resumed jobs: round `n`'s restart lies between readings `n`
    // and `n + 1`, its hits between `n + 1` and `n + 2`.
    let mut speeds = vec![host::speed(env.workers)];
    let mut peak_rss_mb: f64 = 0.0;
    let mut counts = DaemonCounts::default();
    let start = Instant::now();
    let mut last_round = Duration::ZERO;
    for (number, round) in plan.hit_rounds.iter().enumerate() {
        if number >= RESTART_MIN_ROUNDS && !env.fits(start, last_round) {
            break;
        }
        let round_start = Instant::now();
        store::copy(&base, &run_dir)?;
        let args = ["--store".to_string(), run_dir.display().to_string()];
        let (mut daemon, recovery) = spawn_timed(env, &mut tally, &args)?;
        recoveries.push(recovery);
        resumed(env, plan, &mut daemon, &mut tally)?;
        speeds.push(host::speed(env.workers));
        let ticks = CpuTicks::now();
        let (timings, hits) = hit_round(plan, round, &mut daemon, &mut tally)?;
        hit_timings.push((timings, ticks.stolen_share()));
        peak_rss_mb = peak_rss_mb.max(daemon.peak_rss_mb().unwrap_or(0.0));
        verify_hits(env, plan, &hits, &mut daemon, &mut tally)?;
        if env.read_daemon_counts && number == 0 {
            let jobs = (RESTART_COMPLETED + plan.tail.len() + hits.len()) as u64;
            counts = read_daemon_counts(&mut daemon, jobs)?;
        }
        daemon.kill();
        last_round = round_start.elapsed();
    }
    speeds.push(host::speed(env.workers));
    std::fs::remove_dir_all(&root)?;
    let mean = |pair: &[f64]| (pair[0] + pair[1]) / 2.0;
    let setups: Vec<Setup> = recoveries
        .into_iter()
        .zip(speeds.windows(2))
        .map(|(seconds, pair)| (seconds, mean(pair)))
        .collect();
    let rounds: Vec<Round> = hit_timings
        .into_iter()
        .zip(speeds[1..].windows(2))
        .map(|((timings, steal), pair)| Round::new(timings, pair[0], pair[1], steal))
        .collect();
    let hit_rates: Vec<f64> = rounds.iter().map(Round::jobs_per_s).collect();
    let info = vec![(
        "cache_hit_ops_per_s".into(),
        format!(
            "{:.1} (median of rounds: {})",
            stats::median(&hit_rates),
            hit_rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    )];
    let mut outcome = finish(&setups, &rounds, peak_rss_mb, tally, info, counts);
    outcome.busy_s = stats::busy_seconds(&rounds[0].jobs);
    Ok(outcome)
}

/// Polls the jobs resumed from the WAL tail until they finish; each must
/// reach the pinned optimum.
fn resumed(env: &Env, plan: &Plan, daemon: &mut Daemon, tally: &mut Tally) -> std::io::Result<()> {
    for (offset, job) in plan.tail.iter().enumerate() {
        let id = RESTART_COMPLETED + offset;
        loop {
            let (line, _, _) = daemon.call(&format!(r#"{{"op":"poll","job":{id}}}"#))?;
            let answer = parse(&line);
            if answer.get("state").and_then(Json::as_str) == Some("running") {
                std::thread::sleep(POLL_PAUSE);
                continue;
            }
            tally.record(expected(env.refs, job).and_then(|e| check_evaluated(e, &answer)));
            break;
        }
    }
    Ok(())
}

/// A round's timings and the `(job id, recipe index)` of every hit.
type HitRound = (Vec<JobTiming>, Vec<(u64, usize)>);

/// One round of pipelined resubmissions (at most [`PIPELINE_WINDOW`] in
/// flight; a request is timed from the write of its batch). Returns the timings and the `(job id, recipe)` of every hit.
fn hit_round(
    plan: &Plan,
    round: &[usize],
    daemon: &mut Daemon,
    tally: &mut Tally,
) -> std::io::Result<HitRound> {
    let lines: Vec<String> = round.iter().map(|&i| plan.jobs[i].submit_line()).collect();
    let mut written = std::collections::VecDeque::with_capacity(PIPELINE_WINDOW);
    let mut answers = Vec::with_capacity(lines.len());
    let mut sent = 0;
    while answers.len() < lines.len() {
        // Refill in batches once half the window drained: one write (and
        // one daemon wake-up) per batch instead of per line.
        if sent < lines.len() && written.len() <= PIPELINE_WINDOW / 2 {
            let batch = &lines[sent..(sent + PIPELINE_WINDOW - written.len()).min(lines.len())];
            let at = daemon.send_many(batch)?;
            written.extend(std::iter::repeat_n(at, batch.len()));
            sent += batch.len();
        }
        let (line, answered) = daemon.recv()?;
        let at = written.pop_front().expect("a response answers a request");
        answers.push((line, at, answered));
    }
    // Parsed only after the round's window closed.
    let mut timings = Vec::with_capacity(answers.len());
    let mut hits = Vec::with_capacity(answers.len());
    for ((line, at, answered), &recipe) in answers.into_iter().zip(round) {
        timings.push(JobTiming {
            arrival: at,
            done: answered,
            combinations: plan.jobs[recipe].combinations(),
        });
        let answer = parse(&line);
        let check = ok_line(&answer).and_then(|()| {
            let hit = answer.get("cache_hit").and_then(Json::as_bool) == Some(true);
            let completed = answer.get("state").and_then(Json::as_str) == Some("completed");
            match (hit, completed, answer.u64_at("job")) {
                (true, true, Some(id)) => {
                    hits.push((id, recipe));
                    Ok(())
                }
                _ => Err("resubmission was not a completed cache hit".to_string()),
            }
        });
        tally.record(check);
    }
    Ok((timings, hits))
}

/// Reads every hit's optimum back (after the timed round) and checks it.
fn verify_hits(
    env: &Env,
    plan: &Plan,
    hits: &[(u64, usize)],
    daemon: &mut Daemon,
    tally: &mut Tally,
) -> std::io::Result<()> {
    for chunk in hits.chunks(PIPELINE_WINDOW) {
        for &(id, _) in chunk {
            daemon.send(&format!(r#"{{"op":"top","job":{id},"k":1}}"#))?;
        }
        for &(_, recipe) in chunk {
            let (line, _) = daemon.recv()?;
            let answer = parse(&line);
            let top = answer
                .get("top")
                .map(Json::as_arr)
                .and_then(|top| top.first());
            tally.record(
                ok_line(&answer)
                    .and_then(|()| expected(env.refs, &plan.jobs[recipe]))
                    .and_then(|e| check_best(e, top)),
            );
        }
    }
    Ok(())
}
