//! The benchmark's own arithmetic: medians, the tail percentile, busy time,
//! memory high-water marks and failure accounting. Kept free of I/O so the
//! unit tests below pin every rule the published numbers depend on.

use std::time::Instant;

use crate::json::Json;

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `pct` of `sorted` (ascending, non-empty): the
/// value at 1-based rank `ceil(pct/100 · n)`.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    // In tenths of a percent, so the rank is exact integer arithmetic.
    let tenths = (pct * 10.0).round() as usize;
    let rank = (tenths * n).div_ceil(1000).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// A tail latency together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Percentiles the tail is chosen from, highest last: the decades, so a
/// run's tail keeps at least twice [`TAIL_MIN_BEYOND`] samples beyond it
/// until the next decade is reachable.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported as the
/// tail: fewer would make it a reading of one or two outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 20 samples not
/// even the median qualifies; the median is reported then, since any higher
/// order statistic of so few samples reads one outlier.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let mut best = Tail {
        pct: 50.0,
        value: median(&sorted),
        beyond: n / 2,
        samples: n,
    };
    for pct in TAIL_LADDER {
        let (rank, value) = nearest_rank(&sorted, pct);
        if n - rank >= TAIL_MIN_BEYOND {
            best = Tail {
                pct,
                value,
                beyond: n - rank,
                samples: n,
            };
        }
    }
    best
}

/// One job as the client saw it: due at `arrival`, answered at `done`.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    pub arrival: Instant,
    pub done: Instant,
    pub combinations: u64,
}

impl JobTiming {
    pub fn latency_ms(&self) -> f64 {
        self.done
            .saturating_duration_since(self.arrival)
            .as_secs_f64()
            * 1e3
    }
}

/// A round of jobs with the host's speed around it, relative to the
/// calibration reference, and the share of CPU time the hypervisor stole
/// during it (see [`crate::host`]).
#[derive(Debug, Clone)]
pub struct Round {
    pub jobs: Vec<JobTiming>,
    pub speed: f64,
    pub steal: f64,
}

impl Round {
    /// A round whose speed is the mean of the speeds measured just before
    /// and just after it.
    pub fn new(jobs: Vec<JobTiming>, speed_before: f64, speed_after: f64, steal: f64) -> Round {
        Round {
            jobs,
            speed: (speed_before + speed_after) / 2.0,
            steal,
        }
    }

    /// The same jobs with their times as measured.
    pub fn as_measured(&self) -> Round {
        Round {
            speed: 1.0,
            ..self.clone()
        }
    }

    /// The round's busy time as the reference host would have taken it: a
    /// host running at 0.8 of the reference speed took 1/0.8 as long.
    pub fn scaled_busy_seconds(&self) -> f64 {
        busy_seconds(&self.jobs) * self.speed
    }

    /// Job latencies scaled the same way.
    pub fn scaled_latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.jobs.iter().map(|job| job.latency_ms() * self.speed)
    }

    /// Combinations answered per scaled busy second.
    pub fn variants_per_s(&self) -> f64 {
        self.jobs.iter().map(|job| job.combinations).sum::<u64>() as f64
            / self.scaled_busy_seconds()
    }

    /// Jobs answered per scaled busy second.
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs.len() as f64 / self.scaled_busy_seconds()
    }
}

/// Stolen share of CPU time a round may have and still count when most of
/// a run's rounds stay below it. Quiet stretches of the 2-vCPU reference
/// host read 0–4%.
pub const STEAL_TOLERANCE: f64 = 0.04;

/// The rounds a run's figures are taken from: those whose stolen share is
/// at most [`STEAL_TOLERANCE`] or the run's median share, whichever is
/// larger. A run without steal keeps every round; a run through a stretch
/// of heavy steal keeps the calmer half of its rounds.
pub fn calm_rounds(rounds: &[Round]) -> Vec<Round> {
    let shares: Vec<f64> = rounds.iter().map(|round| round.steal).collect();
    let limit = STEAL_TOLERANCE.max(median(&shares));
    rounds
        .iter()
        .filter(|round| round.steal <= limit)
        .cloned()
        .collect()
}

/// Seconds during which at least one of `jobs` was outstanding (the union of
/// their `[arrival, done]` intervals). Throughput per busy second does not
/// depend on how far apart an open-loop schedule spaced the arrivals.
pub fn busy_seconds(jobs: &[JobTiming]) -> f64 {
    let mut spans: Vec<(Instant, Instant)> = jobs.iter().map(|j| (j.arrival, j.done)).collect();
    spans.sort_by_key(|span| span.0);
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (start, end) in spans {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e.duration_since(s).as_secs_f64();
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e.saturating_duration_since(s).as_secs_f64();
    }
    total
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// MiB.
pub fn vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// Operations attempted and failed; a failed, refused or wrong answer counts
/// once.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The pinned answer for one job: the optimum a serial flatten+evaluate loop
/// found and the census it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub combinations: u64,
    pub feasible: u64,
    pub best_index: u64,
    pub best_cost: u64,
}

/// Checks a terminal `poll`/`wait` answer of a job the workers evaluated:
/// completed, every variant accounted exactly once without errors, and the
/// optimum bit-identical to the pinned one. The feasible count is compared
/// only when nothing was pruned (a pruned variant is never evaluated, so it
/// cannot be counted feasible).
pub fn check_evaluated(expected: &Expected, answer: &Json) -> Result<(), String> {
    ok_line(answer)?;
    let field = |key: &str| {
        answer
            .u64_at(key)
            .ok_or_else(|| format!("answer lacks `{key}`"))
    };
    let state = answer.get("state").and_then(Json::as_str).unwrap_or("?");
    if state != "completed" {
        return Err(format!("job ended `{state}`"));
    }
    if field("combinations")? != expected.combinations {
        return Err("wrong combination count".to_string());
    }
    let (evaluated, pruned, errors) = (field("evaluated")?, field("pruned")?, field("errors")?);
    if errors != 0 || evaluated + pruned != expected.combinations {
        return Err(format!(
            "census {evaluated}+{pruned}+{errors} != {}",
            expected.combinations
        ));
    }
    if pruned == 0 && field("feasible")? != expected.feasible {
        return Err("wrong feasible count".to_string());
    }
    check_best(expected, answer.get("best"))
}

/// Checks the reported optimum (`{"index":..,"cost":..}`) against the pinned one.
pub fn check_best(expected: &Expected, best: Option<&Json>) -> Result<(), String> {
    let best = best.ok_or("answer lacks `best`")?;
    let (index, cost) = (best.u64_at("index"), best.u64_at("cost"));
    if index != Some(expected.best_index) || cost != Some(expected.best_cost) {
        return Err(format!(
            "optimum {index:?}/{cost:?} != pinned {}/{}",
            expected.best_index, expected.best_cost
        ));
    }
    Ok(())
}

/// `Err` unless the line is a well-formed `"ok":true` response.
pub fn ok_line(answer: &Json) -> Result<(), String> {
    match answer.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(format!(
            "refused: {}",
            answer
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed response")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&values);
        // p99 has rank 149 (1 beyond), p90 rank 135 (15 beyond).
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (90.0, 135.0, 15, 150)
        );

        let values: Vec<f64> = (1..=24_000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.pct, t.beyond), (99.9, 24));
        assert!(t.beyond >= TAIL_MIN_BEYOND);

        // 20 samples: the median is the only percentile with 10 beyond.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values).pct, 50.0);
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_median() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 7.0, 1, 3));
    }

    #[test]
    fn latency_counts_from_the_scheduled_arrival() {
        let base = Instant::now();
        // Due at +10ms, written late at +14ms, answered at +30ms: the wait
        // the late generator imposed is part of the latency.
        let job = JobTiming {
            arrival: base + Duration::from_millis(10),
            done: base + Duration::from_millis(30),
            combinations: 1,
        };
        assert!((job.latency_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn busy_time_is_the_union_of_job_intervals() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let job = |a: u64, d: u64| JobTiming {
            arrival: at(a),
            done: at(d),
            combinations: 1,
        };
        // [0,10] ∪ [5,20] ∪ [30,40] = 20ms + 10ms.
        let busy = busy_seconds(&[job(30, 40), job(0, 10), job(5, 20)]);
        assert!((busy - 0.030).abs() < 1e-9);
    }

    #[test]
    fn rounds_scale_times_by_the_host_speed() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let jobs = vec![
            JobTiming {
                arrival: at(0),
                done: at(100),
                combinations: 1000,
            },
            JobTiming {
                arrival: at(100),
                done: at(300),
                combinations: 1000,
            },
        ];
        // Measured at 0.7 before and 0.9 after: the host ran at 0.8 of the
        // reference, so 300 ms busy here is 240 ms on the reference host.
        let round = Round::new(jobs, 0.7, 0.9, 0.0);
        assert!((round.speed - 0.8).abs() < 1e-12);
        assert!((round.scaled_busy_seconds() - 0.240).abs() < 1e-9);
        assert!((round.variants_per_s() - 2000.0 / 0.240).abs() < 1e-6);
        assert!((round.jobs_per_s() - 2.0 / 0.240).abs() < 1e-9);
        let latencies: Vec<f64> = round.scaled_latencies_ms().collect();
        assert!((latencies[0] - 80.0).abs() < 1e-9 && (latencies[1] - 160.0).abs() < 1e-9);
    }

    #[test]
    fn calm_rounds_drop_only_rounds_above_the_tolerance_and_the_median() {
        let round = |steal: f64| Round::new(Vec::new(), 1.0, 1.0, steal);
        let steals = |rounds: Vec<Round>| rounds.iter().map(|r| r.steal).collect::<Vec<_>>();
        // Little steal: every round counts.
        let quiet = [0.0, 0.04, 0.01, 0.02].map(round);
        assert_eq!(steals(calm_rounds(&quiet)), vec![0.0, 0.04, 0.01, 0.02]);
        // Heavy steal: the rounds at or below the median share count.
        let heavy = [0.30, 0.10, 0.05, 0.20, 0.40].map(round);
        assert_eq!(steals(calm_rounds(&heavy)), vec![0.10, 0.05, 0.20]);
        // One stolen round among quiet ones is left out.
        let one = [0.0, 0.25, 0.01].map(round);
        assert_eq!(steals(calm_rounds(&one)), vec![0.0, 0.01]);
    }

    #[test]
    fn vmhwm_is_read_in_mib() {
        let status =
            "Name:\tspi-explored\nVmPeak:\t  200000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(vmhwm_mb(status), Some(10.0));
        assert_eq!(vmhwm_mb("Name:\tx\n"), None);
    }

    fn pinned() -> Expected {
        Expected {
            combinations: 512,
            feasible: 512,
            best_index: 17,
            best_cost: 86,
        }
    }

    fn answer(index: u64, cost: u64) -> Json {
        Json::parse(&format!(
            r#"{{"ok":true,"op":"wait","state":"completed","combinations":512,"evaluated":512,"feasible":512,"pruned":0,"errors":0,"best":{{"index":{index},"cost":{cost}}}}}"#
        ))
        .expect("test line parses")
    }

    #[test]
    fn error_rate_counts_wrong_answers_and_refusals() {
        let mut tally = Tally::default();
        tally.record(check_evaluated(&pinned(), &answer(17, 86)));
        // A deliberately wrong optimum must count as a failure.
        tally.record(check_evaluated(&pinned(), &answer(18, 86)));
        tally.record(check_evaluated(&pinned(), &answer(17, 85)));
        let refused = Json::parse(r#"{"ok":false,"error":"unknown job 9"}"#).expect("parses");
        tally.record(check_evaluated(&pinned(), &refused));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!((tally.error_rate() - 0.75).abs() < 1e-12);
        assert!(tally.failures[2].contains("unknown job 9"));
    }

    #[test]
    fn census_mismatches_are_wrong_answers() {
        let mut line = answer(17, 86);
        if let Json::Obj(members) = &mut line {
            for (key, value) in members.iter_mut() {
                if key == "evaluated" {
                    *value = Json::Int(511);
                }
            }
        }
        assert!(check_evaluated(&pinned(), &line).is_err());
    }
}
