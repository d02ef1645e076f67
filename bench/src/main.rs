//! `spi-daemon-bench`: the end-to-end and per-layer benchmark of the
//! `spi-explored` daemon. See `README.md` in this directory.
//!
//! ```text
//! spi-daemon-bench run --workload W --seed N --seconds S --trace 0|1
//!                      --daemon BIN --data FILE --out DIR [--commit ID]
//! spi-daemon-bench regen --data FILE
//! ```
//!
//! `run` prints a human-readable report, then as its last line one JSON
//! object `{"correct","attempted","failed","metrics"}`; it exits 1 when any
//! answer was wrong or refused. `regen` recomputes the pinned answers.

mod daemon;
mod e2e;
mod host;
mod inputs;
mod json;
mod pool;
mod reference;
mod spans;
mod stats;
mod store;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Plan, Workload};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|arg| arg == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("{name} takes a whole number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("regen") => regen(&args).map(|()| true),
        _ => Err("usage: spi-daemon-bench run|regen ... (see README.md)".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("spi-daemon-bench: {why}");
            ExitCode::from(2)
        }
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn regen(args: &[String]) -> Result<(), String> {
    let data = PathBuf::from(required(args, "--data")?);
    let keys = inputs::pool();
    eprintln!(
        "regenerating {} pinned answers on {} threads",
        keys.len(),
        workers()
    );
    let rows = reference::regenerate(&keys, workers())?;
    std::fs::write(&data, inputs::render_references(&rows)).map_err(|e| e.to_string())
}

/// Renders a metric value with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let workload_name = required(args, "--workload")?;
    let workload = Workload::parse(workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let seed = number(args, "--seed")?;
    let seconds = number(args, "--seconds")?.max(1);
    let trace = number(args, "--trace")? == 1;
    let daemon = PathBuf::from(required(args, "--daemon")?);
    let out = PathBuf::from(required(args, "--out")?);
    let commit = flag(args, "--commit").unwrap_or("unknown");
    let data = required(args, "--data")?;
    let refs = inputs::parse_references(
        &std::fs::read_to_string(data).map_err(|e| format!("reading {data}: {e}"))?,
    )?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let plan = Plan::new(workload, seed, seconds);
    let workers = workers();
    let probe = std::env::current_exe()
        .map_err(|e| format!("locating the harness: {e}"))?
        .with_file_name("spawn-probe");
    let env = e2e::Env {
        daemon: &daemon,
        probe: &probe,
        out: &out,
        refs: &refs,
        workers,
        read_daemon_counts: trace,
        seconds,
    };
    let outcome = e2e::run(&env, &plan).map_err(|e| format!("end-to-end run: {e}"))?;

    println!(
        "workload {} seed {seed} seconds {seconds} trace {} | nproc {workers} daemon workers {workers} (shipped default) | commit {commit}",
        workload.name(),
        u8::from(trace)
    );
    println!("end-to-end ({} jobs or rounds ran):", outcome.units);
    for metric in &outcome.metrics {
        println!(
            "  {:<16} {:>14.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  {:<16} {:>14.6} ({} failed of {} ops)",
        "error_rate",
        outcome.tally.error_rate(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for (key, value) in &outcome.info {
        println!("  {key}: {value}");
    }

    let mut tally = outcome.tally.clone();
    let metrics = if trace {
        let env = traced::Env {
            out: &out,
            refs: &refs,
            workers,
            seconds,
        };
        let traced = traced::run(&env, &plan, &outcome).map_err(|e| format!("traced run: {e}"))?;
        println!("per-layer (traced run, {}):", traced.trace_path.display());
        for metric in &traced.metrics {
            println!(
                "  {:<36} {:>16.3} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for (key, value) in &traced.info {
            println!("  {key}: {value}");
        }
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        tally.failures.extend(traced.tally.failures.iter().cloned());
        traced.metrics
    } else {
        outcome.metrics
    };
    for failure in &tally.failures {
        println!("  FAILED: {failure}");
    }

    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    Ok(correct)
}
