//! `icfl-perfbench` — runs one benchmark workload of ICFL and prints its
//! metrics.
//!
//! ```text
//! icfl-perfbench --workload <train|ingest-fleet> --seed N
//!                --seconds S --trace <0|1> --server-bin PATH --work-dir DIR
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (`{"name": {"value", "unit"}}`).
//! Untraced runs report the end-to-end metrics; traced runs report the
//! per-layer metrics derived from the benchmark's spans, write those spans
//! as a Chrome trace and print a per-layer table to standard error. A
//! failed output check prints the result with `"correct": false`, and a
//! failed operation counts in `failed`; either exits with code 1.

mod ingest;
mod replay;
mod spans;
mod train;
mod util;

use spans::Spans;
use std::path::PathBuf;
use util::Outcome;

const USAGE: &str = "usage: icfl-perfbench --workload <train|ingest-fleet> \
--seed N --seconds S --trace <0|1> --server-bin PATH --work-dir DIR";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn run(args: &Args, spans: &Spans, out: &mut Outcome) -> Result<(), String> {
    let dir = &args.work_dir;
    match args.workload.as_str() {
        "train" => {
            if args.trace {
                // The train workload serves nothing; its traced run reports
                // the serving layers from one small fleet round, so every
                // run reports every per-layer metric.
                ingest::run(args.seed, 0.0, &args.server_bin, dir, spans, true, out)?;
            }
            return train::run(args.seed, args.seconds, spans, out);
        }
        "ingest-fleet" => {}
        other => return Err(format!("unknown workload {other}")),
    }
    ingest::run(
        args.seed,
        args.seconds,
        &args.server_bin,
        dir,
        spans,
        false,
        out,
    )
}

/// Prints the traced run's per-layer table (count, total and self time)
/// to standard error and writes the Chrome trace.
fn report_spans(args: &Args, spans: &Spans) -> Result<(), String> {
    let path = args
        .work_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, spans.chrome_trace()).map_err(|e| e.to_string())?;
    eprintln!("chrome trace: {}", path.display());
    eprintln!(
        "{:<28} {:>9} {:>12} {:>12}",
        "layer", "spans", "total_s", "self_s"
    );
    for (name, t) in spans.layers() {
        eprintln!(
            "{name:<28} {:>9} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("work dir {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    // Library log lines would go to stderr; keep only errors.
    icfl_obs::logger::set_level(icfl_obs::Level::Error);
    let spans = Spans::new(args.trace);
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &spans, &mut out) {
        // The operation that broke the run off counts as failed.
        eprintln!("icfl-perfbench {}: {e}", args.workload);
        out.attempted += 1;
        out.failed += 1;
    }
    if args.trace && out.failed == 0 {
        if let Err(e) = report_spans(&args, &spans) {
            eprintln!("trace output: {e}");
            std::process::exit(1);
        }
    }
    for (name, n) in &out.tally {
        eprintln!("tally {name}: {n}");
    }
    for v in &out.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    if out.failed > 0 {
        eprintln!("{} of {} operations failed", out.failed, out.attempted);
    }
    println!("{}", out.result_line());
    if !out.violations.is_empty() || out.failed > 0 {
        std::process::exit(1);
    }
}
