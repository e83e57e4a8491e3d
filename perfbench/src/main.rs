//! `dhpf-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nas-run --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Sets up the named workload from the seed (repeatedly, reporting the
//! median), runs untraced passes over its jobs for `--seconds`, and with
//! `--trace 1` one traced pass after them. Every executed job is checked
//! against the serial interpreter. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for the metric table.

mod measure;
mod pass;
mod report;
mod workload;

use measure::secs;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: dhpf-perfbench --workload nas-run|compile-scale|fuzz-lattice \
                     --seed N --seconds S --trace 0|1";

/// Fewest timed passes in a run, however long they take: the reported
/// figures are medians over passes.
const MIN_PASSES: usize = 2;
/// Wall seconds spent repeating set-up.
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("dhpf-perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(a: &Args) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut serial_s = Vec::new();
    let mut workload = None;
    // set up repeatedly for SETUP_BUDGET_S (at least once) and report the
    // median: the NAS serial references take seconds, the other
    // workloads' set-ups milliseconds
    let t0 = Instant::now();
    while setup_s.is_empty() || secs(t0) < SETUP_BUDGET_S {
        let t = Instant::now();
        let s = workload::setup(&a.workload, a.seed)?;
        setup_s.push(secs(t));
        serial_s.push(s.serial_s);
        workload = Some(s.workload);
    }
    let w = workload.expect("the set-up loop runs at least once");

    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || secs(t0) < a.seconds {
        let p = pass::run_pass(&w, false);
        eprintln!(
            "pass {}: {:.3}s wall, compile {:.3}s, verify {:.3}s, run {:.3}s",
            passes.len() + 1,
            p.wall_s,
            p.outcomes.iter().map(|o| o.compile_s).sum::<f64>(),
            p.outcomes.iter().map(|o| o.verify_s()).sum::<f64>(),
            p.outcomes.iter().map(|o| o.run_s).sum::<f64>(),
        );
        passes.push(p);
    }
    let traced = a.trace.then(|| pass::run_pass(&w, true));
    let peak_rss_mb = measure::peak_rss_mb()?;

    let verdict = report::judge(&w, &passes, traced.as_ref());
    for p in &verdict.problems {
        eprintln!("RECONCILIATION {p}");
    }
    let metrics = match &traced {
        Some(t) => report::per_layer(
            &passes,
            t,
            &serial_s,
            verdict.failed as f64 / verdict.attempted as f64,
            verdict.pass_other_s,
        ),
        None => report::end_to_end(&passes, &setup_s, peak_rss_mb),
    };
    eprintln!(
        "{} seed {}: {} job(s) x {} pass(es){}, {} failed",
        w.name,
        a.seed,
        w.jobs.len(),
        passes.len(),
        if traced.is_some() { " + traced" } else { "" },
        verdict.failed
    );
    for m in &metrics.0 {
        eprintln!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let correct = verdict.failed == 0 && verdict.problems.is_empty();
    Ok(report::result_json(correct, &verdict, &metrics))
}
