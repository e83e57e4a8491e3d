//! One pass: every job of a workload through the user pipeline
//! `parse → compile → verify (coverage + protocol) → run → check`, each
//! layer timed from outside by wrapping its public entry point.
//!
//! An untraced pass is what a user runs. The traced pass compiles with
//! `CompileOptions::observed()`, runs with `MachineConfig::trace`, reads
//! the compile's phase spans, and adds the dynamic trace checker, the
//! critical-path profiler and (where the workload asks) the overlap
//! what-if prediction.

use crate::measure::{process_cpu_s, secs};
use crate::workload::{Check, Job, Source, Workload};
use dhpf_core::codegen::ProvKind;
use dhpf_core::comm::CommReport;
use dhpf_core::exec::node::{run_node_program, ExecResult};
use dhpf_core::{compile, CompileOptions, Compiled};
use dhpf_iset::CacheStats;
use dhpf_spmd::machine::MachineConfig;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Float-oracle bound for generated programs, as in the fuzz campaign.
const MAX_ULPS: u64 = 4;
/// Relative tolerance on NAS `u`, as in the NAS tests.
const NAS_TOL: f64 = 1e-9;

/// Leaf compile phases: the top-level spans of the compile's outer scope
/// and its unit scopes, except `waves`, which encloses the unit spans,
/// and `callgraph`, which is left to `compile.other_s`.
pub const LEAF_PHASES: [&str; 8] = [
    "semantic",
    "inline",
    "analyze",
    "loop-distribution",
    "cp-select",
    "propagate",
    "comm-plan",
    "codegen",
];

#[derive(Debug, Default, PartialEq)]
pub enum Status {
    #[default]
    Finished,
    /// An all-off compile the compiler declined (not a failure).
    Declined,
    Failed(String),
}

/// What one job did and how long each layer took.
#[derive(Default)]
pub struct JobOutcome {
    pub status: Status,
    pub nprocs: usize,
    pub parse_s: f64,
    /// Emptying the iset interner before and after the job.
    pub reset_s: f64,
    pub compile_s: f64,
    pub coverage_s: f64,
    pub protocol_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub check_s: f64,
    pub comm: CommReport,
    /// Interner statistics of the (cold) compile alone.
    pub iset: Option<CacheStats>,
    pub atoms: usize,
    /// Virtual makespan, messages and bytes of the execution.
    pub makespan: Option<f64>,
    pub messages: u64,
    pub bytes: u64,
    /// Traced pass only.
    pub traced: Option<TracedExtras>,
}

#[derive(Default)]
pub struct TracedExtras {
    /// Seconds per `LEAF_PHASES` entry.
    pub phases: [f64; LEAF_PHASES.len()],
    pub trace_check_s: f64,
    pub profile_s: f64,
    pub whatif_s: f64,
    pub busy_vs: f64,
    pub stall_vs: f64,
    pub imbalance: Option<f64>,
    pub attributed_stall: f64,
    pub total_stall: f64,
    pub whatif_err: Option<f64>,
}

impl JobOutcome {
    fn fail(&mut self, layer: &str, msg: impl std::fmt::Display) {
        if self.status == Status::Finished {
            self.status = Status::Failed(format!("{layer}: {msg}"));
        }
    }

    pub fn verify_s(&self) -> f64 {
        self.coverage_s + self.protocol_s
    }
}

pub struct Pass {
    pub outcomes: Vec<JobOutcome>,
    pub wall_s: f64,
}

pub fn run_pass(w: &Workload, traced: bool) -> Pass {
    let t0 = Instant::now();
    let outcomes = w.jobs.iter().map(|job| run_job(w, job, traced)).collect();
    Pass {
        outcomes,
        wall_s: secs(t0),
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One job, leaving the interner empty behind it as a finished
/// `dhpf` process would, so no job pays for another's tables.
fn run_job(w: &Workload, job: &Job, traced: bool) -> JobOutcome {
    let mut o = pipeline(w, job, traced);
    let t = Instant::now();
    dhpf_iset::reset_cache();
    o.reset_s += secs(t);
    o
}

fn pipeline(w: &Workload, job: &Job, traced: bool) -> JobOutcome {
    let src = &w.sources[job.source];
    let mut o = JobOutcome {
        nprocs: job.nprocs,
        ..Default::default()
    };

    let t = Instant::now();
    let program = dhpf_fortran::parse(&src.text);
    o.parse_s = secs(t);
    let program = match program {
        Ok(p) => p,
        Err(d) => {
            o.fail("parse", format!("{d:?}"));
            return o;
        }
    };

    let mut opts = CompileOptions::new();
    opts.bindings = job.bindings.clone();
    opts.flags = job.flags;
    if traced {
        opts = opts.observed();
    }
    // every `dhpf compile` process starts with a cold interner
    let t = Instant::now();
    dhpf_iset::reset_cache();
    o.reset_s = secs(t);
    let t = Instant::now();
    let compiled = catch_unwind(AssertUnwindSafe(|| compile(&program, &opts)));
    o.compile_s = secs(t);
    o.iset = Some(dhpf_iset::cache_stats());
    let compiled = match compiled {
        Ok(Ok(c)) => c,
        Ok(Err(_)) if job.all_off => {
            o.status = Status::Declined;
            return o;
        }
        Ok(Err(e)) => {
            o.fail("compile", e);
            return o;
        }
        Err(p) => {
            o.fail("compile panic", panic_text(p));
            return o;
        }
    };
    o.comm = compiled.report;

    let t = Instant::now();
    let coverage = dhpf_analysis::verify_compiled(&compiled);
    o.coverage_s = secs(t);
    if !coverage.is_clean() {
        o.fail("coverage", coverage.render_human(None));
    }
    let t = Instant::now();
    let proto = dhpf_core::protocol::extract_protocol(&compiled.program);
    let report = dhpf_analysis::check_protocol(&proto);
    o.protocol_s = secs(t);
    o.atoms = dhpf_analysis::protocol::atom_count(&proto);
    if !report.is_clean() {
        o.fail("protocol", report.render_human(None));
    }

    let mut extras = traced.then(|| TracedExtras {
        phases: LEAF_PHASES.map(|p| compiled.obs.metrics.phase_ms(p) / 1e3),
        ..Default::default()
    });
    if job.execute {
        execute(w, job, src, &program, &compiled, &mut o, extras.as_mut());
    }
    o.traced = extras;
    o
}

fn run_checked(compiled: &Compiled, cfg: MachineConfig) -> Result<ExecResult, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        run_node_program(&compiled.program, cfg)
    })) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(format!("panic: {}", panic_text(p))),
    }
}

fn execute(
    w: &Workload,
    job: &Job,
    src: &Source,
    program: &dhpf_fortran::ast::Program,
    compiled: &Compiled,
    o: &mut JobOutcome,
    extras: Option<&mut TracedExtras>,
) {
    let cfg = MachineConfig {
        trace: extras.is_some(),
        ..MachineConfig::sp2(job.nprocs)
    };
    let c0 = process_cpu_s();
    let t = Instant::now();
    let result = run_checked(compiled, cfg.clone());
    o.run_s = secs(t);
    o.cpu_s = process_cpu_s() - c0;
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            o.fail("run", e);
            return;
        }
    };
    o.makespan = Some(result.run.virtual_time);
    o.messages = result.run.stats.messages;
    o.bytes = result.run.stats.bytes;

    let t = Instant::now();
    let serial = src
        .serial
        .as_ref()
        .expect("set-up ran the serial reference");
    let verdict = match src.check {
        Check::Nas => catch_unwind(AssertUnwindSafe(|| {
            dhpf_nas::verify::compare_fields(serial, &result, &["u"], NAS_TOL)
        }))
        .map_err(panic_text),
        Check::Fuzz => {
            dhpf_fuzz::oracle::compare_stitched(serial, &result.arrays, program, MAX_ULPS)
        }
    };
    o.check_s = secs(t);
    if let Err(m) = verdict {
        o.fail("check", m);
    }

    let Some(x) = extras else { return };
    let traces = &result.run.traces;
    let t = Instant::now();
    let findings = dhpf_analysis::check_traces(traces);
    x.trace_check_s = secs(t);
    if findings.error_count() > 0 {
        o.fail("trace-check", findings.render_human(None));
    }
    let busy: Vec<f64> = traces.iter().map(|t| t.busy()).collect();
    x.busy_vs = busy.iter().sum();
    x.stall_vs = traces.iter().map(|t| t.stalled()).sum();
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    if job.nprocs > 1 && x.busy_vs > 0.0 {
        x.imbalance = Some(max_busy * busy.len() as f64 / x.busy_vs);
    }

    let t = Instant::now();
    let prof = dhpf_profile::profile(
        &compiled.program,
        &compiled.transformed,
        &compiled.obs,
        traces,
        &cfg,
        &dhpf_profile::ProfileOptions::default(),
    );
    x.profile_s = secs(t);
    match prof {
        Ok(p) => {
            x.attributed_stall = p.attributed_stall;
            x.total_stall = p.total_stall;
        }
        Err(e) => o.fail("profile", e),
    }

    if w.whatif {
        let t = Instant::now();
        match overlap_whatif(program, job, compiled, result.run.virtual_time) {
            Ok(err) => x.whatif_err = err,
            Err(e) => o.fail("what-if", e),
        }
        x.whatif_s = secs(t);
    }
}

/// Relative error of the profiler's overlap what-if: compile `job` with
/// overlap off, profile its traced run with the candidate set
/// `dhpf profile --no-overlap` uses (the pre-exchange nests the
/// overlap-on compile fuses), and compare the predicted makespan with
/// the measured overlap-on one. `None` when nothing would overlap.
fn overlap_whatif(
    program: &dhpf_fortran::ast::Program,
    job: &Job,
    overlapped: &Compiled,
    measured: f64,
) -> Result<Option<f64>, String> {
    let mut opts = CompileOptions::new().observed();
    opts.bindings = job.bindings.clone();
    opts.flags = job.flags;
    opts.flags.overlap = false;
    let blocking = compile(program, &opts).map_err(|e| e.to_string())?;
    let fused: BTreeSet<(&str, u32)> = overlapped
        .program
        .provenance
        .iter()
        .filter(|p| p.kind == ProvKind::Overlap)
        .map(|p| (p.unit.as_str(), p.stmt))
        .collect();
    let candidates: Vec<u32> = blocking
        .program
        .provenance
        .iter()
        .enumerate()
        .filter(|(_, p)| p.kind == ProvKind::Pre && fused.contains(&(p.unit.as_str(), p.stmt)))
        .map(|(i, _)| i as u32)
        .collect();
    if candidates.is_empty() {
        return Ok(None);
    }
    let cfg = MachineConfig::sp2(job.nprocs).with_trace();
    let run = run_checked(&blocking, cfg.clone())?;
    let opts = dhpf_profile::ProfileOptions {
        overlap_candidates: candidates,
        ..Default::default()
    };
    let prof = dhpf_profile::profile(
        &blocking.program,
        &blocking.transformed,
        &blocking.obs,
        &run.run.traces,
        &cfg,
        &opts,
    )
    .map_err(|e| e.to_string())?;
    let predicted = prof
        .whatif
        .iter()
        .find(|s| s.scenario == "overlap")
        .ok_or("profile produced no overlap scenario")?
        .makespan;
    Ok(Some((predicted - measured).abs() / measured))
}
