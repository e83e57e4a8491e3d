//! The three workloads: their sources, their jobs, and their set-up.
//!
//! A *job* is one program at one processor geometry and one `OptFlags`
//! point. Set-up generates and parses every source and computes the
//! serial reference that executed jobs are checked against.

use crate::measure::secs;
use dhpf_core::exec::serial::{run_serial, SerialResult};
use dhpf_core::OptFlags;
use dhpf_fuzz::rng::Rng;
use dhpf_nas::{bt, sp, Class};
use std::collections::BTreeMap;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["nas-run", "compile-scale", "fuzz-lattice"];

/// DO loops per fuzz-lattice pass: programs are drawn from the seed's
/// stream until they hold this many, so every seed yields a pass of
/// about the same size (each program yields six jobs).
const FUZZ_LOOPS: usize = 1200;
/// Processor geometries of the fuzz-lattice jobs, before adaptation to
/// each program's grid rank.
const FUZZ_GEOMETRIES: [&[i64]; 3] = [&[1], &[2], &[2, 2]];

/// How an executed job's output is judged against the serial reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// NAS: `u` within the relative tolerance the NAS tests use.
    Nas,
    /// Generated programs: the fuzz oracle's ULP bound.
    Fuzz,
}

pub struct Source {
    pub name: String,
    pub text: String,
    pub check: Check,
    /// Serial reference output, for sources whose jobs execute.
    pub serial: Option<SerialResult>,
}

pub struct Job {
    pub label: String,
    pub source: usize,
    pub bindings: BTreeMap<String, i64>,
    pub flags: OptFlags,
    /// All optimizations off: a compile error is a decline, not a failure.
    pub all_off: bool,
    pub nprocs: usize,
    pub execute: bool,
}

pub struct Workload {
    pub name: &'static str,
    pub sources: Vec<Source>,
    pub jobs: Vec<Job>,
    /// Whether the traced pass measures the overlap what-if prediction.
    pub whatif: bool,
}

/// One set-up: the workload and the seconds its serial references took.
pub struct Setup {
    pub workload: Workload,
    pub serial_s: f64,
}

/// Generate, parse and (where jobs execute) serially interpret every
/// source of workload `name` for `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Setup, String> {
    let mut rng = Rng::new(seed);
    let (name, mut sources, mut jobs, whatif) = match name {
        "nas-run" => {
            let sources = vec![nas_source("sp", Class::B), nas_source("bt", Class::W)];
            let jobs = vec![
                nas_job(0, "sp", Class::B, 4, true),
                nas_job(1, "bt", Class::W, 4, true),
            ];
            ("nas-run", sources, jobs, true)
        }
        "compile-scale" => {
            let sources = vec![nas_source("sp", Class::B)];
            let jobs = [4, 16, 64]
                .iter()
                .map(|&p| nas_job(0, "sp", Class::B, p, false))
                .collect();
            ("compile-scale", sources, jobs, false)
        }
        "fuzz-lattice" => {
            let (sources, jobs) = fuzz_jobs(seed);
            ("fuzz-lattice", sources, jobs, false)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    // The NAS inputs are fixed; their seed orders the jobs.
    if name != "fuzz-lattice" {
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    let mut serial_s = 0.0;
    for (k, src) in sources.iter_mut().enumerate() {
        let program = dhpf_fortran::parse(&src.text)
            .map_err(|d| format!("{}: source does not parse: {d:?}", src.name))?;
        if !jobs.iter().any(|j| j.source == k && j.execute) {
            continue;
        }
        let t0 = Instant::now();
        let bindings = match src.check {
            Check::Nas => jobs
                .iter()
                .find(|j| j.source == k)
                .map(|j| serial_bindings(&j.bindings))
                .unwrap_or_default(),
            Check::Fuzz => BTreeMap::new(),
        };
        let serial = run_serial(&program, &bindings)
            .map_err(|e| format!("{}: serial reference failed: {e}", src.name))?;
        src.serial = Some(serial);
        serial_s += secs(t0);
    }
    Ok(Setup {
        workload: Workload {
            name,
            sources,
            jobs,
            whatif,
        },
        serial_s,
    })
}

/// A job's bindings with the processor grid collapsed to one processor:
/// the serial reference's problem size.
fn serial_bindings(b: &BTreeMap<String, i64>) -> BTreeMap<String, i64> {
    let mut b = b.clone();
    for k in ["npy", "npz"] {
        b.insert(k.to_string(), 1);
    }
    b
}

fn nas_source(bench: &str, class: Class) -> Source {
    let text = match bench {
        "sp" => sp::source(),
        _ => bt::source(),
    };
    Source {
        name: format!("{bench}.{}", class.name()),
        text,
        check: Check::Nas,
        serial: None,
    }
}

fn nas_job(source: usize, bench: &str, class: Class, nprocs: usize, execute: bool) -> Job {
    let bindings = match bench {
        "sp" => sp::bindings(class, nprocs),
        _ => bt::bindings(class, nprocs),
    };
    let (npy, npz) = dhpf_nas::classes::grid_for(nprocs);
    Job {
        label: format!("{bench}.{}.{npy}x{npz}", class.name()),
        source,
        bindings,
        flags: OptFlags::default(),
        all_off: false,
        nprocs,
        execute,
    }
}

/// Generated programs holding `FUZZ_LOOPS` DO loops, each compiled at
/// every `FUZZ_GEOMETRIES` entry with all optimizations on and all off.
fn fuzz_jobs(seed: u64) -> (Vec<Source>, Vec<Job>) {
    let cfg = dhpf_fuzz::CampaignConfig {
        seed,
        geometries: FUZZ_GEOMETRIES.iter().map(|g| g.to_vec()).collect(),
        ..Default::default()
    };
    let gen = dhpf_fuzz::effective_gen(&cfg);
    let configs: Vec<(&str, OptFlags)> = dhpf_fuzz::oracle::flag_lattice()
        .into_iter()
        .filter(|(tag, _)| matches!(*tag, "all-on" | "all-off"))
        .collect();
    let mut sources = Vec::new();
    let mut jobs = Vec::new();
    let mut loops = 0;
    for k in 0.. {
        if loops >= FUZZ_LOOPS {
            break;
        }
        let pseed = dhpf_fuzz::program_seed(seed, k);
        let spec = dhpf_fuzz::generate(pseed, &gen);
        let text = spec.render();
        loops += text
            .lines()
            .filter(|l| l.trim_start().starts_with("do "))
            .count();
        for geom in &cfg.geometries {
            let adapted = dhpf_fuzz::adapt_geometry(geom, spec.grid_rank);
            let shape: Vec<String> = adapted.iter().map(|p| p.to_string()).collect();
            for &(tag, flags) in &configs {
                jobs.push(Job {
                    label: format!("fuzz.{pseed}.{}.{tag}", shape.join("x")),
                    source: k,
                    bindings: dhpf_fuzz::grid_bindings(&adapted).into_iter().collect(),
                    flags,
                    all_off: tag == "all-off",
                    nprocs: adapted.iter().product::<i64>() as usize,
                    execute: true,
                });
            }
        }
        sources.push(Source {
            name: format!("fuzz.{pseed}"),
            text,
            check: Check::Fuzz,
            serial: None,
        });
    }
    (sources, jobs)
}
