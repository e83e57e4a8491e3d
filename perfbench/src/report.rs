//! Turning passes into named metrics, checking them, and printing the
//! result line.

use crate::measure::{geomean, median, reconcile, Tolerance};
use crate::pass::{JobOutcome, Pass, Status, LEAF_PHASES};
use crate::workload::Workload;
use dhpf_iset::{CacheStats, OpStats};

/// Stated tolerance of the pass reconciliation: layer times plus the
/// reported remainder equal the pass wall time, with at most this share
/// of it unaccounted for (dropping results, bookkeeping).
const PASS_TOL: Tolerance = Tolerance {
    max_share: 0.05,
    slack_s: 1e-3,
};
/// Stated tolerance of the compile reconciliation: leaf phase spans plus
/// `compile.other_s` equal the traced compile wall time. The spans are
/// microsecond-truncated and must not overlap, so they may exceed it by
/// clock slack only; the remainder, whatever its share, is reported.
const COMPILE_TOL: Tolerance = Tolerance {
    max_share: 1.0,
    slack_s: 1e-3,
};

/// Processor counts of the compile-scale curve.
const SCALING: [usize; 3] = [4, 16, 64];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// Sum of `f` over a pass's jobs (`+0.0` when none: `Iterator::sum`
/// of no floats is `-0.0`).
fn sum(p: &Pass, f: impl Fn(&JobOutcome) -> f64) -> f64 {
    p.outcomes.iter().map(f).fold(0.0, |a, b| a + b)
}

/// Median over passes of a per-pass sum.
fn median_sum(passes: &[Pass], f: impl Fn(&JobOutcome) -> f64 + Copy) -> f64 {
    median(&passes.iter().map(|p| sum(p, f)).collect::<Vec<_>>())
}

/// Jobs finished per wall second of `p`.
fn throughput(p: &Pass) -> f64 {
    let finished = p.outcomes.iter().filter(|o| o.status == Status::Finished);
    finished.count() as f64 / p.wall_s
}

/// The end-to-end metrics, from the untraced passes.
pub fn end_to_end(passes: &[Pass], setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let tput: Vec<f64> = passes.iter().map(throughput).collect();
    m.push("jobs_per_s", median(&tput), "1/s");
    m.push("compile_s", median_sum(passes, |o| o.compile_s), "s");
    m.push("verify_s", median_sum(passes, |o| o.verify_s()), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m.push("setup_s", median(setup_s), "s");
    m
}

/// One memo table's counters in a statistics snapshot.
type Table = fn(&CacheStats) -> OpStats;

fn lookups(s: &Option<CacheStats>, op: Table) -> f64 {
    s.as_ref().map_or(0, |s| op(s).lookups()) as f64
}

fn interned(o: &JobOutcome) -> f64 {
    o.iset.as_ref().map_or(0, |s| s.interned_nodes()) as f64
}

/// The four memo tables whose lookup counts are reported.
const LOOKUPS: [(&str, Table); 4] = [
    ("intersect", |s| s.intersect),
    ("subset", |s| s.subset),
    ("project", |s| s.project),
    ("poly_empty", |s| s.poly_empty),
];

/// The per-layer metrics: timings and counts from the traced pass,
/// execution wall and CPU time from the untraced passes.
pub fn per_layer(
    passes: &[Pass],
    traced: &Pass,
    serial_s: &[f64],
    error_rate: f64,
    pass_other_s: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let t = traced;
    let tx =
        |f: fn(&crate::pass::TracedExtras) -> f64| sum(t, |o| o.traced.as_ref().map_or(0.0, f));
    let run_s = median_sum(passes, |o| o.run_s);
    let cpu_s = median_sum(passes, |o| o.cpu_s);
    let compile_s = median_sum(passes, |o| o.compile_s);
    let comm_plan = LEAF_PHASES
        .iter()
        .position(|&n| n == "comm-plan")
        .expect("comm-plan is a leaf phase");

    m.push("fortran.parse_s", sum(t, |o| o.parse_s), "s");
    let mut leaf_total = 0.0;
    for (k, phase) in LEAF_PHASES.iter().enumerate() {
        let v = sum(t, |o| o.traced.as_ref().map_or(0.0, |x| x.phases[k]));
        leaf_total += v;
        m.push(format!("compile.{}_s", phase.replace('-', "_")), v, "s");
    }
    m.push("compile.other_s", sum(t, |o| o.compile_s) - leaf_total, "s");
    m.push(
        "compile.declined",
        t.outcomes
            .iter()
            .filter(|o| o.status == Status::Declined)
            .count() as f64,
        "count",
    );

    for (name, op) in LOOKUPS {
        m.push(
            format!("iset.{name}_lookups"),
            sum(t, |o| lookups(&o.iset, op)),
            "count",
        );
    }
    m.push("iset.reset_s", sum(t, |o| o.reset_s), "s");
    m.push(
        "iset.interned_nodes",
        t.outcomes.iter().map(interned).fold(0.0, f64::max),
        "count",
    );
    let (hits, all) = t
        .outcomes
        .iter()
        .filter_map(|o| o.iset.as_ref())
        .fold((0, 0), |(h, a), s| {
            (h + s.hits(), a + s.hits() + s.misses())
        });
    m.push(
        "iset.hit_rate",
        ratio(hits as f64, all as f64, 0.0),
        "ratio",
    );

    let comm = |f: fn(&dhpf_core::comm::CommReport) -> usize| sum(t, |o| f(&o.comm) as f64);
    m.push(
        "comm.planned_messages",
        comm(|c| c.pre_messages + c.post_messages),
        "count",
    );
    m.push(
        "comm.planned_volume",
        comm(|c| c.pre_volume + c.post_volume),
        "elements",
    );
    m.push(
        "comm.reads_eliminated",
        comm(|c| c.reads_eliminated_by_availability),
        "count",
    );
    m.push("comm.messages_saved", comm(|c| c.messages_saved), "count");
    m.push(
        "comm.overlapped_nests",
        comm(|c| c.overlapped_nests),
        "count",
    );

    m.push("analysis.coverage_s", sum(t, |o| o.coverage_s), "s");
    m.push("analysis.protocol_s", sum(t, |o| o.protocol_s), "s");
    m.push(
        "analysis.protocol_atoms",
        sum(t, |o| o.atoms as f64),
        "count",
    );
    m.push("analysis.trace_check_s", tx(|x| x.trace_check_s), "s");

    m.push("run_s", run_s, "s");
    m.push("exec.cpu_s", cpu_s, "s");
    m.push("exec.cpu_per_wall", ratio(cpu_s, run_s, 0.0), "ratio");
    let makespans: Vec<f64> = t.outcomes.iter().filter_map(|o| o.makespan).collect();
    m.push("virtual_makespan_s", geomean(&makespans), "vs");
    m.push("spmd.messages", sum(t, |o| o.messages as f64), "count");
    m.push("spmd.bytes", sum(t, |o| o.bytes as f64), "bytes");
    m.push("spmd.busy_vs", tx(|x| x.busy_vs), "vs");
    m.push("spmd.stall_vs", tx(|x| x.stall_vs), "vs");
    let imbalances: Vec<f64> = t
        .outcomes
        .iter()
        .filter_map(|o| o.traced.as_ref()?.imbalance)
        .collect();
    m.push("spmd.imbalance", geomean(&imbalances), "ratio");

    m.push("serial.reference_s", median(serial_s), "s");
    m.push("profile.profile_s", tx(|x| x.profile_s), "s");
    m.push("profile.whatif_s", tx(|x| x.whatif_s), "s");
    m.push(
        "profile.attribution",
        ratio(tx(|x| x.attributed_stall), tx(|x| x.total_stall), 1.0),
        "ratio",
    );
    let errs: Vec<f64> = t
        .outcomes
        .iter()
        .filter_map(|o| o.traced.as_ref()?.whatif_err)
        .collect();
    m.push("profile.whatif_overlap_err", mean(&errs), "ratio");

    m.push(
        "obs.compile_overhead",
        ratio(sum(t, |o| o.compile_s), compile_s, 1.0) - 1.0,
        "ratio",
    );
    m.push(
        "obs.run_overhead",
        ratio(sum(t, |o| o.run_s), run_s, 1.0) - 1.0,
        "ratio",
    );
    m.push("pass.check_s", sum(t, |o| o.check_s), "s");
    m.push("pass.other_s", pass_other_s, "s");
    m.push("error_rate", error_rate, "ratio");

    // the compile-scale curve, one suffix per processor count
    for p in SCALING {
        let on_p = |o: &JobOutcome| o.nprocs == p;
        let at = |f: &dyn Fn(&JobOutcome) -> f64| -> f64 {
            sum(t, |o| if on_p(o) { f(o) } else { 0.0 })
        };
        m.push(
            format!("compile_s.p{p}"),
            median_sum(passes, |o| if o.nprocs == p { o.compile_s } else { 0.0 }),
            "s",
        );
        m.push(
            format!("compile.comm_plan_s.p{p}"),
            at(&|o| o.traced.as_ref().map_or(0.0, |x| x.phases[comm_plan])),
            "s",
        );
        m.push(
            format!("analysis.coverage_s.p{p}"),
            at(&|o| o.coverage_s),
            "s",
        );
        m.push(
            format!("iset.interned_nodes.p{p}"),
            t.outcomes
                .iter()
                .filter(|o| on_p(o))
                .map(interned)
                .fold(0.0, f64::max),
            "count",
        );
        for (name, op) in LOOKUPS {
            m.push(
                format!("iset.{name}_lookups.p{p}"),
                at(&|o| lookups(&o.iset, op)),
                "count",
            );
        }
    }
    m
}

/// `num / den`, or `empty` when `den` is 0.
fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64, 0.0)
}

/// Failures, cross-pass consistency and reconciliation of a run.
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Problems that make the run's figures untrustworthy without being
    /// a failed job (reconciliation).
    pub problems: Vec<String>,
    /// Unaccounted seconds of the traced pass (0 without one).
    pub pass_other_s: f64,
}

/// What must repeat exactly for a job from pass to pass.
fn identity(o: &JobOutcome) -> (bool, Option<u64>, u64, u64) {
    (
        o.status == Status::Declined,
        o.makespan.map(f64::to_bits),
        o.messages,
        o.bytes,
    )
}

pub fn judge(w: &Workload, passes: &[Pass], traced: Option<&Pass>) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        pass_other_s: 0.0,
    };
    let first = &passes[0];
    for (k, p) in passes.iter().chain(traced).enumerate() {
        let is_traced = traced.is_some() && k == passes.len();
        for (j, o) in p.outcomes.iter().enumerate() {
            v.attempted += 1;
            let label = &w.jobs[j].label;
            if let Status::Failed(msg) = &o.status {
                v.failed += 1;
                let short: Vec<&str> = msg.lines().take(6).collect();
                eprintln!("FAILED {label}: {}", short.join("\n  "));
            } else if identity(o) != identity(&first.outcomes[j]) {
                v.failed += 1;
                eprintln!(
                    "FAILED {label}: makespan/messages differ from the first pass ({:?} vs {:?})",
                    identity(o),
                    identity(&first.outcomes[j])
                );
            }
            if let Some(x) = o.traced.as_ref() {
                let what = format!("{label} compile");
                if let Err(e) = reconcile(&what, &x.phases, o.compile_s, COMPILE_TOL) {
                    v.problems.push(e);
                }
            }
        }
        let parts: Vec<f64> = p
            .outcomes
            .iter()
            .flat_map(|o| {
                let x = o.traced.as_ref();
                [
                    o.parse_s,
                    o.reset_s,
                    o.compile_s,
                    o.verify_s(),
                    o.run_s,
                    o.check_s,
                    x.map_or(0.0, |x| x.trace_check_s + x.profile_s + x.whatif_s),
                ]
            })
            .collect();
        let what = if is_traced { "traced pass" } else { "pass" };
        match reconcile(what, &parts, p.wall_s, PASS_TOL) {
            Ok(rest) if is_traced => v.pass_other_s = rest,
            Ok(_) => {}
            Err(e) => v.problems.push(e),
        }
    }
    v
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, v: &Verdict, m: &Metrics) -> String {
    let metrics: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.attempted,
        v.failed,
        metrics.join(", ")
    )
}
