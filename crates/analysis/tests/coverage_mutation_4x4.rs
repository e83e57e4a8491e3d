//! Mutation tests of the comm-coverage verifier at a 4x4 processor grid.
//!
//! The verifier skips owner/reader pairs whose rectangles cannot meet
//! and bounds reads by the arrays' declared rectangles. These tests make
//! sure those pre-filters leave it sharp where the grid has interior
//! processors (four neighbours on every side): a dropped write-back and
//! a dropped pre-exchange into an interior processor must each still be
//! reported as `comm-coverage`.

use dhpf_analysis::verify_compiled;
use dhpf_core::comm::{Msg, NestPlan};
use dhpf_core::driver::{compile, CompileOptions, Compiled};
use dhpf_iset::Set;
use dhpf_nas::Class;

/// Ranks of a 4x4 grid with a neighbour on every side.
const INTERIOR: [usize; 4] = [5, 6, 9, 10];

/// The shared CP makes `a(i + 1, j + 1)` a non-owner write along both
/// block boundaries, so the second nest carries write-backs.
const WRITEBACK_2D: &str = "
      program wb
      parameter (n = 16)
      integer i, j
      double precision a(n, n), b(n, n), c(n, n)
!hpf$ processors p(4, 4)
!hpf$ distribute (block, block) onto p :: a, b, c
      do j = 1, n
         do i = 1, n
            b(i, j) = i * 1.0d0 + j
         enddo
      enddo
      do j = 1, n - 1
         do i = 1, n - 1
            c(i, j) = b(i, j) + 1.0d0
            a(i + 1, j + 1) = c(i, j) * 2.0d0
         enddo
      enddo
      end
";

fn coverage_findings(compiled: &Compiled) -> Vec<(String, Vec<String>)> {
    let report = verify_compiled(compiled);
    report
        .findings
        .iter()
        .filter(|f| f.code == "comm-coverage")
        .map(|f| (f.message.clone(), f.notes.clone()))
        .collect()
}

fn region_set(m: &Msg) -> Set {
    let space: Vec<String> = (0..m.region.lo.len()).map(|d| format!("e{d}")).collect();
    Set::rect(&space, &m.region.lo, &m.region.hi)
}

/// Whether some element of `msgs[i]` reaches its receiver through no
/// other message of the same plan.
fn sole_carrier(msgs: &[Msg], i: usize) -> bool {
    let m = &msgs[i];
    let mut residue = region_set(m);
    for (j, o) in msgs.iter().enumerate() {
        if j != i && o.to == m.to && o.array == m.array && o.region.lo.len() == m.region.lo.len() {
            residue = residue.subtract(&region_set(o));
        }
    }
    !residue.is_empty()
}

#[test]
fn dropped_writeback_at_4x4_is_reported() {
    let program = dhpf_fortran::parse(WRITEBACK_2D).expect("parse");
    let mut compiled = compile(&program, &CompileOptions::new()).expect("compile");
    assert!(
        coverage_findings(&compiled).is_empty(),
        "clean plan must verify"
    );
    let ua = compiled.analyses.get_mut("wb").expect("unit wb");
    let mut dropped: Option<Msg> = None;
    for plan in ua.plans.values_mut() {
        let (NestPlan::Parallel { post, .. } | NestPlan::Pipelined { post, .. }) = plan;
        if let Some(i) = (0..post.len()).find(|&i| {
            INTERIOR.contains(&post[i].from)
                && INTERIOR.contains(&post[i].to)
                && sole_carrier(post, i)
        }) {
            dropped = Some(post.remove(i));
            break;
        }
    }
    let dropped = dropped.expect("a write-back between interior processors");
    let findings = coverage_findings(&compiled);
    let hit = findings.iter().find(|(msg, _)| {
        msg.contains("non-owner write") && msg.contains(&format!("`{}`", dropped.array))
    });
    let (_, notes) =
        hit.unwrap_or_else(|| panic!("dropped {dropped:?} not reported: {findings:?}"));
    let pair = format!("processor {} writes", dropped.from);
    let owner = format!("owned by processor {}", dropped.to);
    assert!(
        notes
            .iter()
            .any(|n| n.contains(&pair) && n.contains(&owner)),
        "{notes:?}"
    );
}

#[test]
fn dropped_interior_pre_exchange_at_4x4_is_reported() {
    let mut compiled = dhpf_nas::sp::compile_dhpf(Class::S, 16, None);
    assert_eq!(compiled.program.grid.nprocs(), 16);
    assert!(
        coverage_findings(&compiled).is_empty(),
        "clean SP plan must verify"
    );
    let mut dropped: Option<Msg> = None;
    'units: for ua in compiled.analyses.values_mut() {
        for plan in ua.plans.values_mut() {
            let (NestPlan::Parallel { pre, .. } | NestPlan::Pipelined { pre, .. }) = plan;
            if let Some(i) =
                (0..pre.len()).find(|&i| INTERIOR.contains(&pre[i].to) && sole_carrier(pre, i))
            {
                dropped = Some(pre.remove(i));
                break 'units;
            }
        }
    }
    let dropped = dropped.expect("a pre-exchange into an interior processor");
    let findings = coverage_findings(&compiled);
    let reader = format!("processor {} reads stale", dropped.to);
    assert!(
        findings.iter().any(|(msg, notes)| {
            msg.contains(&format!("`{}`", dropped.array))
                && notes.iter().any(|n| n.contains(&reader))
        }),
        "dropped {dropped:?} not reported: {findings:?}"
    );
}
