//! Data availability analysis — §7 of the paper.
//!
//! dHPF's communication model sends every non-owner-computed value back
//! to its owner, and ordinarily a later non-local *read* of such a value
//! would fetch it from the owner again. This pass proves, per processor,
//! that the non-local data a read accesses is a **subset** of the
//! non-local data the (lexically last) preceding write produced on the
//! *same* processor — in which case the value is already locally
//! available and the read's communication is eliminated.
//!
//! This is the optimization that rescues the pipelined line sweeps of
//! SP: the spurious read communication flows *against* the pipeline
//! direction and would otherwise stall every wavefront (§7, §8.1).

use crate::cp::Cp;
use crate::distrib::{DistEnv, ProcGrid};
use crate::select::CpAssignment;
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::RefInfo;
use dhpf_fortran::ast::{RefId, StmtId};
use dhpf_iset::{LinExpr, Map, Set};
use std::collections::HashMap;
use std::rc::Rc;

/// The `(var, lo, hi)` bound list of the loops enclosing `stmt`,
/// outermost first. `None` if some bound is non-affine.
pub fn nest_bounds(stmt: StmtId, loops: &UnitLoops) -> Option<Vec<(String, LinExpr, LinExpr)>> {
    let nest = loops.nest_of.get(&stmt)?;
    nest.iter()
        .map(|lid| {
            let info = &loops.loops[lid];
            let (lo, hi) = (info.lo.clone()?, info.hi.clone()?);
            let (lo, hi) = if info.step >= 0 { (lo, hi) } else { (hi, lo) };
            Some((info.var.clone(), lo, hi))
        })
        .collect()
}

/// Data accessed by `r` on processor `coords` executing under `cp`:
/// the image of the subscript map over the processor's iteration set.
/// `None` if a subscript is non-affine.
pub fn accessed_set(
    r: &RefInfo,
    cp: &Cp,
    nest: &[(String, LinExpr, LinExpr)],
    env: &DistEnv,
    coords: &[i64],
) -> Option<Set> {
    let iters = cp.iteration_set(nest, env, coords);
    let in_space: Vec<String> = nest.iter().map(|(v, _, _)| v.clone()).collect();
    let out_space: Vec<String> = (0..r.subs.len()).map(|d| format!("e{d}")).collect();
    let outputs: Option<Vec<LinExpr>> = r.subs.iter().cloned().collect();
    let map = Map::new(&in_space, &out_space, outputs?);
    Some(map.apply(&iters))
}

/// [`accessed_set`] images of one nest's references, each computed at
/// most once per `(reference, rank)`. Communication planning revisits
/// the same images for the staleness check, the §7 availability test,
/// the residual subtraction, the write-backs and the owner-computes-
/// itself sets. A reference's CP (the `cps` entry of its statement,
/// replicated when absent) and loop bounds are fixed while one nest is
/// planned, so the key determines the set.
pub struct AccessMemo<'a> {
    loops: &'a UnitLoops,
    cps: &'a CpAssignment,
    env: &'a DistEnv,
    pub(crate) grid: &'a ProcGrid,
    sets: HashMap<(RefId, usize), Option<Rc<Set>>>,
}

impl<'a> AccessMemo<'a> {
    pub fn new(
        loops: &'a UnitLoops,
        cps: &'a CpAssignment,
        env: &'a DistEnv,
        grid: &'a ProcGrid,
    ) -> Self {
        AccessMemo {
            loops,
            cps,
            env,
            grid,
            sets: HashMap::new(),
        }
    }

    /// Data `r` accesses on `rank`; `None` for non-affine subscripts or
    /// loop bounds.
    pub fn get(&mut self, r: &RefInfo, rank: usize) -> Option<Rc<Set>> {
        let (loops, cps, env, grid) = (self.loops, self.cps, self.env, self.grid);
        self.sets
            .entry((r.id, rank))
            .or_insert_with(|| {
                let replicated = Cp::default();
                let cp = cps.get(&r.stmt).unwrap_or(&replicated);
                let nest = nest_bounds(r.stmt, loops)?;
                accessed_set(r, cp, &nest, env, &grid.coords(rank as i64)).map(Rc::new)
            })
            .clone()
    }
}

/// Result of the availability check for one read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Availability {
    /// The read's non-local data is covered on every processor: its
    /// communication can be eliminated.
    Available,
    /// Not provably covered (communication stays).
    NotAvailable,
}

/// §7 check: is every processor's non-local read set for `read` a subset
/// of the non-local data produced by the preceding write `write` on the
/// same processor? Each side runs under its statement's CP in `sets`.
///
/// Both statements' loop bounds must be affine; non-affine subscripts
/// make the answer `NotAvailable` (conservative).
pub fn read_available(read: &RefInfo, write: &RefInfo, sets: &mut AccessMemo) -> Availability {
    debug_assert_eq!(read.array, write.array);
    let Some(dist) = sets.env.dist_of(&read.array) else {
        return Availability::NotAvailable;
    };
    if !dist.is_distributed() {
        return Availability::Available; // serial data is everywhere
    }
    if nest_bounds(read.stmt, sets.loops).is_none() || nest_bounds(write.stmt, sets.loops).is_none()
    {
        return Availability::NotAvailable;
    }

    let grid = sets.grid;
    for rank in 0..grid.nprocs() as usize {
        let owned = dist.owned_set(&grid.coords(rank as i64));
        let Some(read_data) = sets.get(read, rank) else {
            return Availability::NotAvailable;
        };
        let non_local_read = read_data.subtract(&owned);
        if non_local_read.is_empty() {
            continue; // nothing non-local to cover on this processor
        }
        let Some(write_data) = sets.get(write, rank) else {
            return Availability::NotAvailable;
        };
        let non_local_written = write_data.subtract(&owned);
        if !non_local_read.is_subset(&non_local_written) {
            return Availability::NotAvailable;
        }
    }
    Availability::Available
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::CpTerm;
    use crate::distrib::resolve;
    use dhpf_depend::refs::{analyze_unit, UnitRefs};
    use dhpf_fortran::parse;

    /// The §7 example shape, reduced to 2-D: a pipelined sweep along the
    /// distributed j dimension where the CP is ON_HOME lhs(i, j) but the
    /// statements write and read lhs at j+1 / j+2 — non-owner writes
    /// whose values the same processor re-reads one iteration later.
    const PIPELINE: &str = "
      subroutine s(lhs)
      parameter (n = 16)
      integer i, j
      double precision lhs(n, 0:17)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: lhs
      do j = 1, n - 2
         do i = 1, n
            lhs(i, j + 1) = lhs(i, j + 1) * 0.5 + lhs(i, j)
            lhs(i, j + 2) = lhs(i, j + 1) * 2.0
         enddo
      enddo
      end
";

    fn setup(src: &str) -> (UnitLoops, UnitRefs, DistEnv, Vec<StmtId>) {
        let p = parse(src).expect("parse");
        let name = p.units[0].name.clone();
        let (loops, refs, _) = analyze_unit(&p, &name).expect("analyze");
        let env = resolve(&p.units[0], &Default::default()).expect("resolve");
        let mut stmts: Vec<StmtId> = loops
            .order
            .iter()
            .filter(|(s, _)| refs.write_of(**s).is_some())
            .map(|(s, _)| *s)
            .collect();
        stmts.sort_by_key(|s| loops.order[s]);
        (loops, refs, env, stmts)
    }

    /// [`read_available`] with both statements under `cp`.
    fn avail(
        read: &RefInfo,
        write: &RefInfo,
        cp: &Cp,
        loops: &UnitLoops,
        env: &DistEnv,
    ) -> Availability {
        let cps: CpAssignment = [(read.stmt, cp.clone()), (write.stmt, cp.clone())].into();
        let grid = env.grid.clone().expect("grid");
        read_available(read, write, &mut AccessMemo::new(loops, &cps, env, &grid))
    }

    fn on_home_j(env: &DistEnv) -> Cp {
        let _ = env;
        Cp::single(CpTerm::on_home(
            "lhs",
            vec![LinExpr::var("i"), LinExpr::var("j")],
        ))
    }

    #[test]
    fn pipeline_read_is_available() {
        let (loops, refs, env, stmts) = setup(PIPELINE);
        let cp = on_home_j(&env);
        // stmt 0 writes lhs(i, j+1) and its first read is lhs(i, j+1);
        // stmt 1 writes lhs(i, j+2). The read lhs(i,j+1) in stmt 0 at
        // iteration j is the value written by stmt 1 (lhs(i,j+2)) at
        // iteration j−1 on the SAME processor → available.
        let s0_reads: Vec<&RefInfo> = refs
            .of_stmt(stmts[0])
            .into_iter()
            .filter(|r| !r.is_write && r.array == "lhs")
            .collect();
        let read_j1 = s0_reads
            .iter()
            .find(|r| r.subs[1].as_ref().unwrap().to_string() == "j + 1")
            .unwrap();
        let write_j2 = refs.write_of(stmts[1]).unwrap();
        assert_eq!(
            avail(read_j1, write_j2, &cp, &loops, &env),
            Availability::Available
        );
    }

    #[test]
    fn further_read_not_available() {
        // reading lhs(i, j+2) against a preceding write of lhs(i, j+1)
        // is NOT covered (the paper notes the j+2 read's communication
        // cannot be eliminated — it is hoisted before the nest instead)
        let (loops, refs, env, stmts) = setup(PIPELINE);
        let cp = on_home_j(&env);
        let s1_reads: Vec<&RefInfo> = refs
            .of_stmt(stmts[1])
            .into_iter()
            .filter(|r| !r.is_write && r.array == "lhs")
            .collect();
        let read_j1 = s1_reads[0];
        let write_j1 = refs.write_of(stmts[0]).unwrap();
        // sanity: read of j+1 against write of j+1 IS available
        assert_eq!(
            avail(read_j1, write_j1, &cp, &loops, &env),
            Availability::Available
        );
        // now ask about a read of lhs(i, j+2) against write lhs(i, j+1)
        // — fabricate by using stmt1's write as "read": its data at j+2
        // is not a subset of data written at j+1 (the last local row
        // j_hi+2 is not covered)
        let fake_read = RefInfo {
            is_write: false,
            ..refs.write_of(stmts[1]).unwrap().clone()
        };
        assert_eq!(
            avail(&fake_read, write_j1, &cp, &loops, &env),
            Availability::NotAvailable
        );
    }

    #[test]
    fn owner_computes_reads_have_no_nonlocal_component() {
        let (loops, refs, env, stmts) = setup(
            "
      subroutine s(a, b)
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = 1.0
         b(i) = a(i) * 2.0
      enddo
      end
",
        );
        let cp_a = Cp::single(CpTerm::on_home("a", vec![LinExpr::var("i")]));
        let read = refs
            .of_stmt(stmts[1])
            .into_iter()
            .find(|r| !r.is_write && r.array == "a")
            .unwrap();
        let write = refs.write_of(stmts[0]).unwrap();
        // aligned read: non-local read set empty everywhere → available
        assert_eq!(
            avail(read, write, &cp_a, &loops, &env),
            Availability::Available
        );
    }

    #[test]
    fn serial_array_always_available() {
        let (loops, refs, env, stmts) = setup(
            "
      subroutine s(a, t)
      parameter (n = 8)
      integer i
      double precision a(n), t(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      do i = 2, n
         t(i) = 1.0
         a(i) = t(i - 1)
      enddo
      end
",
        );
        let cp = Cp::single(CpTerm::on_home("a", vec![LinExpr::var("i")]));
        let read = refs
            .of_stmt(stmts[1])
            .into_iter()
            .find(|r| !r.is_write && r.array == "t")
            .unwrap();
        let write = refs.write_of(stmts[0]).unwrap();
        assert_eq!(
            avail(read, write, &cp, &loops, &env),
            Availability::Available
        );
    }
}
