//! The SPMD node-program interpreter: executes a compiled
//! [`NodeProgram`] on the virtual machine, one host thread per simulated
//! processor, with real numerics and virtual-time charging.

use crate::codegen::{
    CExpr, CMsg, CompiledUnit, FormalSlot, Guard, GuardAtom, HaloCheck, NodeOp, NodeProgram,
    PipeArray, PipeLevel, INTRINSIC_NAMES,
};
use crate::exec::serial::{eval_intrinsic, ArrayValue};
use dhpf_fortran::ast::BinOp;
use dhpf_spmd::array::LocalArray;
use dhpf_spmd::machine::{Machine, MachineConfig, Proc, RunResult};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Execution error: configuration mismatches (wrong machine size) and
/// runtime storage/protocol violations (unbound array dummies, accesses
/// to unowned storage, malformed pipeline transfers). All are returned
/// as `Err` from [`run_node_program`] rather than panicking the process.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError(pub String);

/// Abort this rank's execution with a structured [`ExecError`]. The
/// payload unwinds through the virtual machine — which wakes the peer
/// ranks — and is caught by [`run_node_program`] and returned as `Err`.
fn exec_fail(msg: String) -> ! {
    std::panic::panic_any(ExecError(msg))
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exec: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ExecResult {
    /// Virtual-machine outcome (virtual time, traces, message stats).
    pub run: RunResult,
    /// Stitched global arrays (distributed: owner data; serial: rank 0).
    pub arrays: BTreeMap<String, ArrayValue>,
}

/// Run a node program on `nprocs = grid.nprocs()` virtual processors.
pub fn run_node_program(
    prog: &NodeProgram,
    machine: MachineConfig,
) -> Result<ExecResult, ExecError> {
    let nprocs = prog.grid.nprocs() as usize;
    if machine.nprocs != nprocs {
        return Err(ExecError(format!(
            "machine has {} procs but program was compiled for {nprocs}",
            machine.nprocs
        )));
    }
    let finals: Mutex<BTreeMap<usize, Vec<Option<LocalArray>>>> = Mutex::new(BTreeMap::new());

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Machine::run(machine, |proc| {
            let mut st = ProcState::new(prog, proc.rank());
            let main = &prog.units[prog.main];
            let mut frame = Frame::new(main);
            st.bind_static_arrays(main, &mut frame);
            st.exec_ops(proc, main, &main.ops, &mut frame);
            finals.lock().unwrap().insert(proc.rank(), st.storage);
        })
    }));
    let run = match run {
        Ok(run) => run,
        // A rank aborted with a structured error (the machine already
        // woke its peers): surface it as Err instead of a panic.
        Err(payload) => match payload.downcast::<ExecError>() {
            Ok(e) => return Err(*e),
            Err(other) => std::panic::resume_unwind(other),
        },
    };

    // stitch global arrays back together
    let finals = finals.into_inner().unwrap();
    let mut arrays = BTreeMap::new();
    for (g, ga) in prog.arrays.iter().enumerate() {
        let lo: Vec<i64> = ga.bounds.iter().map(|b| b.0).collect();
        let hi: Vec<i64> = ga.bounds.iter().map(|b| b.1).collect();
        let mut out = ArrayValue::new(lo.clone(), hi.clone());
        match &ga.dist {
            None => {
                if let Some(Some(local)) = finals.get(&0).map(|s| &s[g]) {
                    copy_box(local, &mut out, &lo, &hi);
                }
            }
            Some(dist) => {
                for (rank, storage) in &finals {
                    let coords = prog.grid.coords(*rank as i64);
                    let Some(owned) = dist.owned_box(&coords) else {
                        continue;
                    };
                    if let Some(local) = &storage[g] {
                        let olo: Vec<i64> = owned.iter().map(|b| b.0).collect();
                        let ohi: Vec<i64> = owned.iter().map(|b| b.1).collect();
                        copy_box(local, &mut out, &olo, &ohi);
                    }
                }
            }
        }
        arrays.insert(ga.name.clone(), out);
    }
    // alias unit-qualified names ("main::a") by their bare name when
    // unambiguous, so callers can look up `arrays["a"]`
    let qualified: Vec<String> = arrays
        .keys()
        .filter(|k| k.contains("::"))
        .cloned()
        .collect();
    for q in qualified {
        let bare = q.rsplit("::").next().unwrap_or(&q).to_string();
        if !arrays.contains_key(&bare) {
            let v = arrays[&q].clone();
            arrays.insert(bare, v);
        }
    }
    Ok(ExecResult { run, arrays })
}

fn copy_box(src: &LocalArray, dst: &mut ArrayValue, lo: &[i64], hi: &[i64]) {
    let mut idx = lo.to_vec();
    if idx.iter().zip(hi).any(|(l, h)| l > h) {
        return;
    }
    loop {
        dst.set(&idx, src.get(&idx));
        let mut d = 0;
        loop {
            if d == idx.len() {
                return;
            }
            idx[d] += 1;
            if idx[d] <= hi[d] {
                break;
            }
            idx[d] = lo[d];
            d += 1;
        }
    }
}

/// Per-call frame.
struct Frame {
    ints: Vec<i64>,
    floats: Vec<f64>,
    /// Local array slot → global array id (usize::MAX = unbound dummy).
    arrays: Vec<usize>,
}

impl Frame {
    fn new(unit: &CompiledUnit) -> Self {
        let arrays = unit
            .array_global
            .iter()
            .map(|g| g.unwrap_or(usize::MAX))
            .collect();
        Frame {
            ints: vec![0; unit.n_ints],
            floats: vec![0.0; unit.n_floats],
            arrays,
        }
    }
}

/// Per-processor interpreter state.
struct ProcState<'p> {
    prog: &'p NodeProgram,
    rank: usize,
    coords: Vec<i64>,
    storage: Vec<Option<LocalArray>>,
    /// Owned range per global array per dim (serial dims: full bounds;
    /// empty ownership: `(1, 0)`).
    owned: Vec<Vec<(i64, i64)>>,
}

impl<'p> ProcState<'p> {
    fn new(prog: &'p NodeProgram, rank: usize) -> Self {
        let coords = prog.grid.coords(rank as i64);
        let mut storage = Vec::with_capacity(prog.arrays.len());
        let mut owned = Vec::with_capacity(prog.arrays.len());
        for ga in &prog.arrays {
            match &ga.dist {
                None => {
                    let lo: Vec<i64> = ga.bounds.iter().map(|b| b.0).collect();
                    let hi: Vec<i64> = ga.bounds.iter().map(|b| b.1).collect();
                    storage.push(Some(LocalArray::new(&lo, &hi, &vec![0; lo.len()])));
                    owned.push(ga.bounds.clone());
                }
                Some(dist) => match dist.owned_box(&coords) {
                    Some(ob) => {
                        let lo: Vec<i64> = ob.iter().map(|b| b.0).collect();
                        let hi: Vec<i64> = ob.iter().map(|b| b.1).collect();
                        storage.push(Some(LocalArray::new(&lo, &hi, &ga.ghost)));
                        owned.push(ob);
                    }
                    None => {
                        storage.push(None);
                        owned.push(vec![(1, 0); ga.bounds.len()]);
                    }
                },
            }
        }
        ProcState {
            prog,
            rank,
            coords,
            storage,
            owned,
        }
    }

    fn bind_static_arrays(&self, _unit: &CompiledUnit, _frame: &mut Frame) {
        // static bindings are already baked into Frame::new via
        // `array_global`; dummies stay unbound until a call.
    }

    /// Resolve a unit-local array slot to its global array id, failing
    /// with a structured error when the slot is an unbound dummy
    /// (`usize::MAX`) — previously an out-of-bounds indexing panic.
    #[inline]
    fn global_of(&self, frame: &Frame, arr: usize) -> usize {
        let g = frame.arrays[arr];
        if g == usize::MAX {
            exec_fail(format!(
                "rank {}: array dummy (local slot {arr}) is referenced but was never \
                 bound to an actual argument",
                self.rank
            ));
        }
        g
    }

    #[inline]
    fn guard_passes(&self, guard: &Option<Guard>, frame: &Frame) -> bool {
        let Some(g) = guard else { return true };
        g.terms.iter().any(|atoms| {
            atoms.iter().all(|a| match a {
                GuardAtom::In { arr, dim, sub } => {
                    let g = frame.arrays[*arr];
                    if g == usize::MAX {
                        return true;
                    }
                    let (lo, hi) = self.owned[g][*dim];
                    let v = sub.eval(&frame.ints);
                    v >= lo && v <= hi
                }
                GuardAtom::Overlap { arr, dim, lo, hi } => {
                    let g = frame.arrays[*arr];
                    if g == usize::MAX {
                        return true;
                    }
                    let (olo, ohi) = self.owned[g][*dim];
                    hi.eval(&frame.ints) >= olo && lo.eval(&frame.ints) <= ohi
                }
            })
        })
    }

    fn eval(&self, e: &CExpr, frame: &Frame) -> f64 {
        match e {
            CExpr::Const(v) => *v,
            CExpr::Int(ci) => ci.eval(&frame.ints) as f64,
            CExpr::LoadF(slot) => frame.floats[*slot],
            CExpr::Load { arr, subs } => {
                let g = self.global_of(frame, *arr);
                let local = self.storage[g].as_ref().unwrap_or_else(|| {
                    exec_fail(format!(
                        "rank {}: read of unowned array {}",
                        self.rank, self.prog.arrays[g].name
                    ))
                });
                let idx: Vec<i64> = subs.iter().map(|s| s.eval(&frame.ints)).collect();
                debug_assert!(
                    local.in_window(&idx),
                    "rank {} reads {}{idx:?} outside window [{:?}..{:?}]",
                    self.rank,
                    self.prog.arrays[g].name,
                    local.alloc_lo(),
                    local.alloc_hi()
                );
                local.get(&idx)
            }
            CExpr::Bin(op, a, b) => {
                let x = self.eval(a, frame);
                match op {
                    BinOp::And if x == 0.0 => return 0.0,
                    BinOp::Or if x != 0.0 => return 1.0,
                    _ => {}
                }
                let y = self.eval(b, frame);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Pow => x.powf(y),
                    BinOp::Lt => f64::from(x < y),
                    BinOp::Le => f64::from(x <= y),
                    BinOp::Gt => f64::from(x > y),
                    BinOp::Ge => f64::from(x >= y),
                    BinOp::Eq => f64::from(x == y),
                    BinOp::Ne => f64::from(x != y),
                    BinOp::And | BinOp::Or => f64::from(y != 0.0),
                }
            }
            CExpr::Neg(a) => -self.eval(a, frame),
            CExpr::Intr(idx, args) => {
                let vals: Vec<f64> = args.iter().map(|a| self.eval(a, frame)).collect();
                eval_intrinsic(INTRINSIC_NAMES[*idx], &vals)
                    .unwrap_or_else(|e| exec_fail(format!("rank {}: {e}", self.rank)))
            }
        }
    }

    fn exec_ops(
        &mut self,
        proc: &mut Proc,
        unit: &'p CompiledUnit,
        ops: &'p [NodeOp],
        frame: &mut Frame,
    ) {
        for op in ops {
            self.exec_op(proc, unit, op, frame);
        }
    }

    fn exec_op(
        &mut self,
        proc: &mut Proc,
        unit: &'p CompiledUnit,
        op: &'p NodeOp,
        frame: &mut Frame,
    ) {
        match op {
            NodeOp::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = lo.eval(&frame.ints);
                let hi = hi.eval(&frame.ints);
                let step = *step;
                let mut v = lo;
                while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
                    frame.ints[*var] = v;
                    self.exec_ops(proc, unit, body, frame);
                    v += step;
                }
            }
            NodeOp::Assign {
                guard,
                arr,
                subs,
                value,
                flops,
            } => {
                if !self.guard_passes(guard, frame) {
                    return;
                }
                let v = self.eval(value, frame);
                let g = self.global_of(frame, *arr);
                let idx: Vec<i64> = subs.iter().map(|s| s.eval(&frame.ints)).collect();
                let rank = self.rank;
                let local = self.storage[g].as_mut().unwrap_or_else(|| {
                    exec_fail(format!(
                        "rank {rank}: write to unowned array {}",
                        unit.array_names[*arr]
                    ))
                });
                debug_assert!(
                    local.in_window(&idx),
                    "rank {} writes {}{idx:?} outside window [{:?}..{:?}]",
                    self.rank,
                    unit.array_names[*arr],
                    local.alloc_lo(),
                    local.alloc_hi()
                );
                local.set(&idx, v);
                proc.work(*flops as f64);
            }
            NodeOp::AssignF {
                guard,
                slot,
                value,
                flops,
            } => {
                if !self.guard_passes(guard, frame) {
                    return;
                }
                frame.floats[*slot] = self.eval(value, frame);
                proc.work(*flops as f64);
            }
            NodeOp::AssignI {
                guard,
                slot,
                value,
                flops,
            } => {
                if !self.guard_passes(guard, frame) {
                    return;
                }
                frame.ints[*slot] = self.eval(value, frame) as i64;
                proc.work(*flops as f64);
            }
            NodeOp::If { arms } => {
                for (cond, body) in arms {
                    let take = match cond {
                        Some(c) => self.eval(c, frame) != 0.0,
                        None => true,
                    };
                    if take {
                        self.exec_ops(proc, unit, body, frame);
                        return;
                    }
                }
            }
            NodeOp::Call {
                unit: u,
                int_args,
                float_args,
                array_args,
            } => {
                let callee = &self.prog.units[*u];
                let mut f2 = Frame::new(callee);
                for (pos, e) in int_args {
                    if let FormalSlot::Int(slot) = callee.formals[*pos] {
                        if slot != usize::MAX {
                            f2.ints[slot] = self.eval(e, frame) as i64;
                        }
                    }
                }
                for (pos, e) in float_args {
                    if let FormalSlot::Float(slot) = callee.formals[*pos] {
                        if slot != usize::MAX {
                            f2.floats[slot] = self.eval(e, frame);
                        }
                    }
                }
                for (pos, caller_slot) in array_args {
                    if let FormalSlot::Array(slot) = callee.formals[*pos] {
                        if slot != usize::MAX {
                            f2.arrays[slot] = frame.arrays[*caller_slot];
                        }
                    }
                }
                proc.phase(&callee.name);
                self.exec_ops(proc, callee, &callee.ops, &mut f2);
            }
            NodeOp::Exchange { msgs, tag, plan } => {
                proc.set_provenance(Some(*plan));
                self.exchange(proc, frame, msgs, *tag);
                proc.set_provenance(None);
            }
            NodeOp::OverlapNest {
                msgs,
                tag,
                levels,
                body,
                halo,
                plan,
            } => {
                // the whole fused op — posts, interior compute, waits,
                // boundary — is attributed to the overlapped nest
                proc.set_provenance(Some(*plan));
                self.overlap_nest(proc, unit, frame, msgs, *tag, levels, body, halo);
                proc.set_provenance(None);
            }
            NodeOp::Pipeline {
                levels,
                body,
                sweep_level,
                strip_level,
                granularity,
                forward,
                pdim,
                read_depth,
                write_depth,
                arrays,
                tag,
                aggregate,
                plan,
            } => {
                proc.set_provenance(Some(*plan));
                self.pipeline(
                    proc,
                    unit,
                    frame,
                    levels,
                    body,
                    *sweep_level,
                    *strip_level,
                    *granularity,
                    *forward,
                    *pdim,
                    *read_depth,
                    *write_depth,
                    arrays,
                    *tag,
                    *aggregate,
                );
                proc.set_provenance(None);
            }
        }
    }

    fn exchange(&mut self, proc: &mut Proc, frame: &Frame, msgs: &[CMsg], tag: u64) {
        // sends first (non-blocking), then receives; each message packs
        // its segments back-to-back into one physical transfer
        for m in msgs {
            if m.from != self.rank {
                continue;
            }
            let buf = self.pack_segments(frame, m);
            proc.send_parts(m.to, tag, buf, m.segs.len() as u32);
        }
        for m in msgs {
            if m.to != self.rank {
                continue;
            }
            let buf = proc.recv(m.from, tag);
            self.unpack_segments(frame, m, &buf);
        }
    }

    /// Pack every segment of `m` into one buffer, in segment order.
    fn pack_segments(&mut self, frame: &Frame, m: &CMsg) -> Vec<f64> {
        let mut buf = Vec::new();
        for s in &m.segs {
            let g = self.global_of(frame, s.arr);
            let (lo, hi) = self.clip_to_window(g, &s.lo, &s.hi);
            if let Some(local) = &self.storage[g] {
                buf.extend_from_slice(&local.pack(&lo, &hi));
            }
        }
        buf
    }

    /// Unpack a received buffer segment by segment: each ghost region
    /// takes the next `section_len` elements of the packed payload.
    fn unpack_segments(&mut self, frame: &Frame, m: &CMsg, buf: &[f64]) {
        let mut off = 0usize;
        for s in &m.segs {
            let g = self.global_of(frame, s.arr);
            let (lo, hi) = self.clip_to_window(g, &s.lo, &s.hi);
            if self.storage[g].is_some() {
                let n = dhpf_spmd::array::section_len(&lo, &hi);
                if let Some(local) = self.storage[g].as_mut() {
                    local.unpack(&lo, &hi, &buf[off..off + n]);
                }
                off += n;
            }
        }
    }

    /// Clip a region to this proc's allocated window (keeps pack/unpack
    /// symmetric because both sides store owned+ghost supersets of the
    /// planned regions; if a side lacks cells the plan was wrong and the
    /// size check in `unpack` fires).
    fn clip_to_window(&self, _g: usize, lo: &[i64], hi: &[i64]) -> (Vec<i64>, Vec<i64>) {
        (lo.to_vec(), hi.to_vec())
    }

    /// Execute an overlapped halo exchange: send, post receives, run the
    /// interior iterations while the messages are in flight, wait and
    /// unpack, then run the boundary complement. The two passes cover
    /// exactly the iterations the blocking nest runs (each iteration
    /// lands in one pass by the interior membership test), so numerics
    /// and charged flops are identical — only the virtual-time placement
    /// of the communication changes.
    #[allow(clippy::too_many_arguments)]
    fn overlap_nest(
        &mut self,
        proc: &mut Proc,
        unit: &'p CompiledUnit,
        frame: &mut Frame,
        msgs: &'p [CMsg],
        tag: u64,
        levels: &'p [PipeLevel],
        body: &'p [NodeOp],
        halo: &'p [HaloCheck],
    ) {
        for m in msgs {
            if m.from != self.rank {
                continue;
            }
            let buf = self.pack_segments(frame, m);
            proc.send_parts(m.to, tag, buf, m.segs.len() as u32);
        }
        // post in plan order: FIFO per (source, tag) matches each wait
        // below to the same message the blocking exchange would recv.
        // One irecv per peer message, however many segments it carries.
        let mut posted = Vec::new();
        for m in msgs {
            if m.to != self.rank {
                continue;
            }
            posted.push((m, proc.irecv(m.from, tag)));
        }
        // interior bounds per loop-var slot: intersect the owned range
        // shifted by each halo read of that variable
        let mut interior: BTreeMap<usize, (i64, i64)> = BTreeMap::new();
        for h in halo {
            let g = frame.arrays[h.arr];
            let (lo, hi) = if g == usize::MAX {
                (1, 0) // unbound dummy: no provable interior
            } else {
                let (olo, ohi) = self.owned[g][h.dim];
                (olo - h.shift, ohi - h.shift)
            };
            interior
                .entry(h.var)
                .and_modify(|(l, u)| {
                    *l = (*l).max(lo);
                    *u = (*u).min(hi);
                })
                .or_insert((lo, hi));
        }
        self.run_split_nest(proc, unit, frame, levels, body, 0, &interior, true);
        for (m, req) in posted {
            let buf = proc.wait(req);
            self.unpack_segments(frame, m, &buf);
        }
        self.run_split_nest(proc, unit, frame, levels, body, 0, &interior, false);
    }

    /// Run the single-chain nest executing only the iterations whose
    /// interior membership equals `want_interior`.
    #[allow(clippy::too_many_arguments)]
    fn run_split_nest(
        &mut self,
        proc: &mut Proc,
        unit: &'p CompiledUnit,
        frame: &mut Frame,
        levels: &'p [PipeLevel],
        body: &'p [NodeOp],
        depth: usize,
        interior: &BTreeMap<usize, (i64, i64)>,
        want_interior: bool,
    ) {
        if depth == levels.len() {
            let in_interior = interior.iter().all(|(slot, (lo, hi))| {
                let v = frame.ints[*slot];
                v >= *lo && v <= *hi
            });
            if in_interior == want_interior {
                self.exec_ops(proc, unit, body, frame);
            }
            return;
        }
        let lv = &levels[depth];
        let (lo, hi) = (lv.lo.eval(&frame.ints), lv.hi.eval(&frame.ints));
        let step = lv.step;
        let mut v = lo;
        while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
            frame.ints[lv.var] = v;
            self.run_split_nest(
                proc,
                unit,
                frame,
                levels,
                body,
                depth + 1,
                interior,
                want_interior,
            );
            v += step;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn pipeline(
        &mut self,
        proc: &mut Proc,
        unit: &'p CompiledUnit,
        frame: &mut Frame,
        levels: &'p [PipeLevel],
        body: &'p [NodeOp],
        sweep_level: usize,
        strip_level: Option<usize>,
        granularity: i64,
        forward: bool,
        pdim: usize,
        read_depth: i64,
        write_depth: i64,
        arrays: &'p [PipeArray],
        tag: u64,
        aggregate: bool,
    ) {
        let dir: i64 = if forward { 1 } else { -1 };
        let c = self.coords[pdim];
        let np = self.prog.grid.extents[pdim];
        let neighbor = |cc: i64| -> Option<usize> {
            (0..np).contains(&cc).then(|| {
                let mut co = self.coords.clone();
                co[pdim] = cc;
                self.prog.grid.rank(&co) as usize
            })
        };
        let pred = neighbor(c - dir);
        let succ = neighbor(c + dir);
        let (rd, wd) = if read_depth == 0 && write_depth == 0 {
            (1, 0) // a sweep always moves at least one boundary plane
        } else {
            (read_depth, write_depth)
        };

        // strip chunks over the strip level's range, clamped to this
        // processor's owned range of the strip dimension (iterating other
        // processors' strips would only exchange empty boundary planes)
        let chunks: Vec<(i64, i64)> = match strip_level {
            None => vec![(0, 0)], // single pass, no strip restriction
            Some(l) => {
                let mut lo = levels[l].lo.eval(&frame.ints);
                let mut hi = levels[l].hi.eval(&frame.ints);
                let strip = arrays.iter().find_map(|pa| pa.strip_dim.map(|sd| (pa, sd)));
                if let Some((pa, sd)) = strip {
                    // an unbound dummy has no owned range to clamp to:
                    // keep the full strip range (same fallback the
                    // region computation uses)
                    let g = frame.arrays[pa.arr];
                    if g != usize::MAX {
                        let Some(&(olo, ohi)) = self.owned[g].get(sd) else {
                            exec_fail(format!(
                                "rank {}: pipeline strip dimension {sd} is out of range \
                                 for array {} ({} dimension(s))",
                                self.rank,
                                self.prog.arrays[g].name,
                                self.owned[g].len()
                            ));
                        };
                        lo = lo.max(olo);
                        hi = hi.min(ohi);
                    }
                }
                let mut out = Vec::new();
                let mut v = lo;
                while v <= hi {
                    out.push((v, (v + granularity - 1).min(hi)));
                    v += granularity;
                }
                if out.is_empty() {
                    out.push((lo, hi));
                }
                out
            }
        };

        for (chunk_lo, chunk_hi) in chunks {
            let strip = strip_level.map(|_| (chunk_lo, chunk_hi));
            // receive the predecessor's boundary for this strip: one
            // aggregated message covering every swept array, or one
            // message per array with aggregation off
            if let Some(p) = pred {
                if aggregate {
                    let buf = proc.recv(p, tag);
                    let mut off = 0usize;
                    for pa in arrays {
                        let Some((lo, hi)) = self.pipe_region(frame, pa, true, dir, rd, wd, strip)
                        else {
                            continue;
                        };
                        let g = frame.arrays[pa.arr];
                        let need = dhpf_spmd::array::section_len(&lo, &hi);
                        if off + need > buf.len() {
                            exec_fail(format!(
                                "pipeline recv mismatch on rank {} (coords {:?}) from {p}: \
                                 array {} region {lo:?}..{hi:?} needs {need} at offset {off} \
                                 but the packed payload holds {} \
                                 (tag {tag}, chunk {chunk_lo}..{chunk_hi}, rd {rd} wd {wd}, dir {dir})",
                                self.rank,
                                self.coords,
                                self.prog.arrays[g].name,
                                buf.len()
                            ));
                        }
                        if let Some(local) = self.storage[g].as_mut() {
                            local.unpack(&lo, &hi, &buf[off..off + need]);
                        }
                        off += need;
                    }
                    if off != buf.len() {
                        exec_fail(format!(
                            "pipeline recv mismatch on rank {} (coords {:?}) from {p}: \
                             unpacked {off} of {} packed elements \
                             (tag {tag}, chunk {chunk_lo}..{chunk_hi}, rd {rd} wd {wd}, dir {dir})",
                            self.rank,
                            self.coords,
                            buf.len()
                        ));
                    }
                } else {
                    for pa in arrays {
                        let region = self.pipe_region(frame, pa, true, dir, rd, wd, strip);
                        let buf = proc.recv(p, tag);
                        if let Some((lo, hi)) = region {
                            let g = frame.arrays[pa.arr];
                            let need = dhpf_spmd::array::section_len(&lo, &hi);
                            if need != buf.len() {
                                exec_fail(format!(
                                    "pipeline recv mismatch on rank {} (coords {:?}) from {p}: \
                                     array {} region {lo:?}..{hi:?} needs {need} but got {} \
                                     (tag {tag}, chunk {chunk_lo}..{chunk_hi}, rd {rd} wd {wd}, dir {dir})",
                                    self.rank,
                                    self.coords,
                                    self.prog.arrays[g].name,
                                    buf.len()
                                ));
                            }
                            if let Some(local) = self.storage[g].as_mut() {
                                local.unpack(&lo, &hi, &buf);
                            }
                        }
                    }
                }
            }
            // execute the nest with the strip restricted
            self.run_pipe_nest(
                proc,
                unit,
                frame,
                levels,
                body,
                0,
                strip_level,
                (chunk_lo, chunk_hi),
                sweep_level,
            );
            // forward my boundary to the successor
            if let Some(s) = succ {
                if aggregate {
                    let mut buf = Vec::new();
                    let mut parts = 0u32;
                    for pa in arrays {
                        let Some((lo, hi)) = self.pipe_region(frame, pa, false, dir, rd, wd, strip)
                        else {
                            continue;
                        };
                        let g = frame.arrays[pa.arr];
                        if let Some(local) = &self.storage[g] {
                            buf.extend_from_slice(&local.pack(&lo, &hi));
                            parts += 1;
                        }
                    }
                    proc.send_parts(s, tag, buf, parts.max(1));
                } else {
                    for pa in arrays {
                        let region = self.pipe_region(frame, pa, false, dir, rd, wd, strip);
                        let buf = match &region {
                            Some((lo, hi)) => {
                                let g = frame.arrays[pa.arr];
                                match &self.storage[g] {
                                    Some(local) => local.pack(lo, hi),
                                    None => Vec::new(),
                                }
                            }
                            None => Vec::new(),
                        };
                        proc.send(s, tag, buf);
                    }
                }
            }
        }
    }

    /// Boundary region for a pipeline transfer. `recv = true` computes
    /// the region arriving from the predecessor; `false` the region sent
    /// to the successor. Returns `None` if this proc owns nothing.
    #[allow(clippy::too_many_arguments)]
    fn pipe_region(
        &self,
        frame: &Frame,
        pa: &PipeArray,
        recv: bool,
        dir: i64,
        rd: i64,
        wd: i64,
        strip: Option<(i64, i64)>,
    ) -> Option<(Vec<i64>, Vec<i64>)> {
        let g = self.global_of(frame, pa.arr);
        let ga = &self.prog.arrays[g];
        let local = self.storage[g].as_ref()?;
        let (mlo, mhi) = self.owned[g][pa.dim];
        if mlo > mhi {
            return None;
        }
        let mut lo = Vec::with_capacity(ga.bounds.len());
        let mut hi = Vec::with_capacity(ga.bounds.len());
        for d in 0..ga.bounds.len() {
            if d == pa.dim {
                let (a, b) = match (recv, dir > 0) {
                    // forward sweep: boundary lives at my LOW edge on
                    // receive, my HIGH edge on send
                    (true, true) => (mlo - rd, mlo + wd - 1),
                    (false, true) => (mhi - rd + 1, mhi + wd),
                    (true, false) => (mhi - wd + 1, mhi + rd),
                    (false, false) => (mlo - wd, mlo + rd - 1),
                };
                lo.push(
                    a.max(ga.bounds[d].0 - ga.ghost[d] as i64)
                        .max(local.alloc_lo()[d]),
                );
                hi.push(
                    b.min(ga.bounds[d].1 + ga.ghost[d] as i64)
                        .min(local.alloc_hi()[d]),
                );
            } else if Some(d) == pa.strip_dim {
                let (slo, shi) = strip.unwrap_or(self.owned[g][d]);
                lo.push(slo.max(local.alloc_lo()[d]));
                hi.push(shi.min(local.alloc_hi()[d]));
            } else {
                let (olo, ohi) = self.owned[g][d];
                lo.push(olo);
                hi.push(ohi);
            }
        }
        Some((lo, hi))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_pipe_nest(
        &mut self,
        proc: &mut Proc,
        unit: &'p CompiledUnit,
        frame: &mut Frame,
        levels: &'p [PipeLevel],
        body: &'p [NodeOp],
        depth: usize,
        strip_level: Option<usize>,
        chunk: (i64, i64),
        _sweep_level: usize,
    ) {
        if depth == levels.len() {
            self.exec_ops(proc, unit, body, frame);
            return;
        }
        let lv = &levels[depth];
        // Fortran `do v = lo, hi, step`: for negative steps `lo` is the
        // (larger) starting value — same convention as NodeOp::Loop.
        let (mut lo, mut hi) = (lv.lo.eval(&frame.ints), lv.hi.eval(&frame.ints));
        if Some(depth) == strip_level {
            // strip loops are ascending in our nests
            lo = lo.max(chunk.0);
            hi = hi.min(chunk.1);
        }
        let step = lv.step;
        let mut v = lo;
        while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
            frame.ints[lv.var] = v;
            self.run_pipe_nest(
                proc,
                unit,
                frame,
                levels,
                body,
                depth + 1,
                strip_level,
                chunk,
                _sweep_level,
            );
            v += step;
        }
    }
}

#[cfg(test)]
mod tests {
    // integration-style tests for the node interpreter live in the
    // driver module (which wires parsing, analysis, planning and codegen
    // together) and in the workspace-level `tests/` directory.
}
