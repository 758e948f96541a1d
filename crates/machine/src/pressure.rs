//! Register-pressure estimation over schedules.
//!
//! Given a schedule (list or modulo) this module computes the maximum
//! number of simultaneously live values per register class in the
//! steady-state kernel, counting the overlapping lifetimes of values from
//! multiple in-flight iterations (the software-pipelining pressure effect
//! that makes over-unrolling dangerous).

use loopml_ir::{DepGraph, DepKind, Loop, Reg, RegClass};

use crate::config::MachineConfig;

/// Maximum simultaneous live values per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pressure {
    /// Integer registers.
    pub int: u32,
    /// Floating-point registers.
    pub fp: u32,
}

impl Pressure {
    /// Registers spilled under `cfg`: the excess over each file size.
    pub fn spilled(&self, cfg: &MachineConfig) -> u32 {
        self.int.saturating_sub(cfg.int_regs) + self.fp.saturating_sub(cfg.fp_regs)
    }
}

/// Computes steady-state register pressure.
///
/// `starts` gives each instruction's issue cycle; `period` is the
/// initiation interval between consecutive iterations (the kernel length
/// for list schedules, the II for modulo schedules). A value defined at
/// `d` and last used at `u` (plus `period` for loop-carried consumers) is
/// live over `[d, u)`, at least one cycle; an instruction that names the
/// same register twice defines one value. At kernel row `c` the value has
/// one live copy per cycle of `[d, u)` congruent to `c` modulo the
/// period: `⌊(u − d) / period⌋` copies at every row, plus one more at the
/// `(u − d) mod period` rows starting at row `d mod period` (wrapping
/// around). The rows are summed with a difference array, so the cost is
/// linear in the body, its edges and the period. Loop-invariant live-in
/// registers occupy a register throughout.
pub fn max_live(l: &Loop, g: &DepGraph, starts: &[u32], period: u32) -> Pressure {
    let n = l.body.len();
    assert_eq!(starts.len(), n, "starts must cover the body");
    let period = i64::from(period.max(1));

    // One slot per distinct register each instruction defines, holding
    // the value's lifetime `[start, end)`; `first[i]..first[i + 1]` are
    // instruction i's slots.
    let mut first = Vec::with_capacity(n + 1);
    let mut slots: Vec<(Reg, i64, i64)> = Vec::new();
    for (i, inst) in l.body.iter().enumerate() {
        let own = slots.len();
        first.push(own);
        let s = i64::from(starts[i]);
        for &d in &inst.defs {
            if !slots[own..].iter().any(|&(r, _, _)| r == d) {
                slots.push((d, s, s + 1));
            }
        }
    }
    first.push(slots.len());
    for dep in g.deps() {
        if dep.kind != DepKind::Reg {
            continue;
        }
        // The value produced by dep.src is consumed by dep.dst, `distance`
        // iterations later.
        let use_cycle = i64::from(starts[dep.dst]) + period * i64::from(dep.distance);
        let reader = &l.body[dep.dst];
        for slot in &mut slots[first[dep.src]..first[dep.src + 1]] {
            if reader.reads().any(|r| r == slot.0) {
                slot.2 = slot.2.max(use_cycle);
            }
        }
    }

    // Steady-state occupancy per class: copies every row has, plus a
    // difference array over the kernel rows for the partial wrap.
    let rows = period as usize;
    let mut every_row = [0i64; 2];
    let mut diff = [vec![0i64; rows + 1], vec![0i64; rows + 1]];
    for &(r, s, e) in &slots {
        let class = match r.class() {
            RegClass::Int => 0,
            RegClass::Fp => 1,
            RegClass::Pred => continue,
        };
        let span = e - s;
        every_row[class] += span / period;
        let extra = (span % period) as usize;
        if extra > 0 {
            let from = s.rem_euclid(period) as usize;
            let to = from + extra;
            let d = &mut diff[class];
            d[from] += 1;
            if to <= rows {
                d[to] -= 1;
            } else {
                d[0] += 1;
                d[to - rows] -= 1;
            }
        }
    }
    let [max_int, max_fp] = [0, 1].map(|class| {
        let mut live = 0i64;
        let mut max = 0i64;
        for &step in &diff[class][..rows] {
            live += step;
            max = max.max(live);
        }
        every_row[class] + max
    });

    // Loop-invariant inputs hold a register for the whole loop.
    let mut invariant_int = 0u32;
    let mut invariant_fp = 0u32;
    for r in l.live_in_regs() {
        if slots.iter().any(|&(d, _, _)| d == r) {
            continue; // loop-carried, already counted via lifetimes
        }
        match r.class() {
            RegClass::Int => invariant_int += 1,
            RegClass::Fp => invariant_fp += 1,
            RegClass::Pred => {}
        }
    }

    Pressure {
        int: max_int as u32 + invariant_int,
        fp: max_fp as u32 + invariant_fp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_sched::list_schedule;
    use crate::modulo::modulo_schedule;
    use loopml_ir::{ArrayId, Inst, LoopBuilder, MemRef, Opcode, TripCount};

    fn cfg() -> MachineConfig {
        MachineConfig::itanium2()
    }

    fn wide_body(temps: u32) -> Loop {
        let mut b = LoopBuilder::new("wide", TripCount::Known(1000));
        let mut regs = Vec::new();
        for k in 0..temps {
            let r = b.fp_reg();
            b.load(r, MemRef::affine(ArrayId(k), 8, 0, 8));
            regs.push(r);
        }
        let mut acc = regs[0];
        for &r in &regs[1..] {
            let t = b.fp_reg();
            b.inst(Inst::new(Opcode::FAdd, vec![t], vec![acc, r]));
            acc = t;
        }
        b.store(acc, MemRef::affine(ArrayId(100), 8, 0, 8));
        b.build()
    }

    #[test]
    fn pressure_grows_with_temporaries() {
        let small = wide_body(3);
        let big = wide_body(12);
        let gs = DepGraph::analyze(&small);
        let gb = DepGraph::analyze(&big);
        let ss = list_schedule(&small, &gs, &cfg());
        let sb = list_schedule(&big, &gb, &cfg());
        let ps = max_live(&small, &gs, &ss.starts, ss.iter_interval);
        let pb = max_live(&big, &gb, &sb.starts, sb.iter_interval);
        assert!(pb.fp > ps.fp, "{pb:?} vs {ps:?}");
    }

    #[test]
    fn pipelining_increases_pressure() {
        let l = wide_body(6);
        let g = DepGraph::analyze(&l);
        let ls = list_schedule(&l, &g, &cfg());
        let p_list = max_live(&l, &g, &ls.starts, ls.iter_interval);
        let swp = modulo_schedule(&l, &g, &cfg()).unwrap();
        let p_swp = max_live(&l, &g, &swp.starts, swp.ii);
        assert!(
            p_swp.fp >= p_list.fp,
            "overlapped iterations hold more values: {p_swp:?} vs {p_list:?}"
        );
    }

    #[test]
    fn no_spills_on_small_bodies() {
        let l = wide_body(4);
        let g = DepGraph::analyze(&l);
        let s = list_schedule(&l, &g, &cfg());
        let p = max_live(&l, &g, &s.starts, s.iter_interval);
        assert_eq!(p.spilled(&cfg()), 0);
    }

    #[test]
    fn spills_reported_beyond_file_size() {
        let mut tight = cfg();
        tight.fp_regs = 4;
        let l = wide_body(10);
        let g = DepGraph::analyze(&l);
        let s = list_schedule(&l, &g, &tight);
        let p = max_live(&l, &g, &s.starts, s.iter_interval);
        assert!(p.spilled(&tight) > 0);
    }

    #[test]
    fn invariants_count_once() {
        // Loop reading a live-in fp register every iteration.
        let mut b = LoopBuilder::new("inv", TripCount::Known(10));
        let k = b.fp_reg(); // never defined: live-in
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.inst(Inst::new(Opcode::FMul, vec![y], vec![x, k]));
        b.store(y, MemRef::affine(ArrayId(1), 8, 0, 8));
        let l = b.build();
        let g = DepGraph::analyze(&l);
        let s = list_schedule(&l, &g, &cfg());
        let p = max_live(&l, &g, &s.starts, s.iter_interval);
        assert!(p.fp >= 2, "{p:?}"); // k plus at least one in-flight value
    }
}
