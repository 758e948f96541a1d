//! Memory-access coalescing: merging adjacent scalar accesses into wide
//! paired operations.
//!
//! Unrolling is "key to exposing adjacent memory references" (paper §3,
//! citing Davidson & Jinturkar and Larsen & Amarasinghe): after unrolling
//! by 2, `a[i]` and `a[i+1]` sit in the same body and can be transferred
//! by one 16-byte operation. Pairing requires natural alignment of the
//! wide access — which is why *power-of-two* unroll factors coalesce
//! perfectly while odd factors leave stragglers, one of the mechanisms
//! behind the power-of-two-heavy label histogram in Figure 3.

use loopml_ir::{Inst, Loop, MemRef, Opcode};

/// Merges adjacent unpredicated loads (and stores) into `LoadPair` /
/// `StorePair` operations. Returns the number of pairs formed.
///
/// Two accesses pair when:
/// * they have the same opcode, width and base, equal strides, and offsets
///   exactly one width apart;
/// * the lower offset is aligned to the paired width (hardware alignment
///   requirement for `ldfpd`-style operations);
/// * no possibly-aliasing store intervenes between them;
/// * neither is predicated or indirect.
pub fn coalesce(l: &mut Loop) -> usize {
    let mut pairs = 0;
    // Greedy left-to-right pairing, separately for loads and stores.
    for target_load in [true, false] {
        while let Some((i, j)) = find_pair(l, target_load) {
            let lo = l.body[i].clone();
            let hi = l.body[j].clone();
            let m = lo.mem.expect("paired access has a memref");
            let wide = MemRef {
                width: m.width * 2,
                ..m
            };
            if target_load {
                // The merged load lives at the earlier position: the upper
                // load's definition moves up, which is legal because
                // find_pair checked it is neither read nor clobbered in
                // between.
                l.body[i] = Inst {
                    opcode: Opcode::LoadPair,
                    defs: vec![lo.defs[0], hi.defs[0]],
                    uses: vec![],
                    mem: Some(wide),
                    predicate: None,
                    induction: false,
                };
                l.body.remove(j);
            } else {
                // The merged store lives at the later position: both data
                // operands are available there, and find_pair checked the
                // lower value is not redefined in between.
                l.body[j] = Inst {
                    opcode: Opcode::StorePair,
                    defs: vec![],
                    uses: vec![lo.uses[0], hi.uses[0]],
                    mem: Some(wide),
                    predicate: None,
                    induction: false,
                };
                l.body.remove(i);
            }
            pairs += 1;
        }
    }
    pairs
}

/// Checks data-operand legality of moving the pair to its merge point:
/// for loads the upper definition moves up to `i`, so its register must
/// not be read or clobbered in `(i, j)`; for stores the lower access moves
/// down to `j`, so its data register must not be redefined in `(i, j)`.
fn operands_legal(l: &Loop, i: usize, j: usize, target_load: bool) -> bool {
    let between = &l.body[i + 1..j];
    if target_load {
        let dst = l.body[j].defs[0];
        between
            .iter()
            .all(|b| !b.reads().any(|r| r == dst) && !b.defs.contains(&dst))
    } else {
        let src = l.body[i].uses[0];
        between.iter().all(|b| !b.defs.contains(&src))
    }
}

/// Finds the first mergeable (lower, upper) pair of body indices.
fn find_pair(l: &Loop, target_load: bool) -> Option<(usize, usize)> {
    let want = if target_load {
        Opcode::Load
    } else {
        Opcode::Store
    };
    for (i, a) in l.body.iter().enumerate() {
        if a.opcode != want || a.predicate.is_some() {
            continue;
        }
        let Some(ma) = a.mem else {
            continue; // a load or store without a memref never pairs
        };
        if ma.indirect || ma.offset.rem_euclid(i64::from(ma.width) * 2) != 0 {
            continue;
        }
        for (jo, b) in l.body[i + 1..].iter().enumerate() {
            let j = i + 1 + jo;
            let is_partner = b.opcode == want
                && b.predicate.is_none()
                && b.mem.is_some_and(|mb| ma.adjacent_to(mb));
            if is_partner && operands_legal(l, i, j, target_load) {
                return Some((i, j));
            }
            if is_partner {
                break;
            }
            // An intervening conflicting access to the same base blocks
            // moving the upper access up to the merge point: stores block
            // load pairing; both loads and stores block store pairing.
            let same_base = b.mem.map(|m| m.base) == Some(ma.base);
            let blocks = same_base
                && if target_load {
                    b.is_store()
                } else {
                    b.is_store() || b.is_load()
                };
            if blocks {
                break;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_ir::{ArrayId, LoopBuilder, TripCount};

    fn m(base: u32, stride: i64, offset: i64) -> MemRef {
        MemRef::affine(ArrayId(base), stride, offset, 8)
    }

    #[test]
    fn adjacent_loads_merge() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, m(0, 16, 0));
        b.load(y, m(0, 16, 8));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 1);
        let wide = l
            .body
            .iter()
            .find(|i| i.opcode == Opcode::LoadPair)
            .unwrap();
        assert_eq!(wide.defs, vec![x, y]);
        assert_eq!(wide.mem.unwrap().width, 16);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::Load), 0);
    }

    #[test]
    fn adjacent_stores_merge() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.store(x, m(0, 16, 0));
        b.store(y, m(0, 16, 8));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 1);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::StorePair), 1);
    }

    #[test]
    fn misaligned_pairs_do_not_merge() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, m(0, 16, 8)); // lower offset not 16-aligned
        b.load(y, m(0, 16, 16));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 0);
    }

    #[test]
    fn four_loads_two_pairs() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        for k in 0..4 {
            let r = b.fp_reg();
            b.load(r, m(0, 32, 8 * k));
        }
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 2);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::LoadPair), 2);
    }

    #[test]
    fn odd_count_leaves_straggler() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        for k in 0..3 {
            let r = b.fp_reg();
            b.load(r, m(0, 24, 8 * k));
        }
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 1);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::Load), 1);
    }

    #[test]
    fn intervening_alias_store_blocks_load_pairing() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let x = b.fp_reg();
        let s = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, m(0, 16, 0));
        b.store(s, m(0, 16, 8));
        b.load(y, m(0, 16, 8));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 0);
    }

    #[test]
    fn different_strides_do_not_merge() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, m(0, 16, 0));
        b.load(y, m(0, 8, 8));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 0);
    }

    #[test]
    fn an_access_without_memref_does_not_stop_later_pairing() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let w = b.fp_reg();
        let x = b.fp_reg();
        let y = b.fp_reg();
        // Decoded or hand-built loops can carry a memory opcode without
        // its access descriptor.
        let no_mem = |i: Inst| Inst { mem: None, ..i };
        b.inst(no_mem(Inst::mem(Opcode::Load, vec![w], vec![], m(2, 8, 0))));
        b.load(x, m(0, 16, 0));
        b.load(y, m(0, 16, 8));
        let s = b.fp_reg();
        b.inst(no_mem(Inst::mem(
            Opcode::Store,
            vec![],
            vec![s],
            m(3, 8, 0),
        )));
        b.store(x, m(1, 16, 0));
        b.store(y, m(1, 16, 8));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 2);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::LoadPair), 1);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::StorePair), 1);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::Load), 1);
        assert_eq!(l.count_ops(|i| i.opcode == Opcode::Store), 1);
    }

    #[test]
    fn predicated_accesses_are_skipped() {
        let mut b = LoopBuilder::new("t", TripCount::Known(10));
        let x = b.fp_reg();
        let y = b.fp_reg();
        let p = b.pred_reg();
        b.inst(Inst::new(Opcode::Cmp, vec![p], vec![]));
        b.inst(Inst::mem(Opcode::Load, vec![x], vec![], m(0, 16, 0)).predicated(p));
        b.load(y, m(0, 16, 8));
        let mut l = b.build();
        assert_eq!(coalesce(&mut l), 0);
    }
}
