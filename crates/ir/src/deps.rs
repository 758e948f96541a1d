//! Dependence analysis over loop bodies.
//!
//! [`DepGraph::analyze`] computes, for a single iteration of a loop:
//!
//! * **register dependences** — true (def→use), anti (use→def) and output
//!   (def→def) edges, including *loop-carried* true dependences where a use
//!   reads the value produced by the previous iteration (reduction chains);
//! * **memory dependences** — intra-iteration and loop-carried
//!   memory-to-memory dependences derived from the affine access
//!   descriptors (see [`MemRef::dependence_distance`]);
//! * **control dependences** — early exits order side-effecting
//!   instructions; guarded instructions depend on their predicate via the
//!   ordinary register edges.
//!
//! The resulting graph drives feature extraction (dependence heights,
//! memory dependence counts), the machine model's schedulers, and the
//! recurrence-constrained initiation-interval bound for software
//! pipelining.

use std::fmt;

use crate::loops::Loop;
use crate::mem::MemRef;
use crate::opcode::Opcode;

/// Maximum loop-carried distance tracked; dependences farther apart than
/// the largest unroll factor cannot constrain any decision made here.
pub const MAX_CARRIED_DISTANCE: i64 = 8;

/// Kind of dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register true dependence (def → use).
    Reg,
    /// Register anti dependence (use → later def).
    RegAnti,
    /// Register output dependence (def → later def).
    RegOut,
    /// Memory dependence (at least one side is a store).
    Mem,
    /// Control dependence (early exit ordering).
    Ctrl,
}

/// A dependence edge between two body instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep {
    /// Source instruction index (the earlier instruction of the pair in
    /// iteration space: for carried edges the source executes `distance`
    /// iterations before the destination).
    pub src: usize,
    /// Destination instruction index.
    pub dst: usize,
    /// Minimum issue-to-issue latency in cycles (static estimate).
    pub latency: u32,
    /// Iteration distance: 0 for intra-iteration edges.
    pub distance: u32,
    /// Edge kind.
    pub kind: DepKind,
}

/// The dependence graph of one loop iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct DepGraph {
    n: usize,
    deps: Vec<Dep>,
}

impl DepGraph {
    /// Builds a graph directly from its parts, without analysis.
    ///
    /// Verification tooling uses this to construct graphs (including
    /// deliberately malformed ones) and check them against the invariants
    /// [`DepGraph::analyze`] guarantees. `n` is the body length the edges
    /// index into; edges are not validated here.
    pub fn from_parts(n: usize, deps: Vec<Dep>) -> Self {
        DepGraph { n, deps }
    }

    /// Analyzes `l` and builds its dependence graph.
    pub fn analyze(l: &Loop) -> Self {
        let body = &l.body;
        let n = body.len();
        let mut deps = Vec::new();

        // --- register dependences ---
        // For each use, find the nearest preceding def (true dep) or, if
        // none precedes it, the nearest following def (loop-carried true
        // dep with distance 1).
        for (j, inst) in body.iter().enumerate() {
            for r in inst.reads() {
                let prev_def = body[..j]
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(_, p)| p.defs.contains(&r));
                if let Some((i, p)) = prev_def {
                    deps.push(Dep {
                        src: i,
                        dst: j,
                        latency: p.opcode.static_latency(),
                        distance: 0,
                        kind: DepKind::Reg,
                    });
                } else if let Some((i, p)) = body
                    .iter()
                    .enumerate()
                    .skip(j)
                    .find(|(_, p)| p.defs.contains(&r))
                {
                    deps.push(Dep {
                        src: i,
                        dst: j,
                        latency: p.opcode.static_latency(),
                        distance: 1,
                        kind: DepKind::Reg,
                    });
                }
                // Anti dependence: this use must issue no later than the
                // next redefinition.
                if let Some(i) = body
                    .iter()
                    .enumerate()
                    .skip(j + 1)
                    .find(|(_, p)| p.defs.contains(&r))
                    .map(|(i, _)| i)
                {
                    deps.push(Dep {
                        src: j,
                        dst: i,
                        latency: 0,
                        distance: 0,
                        kind: DepKind::RegAnti,
                    });
                }
            }
            // Output dependence to the next def of the same register.
            for d in &inst.defs {
                if let Some(i) = body
                    .iter()
                    .enumerate()
                    .skip(j + 1)
                    .find(|(_, p)| p.defs.contains(d))
                    .map(|(i, _)| i)
                {
                    deps.push(Dep {
                        src: j,
                        dst: i,
                        latency: 1,
                        distance: 0,
                        kind: DepKind::RegOut,
                    });
                }
            }
        }

        // --- memory dependences ---
        let mem_insts: Vec<(usize, MemRef, bool, bool)> = body
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| {
                let m = inst.mem?;
                if inst.is_load() || inst.is_store() {
                    Some((i, m, inst.is_load(), inst.is_store()))
                } else {
                    None
                }
            })
            .collect();
        for (ai, &(i, mi, _, si)) in mem_insts.iter().enumerate() {
            for &(j, mj, _, sj) in &mem_insts[ai + 1..] {
                if !si && !sj {
                    continue; // load-load pairs carry no dependence
                }
                if mi.ambiguous || mj.ambiguous {
                    // Unanalyzable pointers: ordered within the iteration
                    // *and* across iterations (the wrapped direction).
                    deps.push(Dep {
                        src: i,
                        dst: j,
                        latency: mem_dep_latency(body[i].opcode, si, sj),
                        distance: 0,
                        kind: DepKind::Mem,
                    });
                    deps.push(Dep {
                        src: j,
                        dst: i,
                        latency: mem_dep_latency(body[j].opcode, sj, si),
                        distance: 1,
                        kind: DepKind::Mem,
                    });
                    continue;
                }
                // Same-iteration and forward-carried: j at iteration k+d
                // touches what i touched at iteration k.
                if let Some(d) = mi.dependence_distance(mj, MAX_CARRIED_DISTANCE) {
                    deps.push(Dep {
                        src: i,
                        dst: j,
                        latency: mem_dep_latency(body[i].opcode, si, sj),
                        distance: d as u32,
                        kind: DepKind::Mem,
                    });
                }
                // Reverse-carried: i at iteration k+d touches what j
                // touched at iteration k.
                if let Some(d) = mj.dependence_distance(mi, MAX_CARRIED_DISTANCE) {
                    if d > 0 {
                        deps.push(Dep {
                            src: j,
                            dst: i,
                            latency: mem_dep_latency(body[j].opcode, sj, si),
                            distance: d as u32,
                            kind: DepKind::Mem,
                        });
                    }
                }
            }
        }

        // --- control dependences ---
        // Side-effecting instructions cannot move above an earlier early
        // exit (loads and arithmetic may be control-speculated, as the
        // Itanium architecture permits).
        for (e, inst) in body.iter().enumerate() {
            if inst.opcode != Opcode::BrExit {
                continue;
            }
            for (j, later) in body.iter().enumerate().skip(e + 1) {
                let side_effecting =
                    later.is_store() || later.opcode.is_branch() || later.opcode == Opcode::Call;
                if side_effecting {
                    deps.push(Dep {
                        src: e,
                        dst: j,
                        latency: 0,
                        distance: 0,
                        kind: DepKind::Ctrl,
                    });
                }
            }
        }

        DepGraph { n, deps }
    }

    /// Number of instructions in the analyzed body.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the body had no instructions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All dependence edges.
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// Intra-iteration edges (distance 0).
    pub fn intra(&self) -> impl Iterator<Item = &Dep> {
        self.deps.iter().filter(|d| d.distance == 0)
    }

    /// Loop-carried edges (distance ≥ 1).
    pub fn carried(&self) -> impl Iterator<Item = &Dep> {
        self.deps.iter().filter(|d| d.distance > 0)
    }

    /// Memory-to-memory dependences (any distance).
    pub fn mem_deps(&self) -> impl Iterator<Item = &Dep> {
        self.deps.iter().filter(|d| d.kind == DepKind::Mem)
    }

    /// Minimum distance over loop-carried memory dependences, if any.
    pub fn min_carried_mem_distance(&self) -> Option<u32> {
        self.mem_deps()
            .filter(|d| d.distance > 0)
            .map(|d| d.distance)
            .min()
    }

    /// Number of loop-carried *register* true dependences (reduction
    /// chains and similar recurrences).
    pub fn carried_reg_deps(&self) -> usize {
        self.deps
            .iter()
            .filter(|d| d.kind == DepKind::Reg && d.distance > 0)
            .count()
    }

    /// The recurrence-constrained minimum initiation interval using a
    /// caller-supplied per-edge latency (so machine models can substitute
    /// their own latencies). This is the smallest integer `ii ≥ 1` such
    /// that the graph with edge weights `latency − ii·distance` has no
    /// positive-weight cycle: the largest `⌈Σlatency / Σdistance⌉` over
    /// the graph's cycles, or 1 when it has none.
    ///
    /// Only edges inside a strongly connected component can lie on a
    /// cycle, so each non-trivial component is searched on its own,
    /// starting from the best bound found so far. Within a component the
    /// search jumps from cycle to cycle: Bellman-Ford at the current bound
    /// either converges (the bound is feasible) or leaves a positive cycle
    /// in its predecessor graph, whose own `⌈Σlatency / Σdistance⌉` is a
    /// lower bound on every feasible `ii` and strictly above the current
    /// one.
    ///
    /// Degenerate input: a positive cycle of total distance 0 (which only
    /// [`DepGraph::from_parts`] can build) is infeasible at every `ii`.
    /// The result is then `(max_latency · n).max(1)` over the whole graph,
    /// the top of the range a bisection over `[1, max_latency · n]` ends
    /// at.
    pub fn rec_mii<F: Fn(&Dep) -> u32>(&self, latency_of: F) -> u32 {
        if self.n == 0 {
            return 1;
        }
        let lat: Vec<i64> = self.deps.iter().map(|d| i64::from(latency_of(d))).collect();
        let (comp, count) = self.components();
        // Local index of each vertex within its component.
        let mut local = vec![0usize; self.n];
        let mut size = vec![0usize; count];
        for (v, &c) in comp.iter().enumerate() {
            local[v] = size[c];
            size[c] += 1;
        }
        // Edges inside each component; no other edge lies on a cycle.
        let mut inside: Vec<Vec<Edge>> = vec![Vec::new(); count];
        for (d, &l) in self.deps.iter().zip(&lat) {
            if comp[d.src] == comp[d.dst] {
                inside[comp[d.src]].push(Edge {
                    src: local[d.src],
                    dst: local[d.dst],
                    lat: l,
                    dist: i64::from(d.distance),
                });
            }
        }

        let mut ii = 1i64;
        for (edges, &n) in inside.iter().zip(&size) {
            if edges.is_empty() {
                continue; // a single vertex without a self-loop
            }
            match cycle_jump(n, edges, ii) {
                Some(bound) => ii = bound,
                None => {
                    let max_lat = lat.iter().copied().max().unwrap_or(1);
                    return (max_lat * self.n as i64).max(1) as u32;
                }
            }
        }
        ii as u32
    }

    /// Strongly connected components (iterative Tarjan): the component id
    /// of every vertex, and the number of components.
    fn components(&self) -> (Vec<usize>, usize) {
        const UNSEEN: usize = usize::MAX;
        let n = self.n;
        // Successor lists in compressed form.
        let mut first = vec![0usize; n + 1];
        for d in &self.deps {
            first[d.src + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut succ = vec![0usize; self.deps.len()];
        for d in &self.deps {
            succ[fill[d.src]] = d.dst;
            fill[d.src] += 1;
        }

        let mut index = vec![UNSEEN; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut comp = vec![0usize; n];
        let mut count = 0;
        let mut next_index = 0;
        // Explicit DFS frames: (vertex, next successor slot).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push((v, first[v]));
                }
                let Some((v, slot)) = frames.last_mut() else {
                    break;
                };
                let v = *v;
                if *slot < first[v + 1] {
                    let w = succ[*slot];
                    *slot += 1;
                    if index[w] == UNSEEN {
                        enter = Some(w);
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
        (comp, count)
    }
}

/// One edge of a strongly connected component, in component-local vertex
/// numbering, with its latency resolved.
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: usize,
    dst: usize,
    lat: i64,
    dist: i64,
}

/// No predecessor edge yet.
const NO_PRED: usize = usize::MAX;

/// The smallest feasible initiation interval `≥ ii` of one strongly
/// connected component of `n` vertices, or `None` when a positive cycle of
/// total distance 0 makes every interval infeasible.
fn cycle_jump(n: usize, edges: &[Edge], mut ii: i64) -> Option<i64> {
    let mut weight = vec![0i64; edges.len()];
    let mut dist = vec![0i64; n];
    let mut pred = vec![NO_PRED; n];
    let mut color = vec![Color::White; n];
    'bound: loop {
        for (w, e) in weight.iter_mut().zip(edges) {
            *w = e.lat - ii * e.dist;
        }
        dist.fill(0);
        pred.fill(NO_PRED);
        // Longest-path relaxation from a virtual source joined to every
        // vertex: it settles iff no cycle is positive at `ii`.
        loop {
            let mut changed = false;
            for (k, (e, &w)) in edges.iter().zip(&weight).enumerate() {
                if dist[e.src] + w > dist[e.dst] {
                    dist[e.dst] = dist[e.src] + w;
                    pred[e.dst] = k;
                    changed = true;
                }
            }
            if !changed {
                return Some(ii);
            }
            let Some(on_cycle) = pred_cycle(edges, &pred, &mut color) else {
                continue;
            };
            let (mut lat, mut distance) = (0i64, 0i64);
            let mut v = on_cycle;
            loop {
                let e = edges[pred[v]];
                lat += e.lat;
                distance += e.dist;
                v = e.src;
                if v == on_cycle {
                    break;
                }
            }
            if distance == 0 {
                return None;
            }
            let next = (lat + distance - 1) / distance;
            debug_assert!(next > ii, "predecessor-graph cycles are positive");
            ii = next;
            continue 'bound;
        }
    }
}

/// Walk state of a vertex in [`pred_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    White,
    Grey,
    Black,
}

/// A vertex on a cycle of the predecessor graph, if it has one. Each
/// vertex has at most one predecessor edge, so one three-colour pass
/// finds a cycle in linear time.
fn pred_cycle(edges: &[Edge], pred: &[usize], color: &mut [Color]) -> Option<usize> {
    color.fill(Color::White);
    for v in 0..pred.len() {
        let mut u = v;
        while color[u] == Color::White {
            color[u] = Color::Grey;
            if pred[u] == NO_PRED {
                break;
            }
            u = edges[pred[u]].src;
        }
        if color[u] == Color::Grey && pred[u] != NO_PRED {
            return Some(u);
        }
        // The walk ended at a root or at an earlier walk: retire it.
        let mut u = v;
        while color[u] == Color::Grey {
            color[u] = Color::Black;
            if pred[u] == NO_PRED {
                break;
            }
            u = edges[pred[u]].src;
        }
    }
    None
}

fn mem_dep_latency(src_op: Opcode, src_is_store: bool, dst_is_store: bool) -> u32 {
    match (src_is_store, dst_is_store) {
        // Store → load: forwarding through memory.
        (true, false) => src_op.static_latency().max(1),
        // Load → store (anti): same-cycle issue is fine in-order.
        (false, true) => 0,
        // Store → store: ordering only.
        (true, true) => 1,
        (false, false) => unreachable!("load-load pairs are filtered out"),
    }
}

impl fmt::Display for DepGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "depgraph({} insts, {} edges)", self.n, self.deps.len())?;
        for d in &self.deps {
            writeln!(
                f,
                "  {} -> {} lat={} dist={} {:?}",
                d.src, d.dst, d.latency, d.distance, d.kind
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::inst::Inst;
    use crate::loops::TripCount;
    use crate::mem::{ArrayId, MemRef};

    /// acc = acc + x[i]  (a serial reduction)
    fn reduction() -> Loop {
        let mut b = LoopBuilder::new("red", TripCount::Known(100));
        let x = b.fp_reg();
        let acc = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.inst(Inst::new(Opcode::FAdd, vec![acc], vec![acc, x]));
        b.build()
    }

    #[test]
    fn reduction_has_carried_reg_dep() {
        let g = DepGraph::analyze(&reduction());
        assert!(g.carried_reg_deps() >= 1, "{g}");
    }

    #[test]
    fn true_dep_load_to_add() {
        let l = reduction();
        let g = DepGraph::analyze(&l);
        // load (0) -> fadd (1) true dep, distance 0.
        assert!(g
            .intra()
            .any(|d| d.src == 0 && d.dst == 1 && d.kind == DepKind::Reg));
    }

    #[test]
    fn rec_mii_of_reduction_is_fadd_latency() {
        let l = reduction();
        let g = DepGraph::analyze(&l);
        // The recurrence acc -> acc has one FAdd (latency 4) per iteration.
        let mii = g.rec_mii(|d| d.latency);
        assert_eq!(mii, Opcode::FAdd.static_latency());
    }

    #[test]
    fn rec_mii_of_independent_loop_is_one_or_iv_bound() {
        // x[i] = y[i] * 2 has no recurrence except the iv update (lat 1).
        let mut b = LoopBuilder::new("par", TripCount::Known(100));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.binop(Opcode::FMul, y, x, x);
        b.store(y, MemRef::affine(ArrayId(1), 8, 0, 8));
        let g = DepGraph::analyze(&b.build());
        assert_eq!(g.rec_mii(|d| d.latency), 1);
    }

    #[test]
    fn carried_mem_dep_distance() {
        // a[i+2] = a[i] + 1.0 : write at i lands on the read of i+2.
        let mut b = LoopBuilder::new("carry", TripCount::Known(100));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.binop(Opcode::FAdd, y, x, x);
        b.store(y, MemRef::affine(ArrayId(0), 8, 16, 8));
        let g = DepGraph::analyze(&b.build());
        assert_eq!(g.min_carried_mem_distance(), Some(2));
    }

    #[test]
    fn same_iteration_store_load_conflict() {
        let mut b = LoopBuilder::new("fwd", TripCount::Known(100));
        let x = b.fp_reg();
        let y = b.fp_reg();
        let m = MemRef::affine(ArrayId(0), 8, 0, 8);
        b.store(x, m);
        b.load(y, m);
        let g = DepGraph::analyze(&b.build());
        assert!(g.mem_deps().any(|d| d.distance == 0 && d.src < d.dst));
    }

    #[test]
    fn exits_order_stores() {
        let mut b = LoopBuilder::new("exit", TripCount::Unknown { estimate: 50 });
        let x = b.int_reg();
        let y = b.int_reg();
        b.early_exit(x, y);
        let f = b.fp_reg();
        b.store(f, MemRef::affine(ArrayId(0), 8, 0, 8));
        let g = DepGraph::analyze(&b.build());
        assert!(g.deps().iter().any(|d| d.kind == DepKind::Ctrl));
    }

    #[test]
    fn load_load_is_independent() {
        let mut b = LoopBuilder::new("ll", TripCount::Known(10));
        let x = b.fp_reg();
        let y = b.fp_reg();
        let m = MemRef::affine(ArrayId(0), 8, 0, 8);
        b.load(x, m);
        b.load(y, m);
        let g = DepGraph::analyze(&b.build());
        assert_eq!(g.mem_deps().count(), 0);
    }

    #[test]
    fn rec_mii_monotone_in_latency() {
        let g = DepGraph::analyze(&reduction());
        let a = g.rec_mii(|d| d.latency);
        let b = g.rec_mii(|d| d.latency * 2);
        assert!(b >= a);
    }

    /// a[i + k] = f(a[i]) for a byte gap of `gap` = 8·k.
    fn carried_at(gap: i64) -> Loop {
        let mut b = LoopBuilder::new("horizon", TripCount::Known(100));
        let x = b.fp_reg();
        let y = b.fp_reg();
        b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
        b.binop(Opcode::FAdd, y, x, x);
        b.store(y, MemRef::affine(ArrayId(0), 8, gap, 8));
        b.build()
    }

    #[test]
    fn carried_distance_at_the_horizon_is_tracked() {
        // Distance exactly MAX_CARRIED_DISTANCE (8 iterations · 8 bytes)
        // is the last one that constrains an unroll decision.
        let g = DepGraph::analyze(&carried_at(8 * MAX_CARRIED_DISTANCE));
        assert_eq!(g.min_carried_mem_distance(), Some(8));
    }

    #[test]
    fn carried_distance_past_the_horizon_is_dropped() {
        // One iteration farther (distance 9) is beyond every unroll
        // factor considered and must not materialize an edge.
        let g = DepGraph::analyze(&carried_at(8 * (MAX_CARRIED_DISTANCE + 1)));
        assert_eq!(g.min_carried_mem_distance(), None);
        assert_eq!(g.mem_deps().count(), 0);
    }

    fn cyc(src: usize, dst: usize, latency: u32, distance: u32) -> Dep {
        Dep {
            src,
            dst,
            latency,
            distance,
            kind: DepKind::Reg,
        }
    }

    #[test]
    fn rec_mii_lands_on_the_cycle_bound() {
        // Two-node cycle: total latency 4 + 3 = 7 over total distance
        // 1 + 1 = 2, so the smallest feasible ii is ceil(7/2) = 4 — the
        // cycle is positive at 3 and not at 4.
        let g = DepGraph::from_parts(2, vec![cyc(0, 1, 4, 1), cyc(1, 0, 3, 1)]);
        assert_eq!(g.rec_mii(|d| d.latency), 4);

        // Self-recurrence: latency 6 over distance 2 → ceil(6/2) = 3.
        let g = DepGraph::from_parts(1, vec![cyc(0, 0, 6, 2)]);
        assert_eq!(g.rec_mii(|d| d.latency), 3);

        // An exactly-divisible cycle must not round up: 8 over 2 → 4.
        let g = DepGraph::from_parts(1, vec![cyc(0, 0, 8, 2)]);
        assert_eq!(g.rec_mii(|d| d.latency), 4);
    }

    #[test]
    fn rec_mii_acyclic_graph_needs_no_slack() {
        // Long latencies without a cycle never force ii above 1.
        let g = DepGraph::from_parts(3, vec![cyc(0, 1, 9, 0), cyc(1, 2, 9, 0)]);
        assert_eq!(g.rec_mii(|d| d.latency), 1);
    }
}
