//! Reference implementations the fast machine-model paths must match bit
//! for bit: the whole-graph bisection RecMII ([`DepGraph::rec_mii`] now
//! searches strongly connected components by cycle jumping) and the
//! map-and-row-scan register pressure ([`max_live`] now uses flat def
//! slots and a row difference array). Test-only.

use std::collections::HashMap;

use loopml_ir::{Dep, DepGraph, DepKind, Loop, Reg, RegClass};

use crate::pressure::Pressure;

/// RecMII by bisection over `[1, max_latency · n]`, one whole-graph
/// Bellman-Ford positive-cycle test per probe.
pub(crate) fn rec_mii<F: Fn(&Dep) -> u32>(g: &DepGraph, latency_of: F) -> u32 {
    if g.is_empty() {
        return 1;
    }
    let max_lat: i64 = g
        .deps()
        .iter()
        .map(|d| i64::from(latency_of(d)))
        .max()
        .unwrap_or(1);
    let mut lo = 1i64;
    let mut hi = (max_lat * g.len() as i64).max(1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if has_positive_cycle(g, mid, &latency_of) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

fn has_positive_cycle<F: Fn(&Dep) -> u32>(g: &DepGraph, ii: i64, latency_of: &F) -> bool {
    let mut dist = vec![0i64; g.len()];
    for round in 0..=g.len() {
        let mut changed = false;
        for d in g.deps() {
            let w = i64::from(latency_of(d)) - ii * i64::from(d.distance);
            if dist[d.src] + w > dist[d.dst] {
                dist[d.dst] = dist[d.src] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == g.len() {
            return true;
        }
    }
    false
}

/// Register pressure from a `(instruction, register)` lifetime map and a
/// scan of every kernel row against every value.
pub(crate) fn max_live(l: &Loop, g: &DepGraph, starts: &[u32], period: u32) -> Pressure {
    let period = i64::from(period.max(1));
    let mut lifetime: HashMap<(usize, Reg), (i64, i64)> = HashMap::new();
    for (i, inst) in l.body.iter().enumerate() {
        for &d in &inst.defs {
            let s = i64::from(starts[i]);
            lifetime.insert((i, d), (s, s + 1));
        }
    }
    for dep in g.deps() {
        if dep.kind != DepKind::Reg {
            continue;
        }
        let use_cycle = i64::from(starts[dep.dst]) + period * i64::from(dep.distance);
        for &d in &l.body[dep.src].defs {
            if l.body[dep.dst].reads().any(|r| r == d) {
                let e = lifetime
                    .entry((dep.src, d))
                    .or_insert((i64::from(starts[dep.src]), i64::from(starts[dep.src]) + 1));
                e.1 = e.1.max(use_cycle);
            }
        }
    }
    let mut max_int = 0i64;
    let mut max_fp = 0i64;
    for c in 0..period {
        let mut int_live = 0i64;
        let mut fp_live = 0i64;
        for (&(_, r), &(s, e)) in &lifetime {
            if e - s <= 0 {
                continue;
            }
            let lo = -div_floor(-(s - c), period);
            let hi = div_floor(e - 1 - c, period);
            let copies = (hi - lo + 1).max(0);
            match r.class() {
                RegClass::Int => int_live += copies,
                RegClass::Fp => fp_live += copies,
                RegClass::Pred => {}
            }
        }
        max_int = max_int.max(int_live);
        max_fp = max_fp.max(fp_live);
    }
    let mut invariant_int = 0u32;
    let mut invariant_fp = 0u32;
    for r in l.live_in_regs() {
        if l.body.iter().any(|i| i.defs.contains(&r)) {
            continue;
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

fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::list_sched::{edge_latency, list_schedule};
    use crate::modulo::modulo_schedule;
    use crate::pressure;
    use loopml_corpus::{full_suite, SuiteConfig};
    use loopml_opt::{unroll_and_optimize, OptConfig};
    use loopml_rt::{check, par_map_threads, Rng};

    fn edge(src: usize, dst: usize, latency: u32, distance: u32) -> Dep {
        Dep {
            src,
            dst,
            latency,
            distance,
            kind: DepKind::Reg,
        }
    }

    /// A random graph of 1..=12 vertices: forward edges of distance 0..=8,
    /// back edges and self-loops mostly carried (distance 1..=8, rarely
    /// 0), latencies 0..=30. Vertices may stay isolated, so graphs come
    /// with several components and disconnected parts.
    fn arb_graph(rng: &mut Rng) -> DepGraph {
        let n = rng.gen_range(1..=12usize);
        let m = rng.gen_range(0..=3 * n);
        let deps = (0..m)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                let distance = if src < dst || rng.gen_bool(0.03) {
                    rng.gen_range(0..=8u32)
                } else {
                    rng.gen_range(1..=8u32)
                };
                edge(src, dst, rng.gen_range(0..=30u32), distance)
            })
            .collect();
        DepGraph::from_parts(n, deps)
    }

    /// Whether `g` has a cycle of total distance 0 and positive latency.
    fn zero_distance_positive_cycle(g: &DepGraph) -> bool {
        let zero = DepGraph::from_parts(
            g.len(),
            g.deps()
                .iter()
                .copied()
                .filter(|d| d.distance == 0)
                .collect(),
        );
        has_positive_cycle(&zero, 0, &|d: &Dep| d.latency)
    }

    #[test]
    fn rec_mii_matches_bisection_on_random_graphs() {
        let (mut cyclic, mut degenerate) = (0, 0);
        check("rec_mii_matches_bisection_on_random_graphs", 4000, |rng| {
            let g = arb_graph(rng);
            let want = rec_mii(&g, |d| d.latency);
            assert_eq!(g.rec_mii(|d| d.latency), want, "{g}");
            // A second latency assignment over the same edges.
            let scrambled = |d: &Dep| (d.latency * 2 + d.src as u32) % 37;
            assert_eq!(g.rec_mii(scrambled), rec_mii(&g, scrambled), "{g}");
            cyclic += usize::from(want > 1);
            degenerate += usize::from(zero_distance_positive_cycle(&g));
        });
        assert!(cyclic > 1000, "too few recurrences exercised: {cyclic}");
        assert!(
            degenerate > 20,
            "too few zero-distance cycles: {degenerate}"
        );
    }

    #[test]
    fn rec_mii_of_a_zero_distance_positive_cycle_is_the_legacy_ceiling() {
        // 0 → 1 → 0 at distance 0 is positive at every ii; the answer is
        // max latency (9, on an edge off the cycle) times n (4).
        let g = DepGraph::from_parts(
            4,
            vec![
                edge(0, 1, 2, 0),
                edge(1, 0, 3, 0),
                edge(2, 3, 9, 0),
                edge(3, 3, 5, 1),
            ],
        );
        assert_eq!(g.rec_mii(|d| d.latency), 36);
        assert_eq!(rec_mii(&g, |d| d.latency), 36);
        // With every latency 0 the cycle is not positive, and a lone
        // zero-latency self-loop at distance 0 is not either.
        let g = DepGraph::from_parts(
            2,
            vec![edge(0, 1, 0, 0), edge(1, 0, 0, 0), edge(1, 1, 0, 0)],
        );
        assert_eq!(g.rec_mii(|d| d.latency), 1);
        // A positive zero-distance self-loop is degenerate on its own.
        let g = DepGraph::from_parts(3, vec![edge(2, 2, 4, 0)]);
        assert_eq!(g.rec_mii(|d| d.latency), 12);
        assert_eq!(rec_mii(&g, |d| d.latency), 12);
    }

    #[test]
    fn rec_mii_takes_the_worst_component() {
        // Two disjoint recurrences, 7/2 → 4 and 10/3 → 4, plus a
        // self-loop 9/1 → 9 in a third component reached from the first.
        let g = DepGraph::from_parts(
            6,
            vec![
                edge(0, 1, 4, 1),
                edge(1, 0, 3, 1),
                edge(2, 3, 5, 1),
                edge(3, 4, 5, 0),
                edge(4, 2, 0, 2),
                edge(1, 5, 1, 0),
                edge(5, 5, 9, 1),
            ],
        );
        assert_eq!(g.rec_mii(|d| d.latency), 9);
        assert_eq!(rec_mii(&g, |d| d.latency), 9);
    }

    fn quick_loops() -> Vec<Loop> {
        let suite = full_suite(&SuiteConfig {
            min_loops: 8,
            max_loops: 12,
            ..SuiteConfig::default()
        });
        suite
            .iter()
            .flat_map(|b| b.unrollable().map(|(_, w)| w.body.clone()))
            .collect()
    }

    #[test]
    fn max_live_matches_the_row_scan_on_random_schedules() {
        let loops = quick_loops();
        check(
            "max_live_matches_the_row_scan_on_random_schedules",
            300,
            |rng| {
                let l = &loops[rng.gen_range(0..loops.len())];
                let mut u = unroll_and_optimize(l, rng.gen_range(1..=8u32), &OptConfig::default());
                // Now and then an instruction names its destination twice,
                // which must still define one value.
                if rng.gen_bool(0.5) {
                    let k = rng.gen_range(0..u.body.body.len());
                    if let Some(&d) = u.body.body[k].defs.first() {
                        u.body.body[k].defs.push(d);
                    }
                }
                let g = DepGraph::analyze(&u.body);
                let starts: Vec<u32> = (0..u.body.body.len())
                    .map(|_| rng.gen_range(0..48u32))
                    .collect();
                let period = rng.gen_range(0..=20u32);
                assert_eq!(
                    pressure::max_live(&u.body, &g, &starts, period),
                    max_live(&u.body, &g, &starts, period),
                    "{} at period {period}",
                    u.body.name
                );
            },
        );
    }

    /// Every (loop, factor 1..=8) of the quick corpus: RecMII under machine
    /// and static latencies, and pressure of the list schedule (the
    /// `SwpMode::Disabled` path) and of the modulo schedule (the
    /// `SwpMode::Enabled` path), against the reference implementations.
    #[test]
    fn quick_corpus_matches_the_reference_at_every_factor() {
        let cfg = MachineConfig::itanium2();
        let opt = OptConfig::default();
        let pairs: Vec<(Loop, u32)> = quick_loops()
            .into_iter()
            .flat_map(|l| (1..=8).map(move |f| (l.clone(), f)))
            .collect();
        let checked = par_map_threads(2, &pairs, |(l, f)| {
            let u = unroll_and_optimize(l, *f, &opt);
            let l = &u.body;
            let g = DepGraph::analyze(l);
            let machine = |d: &Dep| edge_latency(d, l, &cfg);
            assert_eq!(g.rec_mii(machine), rec_mii(&g, machine), "{} x{f}", l.name);
            assert_eq!(
                g.rec_mii(|d| d.latency),
                rec_mii(&g, |d| d.latency),
                "{} x{f}",
                l.name
            );
            let s = list_schedule(l, &g, &cfg);
            assert_eq!(
                pressure::max_live(l, &g, &s.starts, s.iter_interval),
                max_live(l, &g, &s.starts, s.iter_interval),
                "{} x{f} list",
                l.name
            );
            if let Ok(m) = modulo_schedule(l, &g, &cfg) {
                assert_eq!(
                    pressure::max_live(l, &g, &m.starts, m.ii),
                    max_live(l, &g, &m.starts, m.ii),
                    "{} x{f} modulo",
                    l.name
                );
                return 1;
            }
            0
        });
        let pipelined: usize = checked.iter().sum();
        assert!(pairs.len() > 4000, "{} pairs", pairs.len());
        assert!(pipelined > pairs.len() / 4, "{pipelined} modulo schedules");
    }
}
