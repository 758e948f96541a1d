//! Metamorphic machine-model properties over the quick corpus at every
//! unroll factor: the modulo scheduler lands inside its own search window,
//! and the labeler's hoisted rolled baseline is what compiling the rolled
//! loop afresh gives.

use loopml::label::{true_cycles, Rolled};
use loopml::{hot_footprint, label_loop, LabelConfig, MAX_UNROLL};
use loopml_corpus::{full_suite, SuiteConfig};
use loopml_ir::{Benchmark, DepGraph};
use loopml_machine::{
    icache_entry_cost, loop_cost, modulo_schedule, rec_mii, res_mii, NoiseModel, SwpMode,
};
use loopml_opt::unroll_and_optimize;

fn quick_suite() -> Vec<Benchmark> {
    full_suite(&SuiteConfig {
        min_loops: 8,
        max_loops: 12,
        ..SuiteConfig::default()
    })
}

#[test]
fn modulo_ii_stays_inside_the_search_window() {
    let cfg = LabelConfig::paper(SwpMode::Enabled);
    let mut pipelined = 0;
    for b in quick_suite() {
        for (_, w) in b.unrollable() {
            for f in 1..=MAX_UNROLL {
                let u = unroll_and_optimize(&w.body, f, &cfg.opt);
                let l = &u.body;
                let g = DepGraph::analyze(l);
                let Ok(m) = modulo_schedule(l, &g, &cfg.machine) else {
                    continue;
                };
                let mii = res_mii(l, &cfg.machine).max(rec_mii(l, &g, &cfg.machine));
                assert!(
                    mii <= m.ii && m.ii <= mii + cfg.machine.swp_ii_slack,
                    "{} x{f}: ii {} outside [{mii}, {mii} + slack]",
                    l.name,
                    m.ii
                );
                pipelined += 1;
            }
        }
    }
    assert!(pipelined > 1000, "only {pipelined} modulo schedules");
}

/// The hoisted rolled baseline equals a fresh rolled compile, and the
/// factor-1 runtime the noise-free labeler records (or `true_cycles`
/// returns, for loops the filters drop) is the cost built from it.
fn hoisted_baseline_matches_fresh_compile(swp: SwpMode) {
    let cfg = LabelConfig {
        noise: NoiseModel::exact(),
        ..LabelConfig::paper(swp)
    };
    let mut labeled = 0;
    for (bi, b) in quick_suite().iter().enumerate() {
        let footprint = hot_footprint(b);
        for (li, w) in b.unrollable() {
            let fresh = unroll_and_optimize(&w.body, 1, &cfg.opt);
            let fresh_cost = loop_cost(&fresh, 0.0, &cfg.machine, cfg.swp);
            let rolled = Rolled::new(w, &cfg);
            assert_eq!(rolled.cost, fresh_cost, "{}", w.body.name);
            assert_eq!(rolled.trips, fresh.body.trip_count.dynamic());

            let icache = icache_entry_cost(rolled.cost.code_bytes, footprint, &cfg.machine);
            let want = rolled.cost.total(rolled.trips, w.entries) + icache * w.entries as f64;
            let got = match label_loop(w, li, bi, footprint, &cfg) {
                Some(l) => {
                    labeled += 1;
                    l.runtimes[0]
                }
                None => true_cycles(w, 1, footprint, &rolled, &cfg),
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{}", w.body.name);
        }
    }
    assert!(labeled > 300, "only {labeled} loops labeled");
}

#[test]
fn hoisted_baseline_matches_fresh_compile_without_pipelining() {
    hoisted_baseline_matches_fresh_compile(SwpMode::Disabled);
}

#[test]
fn hoisted_baseline_matches_fresh_compile_with_pipelining() {
    hoisted_baseline_matches_fresh_compile(SwpMode::Enabled);
}
