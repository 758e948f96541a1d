//! Wall-clock microbenchmarks for the hot components of the pipeline:
//! feature extraction, unrolling, both schedulers, classifier queries and
//! training. These are the operations a compiler would pay at build time
//! (the paper: an NN lookup over 2,500 examples takes < 5 ms and "is far
//! outweighed by compiler fixed-point dataflow analyses").
//!
//! Runs on the dependency-free `loopml_rt::bench` harness:
//! `cargo bench -p loopml-bench --bench components`. Set
//! `LOOPML_BENCH_MS` to change the per-benchmark time budget.

use std::hint::black_box;

use loopml::{extract, to_dataset, LabelConfig};
use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
use loopml_ir::{ArrayId, DepGraph, Inst, Loop, LoopBuilder, MemRef, Opcode, TripCount};
use loopml_machine::{
    list_schedule, loop_cost, modulo_schedule, MachineConfig, NoiseModel, SwpMode,
};
use loopml_ml::{MulticlassSvm, NearNeighbors, SvmParams, DEFAULT_RADIUS};
use loopml_opt::{unroll_and_optimize, OptConfig};
use loopml_rt::bench::{bench, bench_batched};

fn daxpy() -> Loop {
    let mut b = LoopBuilder::new("daxpy", TripCount::Known(65536));
    let x = b.fp_reg();
    let y = b.fp_reg();
    let r = b.fp_reg();
    b.load(x, MemRef::affine(ArrayId(0), 8, 0, 8));
    b.load(y, MemRef::affine(ArrayId(1), 8, 0, 8));
    b.inst(Inst::new(Opcode::Fma, vec![r], vec![x, y]));
    b.store(r, MemRef::affine(ArrayId(1), 8, 0, 8));
    b.build()
}

fn training_dataset() -> loopml_ml::Dataset {
    let cfg = SuiteConfig {
        min_loops: 40,
        max_loops: 40,
        ..SuiteConfig::default()
    };
    let label_cfg = LabelConfig {
        noise: NoiseModel::exact(),
        ..LabelConfig::paper(SwpMode::Disabled)
    };
    let labeled: Vec<_> = ROSTER
        .iter()
        .take(12)
        .enumerate()
        .flat_map(|(i, e)| loopml::label_benchmark(&synthesize(e, &cfg), i, &label_cfg))
        .collect();
    to_dataset(&labeled)
}

fn bench_feature_extraction() {
    let l = daxpy();
    bench("extract_38_features", || black_box(extract(black_box(&l)))).print();
}

fn bench_unroll() {
    let l = daxpy();
    let cfg = OptConfig::default();
    for factor in [2u32, 8] {
        bench(&format!("unroll_and_optimize_x{factor}"), || {
            black_box(unroll_and_optimize(black_box(&l), factor, &cfg))
        })
        .print();
    }
}

fn bench_schedulers() {
    let mcfg = MachineConfig::itanium2();
    let u = unroll_and_optimize(&daxpy(), 8, &OptConfig::default());
    let g = DepGraph::analyze(&u.body);
    bench("list_schedule_x8_body", || {
        black_box(list_schedule(black_box(&u.body), &g, &mcfg))
    })
    .print();
    bench("modulo_schedule_x8_body", || {
        black_box(modulo_schedule(black_box(&u.body), &g, &mcfg))
    })
    .print();
    bench("loop_cost_swp_off", || {
        black_box(loop_cost(black_box(&u), 10.0, &mcfg, SwpMode::Disabled))
    })
    .print();
}

fn bench_labeling() {
    let b = synthesize(
        &ROSTER[2],
        &SuiteConfig {
            min_loops: 10,
            max_loops: 10,
            ..SuiteConfig::default()
        },
    );
    let cfg = LabelConfig::paper(SwpMode::Disabled);
    bench("label_benchmark_10_loops", || {
        black_box(loopml::label_benchmark(black_box(&b), 0, &cfg))
    })
    .print();
    bench("label_benchmark_10_loops_serial", || {
        loopml_rt::with_threads(1, || {
            black_box(loopml::label_benchmark(black_box(&b), 0, &cfg))
        })
    })
    .print();
}

fn bench_classifiers() {
    let data = training_dataset();
    let nn = NearNeighbors::fit(&data, DEFAULT_RADIUS);
    let query = data.x[0].clone();
    // The paper's latency claim: an NN query over the database is fast
    // enough for compile time.
    bench(&format!("nn_query_{}_examples", data.len()), || {
        black_box(nn.predict(black_box(&query)))
    })
    .print();
    bench_batched(
        "nn_fit",
        || data.clone(),
        |d| black_box(NearNeighbors::fit(&d, DEFAULT_RADIUS)),
    )
    .print();
    let svm = MulticlassSvm::fit(&data, SvmParams::default());
    bench("svm_query", || black_box(svm.predict(black_box(&query)))).print();
    bench_batched(
        &format!("svm_fit_{}_examples", data.len()),
        || data.clone(),
        |d| black_box(MulticlassSvm::fit(&d, SvmParams::default())),
    )
    .print();
}

fn bench_corpus() {
    let cfg = SuiteConfig::default();
    bench("synthesize_benchmark", || {
        black_box(synthesize(black_box(&ROSTER[0]), &cfg))
    })
    .print();
}

fn main() {
    bench_feature_extraction();
    bench_unroll();
    bench_schedulers();
    bench_labeling();
    bench_classifiers();
    bench_corpus();
}
