//! Pieces every workload shares: corpus set-up, labeling with
//! per-benchmark spans, the seeded (loop, factor) layer sample, and the
//! family-by-family sweep split.

use std::path::PathBuf;
use std::time::Instant;

use loopml::{extract, label_benchmark, label_suite, LabelConfig, LabeledLoop, MAX_UNROLL};
use loopml_corpus::{full_suite, SuiteConfig};
use loopml_ir::Benchmark;
use loopml_machine::loop_cost;
use loopml_ml::{sweep, Dataset, ForestGrid, MlpGrid, SvmGrid, SweepConfig, SweepReport, TreeGrid};
use loopml_opt::unroll_and_optimize;
use loopml_rt::{par_map_threads, Rng};

use crate::layers::FAMILY_SPANS;
use crate::report::{metric, Metric};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Set-ups shorter than this in total are repeated further (up to
/// [`SETUP_MAX_REPS`]), so a millisecond set-up still gets a steady
/// median.
const SETUP_MIN_TOTAL_S: f64 = 0.5;

/// Cap on set-up repetitions.
const SETUP_MAX_REPS: usize = 1000;

/// Loops per benchmark at quick scale, at most. The full-scale corpus of
/// the same seed starts with the same loops, so loops past this index
/// are never part of a quick corpus.
pub const QUICK_MAX_LOOPS: usize = 12;

/// (loop, factor) pairs in the traced layer sample.
const SAMPLE_PAIRS: usize = 1024;

/// Seed stream of the benchmark's own draws, kept apart from the corpus.
pub const DRAW_STREAM: u64 = 0x10_0B_BE_4C;

/// What one run was asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// `--seed`: the corpus seed and the root of every draw.
    pub seed: u64,
    /// `--seconds`: how long the measured phase runs.
    pub seconds: f64,
    /// Worker threads.
    pub threads: usize,
    /// Scratch directory for artifacts and daemon documents.
    pub work: PathBuf,
    /// The span recorder (off unless `--trace 1`).
    pub tracer: Tracer,
}

/// The quick corpus (8–12 loops per benchmark).
pub fn quick_config(seed: u64) -> SuiteConfig {
    SuiteConfig {
        seed,
        min_loops: 8,
        max_loops: QUICK_MAX_LOOPS,
        ..SuiteConfig::default()
    }
}

/// The full-scale corpus (65–85 loops per benchmark) times `scale`.
pub fn full_config(seed: u64, scale: usize) -> SuiteConfig {
    SuiteConfig {
        seed,
        corpus_scale: scale,
        ..SuiteConfig::default()
    }
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `setup` at least [`SETUP_REPS`] times (more while the total is
/// under [`SETUP_MIN_TOTAL_S`]), keeping the last result and every time.
/// Earlier results are dropped as soon as the next one exists.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && times.len() < SETUP_MAX_REPS)
    {
        let (r, secs) = timed(|| setup(times.len()));
        kept = Some(r?);
        times.push(secs);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Synthesizes the corpus repeatedly (see [`repeat_setup`]).
pub fn synth_repeated(tr: &Tracer, cfg: &SuiteConfig) -> (Vec<Benchmark>, Vec<f64>) {
    repeat_setup(|_| Ok(tr.span("corpus.synth", None, None, |_| full_suite(cfg))))
        .expect("synthesis cannot fail")
}

/// Loops in a corpus.
pub fn corpus_loops(suite: &[Benchmark]) -> usize {
    suite.iter().map(|b| b.loops.len()).sum()
}

/// Loops the labeler measures (the unrollable ones).
pub fn label_candidates(suite: &[Benchmark]) -> usize {
    suite.iter().map(|b| b.unrollable().count()).sum()
}

/// Runs `once` until `seconds` are spent (at least once), starting a
/// new iteration only if the median so far still fits. `once` returns
/// the seconds of its measured part (checks it runs afterwards are
/// spent time but not measured); every measured time is returned.
pub fn iterate(seconds: f64, mut once: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let secs = once();
        eprintln!("[loopbench] pass {}: {secs:.3} s", times.len() + 1);
        times.push(secs);
        if start.elapsed().as_secs_f64() + median(&times) > seconds {
            return times;
        }
    }
}

/// [`label_suite`], recorded as one `core.label` span with a
/// `core.label.benchmark` child per benchmark when tracing. The traced
/// path makes the same per-benchmark calls `label_suite` makes.
pub fn label(
    tr: &Tracer,
    parent: Option<SpanId>,
    suite: &[Benchmark],
    cfg: &LabelConfig,
    threads: usize,
) -> Vec<LabeledLoop> {
    tr.span("core.label", parent, None, |id| {
        if !tr.is_on() {
            return label_suite(suite, cfg);
        }
        let indexed: Vec<(usize, &Benchmark)> = suite.iter().enumerate().collect();
        par_map_threads(threads, &indexed, |&(bi, b)| {
            tr.span("core.label.benchmark", id, None, |_| {
                label_benchmark(b, bi, cfg)
            })
        })
        .into_iter()
        .flatten()
        .collect()
    })
}

/// Direct `unroll_and_optimize`, `loop_cost` and `extract` calls, one
/// span each, over a seeded sample of (loop, factor) pairs, exactly as
/// the labeler measures one factor: the rolled loop first, then the
/// unrolled one against the rolled cost. Returns the
/// `machine.pipelined_ratio` and `machine.spilled` metrics; the timings
/// are read off the spans.
pub fn layer_sample(tr: &Tracer, suite: &[Benchmark], cfg: &LabelConfig, seed: u64) -> Vec<Metric> {
    let pool: Vec<&loopml_ir::Loop> = suite
        .iter()
        .flat_map(|b| b.unrollable().map(|(_, w)| &w.body))
        .collect();
    let mut rng = Rng::seed_from_u64(seed ^ DRAW_STREAM ^ 0x5A);
    let (mut calls, mut pipelined, mut spilled) = (0usize, 0usize, 0u64);
    tr.span("sample", None, None, |id| {
        for _ in 0..SAMPLE_PAIRS {
            let l = pool[rng.gen_range(0..pool.len())];
            let factor = rng.gen_range(1..=MAX_UNROLL);
            let mut rolled_per_iter = 0.0;
            for f in [1, factor] {
                let u = tr.span("opt.unroll", id, None, |_| {
                    unroll_and_optimize(l, f, &cfg.opt)
                });
                let c = tr.span("machine.cost", id, None, |_| {
                    loop_cost(&u, rolled_per_iter, &cfg.machine, cfg.swp)
                });
                calls += 1;
                pipelined += usize::from(c.pipelined);
                spilled += u64::from(c.spilled);
                rolled_per_iter = c.per_iter;
                if factor == 1 {
                    break;
                }
            }
            tr.span("core.features", id, None, |_| extract(l));
        }
    });
    vec![
        metric(
            "machine.pipelined_ratio",
            pipelined as f64 / calls.max(1) as f64,
            "ratio",
            calls,
        ),
        metric("machine.spilled", spilled as f64, "count", calls),
    ]
}

/// A sweep configuration with every grid empty.
pub fn empty_grids() -> SweepConfig {
    SweepConfig {
        svm: SvmGrid {
            gammas: Vec::new(),
            cs: Vec::new(),
            ..SvmGrid::default()
        },
        radii: Vec::new(),
        tree: TreeGrid {
            max_depths: Vec::new(),
            min_leafs: Vec::new(),
        },
        forest: ForestGrid {
            sizes: Vec::new(),
            ..ForestGrid::default()
        },
        mlp: MlpGrid {
            hiddens: Vec::new(),
            lrs: Vec::new(),
            ..MlpGrid::default()
        },
    }
}

/// `cfg` restricted to one family's grid, or `None` when that grid is
/// empty in `cfg`.
pub fn only_family(cfg: &SweepConfig, family: &str) -> Option<SweepConfig> {
    let mut one = empty_grids();
    let cells = match family {
        "nn" => {
            one.radii = cfg.radii.clone();
            one.radii.len()
        }
        "svm" => {
            one.svm = cfg.svm.clone();
            one.svm.gammas.len() * one.svm.cs.len()
        }
        "tree" => {
            one.tree = cfg.tree.clone();
            one.tree.max_depths.len() * one.tree.min_leafs.len()
        }
        "forest" => {
            one.forest = cfg.forest.clone();
            one.forest.sizes.len()
        }
        "mlp" => {
            one.mlp = cfg.mlp.clone();
            one.mlp.hiddens.len() * one.mlp.lrs.len()
        }
        other => panic!("unknown family {other}"),
    };
    (cells > 0).then_some(one)
}

/// Cells a sweep scored.
pub fn cells(r: &SweepReport) -> usize {
    r.svm_cells.len()
        + r.nn_cells.len()
        + r.tree_cells.len()
        + r.forest_cells.len()
        + r.mlp_cells.len()
}

/// The traced sweep split, as spans: one family-only sweep per family
/// `cfg` sweeps, and a sweep with every grid empty, which is the
/// distance pass alone (dense or streaming, as `sweep` chooses).
pub fn sweep_split(tr: &Tracer, data: &Dataset, groups: &[usize], cfg: &SweepConfig) {
    for (family, span) in FAMILY_SPANS {
        if let Some(one) = only_family(cfg, family) {
            tr.span(span, None, None, |_| sweep(data, groups, &one));
        }
    }
    tr.span("ml.distance", None, None, |_| {
        sweep(data, groups, &empty_grids())
    });
}
