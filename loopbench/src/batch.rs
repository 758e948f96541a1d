//! The batch workloads: `train-quick` (the offline user training a
//! predictor) and `label-x4-swp` (labeling a 4× full-scale corpus under
//! the modulo scheduler, then the streaming NN sweep).

use std::path::Path;

use loopml::{
    benchmark_groups, dataset_fingerprint, model_fingerprint, to_dataset, LabelConfig, LabeledLoop,
    LearnedHeuristic, ModelArtifact,
};
use loopml_ir::Benchmark;
use loopml_machine::SwpMode;
use loopml_ml::{
    greedy_forward_nn, mutual_information, peak_distance_bytes, peak_kernel_bytes,
    reset_distance_bytes, reset_kernel_bytes, sweep, BaggedForest, Classifier, Dataset,
    DecisionTree, Mlp, MulticlassSvm, NearNeighbors, SweepConfig, SweepReport,
};

use crate::checks::{self, Checks};
use crate::common::{
    cells, corpus_loops, empty_grids, full_config, iterate, label, label_candidates, layer_sample,
    quick_config, sweep_split, synth_repeated, timed, Ctx,
};
use crate::report::{metric, peak_rss_mb, Metric, Outcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Features taken from each selector (top-k mutual information ∪ first
/// k greedy picks), the paper's §7 informative subset.
const SELECT_K: usize = 5;

/// Corpus multiplier of `label-x4-swp`.
const X4_SCALE: usize = 4;

/// What a batch pass runs on.
struct Spec {
    suite: Vec<Benchmark>,
    label: LabelConfig,
    sweep: SweepConfig,
    threads: usize,
}

/// What one pass of a batch pipeline produced.
struct Pass {
    labeled: Vec<LabeledLoop>,
    /// Dataset the sweep ran on.
    data: Dataset,
    groups: Vec<usize>,
    report: SweepReport,
    peak_distance: u64,
    peak_kernel: u64,
    /// Present when the pass trained and reloaded a model.
    model: Option<Trained>,
}

/// The trained winner and what its reloaded artifact predicted.
struct Trained {
    in_memory: LearnedHeuristic,
    loaded: Result<Vec<usize>, String>,
    artifact_bytes: u64,
}

/// The sweep, with the distance and kernel byte counters scoped to it.
fn scoped_sweep(
    tr: &Tracer,
    root: Option<SpanId>,
    data: &Dataset,
    groups: &[usize],
    cfg: &SweepConfig,
) -> (SweepReport, u64, u64) {
    reset_distance_bytes();
    reset_kernel_bytes();
    let report = tr.span("ml.sweep", root, None, |_| sweep(data, groups, cfg));
    (report, peak_distance_bytes(), peak_kernel_bytes())
}

/// The classifier the sweep crowned, with its selected hyperparameters.
fn winner(r: &SweepReport) -> (&'static str, Box<dyn Classifier>) {
    match r.winner_family.as_str() {
        "svm" => ("SVM", Box::new(MulticlassSvm::new(r.selected_svm))),
        "tree" => ("Tree", Box::new(DecisionTree::new(r.selected_tree))),
        "forest" => ("Forest", Box::new(BaggedForest::new(r.selected_forest))),
        "mlp" => ("MLP", Box::new(Mlp::new(r.selected_mlp))),
        _ => ("NN", Box::new(NearNeighbors::new(r.selected_radius))),
    }
}

/// corpus → label → MI + greedy → sweep → fit the winner → artifact
/// save, load and predict.
fn train_pass(tr: &Tracer, root: Option<SpanId>, spec: &Spec, artifact_path: &Path) -> Pass {
    let labeled = label(tr, root, &spec.suite, &spec.label, spec.threads);
    let full = to_dataset(&labeled);
    let groups = benchmark_groups(&labeled);
    let mis = tr.span("ml.mi", root, None, |_| mutual_information(&full));
    let greedy = tr.span("ml.greedy", root, None, |_| {
        greedy_forward_nn(&full, SELECT_K)
    });
    let mut cols: Vec<usize> = mis.iter().take(SELECT_K).map(|s| s.index).collect();
    for step in &greedy {
        if !cols.contains(&step.index) {
            cols.push(step.index);
        }
    }
    cols.sort_unstable();
    let data = full.select_features(&cols);
    let (report, peak_distance, peak_kernel) = scoped_sweep(tr, root, &data, &groups, &spec.sweep);

    let (name, clf) = winner(&report);
    let in_memory = tr.span("ml.fit", root, None, |_| {
        LearnedHeuristic::fit(name, Some(cols.clone()), clf, &data)
    });
    let state = in_memory.classifier().save();
    let fp = model_fingerprint(dataset_fingerprint(&full), Some(&cols), &state);
    let artifact = ModelArtifact::new(name, Some(cols), fp, state);
    let saved = tr.span("core.artifact_save", root, None, |_| {
        artifact.write(artifact_path)
    });
    let loaded = saved
        .map_err(|e| format!("write {}: {e}", artifact_path.display()))
        .and_then(|()| {
            tr.span("core.artifact_load", root, None, |_| {
                ModelArtifact::read(artifact_path)?.to_heuristic()
            })
        })
        .map(|h| {
            tr.span("core.predict", root, None, |_| {
                h.classifier().predict_batch(&data.x)
            })
        });
    let artifact_bytes = std::fs::metadata(artifact_path).map_or(0, |m| m.len());
    Pass {
        labeled,
        data,
        groups,
        report,
        peak_distance,
        peak_kernel,
        model: Some(Trained {
            in_memory,
            loaded,
            artifact_bytes,
        }),
    }
}

/// The NN-radius-only sweep of `label-x4-swp`.
fn nn_only() -> SweepConfig {
    SweepConfig {
        radii: SweepConfig::default().radii,
        ..empty_grids()
    }
}

/// corpus → label (modulo scheduler) → NN-radius-only sweep over all
/// 38 features.
fn label_pass(tr: &Tracer, root: Option<SpanId>, spec: &Spec) -> Pass {
    let labeled = label(tr, root, &spec.suite, &spec.label, spec.threads);
    let data = to_dataset(&labeled);
    let groups = benchmark_groups(&labeled);
    let (report, peak_distance, peak_kernel) = scoped_sweep(tr, root, &data, &groups, &spec.sweep);
    Pass {
        labeled,
        data,
        groups,
        report,
        peak_distance,
        peak_kernel,
        model: None,
    }
}

/// Labeled count, labels fingerprint, winner and winner accuracy.
type Identity = (usize, u64, String, f64);

/// The [`Identity`] of a pass.
fn identity(p: &Pass) -> Identity {
    (
        p.labeled.len(),
        dataset_fingerprint(&to_dataset(&p.labeled)),
        p.report.winner_family.clone(),
        p.report.winner_accuracy,
    )
}

/// Every output check of one pass, plus agreement with the first pass.
fn check_pass(c: &mut Checks, p: &Pass, first: &mut Option<Identity>) {
    checks::labels(c, &p.labeled);
    checks::sweep(c, &p.report);
    if let Some(t) = &p.model {
        match &t.loaded {
            Ok(loaded) => {
                let want = t.in_memory.classifier().predict_batch(&p.data.x);
                checks::same_predictions(c, "reloaded artifact", loaded, &want);
            }
            Err(e) => c.record(false, || format!("artifact round trip: {e}")),
        }
    }
    let id = identity(p);
    match first {
        None => *first = Some(id),
        Some(f) => c.record(*f == id, || format!("pass diverged: {id:?} vs {f:?}")),
    }
}

/// Which batch workload to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Batch {
    /// `train-quick`.
    Train,
    /// `label-x4-swp`.
    Label,
}

/// Runs a batch workload.
pub fn run(ctx: &Ctx, which: Batch) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let (suite_cfg, swp, sweep_cfg) = match which {
        Batch::Train => (
            quick_config(ctx.seed),
            SwpMode::Disabled,
            SweepConfig::default(),
        ),
        Batch::Label => (full_config(ctx.seed, X4_SCALE), SwpMode::Enabled, nn_only()),
    };
    let (suite, setup_times) = synth_repeated(tr, &suite_cfg);
    let spec = Spec {
        suite,
        label: LabelConfig::paper(swp),
        sweep: sweep_cfg,
        threads: ctx.threads,
    };
    let artifact_path = ctx.work.join("winner.json");
    let pass = |t: &Tracer, root: Option<SpanId>| match which {
        Batch::Train => train_pass(t, root, &spec, &artifact_path),
        Batch::Label => label_pass(t, root, &spec),
    };

    let mut out = Outcome {
        corpus_loops: corpus_loops(&spec.suite),
        ..Outcome::default()
    };
    let mut first = None;
    let off = Tracer::new(false);
    // A traced run reports per-layer metrics only; one untraced pass is
    // enough for its overhead ratio.
    let budget = if tr.is_on() { 0.0 } else { ctx.seconds };
    let times = iterate(budget, || {
        let (p, secs) = timed(|| pass(&off, None));
        check_pass(&mut out.checks, &p, &mut first);
        secs
    });
    let (labeled, labels_fp, family, accuracy) = first.clone().expect("at least one pass");
    out.labeled_loops = labeled;
    out.fingerprints = vec![
        ("labels".into(), format!("{labels_fp:#018x}")),
        ("winner".into(), format!("{family} logo={accuracy}")),
    ];
    let run_s = median(&times);
    out.end_to_end = vec![
        metric("setup_s", median(&setup_times), "s", setup_times.len()),
        metric("run_s", run_s, "s", times.len()),
        metric("peak_rss_mb", peak_rss_mb("self")?, "MiB", 1),
        metric("logo_accuracy", accuracy, "fraction", 1),
    ];
    if tr.is_on() {
        out.per_layer = traced(ctx, &spec, run_s, &pass, &mut out.checks, &mut first);
    }
    Ok(out)
}

/// The traced pass plus the layer probes. Returns the per-layer metrics
/// not read off the spans.
fn traced(
    ctx: &Ctx,
    spec: &Spec,
    run_s: f64,
    pass: &dyn Fn(&Tracer, Option<SpanId>) -> Pass,
    c: &mut Checks,
    first: &mut Option<Identity>,
) -> Vec<Metric> {
    let tr = &ctx.tracer;
    let (p, traced_s) = timed(|| tr.span("workload.pass", None, None, |root| pass(tr, root)));
    // The traced pass makes the same calls, so it must agree too.
    check_pass(c, &p, first);
    sweep_split(tr, &p.data, &p.groups, &spec.sweep);
    let candidates = label_candidates(&spec.suite);
    let mut m = layer_sample(tr, &spec.suite, &spec.label, ctx.seed);
    m.extend([
        metric("core.label_loops", p.labeled.len() as f64, "count", 1),
        metric(
            "core.label_kept_ratio",
            p.labeled.len() as f64 / candidates.max(1) as f64,
            "ratio",
            candidates,
        ),
        metric(
            "ml.distance_builds",
            p.report.distance_builds as f64,
            "count",
            1,
        ),
        metric("ml.peak_distance_bytes", p.peak_distance as f64, "bytes", 1),
        metric("ml.peak_kernel_bytes", p.peak_kernel as f64, "bytes", 1),
        metric("ml.sweep.cells", cells(&p.report) as f64, "count", 1),
        metric(
            "core.artifact_bytes",
            p.model.as_ref().map_or(0, |t| t.artifact_bytes) as f64,
            "bytes",
            1,
        ),
        metric("trace.overhead_ratio", traced_s / run_s, "ratio", 1),
    ]);
    m
}
