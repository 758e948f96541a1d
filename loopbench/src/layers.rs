//! The per-layer metric table: each metric's unit and where its value
//! comes from — read off the spans, or reported by the workload.

use crate::report::{metric, Metric, Outcome};
use crate::stats::median;
use crate::trace::{totals, NameTotals, Span};

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Total seconds of the named spans.
    Seconds(&'static str),
    /// Mean microseconds per named span.
    PerCall(&'static str),
    /// Number of named spans.
    Calls(&'static str),
    /// Median seconds of the named spans.
    Median(&'static str),
    /// Longest named span, in seconds.
    Max(&'static str),
    /// The whole sweep's seconds minus the family-only sweeps'.
    SweepResidual,
    /// Reported by the workload (or by every run, for `corpus.loops` and
    /// `run.*`).
    Measured,
}

use Source::*;

/// Family-only sweep spans, in the sweep's tie-break order.
pub const FAMILY_SPANS: [(&str, &str); 5] = [
    ("nn", "ml.sweep.nn"),
    ("svm", "ml.sweep.svm"),
    ("tree", "ml.sweep.tree"),
    ("forest", "ml.sweep.forest"),
    ("mlp", "ml.sweep.mlp"),
];

/// Per-layer metrics (tracing on), in `BENCHMARK.json` order. A layer a
/// workload does not use reads 0.
pub const PER_LAYER: [(&str, &str, Source); 44] = [
    ("corpus.synth_s", "s", Median("corpus.synth")),
    ("corpus.loops", "count", Measured),
    ("core.label_s", "s", Seconds("core.label")),
    ("core.label_loops", "count", Measured),
    ("core.label_kept_ratio", "ratio", Measured),
    (
        "core.label_bench_p50_s",
        "s",
        Median("core.label.benchmark"),
    ),
    ("core.label_bench_max_s", "s", Max("core.label.benchmark")),
    ("opt.unroll_calls", "count", Calls("opt.unroll")),
    ("opt.unroll_us", "us", PerCall("opt.unroll")),
    ("machine.cost_calls", "count", Calls("machine.cost")),
    ("machine.cost_us", "us", PerCall("machine.cost")),
    ("machine.pipelined_ratio", "ratio", Measured),
    ("machine.spilled", "count", Measured),
    ("ml.mi_s", "s", Seconds("ml.mi")),
    ("ml.greedy_s", "s", Seconds("ml.greedy")),
    ("ml.distance_s", "s", Seconds("ml.distance")),
    ("ml.distance_builds", "count", Measured),
    ("ml.peak_distance_bytes", "bytes", Measured),
    ("ml.peak_kernel_bytes", "bytes", Measured),
    ("ml.sweep_s", "s", Seconds("ml.sweep")),
    ("ml.sweep.nn_s", "s", Seconds("ml.sweep.nn")),
    ("ml.sweep.svm_s", "s", Seconds("ml.sweep.svm")),
    ("ml.sweep.tree_s", "s", Seconds("ml.sweep.tree")),
    ("ml.sweep.forest_s", "s", Seconds("ml.sweep.forest")),
    ("ml.sweep.mlp_s", "s", Seconds("ml.sweep.mlp")),
    ("ml.sweep.residual_s", "s", SweepResidual),
    ("ml.sweep.cells", "count", Measured),
    ("ml.fit_s", "s", Seconds("ml.fit")),
    ("core.artifact_save_s", "s", Seconds("core.artifact_save")),
    ("core.artifact_load_s", "s", Seconds("core.artifact_load")),
    ("core.artifact_bytes", "bytes", Measured),
    ("core.features_us", "us", PerCall("core.features")),
    ("serve.decode_us", "us", PerCall("serve.decode")),
    (
        "serve.predict_loops_us",
        "us",
        PerCall("serve.predict_loops"),
    ),
    ("serve.predict_rows_us", "us", PerCall("serve.predict_rows")),
    ("serve.encode_us", "us", PerCall("serve.encode")),
    ("serve.transport_us", "us", Measured),
    ("serve.requests", "count", Measured),
    ("serve.errors", "count", Measured),
    ("serve.retries", "count", Measured),
    ("trace.overhead_ratio", "ratio", Measured),
    ("run.attempted", "count", Measured),
    ("run.failed", "count", Measured),
    ("run.failed_share", "fraction", Measured),
];

/// Every per-layer metric in table order: span-derived ones from
/// `spans`, the rest from `measured` and the run's own counts.
pub fn per_layer(measured: &[Metric], out: &Outcome, spans: &[Span]) -> Vec<Metric> {
    let t = totals(spans);
    let none = NameTotals::default();
    let get = |span: &str| t.get(span).unwrap_or(&none);
    let secs = |span: &str| get(span).total_us / 1e6;
    let shared = [
        metric("corpus.loops", out.corpus_loops as f64, "count", 1),
        metric("run.attempted", out.checks.attempted as f64, "count", 1),
        metric("run.failed", out.checks.failed as f64, "count", 1),
        metric(
            "run.failed_share",
            out.checks.failed_share(),
            "fraction",
            out.checks.attempted as usize,
        ),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let (value, n) = match source {
                Seconds(span) => (secs(span), get(span).count),
                PerCall(span) => (
                    get(span).total_us / get(span).count.max(1) as f64,
                    get(span).count,
                ),
                Calls(span) => (get(span).count as f64, 1),
                Median(span) => (median(&get(span).durations_us) / 1e6, get(span).count),
                Max(span) => (get(span).max_us / 1e6, get(span).count),
                SweepResidual => (
                    secs("ml.sweep") - FAMILY_SPANS.iter().map(|(_, s)| secs(s)).sum::<f64>(),
                    1,
                ),
                Measured => {
                    return measured
                        .iter()
                        .chain(&shared)
                        .find(|m| m.name == name)
                        .cloned()
                        .unwrap_or_else(|| metric(name, 0.0, unit, 0))
                }
            };
            metric(name, value, unit, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent: None,
            name,
            request: None,
            start_us,
            end_us,
        }
    }

    #[test]
    fn span_metrics_and_measured_values_fill_the_table() {
        let spans = [
            span(0, "ml.sweep", 0.0, 10e6),
            span(1, "ml.sweep.svm", 10e6, 14e6),
            span(2, "ml.sweep.mlp", 14e6, 19e6),
            span(3, "opt.unroll", 0.0, 10.0),
            span(4, "opt.unroll", 0.0, 30.0),
        ];
        let measured = [metric("ml.sweep.cells", 26.0, "count", 1)];
        let m = per_layer(&measured, &Outcome::default(), &spans);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(get("ml.sweep_s"), 10.0);
        assert_eq!(get("ml.sweep.residual_s"), 1.0);
        assert_eq!(get("opt.unroll_calls"), 2.0);
        assert_eq!(get("opt.unroll_us"), 20.0);
        assert_eq!(get("ml.sweep.cells"), 26.0);
        assert_eq!(get("serve.decode_us"), 0.0);
    }
}
