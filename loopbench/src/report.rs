//! Metrics, the run manifest, and the result line.

use loopml_rt::json::{escape, Json};

use crate::checks::Checks;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics the driver gates (tracing off), in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end metrics printed beside the gated
    /// ones (serve latency percentiles, throughput).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Corpus loops the workload synthesized.
    pub corpus_loops: usize,
    /// Loops that survived labeling.
    pub labeled_loops: usize,
    /// Identity lines (`labels=0x…`, `winner=…`) for diffing commits.
    pub fingerprints: Vec<(String, String)>,
}

/// `LOOPML_*` knobs that change what the program computes or how it
/// allocates; a run with any of them set does not describe the
/// benchmark's workload.
pub const FORBIDDEN_ENV: [&str; 3] = ["LOOPML_TILE_BYTES", "LOOPML_LINT", "LOOPML_FAULTS"];

/// Every `LOOPML_*` variable in the environment, sorted.
pub fn loopml_env() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("LOOPML_"))
        .collect();
    v.sort();
    v
}

/// Refuses environments that would change the measured work.
pub fn check_env(env: &[(String, String)]) -> Result<(), String> {
    let set: Vec<&str> = env
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| FORBIDDEN_ENV.contains(k))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

/// Identity of one run: two results are comparable only when their
/// manifests agree on everything but the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether spans were recorded.
    pub trace: bool,
    /// Worker threads the runtime uses.
    pub threads: usize,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Effective `LOOPML_*` environment.
    pub env: Vec<(String, String)>,
}

impl Manifest {
    /// The manifest with the corpus and labeled sizes of `out`.
    pub fn to_json(&self, out: &Outcome) -> Json {
        Json::obj([
            ("schema", Json::Str("loopbench/manifest/v1".into())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("threads", Json::Num(self.threads as f64)),
            ("cores", Json::Num(self.cores as f64)),
            (
                "env",
                Json::Obj(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("corpus_loops", Json::Num(out.corpus_loops as f64)),
            ("labeled_loops", Json::Num(out.labeled_loops as f64)),
        ])
    }
}

/// Formats a value with all its digits; non-finite values become 0 so
/// the line stays valid JSON (and the run is marked incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of standard output: what the driver reads.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                escape(m.name),
                num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0 && finite,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    )
}

/// Human-readable metric lines.
pub fn metric_lines(kind: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{kind} {:<28} {:>16} {:<8} n={}\n",
                m.name,
                num(m.value),
                m.unit,
                m.samples
            )
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let mut c = Checks::default();
        c.record(true, String::new);
        c.record(false, || "x".into());
        let line = result_line(&c, &[metric("run_s", 1.25, "s", 3)]);
        let doc = Json::parse(&line).expect("valid JSON");
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(1.0));
        let m = doc.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_num), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn forbidden_knobs_are_refused() {
        let env = vec![
            ("LOOPML_THREADS".to_string(), "2".to_string()),
            ("LOOPML_FAULTS".to_string(), "1:0.1".to_string()),
        ];
        let err = check_env(&env).unwrap_err();
        assert!(err.contains("LOOPML_FAULTS"), "{err}");
        assert!(check_env(&env[..1]).is_ok());
    }
}
