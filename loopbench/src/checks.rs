//! Output checks. Every check is one attempted operation; a failed check
//! is a failed operation, so a wrong answer shows in `failed_share`
//! instead of passing silently.

use loopml::{LabeledLoop, MAX_UNROLL};
use loopml_ml::SweepReport;
use loopml_rt::json::Json;
use loopml_serve::Response;

/// First failures kept verbatim for the report.
const KEEP_MESSAGES: usize = 8;

/// Tally of attempted and failed operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; `describe` runs only when it failed.
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(describe());
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Every kept label is the argmin of its eight runtimes, and every
/// runtime is finite and positive. One operation per labeled loop.
pub fn labels(checks: &mut Checks, labeled: &[LabeledLoop]) {
    for l in labeled {
        let finite = l.runtimes.iter().all(|r| r.is_finite() && *r > 0.0);
        let argmin =
            l.label < MAX_UNROLL as usize && l.runtimes.iter().all(|&r| l.runtimes[l.label] <= r);
        checks.record(finite && argmin, || {
            format!(
                "label of {} is factor {} but runtimes are {:?}",
                l.name,
                l.label + 1,
                l.runtimes
            )
        });
    }
}

/// The sweep built its distances once, and its winner's accuracy is the
/// best accuracy of any cell it scored.
pub fn sweep(checks: &mut Checks, r: &SweepReport) {
    checks.record(r.distance_builds == 1, || {
        format!("sweep made {} distance builds, not 1", r.distance_builds)
    });
    let best = r
        .svm_cells
        .iter()
        .map(|c| c.accuracy)
        .chain(r.nn_cells.iter().map(|c| c.accuracy))
        .chain(r.tree_cells.iter().map(|c| c.accuracy))
        .chain(r.forest_cells.iter().map(|c| c.accuracy))
        .chain(r.mlp_cells.iter().map(|c| c.accuracy))
        .fold(f64::NEG_INFINITY, f64::max);
    checks.record(r.winner_accuracy == best, || {
        format!(
            "winner {} scored {} but the best cell scored {best}",
            r.winner_family, r.winner_accuracy
        )
    });
}

/// Two prediction vectors agree element for element. One operation per
/// element.
pub fn same_predictions(checks: &mut Checks, what: &str, got: &[usize], want: &[usize]) {
    checks.record(got.len() == want.len(), || {
        format!(
            "{what}: {} predictions for {} inputs",
            got.len(),
            want.len()
        )
    });
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        checks.record(g == w, || {
            format!("{what}: input {i} predicted {g}, expected {w}")
        });
    }
}

/// One daemon response line: it must parse, echo the request id, carry
/// no error, and equal the in-process answer. One operation per response.
pub fn response(checks: &mut Checks, line: &str, id: u64, want: &[u32]) {
    let verdict = Json::parse(line.trim_end())
        .and_then(|doc| Response::from_json(&doc))
        .and_then(|r| match r {
            Response::Factors {
                id: got_id,
                factors,
            } => {
                if got_id.as_num() != Some(id as f64) {
                    Err(format!("answer to request {id} carries id {got_id}"))
                } else if factors != want {
                    Err(format!(
                        "request {id}: factors {factors:?}, in-process {want:?}"
                    ))
                } else {
                    Ok(())
                }
            }
            Response::Error { message, .. } => Err(format!("request {id}: error {message}")),
        });
    checks.record(verdict.is_ok(), || verdict.unwrap_err());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_and_wrong_factors_count_as_failed() {
        let mut c = Checks::default();
        response(&mut c, "{\"id\":1,\"factors\":[2,8]}\n", 1, &[2, 8]);
        response(&mut c, "{\"id\":2,\"factors\":[2,7]}", 2, &[2, 8]);
        response(
            &mut c,
            "{\"code\":\"decode\",\"error\":\"bad\",\"id\":3}",
            3,
            &[1],
        );
        response(&mut c, "{\"id\":9,\"factors\":[1]}", 4, &[1]);
        response(&mut c, "not json", 5, &[1]);
        assert_eq!(c.attempted, 5);
        assert_eq!(c.failed, 4);
        assert_eq!(c.failed_share(), 0.8);
        assert!(c.messages[0].contains("request 2"), "{:?}", c.messages);
    }

    fn labeled(label: usize, runtimes: [f64; 8]) -> LabeledLoop {
        LabeledLoop {
            name: "b/loop000".into(),
            benchmark: 0,
            features: vec![0.0; 38],
            label,
            runtimes,
        }
    }

    #[test]
    fn labels_must_be_the_argmin_of_finite_positive_runtimes() {
        let mut c = Checks::default();
        let rt = [9.0, 8.0, 7.0, 3.0, 5.0, 6.0, 7.0, 8.0];
        labels(&mut c, &[labeled(3, rt)]);
        assert_eq!((c.attempted, c.failed), (1, 0));
        labels(&mut c, &[labeled(2, rt)]);
        let mut bad = rt;
        bad[0] = f64::NAN;
        labels(&mut c, &[labeled(3, bad)]);
        bad[0] = -1.0;
        labels(&mut c, &[labeled(0, bad)]);
        labels(&mut c, &[labeled(8, rt)]);
        assert_eq!((c.attempted, c.failed), (5, 4));
    }

    #[test]
    fn prediction_mismatches_are_counted_per_input() {
        let mut c = Checks::default();
        same_predictions(&mut c, "artifact", &[1, 2, 3], &[1, 0, 3]);
        assert_eq!((c.attempted, c.failed), (4, 1));
        same_predictions(&mut c, "artifact", &[1], &[1, 2]);
        assert_eq!(c.failed, 2);
    }
}
