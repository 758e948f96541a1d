//! The `serve-mixed` workload: a real `loopml-serve` child process on
//! stdin/stdout, answering a seeded closed-loop stream from one client.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use loopml::{
    benchmark_groups, dataset_fingerprint, extract, informative_features, label_suite,
    model_fingerprint, to_dataset, LabelConfig, LearnedHeuristic, ModelArtifact,
};
use loopml_corpus::full_suite;
use loopml_ir::Loop;
use loopml_machine::SwpMode;
use loopml_ml::{logo_accuracy, Dataset, MulticlassSvm, SvmParams};
use loopml_rt::json::Json;
use loopml_rt::Rng;
use loopml_serve::{Request, Response, ServeModel};

use crate::checks::{self, Checks};
use crate::common::{
    corpus_loops, full_config, quick_config, repeat_setup, Ctx, DRAW_STREAM, QUICK_MAX_LOOPS,
};
use crate::report::{metric, peak_rss_mb, Outcome};
use crate::stats::{mean, median, percentile, samples_beyond, tail_supported};
use crate::trace::Tracer;

/// Rows per request.
pub const BATCH: usize = 16;

/// Requests in one pass of the stream; `run_s` is the median pass time.
const PASS: usize = 256;

/// In-process passes of a traced run, for the per-layer serve timings.
const IN_PROCESS_PASSES: usize = 4;

/// Features taken from each selector (top-k mutual information ∪ first
/// k greedy picks), as in `train-quick`.
const SELECT_K: usize = 5;

/// What a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whole loops: the daemon decodes them and extracts features.
    Loops,
    /// Raw 38-feature vectors: no feature extraction.
    Features,
}

/// One drawn request: its kind and the pool indices of its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    /// Loops or feature vectors.
    pub kind: Kind,
    /// Indices into the loop pool, [`BATCH`] of them.
    pub rows: Vec<usize>,
}

/// The seeded request stream over a pool of `pool` loops: three of every
/// four requests carry whole loops, the fourth raw feature vectors.
pub fn draw_stream(pool: usize, seed: u64, count: usize) -> Vec<Draw> {
    let mut rng = Rng::seed_from_u64(seed ^ DRAW_STREAM);
    (0..count)
        .map(|k| Draw {
            kind: if k % 4 == 3 {
                Kind::Features
            } else {
                Kind::Loops
            },
            rows: (0..BATCH).map(|_| rng.gen_range(0..pool)).collect(),
        })
        .collect()
}

/// The request line for `draw`, with id `id`.
fn request_line(draw: &Draw, pool: &[Loop], id: u64) -> String {
    let id = Json::Num(id as f64);
    let req = match draw.kind {
        Kind::Loops => Request::Loops {
            id,
            loops: draw.rows.iter().map(|&i| pool[i].clone()).collect(),
        },
        Kind::Features => Request::Features {
            id,
            rows: draw.rows.iter().map(|&i| extract(&pool[i])).collect(),
        },
    };
    req.to_json().to_string()
}

/// A running daemon and the client's ends of its pipes. Dropping it
/// kills and reaps the process.
struct Daemon {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stats_path: PathBuf,
    line: String,
}

impl Daemon {
    fn spawn(bin: &Path, artifact: &Path, stats_path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_file(&stats_path);
        let mut child = Command::new(bin)
            .arg("--artifact")
            .arg(artifact)
            .arg("--stats-out")
            .arg(&stats_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = BufWriter::new(child.stdin.take().expect("piped stdin"));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
            stats_path,
            line: String::new(),
        })
    }

    /// One round trip: writes `request`, returns the response line.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.stdin
            .write_all(request.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to daemon: {e}"))?;
        self.line.clear();
        match self.stdout.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed its stdout".into()),
            Ok(_) => Ok(&self.line),
            Err(e) => Err(format!("read from daemon: {e}")),
        }
    }

    fn ping(&mut self) -> Result<(), String> {
        let reply = self.call("{\"control\":\"ping\"}")?;
        if reply.contains("\"pong\"") {
            Ok(())
        } else {
            Err(format!("ping answered {reply:?}"))
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Drains the daemon, waits for it, and returns its stats document.
    fn shutdown(mut self) -> Result<Json, String> {
        self.call("{\"control\":\"shutdown\"}")?;
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let text = std::fs::read_to_string(&self.stats_path)
            .map_err(|e| format!("read {}: {e}", self.stats_path.display()))?;
        Json::parse(&text)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already reaped after a clean shutdown; these then fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What set-up leaves behind.
struct Setup {
    model: ServeModel,
    /// Training set (the informative subset) and its groups.
    data: Dataset,
    groups: Vec<usize>,
    labels_fp: u64,
    labeled: Vec<loopml::LabeledLoop>,
    /// Full-scale loops no quick corpus contains.
    pool: Vec<Loop>,
    corpus_loops: usize,
    daemon: Daemon,
}

/// Corpus synthesis, training the SVM artifact on the quick corpus, and
/// daemon start until its first `ping` answer.
fn setup(ctx: &Ctx, bin: &Path, rep: usize) -> Result<Setup, String> {
    let tr = &ctx.tracer;
    let quick = tr.span("corpus.synth", None, None, |_| {
        full_suite(&quick_config(ctx.seed))
    });
    let labeled = label_suite(&quick, &LabelConfig::paper(SwpMode::Disabled));
    let full = to_dataset(&labeled);
    let groups = benchmark_groups(&labeled);
    let cols = informative_features(&full, SELECT_K);
    let data = full.select_features(&cols);
    let h = LearnedHeuristic::fit(
        "SVM",
        Some(cols.clone()),
        Box::new(MulticlassSvm::new(SvmParams::default())),
        &data,
    );
    let state = h.classifier().save();
    let labels_fp = dataset_fingerprint(&full);
    let fp = model_fingerprint(labels_fp, Some(&cols), &state);
    let artifact = ModelArtifact::new("SVM", Some(cols), fp, state);
    let path = ctx.work.join("svm.json");
    artifact
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let big = tr.span("corpus.synth", None, None, |_| {
        full_suite(&full_config(ctx.seed, 1))
    });
    let pool: Vec<Loop> = big
        .iter()
        .flat_map(|b| b.loops.iter().skip(QUICK_MAX_LOOPS).map(|w| w.body.clone()))
        .collect();

    let mut daemon = Daemon::spawn(bin, &path, ctx.work.join(format!("stats-{rep}.json")))?;
    daemon.ping()?;
    Ok(Setup {
        model: ServeModel::from_artifact(artifact)?,
        data,
        groups,
        labels_fp,
        labeled,
        pool,
        corpus_loops: corpus_loops(&big),
        daemon,
    })
}

/// One pass of the stream through the daemon: per-request round trips
/// in milliseconds, the pass seconds, and the response lines.
fn pass(
    daemon: &mut Daemon,
    lines: &[String],
    tr: &Tracer,
    base_id: u64,
) -> Result<(Vec<f64>, f64, Vec<String>), String> {
    let mut rtt = Vec::with_capacity(lines.len());
    let mut responses = Vec::with_capacity(lines.len());
    let start = Instant::now();
    tr.span("serve.pass", None, None, |id| {
        for (k, line) in lines.iter().enumerate() {
            let t = Instant::now();
            let reply = tr.span("serve.request", id, Some(base_id + k as u64), |_| {
                daemon.call(line).map(str::to_owned)
            })?;
            rtt.push(t.elapsed().as_secs_f64() * 1e3);
            responses.push(reply);
        }
        Ok::<(), String>(())
    })?;
    Ok((rtt, start.elapsed().as_secs_f64(), responses))
}

/// Runs `serve-mixed`.
pub fn run(ctx: &Ctx, bin: &Path) -> Result<Outcome, String> {
    // Replaced set-ups drop their daemon, which kills and reaps it.
    let (kept, setup_times) = repeat_setup(|rep| setup(ctx, bin, rep))?;
    let Setup {
        model,
        data,
        groups,
        labels_fp,
        labeled,
        pool,
        corpus_loops,
        mut daemon,
    } = kept;

    // The stream and its in-process answers, outside the clock.
    let draws = draw_stream(pool.len(), ctx.seed, PASS);
    let lines: Vec<String> = draws
        .iter()
        .enumerate()
        .map(|(k, d)| request_line(d, &pool, k as u64))
        .collect();
    let expected: Vec<Vec<u32>> = lines
        .iter()
        .map(|l| answer_in_process(&model, l))
        .collect::<Result<_, _>>()?;

    let mut out = Outcome {
        corpus_loops,
        labeled_loops: labeled.len(),
        ..Outcome::default()
    };
    checks::labels(&mut out.checks, &labeled);

    // Measured passes. When tracing, every other pass records a span per
    // request, so traced and untraced passes see the same conditions.
    let off = Tracer::new(false);
    let tr = &ctx.tracer;
    let (mut rtt, mut pass_s, mut traced_rtt, mut traced_pass_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds || !tail_supported(rtt.len(), 99.0) {
        let traced = tr.is_on() && n % 2 == 1;
        let (r, secs, responses) = pass(
            &mut daemon,
            &lines,
            if traced { tr } else { &off },
            n * PASS as u64,
        )?;
        for (k, (line, want)) in responses.iter().zip(&expected).enumerate() {
            checks::response(&mut out.checks, line, k as u64, want);
        }
        if traced {
            traced_rtt.extend(r);
            traced_pass_s.push(secs);
        } else {
            rtt.extend(r);
            pass_s.push(secs);
        }
        n += 1;
    }
    let transport_us = if tr.is_on() {
        paired_replay(
            tr,
            &mut daemon,
            &model,
            &lines,
            &pool,
            &draws,
            &mut out.checks,
            &expected,
        )?
    } else {
        Vec::new()
    };
    let served = rtt.len() + traced_rtt.len() + transport_us.len();
    let rss = peak_rss_mb(&daemon.pid())?;
    let stats = daemon.shutdown()?;
    let stat = |key: &str| stats.get(key).and_then(Json::as_num).unwrap_or(-1.0);
    out.checks.record(stat("served") == served as f64, || {
        format!(
            "daemon counted {} requests, client sent {served}",
            stat("served")
        )
    });

    let accuracy = logo_accuracy(&data, &groups, &MulticlassSvm::new(SvmParams::default()));
    out.fingerprints = vec![
        ("labels".into(), format!("{labels_fp:#018x}")),
        ("model".into(), model.fingerprint_hex()),
        ("winner".into(), format!("svm logo={accuracy}")),
    ];
    let total_s: f64 = pass_s.iter().sum();
    out.end_to_end = vec![
        metric("setup_s", median(&setup_times), "s", setup_times.len()),
        metric("run_s", median(&pass_s), "s", pass_s.len()),
        metric("peak_rss_mb", rss, "MiB", 1),
        metric("logo_accuracy", accuracy, "fraction", 1),
    ];
    out.extra = vec![
        metric("serve_p50_ms", percentile(&rtt, 50.0), "ms", rtt.len()),
        metric("serve_p99_ms", percentile(&rtt, 99.0), "ms", rtt.len()),
        metric(
            "serve_p99_beyond",
            samples_beyond(rtt.len(), 99.0) as f64,
            "count",
            rtt.len(),
        ),
        metric(
            "serve_rows_per_s",
            (rtt.len() * BATCH) as f64 / total_s,
            "rows/s",
            rtt.len(),
        ),
    ];
    if tr.is_on() {
        out.per_layer = vec![
            metric(
                "serve.transport_us",
                mean(&transport_us),
                "us",
                transport_us.len(),
            ),
            metric("serve.requests", stat("served"), "count", 1),
            metric("serve.errors", stat("errors"), "count", 1),
            metric("serve.retries", stat("retries"), "count", 1),
            metric(
                "trace.overhead_ratio",
                median(&traced_pass_s) / median(&pass_s),
                "ratio",
                traced_pass_s.len(),
            ),
        ];
    }
    Ok(out)
}

/// The daemon's answer to one request line, computed in-process along
/// the same path: parse, decode, predict.
fn answer_in_process(model: &ServeModel, line: &str) -> Result<Vec<u32>, String> {
    match Request::from_json(&Json::parse(line)?)? {
        Request::Loops { loops, .. } => Ok(model.choose_loops(&loops)),
        Request::Features { rows, .. } => model.predict_rows(&rows),
    }
}

/// [`IN_PROCESS_PASSES`] paired passes over the stream. Each request
/// goes to the daemon once, then through the same layers in-process with
/// a span per layer call: decode (`Json::parse` + `Request::from_json`),
/// feature extraction per loop, `choose_loops`/`predict_rows`, and
/// encode (`Response::to_json`). The daemon's stats document carries no
/// per-request time, so each request's transport time is its round trip
/// minus its in-process decode + predict + encode time; those are
/// returned, in microseconds.
#[allow(clippy::too_many_arguments)]
fn paired_replay(
    tr: &Tracer,
    daemon: &mut Daemon,
    model: &ServeModel,
    lines: &[String],
    pool: &[Loop],
    draws: &[Draw],
    c: &mut Checks,
    expected: &[Vec<u32>],
) -> Result<Vec<f64>, String> {
    let mut transport_us = Vec::with_capacity(IN_PROCESS_PASSES * lines.len());
    for n in 0..IN_PROCESS_PASSES {
        for (k, (line, draw)) in lines.iter().zip(draws).enumerate() {
            let t = Instant::now();
            let reply = daemon.call(line)?;
            let rtt_us = t.elapsed().as_secs_f64() * 1e6;
            checks::response(c, reply, k as u64, &expected[k]);
            let rid = Some((n * PASS + k) as u64);
            let t = Instant::now();
            let factors = tr.span("serve.inprocess", None, rid, |id| {
                let req = tr.span("serve.decode", id, rid, |_| {
                    Json::parse(line).and_then(|doc| Request::from_json(&doc))
                });
                let factors = match req {
                    Ok(Request::Loops { loops, .. }) => {
                        tr.span("serve.predict_loops", id, rid, |_| {
                            Ok(model.choose_loops(&loops))
                        })
                    }
                    Ok(Request::Features { rows, .. }) => {
                        tr.span("serve.predict_rows", id, rid, |_| model.predict_rows(&rows))
                    }
                    Err(e) => Err(e),
                };
                let response = Response::Factors {
                    id: Json::Num(k as f64),
                    factors: factors.clone().unwrap_or_default(),
                };
                tr.span("serve.encode", id, rid, |_| response.to_json().to_string());
                factors
            });
            transport_us.push(rtt_us - t.elapsed().as_secs_f64() * 1e6);
            c.record(factors.as_ref() == Ok(&expected[k]), || {
                format!("in-process replay of request {k} diverged")
            });
            // Feature extraction on its own, outside the request span: the
            // daemon does it inside `choose_loops`.
            if draw.kind == Kind::Loops {
                for &i in &draw.rows {
                    tr.span("core.features", None, rid, |_| extract(&pool[i]));
                }
            }
        }
    }
    Ok(transport_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed() {
        let a = draw_stream(5000, 7, 64);
        assert_eq!(a, draw_stream(5000, 7, 64));
        assert_ne!(a, draw_stream(5000, 8, 64));
        assert!(a
            .iter()
            .all(|d| d.rows.len() == BATCH && d.rows.iter().all(|&i| i < 5000)));
        let features = a.iter().filter(|d| d.kind == Kind::Features).count();
        assert_eq!(features, 16, "one request in four carries feature vectors");
    }
}
