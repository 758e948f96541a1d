//! `loopbench` — runs one workload of the loopml benchmark and prints
//! its metrics. The workloads, and which layer each one stresses, are
//! described in `WORKLOADS.md` beside this package.
//!
//! ```text
//! loopbench --workload <train-quick|label-x4-swp|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--daemon <loopml-serve>] [--work <dir>]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run, and
//! the spans are written to `<work>/trace-<workload>-seed<n>.json`.
//! Exit codes: 0 ran (the result line says whether outputs were
//! correct), 1 could not run, 2 usage error.

mod batch;
mod checks;
mod common;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Ctx;
use report::{metric, metric_lines, result_line, Manifest, Outcome};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["train-quick", "label-x4-swp", "serve-mixed"];

/// End-to-end metrics (tracing off), in `BENCHMARK.json` order.
const END_TO_END: [&str; 4] = ["setup_s", "run_s", "peak_rss_mb", "logo_accuracy"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: Option<PathBuf>,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut work = PathBuf::from("loopbench/target/work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon,
        work,
    })
}

fn run(args: &Args) -> Result<(Manifest, Outcome), String> {
    let env = report::loopml_env();
    report::check_env(&env)?;
    // Artifacts and daemon documents go to a directory of this process
    // alone, removed at the end; the trace stays beside it.
    let scratch = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        threads: loopml_rt::num_threads(),
        work: scratch.clone(),
        tracer: Tracer::new(args.trace),
    };
    let manifest = Manifest {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: ctx.threads,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        env,
    };
    let outcome = match args.workload.as_str() {
        "train-quick" => batch::run(&ctx, batch::Batch::Train),
        "label-x4-swp" => batch::run(&ctx, batch::Batch::Label),
        _ => args
            .daemon
            .as_deref()
            .ok_or_else(|| "serve-mixed needs --daemon <path to loopml-serve>".to_string())
            .and_then(|bin| serve::run(&ctx, bin)),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = outcome?;
    let names: Vec<&str> = out.end_to_end.iter().map(|m| m.name).collect();
    assert_eq!(
        names, END_TO_END,
        "every workload reports every end-to-end metric"
    );
    if args.trace {
        let spans = ctx.tracer.spans();
        out.per_layer = layers::per_layer(&out.per_layer, &out, &spans);
        let path = args
            .work
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let doc = loopml_rt::Json::obj([
            ("manifest", manifest.to_json(&out)),
            ("spans", trace::to_json(&spans)),
        ]);
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace {} ({} spans)", path.display(), spans.len());
        print!("{}", span_table(&spans));
    }
    Ok((manifest, out))
}

/// Per-name span totals with self time, largest self time first.
fn span_table(spans: &[trace::Span]) -> String {
    let mut rows: Vec<_> = trace::totals(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let mut s = format!(
        "{:<26} {:>7} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in rows {
        s += &format!(
            "{:<26} {:>7} {:>12.6} {:>12.6}\n",
            name,
            t.count,
            t.total_us / 1e6,
            t.self_us / 1e6
        );
    }
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (manifest, out) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("manifest {}", manifest.to_json(&out));
    for (k, v) in &out.fingerprints {
        println!("fingerprint {k}={v}");
    }
    for m in &out.checks.messages {
        println!("check-failed {m}");
    }
    let failed_share = metric(
        "failed_share",
        out.checks.failed_share(),
        "fraction",
        out.checks.attempted as usize,
    );
    print!("{}", metric_lines("metric", &out.end_to_end));
    print!("{}", metric_lines("metric", &out.extra));
    print!("{}", metric_lines("metric", &[failed_share]));
    let reported = if args.trace {
        print!("{}", metric_lines("layer", &out.per_layer));
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{}", result_line(&out.checks, reported));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_rt::Json;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, in the same order.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names("per_layer"), per_layer);
        assert_eq!(names("workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_unknown_workloads_are_refused() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 3 --seconds 9 --trace 1",
        ))
        .expect("parses");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 9, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload train-quick --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train-quick --seed 1 --trace 0")).is_err());
    }
}
