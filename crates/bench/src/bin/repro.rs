//! `repro` — regenerate the paper's tables and figures, and drive the
//! measurement subcommands, behind one uniform CLI surface.
//!
//! ```text
//! repro [--quick] [target...]        render reports (default: all)
//! repro lint [--stats]               legality-prover corpus scan + gates
//! repro perf [--smoke]               timed pipeline stages -> BENCH_ml.json
//! repro perf-check <cur> <base>      fail on >2x stage regressions
//! repro sweep [--smoke|--quick]      LOGO hyperparameter sweep -> SWEEP_ml.json
//! repro label [--smoke] [...]        fault-tolerant labeling -> LABEL_ml.json
//! repro label-merge <shard.json>...  merge disjoint label shards byte-identically
//! repro label-supervise <N> [...]    self-healing N-process labeling work queue
//! repro label-diff <clean> <chaos>   chaos run may cost coverage, not accuracy
//! repro train [--model KIND]         emit the versioned model artifact
//!                                    (nn, svm, orc, tree, forest, mlp)
//! repro serve-bench [--artifact F]   replay batches, verify, report p50/p95/p99
//! repro serve-stats-check <F>        validate a loopml/serve-stats/v1 drain doc
//! repro help                         generated overview
//! ```
//!
//! Every subcommand accepts `--quick`, `--smoke`, `--corpus-scale S`,
//! `--threads N` and `--help` with identical meaning (see [`loopml_bench::cli`]), and
//! exits 0 on success, 1 when the work failed, 2 on a usage error.
//! Report targets: `all`, `table1`..`table4`, `fig1`..`fig5`, `lint`
//! (reachable as `repro --lint` or `repro report lint`; the bare
//! `repro lint` is the prover scan above), `ablate-norm`,
//! `ablate-radius`, `ablate-features`, `ablate-filter`.

use std::path::PathBuf;
use std::time::Instant;

use loopml::FEATURE_NAMES;
use loopml_bench::cli::{self, FlagSpec, Parsed, Spec, EXIT_FAIL, EXIT_OK, EXIT_USAGE};
use loopml_bench::{
    experiments, labelrun, lintrun, perf, report, serverun, supervise, sweeprun, Context, Scale,
};
use loopml_machine::SwpMode;
use loopml_rt::Json;

/// Max allowed wall-time ratio per stage in `perf-check`.
const REGRESSION_FACTOR: f64 = 2.0;

/// Report targets accepted by the default subcommand, in `all` order.
const ALL_TARGETS: [&str; 14] = [
    "lint",
    "table1",
    "fig3",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "ablate-norm",
    "ablate-radius",
    "ablate-features",
    "ablate-filter",
];

const REPORT_SPEC: Spec = Spec {
    name: "report",
    summary: "render the paper's tables, figures and ablations (default subcommand)",
    positionals: "[target...]",
    flags: &[FlagSpec {
        flag: "--lint",
        value: None,
        help: "add the lint target",
    }],
};

const LINT_SPEC: Spec = Spec {
    name: "lint",
    summary: "legality-prover corpus scan: coverage stats and the disagreement gate",
    positionals: "",
    flags: &[FlagSpec {
        flag: "--stats",
        value: None,
        help: "print the machine-readable stats block to stdout",
    }],
};

const PERF_SPEC: Spec = Spec {
    name: "perf",
    summary: "time each pipeline stage and write BENCH_ml.json",
    positionals: "",
    flags: &[],
};

const PERF_CHECK_SPEC: Spec = Spec {
    name: "perf-check",
    summary: "validate a perf report and fail on >2x stage regressions",
    positionals: "<current.json> <baseline.json>",
    flags: &[],
};

const SWEEP_SPEC: Spec = Spec {
    name: "sweep",
    summary: "LOGO hyperparameter sweep over one distance matrix -> SWEEP_ml.json",
    positionals: "",
    flags: &[],
};

const LABEL_SPEC: Spec = Spec {
    name: "label",
    summary: "fault-tolerant labeling with retries, quarantine and checkpoints",
    positionals: "",
    flags: &[
        FlagSpec {
            flag: "--resume",
            value: None,
            help: "reuse valid checkpoints (requires --ckpt-dir)",
        },
        FlagSpec {
            flag: "--out",
            value: Some("FILE"),
            help: "labels output path (default LABEL_ml.json)",
        },
        FlagSpec {
            flag: "--degradation",
            value: Some("FILE"),
            help: "degradation report path (default LABEL_degradation.json)",
        },
        FlagSpec {
            flag: "--ckpt-dir",
            value: Some("DIR"),
            help: "checkpoint directory",
        },
        FlagSpec {
            flag: "--retries",
            value: Some("N"),
            help: "retry budget override",
        },
        FlagSpec {
            flag: "--shard",
            value: Some("i/N"),
            help: "label only benchmarks with index % N == i (multi-process work queue)",
        },
    ],
};

const LABEL_MERGE_SPEC: Spec = Spec {
    name: "label-merge",
    summary: "merge a complete set of disjoint label shards into the single-process file",
    positionals: "<shard.json>...",
    flags: &[
        FlagSpec {
            flag: "--out",
            value: Some("FILE"),
            help: "merged labels path (default LABEL_ml.json)",
        },
        FlagSpec {
            flag: "--degradation",
            value: Some("FILE"),
            help: "also write the merged degradation report here",
        },
    ],
};

const LABEL_SUPERVISE_SPEC: Spec = Spec {
    name: "label-supervise",
    summary: "self-healing labeling queue: N shard processes, heartbeats, bounded restarts",
    positionals: "<N>",
    flags: &[
        FlagSpec {
            flag: "--dir",
            value: Some("DIR"),
            help: "shard outputs + checkpoint directory (default LABEL_shards)",
        },
        FlagSpec {
            flag: "--out",
            value: Some("FILE"),
            help: "merged labels path (default LABEL_ml.json)",
        },
        FlagSpec {
            flag: "--degradation",
            value: Some("FILE"),
            help: "merged degradation report path (default LABEL_degradation.json)",
        },
        FlagSpec {
            flag: "--max-restarts",
            value: Some("N"),
            help: "per-shard restart budget (default 2)",
        },
        FlagSpec {
            flag: "--stall-ms",
            value: Some("MS"),
            help: "heartbeat stall timeout (default 120000)",
        },
        FlagSpec {
            flag: "--chaos-kill",
            value: Some("i:K"),
            help: "test hook: kill shard i once it has K checkpoint(s)",
        },
        FlagSpec {
            flag: "--retries",
            value: Some("N"),
            help: "labeling retry budget passed through to shards",
        },
    ],
};

const LABEL_DIFF_SPEC: Spec = Spec {
    name: "label-diff",
    summary: "verify a chaos labeling run cost coverage, never accuracy",
    positionals: "<clean.json> <chaos.json>",
    flags: &[FlagSpec {
        flag: "--expect-quarantine",
        value: None,
        help: "require the chaos run to have quarantined something",
    }],
};

const TRAIN_SPEC: Spec = Spec {
    name: "train",
    summary: "train one model and write the versioned artifact loopml-serve loads",
    positionals: "",
    flags: &[
        FlagSpec {
            flag: "--model",
            value: Some("KIND"),
            help: "nn, svm, orc, tree, forest, or mlp (default nn)",
        },
        FlagSpec {
            flag: "--tune",
            value: None,
            help: "LOGO-sweep hyperparameters before training",
        },
        FlagSpec {
            flag: "--out",
            value: Some("FILE"),
            help: "artifact path (default MODEL_ml.json)",
        },
    ],
};

const SERVE_BENCH_SPEC: Spec = Spec {
    name: "serve-bench",
    summary: "replay batches through the serving loop, verify bit-identity, report latency",
    positionals: "",
    flags: &[
        FlagSpec {
            flag: "--artifact",
            value: Some("FILE"),
            help: "artifact to load (default MODEL_ml.json)",
        },
        FlagSpec {
            flag: "--batch",
            value: Some("N"),
            help: "loops per batch (default 32)",
        },
        FlagSpec {
            flag: "--dump-requests",
            value: Some("FILE"),
            help: "write the replayed line-protocol requests",
        },
        FlagSpec {
            flag: "--dump-responses",
            value: Some("FILE"),
            help: "write the served line-protocol responses",
        },
    ],
};

const SERVE_STATS_CHECK_SPEC: Spec = Spec {
    name: "serve-stats-check",
    summary: "validate a loopml/serve-stats/v1 drain document written by loopml-serve",
    positionals: "<stats.json>",
    flags: &[
        FlagSpec {
            flag: "--require-faults",
            value: None,
            help: "fail unless at least one injected fault was recorded",
        },
        FlagSpec {
            flag: "--require-drained",
            value: None,
            help: "fail unless the daemon exited via graceful drain",
        },
    ],
};

const SPECS: [Spec; 12] = [
    REPORT_SPEC,
    LINT_SPEC,
    PERF_SPEC,
    PERF_CHECK_SPEC,
    SWEEP_SPEC,
    LABEL_SPEC,
    LABEL_MERGE_SPEC,
    LABEL_SUPERVISE_SPEC,
    LABEL_DIFF_SPEC,
    TRAIN_SPEC,
    SERVE_BENCH_SPEC,
    SERVE_STATS_CHECK_SPEC,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") => {
            print!("{}", cli::overview(&SPECS));
            EXIT_OK
        }
        Some("lint") => dispatch(&LINT_SPEC, &args[1..], cmd_lint),
        Some("perf") => dispatch(&PERF_SPEC, &args[1..], cmd_perf),
        Some("perf-check") => dispatch(&PERF_CHECK_SPEC, &args[1..], cmd_perf_check),
        Some("sweep") => dispatch(&SWEEP_SPEC, &args[1..], cmd_sweep),
        Some("label") => dispatch(&LABEL_SPEC, &args[1..], cmd_label),
        Some("label-merge") => dispatch(&LABEL_MERGE_SPEC, &args[1..], cmd_label_merge),
        Some("label-supervise") => dispatch(&LABEL_SUPERVISE_SPEC, &args[1..], cmd_label_supervise),
        Some("label-diff") => dispatch(&LABEL_DIFF_SPEC, &args[1..], cmd_label_diff),
        Some("train") => dispatch(&TRAIN_SPEC, &args[1..], cmd_train),
        Some("serve-bench") => dispatch(&SERVE_BENCH_SPEC, &args[1..], cmd_serve_bench),
        Some("serve-stats-check") => {
            dispatch(&SERVE_STATS_CHECK_SPEC, &args[1..], cmd_serve_stats_check)
        }
        // Anything else is the default report subcommand: bare targets
        // (`repro --quick table2`) keep working, no arguments means all.
        Some("report") => dispatch(&REPORT_SPEC, &args[1..], cmd_report),
        _ => dispatch(&REPORT_SPEC, args, cmd_report),
    }
}

/// Parses against `spec`, handles `--help`/`--threads`, and routes
/// usage errors to the uniform exit code.
fn dispatch(spec: &Spec, args: &[String], cmd: fn(&Parsed) -> i32) -> i32 {
    let parsed = match cli::parse(spec, args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("repro {}: {e}", spec.name);
            eprintln!("run `repro {} --help` for usage", spec.name);
            return EXIT_USAGE;
        }
    };
    if parsed.help {
        print!("{}", spec.help());
        return EXIT_OK;
    }
    parsed.apply_threads();
    cmd(&parsed)
}

fn cmd_lint(p: &Parsed) -> i32 {
    let scan = lintrun::run_lint(p.scale, p.smoke.then_some(8), p.corpus_scale);
    if p.has("--stats") {
        println!("{}", scan.to_json());
    }
    let s = &scan.stats;
    eprintln!(
        "[lint] {} benchmark(s), {} loop(s) ({} indirect), {} (loop, factor) pair(s): \
         {} proven, {} refuted, {} unknown; coverage {:.1}%, {} cross-checked, \
         {} disagreement(s), {} oracle run(s)",
        scan.benchmarks,
        scan.loops,
        scan.indirect_loops,
        s.total(),
        s.proven,
        s.refuted,
        s.total() - s.resolved(),
        s.coverage() * 100.0,
        s.cross_checked,
        s.disagreements,
        s.oracle_runs,
    );
    match scan.gate() {
        Ok(()) => {
            eprintln!("[lint] gate ok");
            EXIT_OK
        }
        Err(e) => {
            eprintln!("[lint] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_perf(p: &Parsed) -> i32 {
    let report = perf::run(p.scale, p.corpus_scale);
    let json = report.to_json();
    std::fs::write("BENCH_ml.json", format!("{json}\n")).expect("write BENCH_ml.json");
    println!("{json}");
    eprintln!(
        "[perf] wrote BENCH_ml.json ({} stages, greedy speedup {:.1}x)",
        report.stages.len(),
        report.greedy_speedup
    );
    EXIT_OK
}

fn cmd_perf_check(p: &Parsed) -> i32 {
    let [current, baseline] = &p.positionals[..] else {
        eprintln!("usage: repro perf-check <current.json> <baseline.json>");
        return EXIT_USAGE;
    };
    let read_json = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let checked = read_json(current).and_then(|cur| {
        read_json(baseline).and_then(|base| perf::check_regressions(&cur, &base, REGRESSION_FACTOR))
    });
    match checked {
        Ok(()) => {
            eprintln!("[perf-check] ok");
            EXIT_OK
        }
        Err(e) => {
            eprintln!("[perf-check] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_sweep(p: &Parsed) -> i32 {
    let run = sweeprun::run_sweep_scaled(p.scale, p.corpus_scale);
    let json = run.to_json();
    std::fs::write("SWEEP_ml.json", format!("{json}\n")).expect("write SWEEP_ml.json");
    println!("{json}");
    if run.report.distance_builds != 1 {
        eprintln!(
            "[sweep] FAIL: {} distance-matrix builds, expected exactly 1",
            run.report.distance_builds
        );
        return EXIT_FAIL;
    }
    // The cross-family winner is only meaningful as a comparison: at
    // least two families must actually have been scored.
    if run.families_scored() < 2 {
        eprintln!(
            "[sweep] FAIL: only {} model family scored; the cross-family winner needs >= 2",
            run.families_scored()
        );
        return EXIT_FAIL;
    }
    eprintln!(
        "[sweep] wrote SWEEP_ml.json (1 distance build, {} families scored, winner {})",
        run.families_scored(),
        run.report.winner_family
    );
    EXIT_OK
}

fn cmd_label(p: &Parsed) -> i32 {
    let retries = match p.option("--retries").map(str::parse).transpose() {
        Ok(r) => r,
        Err(_) => {
            eprintln!("repro label: bad --retries value");
            return EXIT_USAGE;
        }
    };
    let shard = match p.option("--shard").map(loopml::Shard::parse).transpose() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro label: {e}");
            return EXIT_USAGE;
        }
    };
    let defaults = labelrun::LabelArgs::default();
    let a = labelrun::LabelArgs {
        scale: p.scale,
        take: p.smoke.then_some(8),
        resume: p.has("--resume"),
        retries,
        corpus_scale: p.corpus_scale,
        shard,
        out: p.option("--out").map(PathBuf::from).unwrap_or(defaults.out),
        degradation: p
            .option("--degradation")
            .map(PathBuf::from)
            .unwrap_or(defaults.degradation),
        ckpt_dir: p.option("--ckpt-dir").map(PathBuf::from),
    };
    if a.resume && a.ckpt_dir.is_none() {
        eprintln!("repro label: --resume requires --ckpt-dir");
        return EXIT_USAGE;
    }
    match labelrun::run_label(&a) {
        Ok(0) => EXIT_OK,
        Ok(denies) => {
            eprintln!("[label] FAIL: {denies} deny diagnostic(s)");
            EXIT_FAIL
        }
        Err(e) => {
            eprintln!("[label] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_label_merge(p: &Parsed) -> i32 {
    if p.positionals.is_empty() {
        eprintln!("usage: repro label-merge <shard.json>... [--out FILE] [--degradation FILE]");
        return EXIT_USAGE;
    }
    let out = PathBuf::from(p.option("--out").unwrap_or("LABEL_ml.json"));
    let degradation = p.option("--degradation").map(PathBuf::from);
    match labelrun::run_label_merge(&p.positionals, &out, degradation.as_deref()) {
        Ok(()) => EXIT_OK,
        // An overlapping, duplicated, or incomplete shard set is a
        // malformed invocation; corrupt shard *data* is a failed run.
        Err(e @ labelrun::MergeError::Spec(_)) => {
            eprintln!("[label-merge] FAIL: {e}");
            EXIT_USAGE
        }
        Err(e @ labelrun::MergeError::Data(_)) => {
            eprintln!("[label-merge] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_label_supervise(p: &Parsed) -> i32 {
    let [count] = &p.positionals[..] else {
        eprintln!("usage: repro label-supervise <N> [options]");
        return EXIT_USAGE;
    };
    let Ok(count) = count.parse::<usize>() else {
        eprintln!("repro label-supervise: bad shard count {count:?}");
        return EXIT_USAGE;
    };
    if count == 0 {
        eprintln!("repro label-supervise: shard count must be at least 1");
        return EXIT_USAGE;
    }
    let parse_num = |flag: &str| -> Result<Option<u64>, i32> {
        match p.option(flag).map(str::parse).transpose() {
            Ok(v) => Ok(v),
            Err(_) => {
                eprintln!("repro label-supervise: bad {flag} value");
                Err(EXIT_USAGE)
            }
        }
    };
    let (max_restarts, stall_ms, retries) = match (
        parse_num("--max-restarts"),
        parse_num("--stall-ms"),
        parse_num("--retries"),
    ) {
        (Ok(m), Ok(s), Ok(r)) => (m, s, r),
        _ => return EXIT_USAGE,
    };
    let chaos_kill = match p.option("--chaos-kill").map(supervise::parse_chaos_kill) {
        Some(Ok(spec)) => Some(spec),
        Some(Err(e)) => {
            eprintln!("repro label-supervise: {e}");
            return EXIT_USAGE;
        }
        None => None,
    };
    let defaults = supervise::SuperviseArgs::default();
    let a = supervise::SuperviseArgs {
        count,
        dir: p.option("--dir").map(PathBuf::from).unwrap_or(defaults.dir),
        out: p.option("--out").map(PathBuf::from).unwrap_or(defaults.out),
        degradation: p
            .option("--degradation")
            .map(PathBuf::from)
            .unwrap_or(defaults.degradation),
        max_restarts: max_restarts.map_or(defaults.max_restarts, |m| m as usize),
        stall_ms: stall_ms.unwrap_or(defaults.stall_ms),
        chaos_kill,
        retries: retries.map(|r| r as u32),
        scale: p.scale,
        smoke: p.smoke,
        corpus_scale: p.corpus_scale,
    };
    match supervise::run_label_supervise(&a) {
        Ok(_) => EXIT_OK,
        Err(e) => {
            eprintln!("[label-supervise] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_serve_stats_check(p: &Parsed) -> i32 {
    let [path] = &p.positionals[..] else {
        eprintln!(
            "usage: repro serve-stats-check <stats.json> [--require-faults] [--require-drained]"
        );
        return EXIT_USAGE;
    };
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("parse {path}: {e}")))
        .and_then(|doc| {
            loopml_serve::validate_serve_stats(&doc)?;
            let faults: f64 = match doc.get("faults") {
                // fold, not sum: Sum<f64> yields -0.0 for an empty map.
                Some(Json::Obj(m)) => m.values().filter_map(Json::as_num).fold(0.0, |a, b| a + b),
                _ => 0.0,
            };
            if p.has("--require-faults") && faults == 0.0 {
                return Err("no injected faults recorded (fault plane inactive?)".into());
            }
            if p.has("--require-drained") && doc.get("drained") != Some(&Json::Bool(true)) {
                return Err("daemon did not exit via graceful drain".into());
            }
            let n = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0);
            eprintln!(
                "[serve-stats-check] ok: {} request(s), {} error(s), {} retrie(s), \
                 {} fault(s), {} control(s)",
                n("served"),
                n("errors"),
                n("retries"),
                faults,
                n("controls"),
            );
            Ok(())
        });
    match checked {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[serve-stats-check] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_label_diff(p: &Parsed) -> i32 {
    let [clean, chaos] = &p.positionals[..] else {
        eprintln!("usage: repro label-diff <clean.json> <chaos.json> [--expect-quarantine]");
        return EXIT_USAGE;
    };
    match labelrun::run_label_diff(clean, chaos, p.has("--expect-quarantine")) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[label-diff] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_train(p: &Parsed) -> i32 {
    match serverun::run_train(&serverun::TrainArgs::from_parsed(p)) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[train] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_serve_bench(p: &Parsed) -> i32 {
    let args = match serverun::ServeBenchArgs::from_parsed(p) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro serve-bench: {e}");
            return EXIT_USAGE;
        }
    };
    match serverun::run_serve_bench(&args) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("[serve-bench] FAIL: {e}");
            EXIT_FAIL
        }
    }
}

fn cmd_report(p: &Parsed) -> i32 {
    let mut targets: Vec<&str> = p.positionals.iter().map(String::as_str).collect();
    if p.has("--lint") && !targets.contains(&"lint") {
        targets.push("lint");
    }
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        ALL_TARGETS.to_vec()
    } else {
        targets
    };
    if let Some(bad) = targets
        .iter()
        .find(|t| !ALL_TARGETS.contains(t) && **t != "all")
    {
        eprintln!("repro report: unknown target: {bad}");
        eprintln!("targets: all {}", ALL_TARGETS.join(" "));
        return EXIT_USAGE;
    }
    render_reports(&targets, p.scale, p.corpus_scale);
    EXIT_OK
}

fn render_reports(targets: &[&str], scale: Scale, corpus_scale: usize) {
    let needs_swp_off = targets.iter().any(|t| *t != "fig5");
    let needs_swp_on = targets.contains(&"fig5");

    let t0 = Instant::now();
    let ctx_off = needs_swp_off.then(|| {
        eprintln!("[repro] building SWP-off context ({scale:?})...");
        Context::build_scaled(scale, SwpMode::Disabled, corpus_scale)
    });
    let ctx_on = needs_swp_on.then(|| {
        eprintln!("[repro] building SWP-on context ({scale:?})...");
        Context::build_scaled(scale, SwpMode::Enabled, corpus_scale)
    });
    if let Some(c) = &ctx_off {
        eprintln!(
            "[repro] corpus: {} benchmarks, {} labeled loops, {} informative features ({:.1?})",
            c.suite.len(),
            c.len(),
            c.dataset.dims(),
            t0.elapsed()
        );
    }

    for target in targets {
        let t = Instant::now();
        match *target {
            "lint" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let mut r = loopml_lint::Report::with_env_suppressions();
                for b in &ctx.suite {
                    r.merge(loopml_lint::verify_benchmark(b));
                }
                r.merge(loopml_lint::lint_dataset(
                    &ctx.full_dataset,
                    Some(&ctx.groups),
                ));
                println!("{}", r.to_json());
                eprintln!(
                    "[repro] lint: {} deny, {} warning across {} benchmarks and {} examples",
                    r.deny_count(),
                    r.warning_count(),
                    ctx.suite.len(),
                    ctx.len()
                );
            }
            "table1" => {
                println!(
                    "Table 1. Features used for loop classification ({} total)",
                    FEATURE_NAMES.len()
                );
                for (i, name) in FEATURE_NAMES.iter().enumerate() {
                    println!("  {:>2}. {}", i + 1, name);
                }
            }
            "table2" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!("{}", report::render_table2(&experiments::table2(ctx)));
            }
            "table3" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!("{}", report::render_table3(&experiments::table3(ctx), 5));
            }
            "table4" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let (nn, svm) = experiments::table4(ctx, 5);
                println!("{}", report::render_table4(&nn, &svm));
            }
            "fig1" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let pts = experiments::fig1(ctx);
                println!(
                    "{}",
                    report::render_scatter(
                        "Figure 1. Near neighbor data on the LDA plane",
                        &pts,
                        100,
                        30
                    )
                );
            }
            "fig2" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let (pts, grid) = experiments::fig2(ctx, 40);
                println!(
                    "{}",
                    report::render_scatter(
                        "Figure 2. SVM binary classification on the LDA plane",
                        &pts,
                        100,
                        30
                    )
                );
                if !grid.is_empty() {
                    println!("decision regions (U = unroll, . = keep rolled):");
                    for row in grid.iter().rev() {
                        let line: String = row.iter().map(|&b| if b { 'U' } else { '.' }).collect();
                        println!("  {line}");
                    }
                }
            }
            "fig3" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!("{}", report::render_fig3(&experiments::fig3(ctx)));
            }
            "fig4" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                let f = experiments::speedup_figure(ctx);
                println!(
                    "{}",
                    report::render_speedups(
                        "Figure 4. SPEC 2000 improvement over ORC, SWP disabled",
                        &f
                    )
                );
            }
            "fig5" => {
                let ctx = ctx_on.as_ref().expect("ctx");
                let f = experiments::speedup_figure(ctx);
                println!(
                    "{}",
                    report::render_speedups(
                        "Figure 5. SPEC 2000 improvement over ORC, SWP enabled",
                        &f
                    )
                );
            }
            "ablate-norm" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: feature normalization",
                        &experiments::ablate_normalization(ctx)
                    )
                );
            }
            "ablate-radius" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: radius vote vs 1-NN",
                        &experiments::ablate_radius(ctx)
                    )
                );
            }
            "ablate-features" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: informative subset vs all 38 features",
                        &experiments::ablate_features(ctx)
                    )
                );
            }
            "ablate-filter" => {
                let ctx = ctx_off.as_ref().expect("ctx");
                println!(
                    "{}",
                    report::render_ablation(
                        "Ablation: label filtering",
                        &experiments::ablate_filter(ctx)
                    )
                );
            }
            other => unreachable!("target {other} validated in cmd_report"),
        }
        eprintln!("[repro] {target} done in {:.1?}", t.elapsed());
    }
}
