//! The labeling pipeline: measuring every unroll factor for every loop
//! and deriving the training label (paper §4.4–§4.6).
//!
//! For each unrollable loop, the eight variants (factors 1..=8) are
//! compiled (unroll + scalar replacement + coalescing), costed on the
//! machine model, observed through the measurement-noise model (median of
//! N runs, as the paper's instrumentation does), and the fastest factor
//! becomes the label. Loops are filtered like the paper's: they must run
//! at least 50,000 cycles, and the best factor must beat the mean of all
//! factors by at least 1.05x.

use std::collections::BTreeMap;
use std::path::PathBuf;

use loopml_ir::{Benchmark, WeightedLoop};
use loopml_lint::{validate_pipeline, LintLevel};
use loopml_machine::{icache_entry_cost, loop_cost, LoopCost, MachineConfig, NoiseModel, SwpMode};
use loopml_opt::{unroll_and_optimize, OptConfig};
use loopml_rt::fault::site;
use loopml_rt::{fault_key, par_map, par_map_result, FaultPlane, Rng};

use crate::checkpoint::{config_fingerprint, read_checkpoint, write_checkpoint};
use crate::fault::{
    BenchmarkOutcome, DegradationReport, LabelError, QuarantineEntry, QuarantineScope,
};
use crate::features::extract;

/// Largest unroll factor measured (factors beyond eight did not compile
/// in the paper's infrastructure, and the classifier inherits the limit).
pub const MAX_UNROLL: u32 = 8;

/// Hot instruction footprint of a benchmark at its rolled configuration:
/// the loops themselves plus the surrounding non-loop code, estimated
/// from the benchmark's non-loop time share (branchy integer codes have
/// large instruction working sets; tight FP kernels small ones).
pub fn hot_footprint(b: &Benchmark) -> u64 {
    let loops: u64 = b.iter().map(|w| w.body.code_bytes()).sum();
    let base = 4096 + (b.non_loop_fraction * 48_000.0) as u64;
    loops + base
}

/// Configuration of the labeling run.
#[derive(Debug, Clone)]
pub struct LabelConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Post-unroll optimizations.
    pub opt: OptConfig,
    /// Software pipelining regime.
    pub swp: SwpMode,
    /// Measurement noise applied to each observation.
    pub noise: NoiseModel,
    /// Minimum observed cycles for a loop to be used (paper: 50,000).
    pub min_cycles: f64,
    /// Required best-vs-mean advantage (paper: 1.05).
    pub min_benefit: f64,
    /// Seed for the measurement-noise stream.
    pub seed: u64,
    /// Transform-validation level: every unrolled variant that
    /// contributes a runtime is checked against the original loop
    /// (structural invariants plus the differential-execution oracle)
    /// before its measurement is trusted. `Off` (the default) skips
    /// validation entirely; see [`loopml_lint`].
    pub lint: LintLevel,
}

impl LabelConfig {
    /// The paper's configuration for a given pipelining regime.
    pub fn paper(swp: SwpMode) -> Self {
        LabelConfig {
            machine: MachineConfig::itanium2(),
            opt: OptConfig::default(),
            swp,
            noise: NoiseModel::paper(),
            min_cycles: 50_000.0,
            min_benefit: 1.05,
            seed: 0x51EED,
            lint: LintLevel::from_env(),
        }
    }
}

/// One labeled training example.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledLoop {
    /// Loop name (`benchmark/loopNNN_family`).
    pub name: String,
    /// Index of the source benchmark within the labeled suite.
    pub benchmark: usize,
    /// The 38 static features.
    pub features: Vec<f64>,
    /// Best factor minus one (class in `0..8`).
    pub label: usize,
    /// Measured cycles at factors 1..=8.
    pub runtimes: [f64; MAX_UNROLL as usize],
}

impl LabeledLoop {
    /// The best unroll factor (1..=8).
    pub fn best_factor(&self) -> u32 {
        self.label as u32 + 1
    }

    /// Runtimes sorted ascending, with their factors.
    pub fn ranked_factors(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = (0..MAX_UNROLL)
            .map(|k| (k + 1, self.runtimes[k as usize]))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite runtimes"));
        v
    }

    /// Rank (0 = optimal) of the given factor among the measured
    /// runtimes.
    pub fn rank_of(&self, factor: u32) -> usize {
        self.ranked_factors()
            .iter()
            .position(|&(f, _)| f == factor)
            .expect("factor in 1..=8")
    }
}

/// The rolled (factor-1) variant of one loop, compiled and costed once
/// per labeling attempt: it is factor 1's own measurement and prices the
/// remainder loop of every other factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rolled {
    /// Machine-model cost of the rolled loop.
    pub cost: LoopCost,
    /// Dynamic trip count per entry of the rolled loop.
    pub trips: u64,
}

impl Rolled {
    /// Compiles and costs `w` at factor 1 under `cfg`.
    pub fn new(w: &WeightedLoop, cfg: &LabelConfig) -> Self {
        let rolled = unroll_and_optimize(&w.body, 1, &cfg.opt);
        Rolled {
            cost: loop_cost(&rolled, 0.0, &cfg.machine, cfg.swp),
            trips: rolled.body.trip_count.dynamic(),
        }
    }
}

/// Measures the *true* (noise-free) total cycles of one weighted loop at
/// one unroll factor, including instruction-cache entry effects under the
/// given hot-code footprint. `rolled` is the loop's [`Rolled`] baseline
/// under the same `cfg`.
pub fn true_cycles(
    w: &WeightedLoop,
    factor: u32,
    footprint: u64,
    rolled: &Rolled,
    cfg: &LabelConfig,
) -> f64 {
    if cfg.lint.is_enabled() {
        validate_pipeline(&w.body, factor, &cfg.opt).enforce(cfg.lint, &w.body.name);
    }
    let (cost, trips) = if factor == 1 {
        (rolled.cost, rolled.trips)
    } else {
        let u = unroll_and_optimize(&w.body, factor, &cfg.opt);
        let c = loop_cost(&u, rolled.cost.per_iter, &cfg.machine, cfg.swp);
        (c, u.body.trip_count.dynamic())
    };
    let icache = icache_entry_cost(cost.code_bytes, footprint, &cfg.machine);
    cost.total(trips, w.entries) + icache * w.entries as f64
}

/// Labels one loop: measures all eight factors through the noise model
/// and applies the paper's filters. Returns `None` when the loop is
/// dropped.
///
/// The noise stream is seeded from `(cfg.seed, benchmark_index,
/// loop_index)` alone, so every loop's measurements are independent of
/// which other loops are labeled — and of the order or thread they are
/// labeled on. That per-loop independence is what makes the parallel
/// labeling engine bit-identical to a serial pass.
pub fn label_loop(
    w: &WeightedLoop,
    loop_index: usize,
    benchmark_index: usize,
    footprint: u64,
    cfg: &LabelConfig,
) -> Option<LabeledLoop> {
    label_loop_attempt(
        w,
        loop_index,
        benchmark_index,
        footprint,
        cfg,
        &FaultPlane::disabled(),
        0,
    )
    .unwrap_or_else(|e| panic!("labeling {} failed: {e}", w.body.name))
}

/// The noise-stream seed for one labeling attempt. Attempt 0 uses the
/// legacy `(seed, benchmark, loop)` formula — a fault-free resilient run
/// is bit-identical to [`label_loop`] — and each retry derives a fresh,
/// deterministic seed so a transiently-faulted measurement is genuinely
/// re-measured, never silently reused.
pub fn attempt_seed(cfg_seed: u64, benchmark_index: usize, loop_index: usize, attempt: u32) -> u64 {
    let base = cfg_seed ^ (benchmark_index as u64) << 32 ^ loop_index as u64;
    if attempt == 0 {
        base
    } else {
        fault_key(&[base, u64::from(attempt)])
    }
}

/// One labeling attempt of one loop: [`label_loop`] with a structured
/// error path instead of hot-path panics. `Ok(None)` means the loop was
/// dropped by the paper's filters (not a failure); `Err` reports an
/// injected fault from `faults` (site [`site::LABEL_MEASURE`], keyed by
/// `(benchmark, loop, factor, attempt)`) or a non-finite measurement.
pub fn label_loop_attempt(
    w: &WeightedLoop,
    loop_index: usize,
    benchmark_index: usize,
    footprint: u64,
    cfg: &LabelConfig,
    faults: &FaultPlane,
    attempt: u32,
) -> Result<Option<LabeledLoop>, LabelError> {
    let mut rng = Rng::seed_from_u64(attempt_seed(cfg.seed, benchmark_index, loop_index, attempt));
    let rolled = Rolled::new(w, cfg);
    let mut runtimes = [0.0f64; MAX_UNROLL as usize];
    for f in 1..=MAX_UNROLL {
        faults
            .check(
                site::LABEL_MEASURE,
                fault_key(&[
                    benchmark_index as u64,
                    loop_index as u64,
                    u64::from(f),
                    u64::from(attempt),
                ]),
            )
            .map_err(|fault| LabelError::Injected {
                site: fault.site,
                attempt,
            })?;
        let truth = true_cycles(w, f, footprint, &rolled, cfg);
        let measured = cfg.noise.measure(truth, &mut rng);
        if !measured.is_finite() {
            return Err(LabelError::NonFinite { factor: f });
        }
        runtimes[(f - 1) as usize] = measured;
    }
    let (best_idx, &best) = runtimes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("eight runtimes");

    // Paper filters: enough cycles to measure, and a meaningful win.
    if best < cfg.min_cycles {
        return Ok(None);
    }
    let mean: f64 = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
    if mean / best < cfg.min_benefit {
        return Ok(None);
    }

    Ok(Some(LabeledLoop {
        name: w.body.name.clone(),
        benchmark: benchmark_index,
        features: extract(&w.body),
        label: best_idx,
        runtimes,
    }))
}

/// Labels every unrollable loop of a benchmark, applying the paper's
/// filters. `benchmark_index` is recorded in each example for the
/// leave-one-benchmark-out protocol.
///
/// Loops are measured in parallel across the machine's cores (see
/// [`loopml_rt::par_map`]; `LOOPML_THREADS` or a
/// [`loopml_rt::with_threads`] scope sets the count, and one worker is
/// the serial reference the equivalence tests compare against). The
/// result is bit-identical to a serial pass at any thread count because
/// each loop's noise stream is seeded independently — see [`label_loop`].
pub fn label_benchmark(
    b: &Benchmark,
    benchmark_index: usize,
    cfg: &LabelConfig,
) -> Vec<LabeledLoop> {
    // Hot-code footprint context: loops at rolled size + non-loop code.
    let footprint: u64 = hot_footprint(b);
    let pairs: Vec<(usize, &WeightedLoop)> = b.unrollable().collect();
    par_map(&pairs, |&(li, w)| {
        label_loop(w, li, benchmark_index, footprint, cfg)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Labels a whole suite, parallelizing across benchmarks (the
/// coarsest-grained work the labeling pipeline has). Nested inside each
/// worker, the per-benchmark loop labeling runs serially.
pub fn label_suite(suite: &[Benchmark], cfg: &LabelConfig) -> Vec<LabeledLoop> {
    let indexed: Vec<(usize, &Benchmark)> = suite.iter().enumerate().collect();
    par_map(&indexed, |&(bi, b)| label_benchmark(b, bi, cfg))
        .into_iter()
        .flatten()
        .collect()
}

/// Default per-loop retry budget of the resilient labeler: how many
/// *additional* attempts a transiently-faulted loop gets before it is
/// quarantined.
pub const DEFAULT_RETRY_BUDGET: u32 = 3;

/// Knobs of the fault-tolerant labeling path, independent of the
/// measurement configuration so the same [`LabelConfig`] describes both
/// a clean and a chaos run.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Fault-injection plane (disabled outside chaos testing).
    pub faults: FaultPlane,
    /// Additional attempts per loop before quarantining it.
    pub retry_budget: u32,
    /// Directory for per-benchmark checkpoint files; `None` disables
    /// checkpointing.
    pub ckpt_dir: Option<PathBuf>,
    /// Reuse valid checkpoints from `ckpt_dir` instead of relabeling.
    pub resume: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            faults: FaultPlane::env_or_disabled(),
            retry_budget: DEFAULT_RETRY_BUDGET,
            ckpt_dir: None,
            resume: false,
        }
    }
}

/// One shard of a multi-process labeling work queue: the process owns
/// exactly the benchmarks whose *global* suite index `bi` satisfies
/// `bi % count == index`. Because every measurement seed
/// ([`attempt_seed`]) and checkpoint filename is keyed by the global
/// index, a shard labels its benchmarks bit-identically to a
/// single-process run over the whole suite — merging disjoint shards
/// reproduces that run byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, in `0..count`.
    pub index: usize,
    /// Total number of shards the suite is split across.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `i/N` (e.g. `"0/3"`). Rejects `N == 0`,
    /// `i >= N`, and anything non-numeric — these are usage errors.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec {s:?}: expected i/N"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("bad shard index {i:?}: expected an integer"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("bad shard count {n:?}: expected an integer"))?;
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s)"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns the benchmark at global suite index `bi`.
    pub fn owns(&self, benchmark_index: usize) -> bool {
        benchmark_index % self.count == self.index
    }
}

/// The result of a fault-tolerant labeling run: the surviving corpus
/// plus the degradation accounting that says what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelRun {
    /// Labeled loops, in suite order (same order as [`label_suite`]).
    pub labeled: Vec<LabeledLoop>,
    /// Attempt index each labeled loop succeeded on, aligned with
    /// `labeled` (0 = clean first try; anything else was re-measured
    /// under a retry seed and may legitimately differ from a fault-free
    /// run — see `DESIGN.md` §9).
    pub attempts: Vec<u32>,
    /// What was retried, quarantined, and resumed.
    pub report: DegradationReport,
}

/// Outcome of labeling one loop under a retry budget: `Ok(Some(..))` is
/// the labeled loop with the attempt index it succeeded on (0 = clean
/// first try), `Ok(None)` means the paper's filters rejected the loop,
/// and `Err` carries the quarantine entry for an exhausted budget.
pub type LoopOutcome = Result<Option<(LabeledLoop, u32)>, QuarantineEntry>;

/// Labels one loop with retries: transient faults at
/// [`site::LABEL_MEASURE`] consume the retry budget (each retry
/// re-measures under a fresh deterministic seed — see [`attempt_seed`]);
/// exhaustion yields a [`QuarantineEntry`] instead of a panic. Returns
/// the [`LoopOutcome`] and the per-site count of faults absorbed along
/// the way.
pub fn label_loop_resilient(
    w: &WeightedLoop,
    loop_index: usize,
    benchmark_index: usize,
    footprint: u64,
    cfg: &LabelConfig,
    res: &ResilienceConfig,
) -> (LoopOutcome, BTreeMap<String, usize>) {
    let mut faults_seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut last: Option<LabelError> = None;
    for attempt in 0..=res.retry_budget {
        match label_loop_attempt(
            w,
            loop_index,
            benchmark_index,
            footprint,
            cfg,
            &res.faults,
            attempt,
        ) {
            Ok(l) => return (Ok(l.map(|l| (l, attempt))), faults_seen),
            Err(e) => {
                *faults_seen.entry(e.site_key().to_string()).or_insert(0) += 1;
                last = Some(e);
            }
        }
    }
    let last = last.expect("at least one attempt ran");
    let entry = QuarantineEntry {
        scope: QuarantineScope::Loop,
        benchmark: benchmark_index,
        name: w.body.name.clone(),
        reason: last.to_string(),
        site: last.site().map(str::to_string),
        attempts: res.retry_budget + 1,
    };
    (Err(entry), faults_seen)
}

/// Fault-tolerantly labels one benchmark. Loops that exhaust their retry
/// budget are quarantined, not fatal. The [`site::LABEL_LOOP`] injection
/// site (keyed by benchmark index) trips *here*, as a panic, modelling a
/// benchmark whose labeling process crashes outright — the suite-level
/// isolation in [`label_suite_resilient`] catches it and quarantines the
/// whole benchmark.
pub fn label_benchmark_resilient(
    b: &Benchmark,
    benchmark_index: usize,
    cfg: &LabelConfig,
    res: &ResilienceConfig,
) -> BenchmarkOutcome {
    res.faults.trip(site::LABEL_LOOP, benchmark_index as u64);
    let footprint = hot_footprint(b);
    let mut outcome = BenchmarkOutcome {
        benchmark: benchmark_index,
        name: b.name.clone(),
        labeled: Vec::new(),
        attempts: Vec::new(),
        quarantined: Vec::new(),
        fault_sites: BTreeMap::new(),
    };
    for (li, w) in b.unrollable() {
        let (result, seen) = label_loop_resilient(w, li, benchmark_index, footprint, cfg, res);
        for (k, v) in seen {
            *outcome.fault_sites.entry(k).or_insert(0) += v;
        }
        match result {
            Ok(Some((l, attempts))) => {
                outcome.labeled.push(l);
                outcome.attempts.push(attempts);
            }
            Ok(None) => {}
            Err(entry) => outcome.quarantined.push(entry),
        }
    }
    outcome
}

/// Fault-tolerantly labels a whole suite: benchmarks run in parallel
/// under panic isolation ([`loopml_rt::par_map_result`]), completed
/// benchmarks are checkpointed (when `res.ckpt_dir` is set), and
/// `res.resume` reuses valid checkpoints instead of relabeling. The
/// surviving labels come back in suite order, so a fault-free resilient
/// run is bit-identical to [`label_suite`] at any thread count.
pub fn label_suite_resilient(
    suite: &[Benchmark],
    cfg: &LabelConfig,
    res: &ResilienceConfig,
) -> LabelRun {
    label_suite_resilient_sharded(suite, cfg, res, None)
}

/// [`label_suite_resilient`] restricted to one [`Shard`] of the suite.
/// `suite` is always the **full** suite: the shard only selects which
/// benchmarks this process labels, while seeds, checkpoint filenames and
/// the `benchmark` index recorded in every label stay global — so the
/// shard's output is the exact sub-sequence a single-process run would
/// have produced for those benchmarks. `report.benchmarks` counts only
/// the owned benchmarks, making shard reports sum to the single-process
/// report. `shard == None` labels everything.
pub fn label_suite_resilient_sharded(
    suite: &[Benchmark],
    cfg: &LabelConfig,
    res: &ResilienceConfig,
    shard: Option<Shard>,
) -> LabelRun {
    let fingerprint = config_fingerprint(cfg, res.retry_budget, &res.faults);
    let owned = |bi: usize| shard.is_none_or(|s| s.owns(bi));
    let owned_count = (0..suite.len()).filter(|&bi| owned(bi)).count();

    // Phase 1: reload checkpointed benchmarks.
    let mut outcomes: Vec<Option<BenchmarkOutcome>> = vec![None; suite.len()];
    let mut resumed = 0usize;
    if res.resume {
        if let Some(dir) = &res.ckpt_dir {
            for (bi, b) in suite.iter().enumerate().filter(|&(bi, _)| owned(bi)) {
                if let Some(o) = read_checkpoint(dir, bi, &b.name, fingerprint) {
                    outcomes[bi] = Some(o);
                    resumed += 1;
                }
            }
        }
    }

    // Phase 2: label the rest in parallel, isolating worker panics.
    let todo: Vec<(usize, &Benchmark)> = suite
        .iter()
        .enumerate()
        .filter(|&(bi, _)| owned(bi) && outcomes[bi].is_none())
        .collect();
    let results = par_map_result(&todo, |&(bi, b)| {
        let outcome = label_benchmark_resilient(b, bi, cfg, res);
        if let Some(dir) = &res.ckpt_dir {
            if let Err(e) = write_checkpoint(dir, &outcome, fingerprint) {
                eprintln!(
                    "loopml: warning: checkpoint for {} not written: {e}",
                    b.name
                );
            }
        }
        outcome
    });
    let mut crashed: Vec<QuarantineEntry> = Vec::new();
    let mut crash_sites: BTreeMap<String, usize> = BTreeMap::new();
    for (&(bi, b), result) in todo.iter().zip(results) {
        match result {
            Ok(o) => outcomes[bi] = Some(o),
            Err(err) => {
                *crash_sites
                    .entry(err.injected.unwrap_or("panic").to_string())
                    .or_insert(0) += 1;
                crashed.push(QuarantineEntry {
                    scope: QuarantineScope::Benchmark,
                    benchmark: bi,
                    name: b.name.clone(),
                    reason: err.message,
                    site: err.injected.map(str::to_string),
                    attempts: 1,
                });
            }
        }
    }

    // Phase 3: aggregate in suite order so output order never depends on
    // scheduling, resume state, or which benchmarks crashed.
    let mut labeled = Vec::new();
    let mut attempts = Vec::new();
    let mut quarantined = Vec::new();
    let mut retry_histogram: BTreeMap<u32, usize> = BTreeMap::new();
    let mut fault_sites = crash_sites;
    let mut completed = 0usize;
    for outcome in outcomes.into_iter().flatten() {
        completed += 1;
        for &a in &outcome.attempts {
            *retry_histogram.entry(a).or_insert(0) += 1;
        }
        for (k, v) in outcome.fault_sites {
            *fault_sites.entry(k).or_insert(0) += v;
        }
        labeled.extend(outcome.labeled);
        attempts.extend(outcome.attempts);
        quarantined.extend(outcome.quarantined);
    }
    crashed.sort_by_key(|e| e.benchmark);
    quarantined.extend(crashed);
    quarantined.sort_by_key(|e| e.benchmark);
    let report = DegradationReport {
        benchmarks: owned_count,
        completed,
        labeled: labeled.len(),
        quarantined,
        retry_histogram,
        fault_sites,
        resumed,
    };
    LabelRun {
        labeled,
        attempts,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopml_corpus::{synthesize, SuiteConfig, ROSTER};
    use loopml_rt::with_threads;

    fn quick_cfg() -> LabelConfig {
        LabelConfig {
            noise: NoiseModel::exact(),
            ..LabelConfig::paper(SwpMode::Disabled)
        }
    }

    fn small_benchmark() -> Benchmark {
        synthesize(
            &ROSTER[2], // 171.swim
            &SuiteConfig {
                min_loops: 10,
                max_loops: 12,
                ..SuiteConfig::default()
            },
        )
    }

    #[test]
    fn labels_are_valid_classes() {
        let b = small_benchmark();
        let labeled = label_benchmark(&b, 0, &quick_cfg());
        assert!(!labeled.is_empty(), "some loops must survive the filters");
        for l in &labeled {
            assert!(l.label < 8);
            assert_eq!(l.features.len(), crate::features::NUM_FEATURES);
            assert!(l.runtimes.iter().all(|r| *r > 0.0));
        }
    }

    #[test]
    fn label_is_argmin_of_runtimes() {
        let b = small_benchmark();
        for l in label_benchmark(&b, 0, &quick_cfg()) {
            let min = l.runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(l.runtimes[l.label], min);
            assert_eq!(l.rank_of(l.best_factor()), 0);
        }
    }

    #[test]
    fn filters_drop_indifferent_loops() {
        let b = small_benchmark();
        let strict = LabelConfig {
            min_benefit: 1.5,
            ..quick_cfg()
        };
        let lax = LabelConfig {
            min_benefit: 1.0,
            min_cycles: 0.0,
            ..quick_cfg()
        };
        let ns = label_benchmark(&b, 0, &strict).len();
        let nl = label_benchmark(&b, 0, &lax).len();
        assert!(ns <= nl, "stricter filter keeps fewer loops: {ns} vs {nl}");
    }

    #[test]
    fn labeling_is_deterministic() {
        let b = small_benchmark();
        let a = label_benchmark(&b, 0, &quick_cfg());
        let c = label_benchmark(&b, 0, &quick_cfg());
        assert_eq!(a, c);
    }

    #[test]
    fn ranked_factors_are_sorted() {
        let b = small_benchmark();
        for l in label_benchmark(&b, 0, &quick_cfg()) {
            let ranked = l.ranked_factors();
            for w in ranked.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn noise_changes_measurements_not_structure() {
        let b = small_benchmark();
        let noisy = LabelConfig {
            noise: NoiseModel::paper(),
            ..quick_cfg()
        };
        let l1 = label_benchmark(&b, 0, &noisy);
        let l2 = label_benchmark(&b, 0, &noisy);
        assert_eq!(l1, l2, "same seed, same labels");
    }

    #[test]
    fn parallel_labeling_is_bit_identical_to_serial() {
        // The determinism contract: under measurement noise, the parallel
        // engine must reproduce the serial reference exactly — labels,
        // names, order, and every runtime down to the last bit.
        let b = small_benchmark();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let serial = with_threads(1, || label_benchmark(&b, 0, &cfg));
        assert!(!serial.is_empty());
        for threads in [2, 3, 4, 8] {
            let parallel = with_threads(threads, || label_benchmark(&b, 0, &cfg));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
        // And at the default (env/core-count) worker count.
        assert_eq!(serial, label_benchmark(&b, 0, &cfg));
    }

    #[test]
    fn suite_labeling_is_identical_across_thread_counts() {
        let suite: Vec<Benchmark> = (0..3).map(|_| small_benchmark()).collect();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let serial = with_threads(1, || label_suite(&suite, &cfg));
        for threads in [2, 5] {
            assert_eq!(serial, with_threads(threads, || label_suite(&suite, &cfg)));
        }
        assert_eq!(serial, label_suite(&suite, &cfg));
    }

    fn suite() -> Vec<Benchmark> {
        ROSTER[..3]
            .iter()
            .map(|r| {
                synthesize(
                    r,
                    &SuiteConfig {
                        min_loops: 6,
                        max_loops: 8,
                        ..SuiteConfig::default()
                    },
                )
            })
            .collect()
    }

    /// The resilient labeler over `suite` under `faults`, at `threads`
    /// workers.
    fn resilient(
        suite: &[Benchmark],
        cfg: &LabelConfig,
        faults: FaultPlane,
        threads: usize,
    ) -> LabelRun {
        let res = ResilienceConfig {
            faults,
            ..ResilienceConfig::default()
        };
        with_threads(threads, || label_suite_resilient(suite, cfg, &res))
    }

    #[test]
    fn fault_free_resilient_run_matches_legacy_exactly() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let legacy = with_threads(1, || label_suite(&suite, &cfg));
        for threads in [1, 4] {
            let run = resilient(&suite, &cfg, FaultPlane::disabled(), threads);
            assert_eq!(run.labeled, legacy, "diverged at {threads} threads");
            assert!(run.attempts.iter().all(|&a| a == 0));
            assert!(run.report.quarantined.is_empty());
            assert_eq!(run.report.completed, suite.len());
            assert_eq!(run.report.labeled, legacy.len());
            assert!(run.report.fault_sites.is_empty());
        }
    }

    #[test]
    fn retry_seeds_are_distinct_and_attempt_zero_is_legacy() {
        assert_eq!(attempt_seed(0x51EED, 3, 7, 0), 0x51EED ^ (3u64 << 32) ^ 7);
        let seeds: Vec<u64> = (0..5).map(|a| attempt_seed(0x51EED, 3, 7, a)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            seeds.len(),
            "attempt seeds must differ: {seeds:?}"
        );
    }

    #[test]
    fn transient_measure_faults_are_retried() {
        // Rate 1.0 restricted to attempt-0 keys would be ideal, but the
        // key mixes the attempt index, so a full-rate plane faults every
        // attempt: everything unrollable must end up quarantined...
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let all = FaultPlane::new(1, 1.0).at_site(site::LABEL_MEASURE);
        let run = resilient(&suite, &cfg, all, 1);
        assert!(run.labeled.is_empty());
        assert!(!run.report.quarantined.is_empty());
        assert!(run
            .report
            .quarantined
            .iter()
            .all(|q| q.scope == QuarantineScope::Loop
                && q.attempts == DEFAULT_RETRY_BUDGET + 1
                && q.site.as_deref() == Some(site::LABEL_MEASURE)));
        assert_eq!(
            run.report.completed,
            suite.len(),
            "benchmarks still complete"
        );

        // ...while a moderate rate lets retries succeed: some loops need
        // more than one attempt, and the run still labels loops. (A loop
        // makes eight faultable measurements per attempt, so even a 10%
        // rate faults most first attempts.)
        let some = FaultPlane::new(7, 0.1).at_site(site::LABEL_MEASURE);
        let run = resilient(&suite, &cfg, some, 1);
        assert!(!run.labeled.is_empty());
        assert!(run.attempts.iter().any(|&a| a > 0), "some retries expected");
        assert!(run.report.fault_sites.contains_key(site::LABEL_MEASURE));
    }

    #[test]
    fn chaos_runs_are_thread_invariant_and_reproducible() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let plane = || FaultPlane::new(0xC4A05, 0.25);
        let reference = resilient(&suite, &cfg, plane(), 1);
        for threads in [2, 4] {
            let run = resilient(&suite, &cfg, plane(), threads);
            assert_eq!(run, reference, "chaos diverged at {threads} threads");
        }
    }

    #[test]
    fn crashed_benchmark_quarantines_whole_benchmark() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let plane = FaultPlane::new(0, 1.0)
            .at_site(site::LABEL_LOOP)
            .only_keys(vec![1]);
        let run = resilient(&suite, &cfg, plane, 4);
        let bench_q: Vec<_> = run
            .report
            .quarantined
            .iter()
            .filter(|q| q.scope == QuarantineScope::Benchmark)
            .collect();
        assert_eq!(bench_q.len(), 1);
        assert_eq!(bench_q[0].benchmark, 1);
        assert_eq!(bench_q[0].name, suite[1].name);
        assert_eq!(bench_q[0].site.as_deref(), Some(site::LABEL_LOOP));
        assert_eq!(run.report.completed, suite.len() - 1);
        // Survivors are untouched: bit-identical to labeling them alone.
        assert!(run.labeled.iter().all(|l| l.benchmark != 1));
        let alone: Vec<LabeledLoop> = [0usize, 2]
            .into_iter()
            .flat_map(|bi| label_benchmark(&suite[bi], bi, &cfg))
            .collect();
        assert_eq!(run.labeled, alone);
    }

    #[test]
    fn shard_spec_parses_and_rejects_nonsense() {
        assert_eq!(Shard::parse("0/3"), Ok(Shard { index: 0, count: 3 }));
        assert_eq!(Shard::parse("2/3"), Ok(Shard { index: 2, count: 3 }));
        for bad in ["3/3", "5/2", "0/0", "1/0", "x/3", "0/y", "03", "", "1/2/3"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let s = Shard { index: 1, count: 3 };
        assert!(s.owns(1) && s.owns(4));
        assert!(!s.owns(0) && !s.owns(2) && !s.owns(3));
    }

    #[test]
    fn sharded_runs_partition_the_single_process_run() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let res = ResilienceConfig {
            faults: FaultPlane::disabled(),
            ..ResilienceConfig::default()
        };
        let count = 2;
        let (full, shards) = with_threads(2, || {
            let full = label_suite_resilient(&suite, &cfg, &res);
            let shards: Vec<LabelRun> = (0..count)
                .map(|index| {
                    label_suite_resilient_sharded(&suite, &cfg, &res, Some(Shard { index, count }))
                })
                .collect();
            (full, shards)
        });

        // Each shard's labels are the exact sub-sequence the full run
        // produced for its benchmarks, bit for bit.
        for (i, run) in shards.iter().enumerate() {
            let s = Shard { index: i, count };
            assert!(run.labeled.iter().all(|l| s.owns(l.benchmark)));
            let expected: Vec<&LabeledLoop> = full
                .labeled
                .iter()
                .filter(|l| s.owns(l.benchmark))
                .collect();
            assert_eq!(run.labeled.iter().collect::<Vec<_>>(), expected);
        }

        // Interleaving shard labels by global benchmark index rebuilds
        // the single-process run exactly, and the accounting sums.
        let mut pairs: Vec<(LabeledLoop, u32)> = shards
            .iter()
            .flat_map(|r| r.labeled.iter().cloned().zip(r.attempts.iter().copied()))
            .collect();
        pairs.sort_by_key(|(l, _)| l.benchmark);
        let merged: Vec<LabeledLoop> = pairs.iter().map(|(l, _)| l.clone()).collect();
        assert_eq!(merged, full.labeled);
        let benchmarks: usize = shards.iter().map(|r| r.report.benchmarks).sum();
        assert_eq!(benchmarks, full.report.benchmarks);
        let completed: usize = shards.iter().map(|r| r.report.completed).sum();
        assert_eq!(completed, full.report.completed);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let suite = suite();
        let cfg = LabelConfig::paper(SwpMode::Disabled);
        let dir = std::env::temp_dir().join("loopml_label_resume_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let plane = || FaultPlane::new(9, 0.2).at_site(site::LABEL_MEASURE);
        let full = ResilienceConfig {
            faults: plane(),
            ckpt_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let clean = with_threads(2, || label_suite_resilient(&suite, &cfg, &full));

        // Simulate dying partway: drop one checkpoint, resume.
        std::fs::remove_file(crate::checkpoint::checkpoint_path(&dir, 1, &suite[1].name))
            .expect("checkpoint existed");
        let resume = ResilienceConfig {
            resume: true,
            ..full
        };
        let resumed = with_threads(2, || label_suite_resilient(&suite, &cfg, &resume));
        assert_eq!(resumed.labeled, clean.labeled);
        assert_eq!(resumed.attempts, clean.attempts);
        assert_eq!(resumed.report.resumed, 2);
        // The report content (everything serialized) matches exactly.
        assert_eq!(
            resumed.report.to_json().to_string(),
            clean.report.to_json().to_string()
        );
    }
}
