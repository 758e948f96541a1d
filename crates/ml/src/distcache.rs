//! Incremental pairwise-distance caching — the algebra that makes greedy
//! feature selection and kernel re-computation cheap.
//!
//! Squared Euclidean distance over a feature subset `S` is *additive
//! across features*:
//!
//! ```text
//! dist2_S(i, j) = Σ_{f ∈ S} (x[i][f] − x[j][f])²
//! ```
//!
//! so the n×n distance matrix of `S ∪ {f}` is the matrix of `S` plus
//! feature `f`'s own n×n contribution. [`FeatureDistCache`] exploits
//! this: it normalizes the data once and keeps each feature's normalized
//! column — an exact rank-1 factoring of that feature's contribution
//! matrix (`(col[i] − col[j])²`) — so greedy forward selection evaluates
//! every candidate subset `S ∪ {f}` with an O(n²) accumulate instead of
//! an O(n²·|S|) recompute.
//!
//! The columns are deliberately *not* expanded into dense per-feature
//! matrices: at full-corpus scale those are `d·n²·8 ≈ 3.6 GB` and every
//! greedy sweep streams them from DRAM, which measures *slower* than
//! recomputing `(col[i] − col[j])²` on the fly from the ~1 MB of columns
//! that stay resident in L2 (one subtract and multiply per pair versus a
//! DRAM load). See DESIGN.md §8 for the measurements.
//!
//! Min-max normalization is per-column, so normalizing the full dataset
//! once yields bitwise the same columns as normalizing any
//! `select_features` subset — the cached contributions are exact for
//! every subset.
//!
//! The pairwise passes of greedy selection, the RBF kernel and the sweep
//! all stream row strips: a worker holds one `tile_rows × n` strip of
//! the greedy base matrix, or one n-length distance row of the kernel
//! fill behind [`crate::KernelCache`] and the sweep, at a time.
//! [`tile_rows_for`] sizes the strips so the live distance bytes stay
//! within [`tile_budget_bytes`]. A dense n×n evaluation is the same code
//! with one strip of n rows.

use crate::dataset::{Dataset, MinMaxNormalizer};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Per-thread count of pairwise distance passes. The sweep
    /// subsystem's whole premise is "one distance pass, many kernels";
    /// this counter turns that claim into something a test (and the
    /// `repro sweep` report) can assert instead of trusting.
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Number of pairwise distance passes started on the calling thread so
/// far. Monotonic; callers snapshot it before a sweep and assert the
/// delta. A pass counts on the thread that starts it, however many
/// workers fill its strips, so the delta around a call covers exactly
/// that call's passes — builds made concurrently on other threads (other
/// tests in the same process, say) never leak in.
pub fn distance_builds() -> u64 {
    BUILDS.with(Cell::get)
}

/// Counts one pairwise distance pass toward [`distance_builds`] on the
/// calling thread: a pass touches every pair of rows once, strip by
/// strip, and never holds the n×n distance matrix.
pub(crate) fn record_build() {
    BUILDS.with(|c| c.set(c.get() + 1));
}

/// Live bytes currently held in pairwise-distance buffers (greedy base
/// strips and the kernel pass's distance rows). Process-global, unlike
/// [`distance_builds`]: pool workers allocate the buffers, so the peak
/// is a whole-process high-water mark, meaningful only when one
/// measured run owns the process between resets.
static CUR_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CUR_BYTES`] since the last reset.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// High-water mark, in bytes, of concurrently-live pairwise-distance
/// buffers since the last [`reset_distance_bytes`]. This is the number
/// the scaling gate bounds: tiled/streaming evaluation keeps it at
/// `workers · tile_rows · n · 8` instead of `n² · 8`.
pub fn peak_distance_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Zeroes the live/peak distance-buffer accounting. Call at a
/// measurement boundary (buffers created before the reset are no longer
/// counted when they drop — the counters saturate at zero rather than
/// underflow).
pub fn reset_distance_bytes() {
    CUR_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
}

/// RAII accounting for one distance buffer: registers `bytes` as live on
/// creation (bumping the peak), releases them on drop.
pub(crate) struct DistAlloc(u64);

impl DistAlloc {
    pub(crate) fn new(bytes: u64) -> Self {
        let cur = CUR_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_BYTES.fetch_max(cur, Ordering::Relaxed);
        DistAlloc(bytes)
    }
}

impl Drop for DistAlloc {
    fn drop(&mut self) {
        // Saturating: a reset between creation and drop zeroed CUR.
        let _ = CUR_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_sub(self.0))
        });
    }
}

/// Live bytes currently held in RBF kernel buffers (one n×n matrix per
/// gamma, filled in place strip by strip) — the *other*
/// quadratic resident, called out in ROADMAP as the largest matrices the
/// sweep keeps. Tracked by the same RAII discipline as the distance
/// buffers so the scaling gate accounts for every n×n allocation, not
/// just distances. Process-global for the same reason as [`CUR_BYTES`].
static KERNEL_CUR: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`KERNEL_CUR`] since the last reset.
static KERNEL_PEAK: AtomicU64 = AtomicU64::new(0);

/// High-water mark, in bytes, of concurrently-live RBF kernel buffers
/// since the last [`reset_kernel_bytes`]. Reported as
/// `peak_kernel_bytes` in `BENCH_ml.json`, where the scaling gate bounds
/// it — a budget claim over distance bytes alone is vacuous if per-gamma
/// kernels dwarf it unobserved.
pub fn peak_kernel_bytes() -> u64 {
    KERNEL_PEAK.load(Ordering::Relaxed)
}

/// Zeroes the live/peak kernel-buffer accounting, mirroring
/// [`reset_distance_bytes`] (same saturating-drop semantics for buffers
/// that straddle the reset).
pub fn reset_kernel_bytes() {
    KERNEL_CUR.store(0, Ordering::Relaxed);
    KERNEL_PEAK.store(0, Ordering::Relaxed);
}

/// RAII accounting for one kernel buffer: registers `bytes` as live on
/// creation (bumping the kernel peak), releases them on drop. Cloning
/// registers a second allocation — a cloned `KernelCache` really does
/// hold a second n×n buffer.
#[derive(Debug)]
pub(crate) struct KernelAlloc(u64);

impl KernelAlloc {
    pub(crate) fn new(bytes: u64) -> Self {
        let cur = KERNEL_CUR.fetch_add(bytes, Ordering::Relaxed) + bytes;
        KERNEL_PEAK.fetch_max(cur, Ordering::Relaxed);
        KernelAlloc(bytes)
    }
}

impl Clone for KernelAlloc {
    fn clone(&self) -> Self {
        KernelAlloc::new(self.0)
    }
}

impl Drop for KernelAlloc {
    fn drop(&mut self) {
        // Saturating: a reset between creation and drop zeroed CUR.
        let _ = KERNEL_CUR.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_sub(self.0))
        });
    }
}

/// Default budget a full n×n distance buffer may occupy before greedy
/// selection stops holding its base strips between rounds: 256 MiB.
pub const DEFAULT_TILE_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// The distance-buffer budget in bytes. `LOOPML_TILE_BYTES` overrides
/// the default (invalid or zero values fall back silently — the budget
/// only selects an execution strategy, every strategy is bit-identical).
pub fn tile_budget_bytes() -> u64 {
    match std::env::var("LOOPML_TILE_BYTES") {
        Ok(s) => s
            .trim()
            .parse()
            .ok()
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_TILE_BUDGET_BYTES),
        Err(_) => DEFAULT_TILE_BUDGET_BYTES,
    }
}

/// Tile height (rows per strip) such that `threads` concurrent strip
/// buffers of `tile_rows × n` stay within the [`tile_budget_bytes`]
/// budget, and no taller than `ceil(n / threads)` so every worker gets a
/// strip. At least 1 (a single row is the smallest streamable unit), at
/// most `n`.
pub fn tile_rows_for(n: usize, threads: usize) -> usize {
    let workers = threads.max(1);
    let row_bytes = 8 * n.max(1) as u64;
    let per_worker = tile_budget_bytes() / workers as u64 / row_bytes;
    (per_worker as usize)
        .min(n.div_ceil(workers))
        .clamp(1, n.max(1))
}

/// Per-feature pairwise squared-distance contributions over a normalized
/// dataset, plus the labels — everything the leave-self-out 1-NN greedy
/// criterion needs.
///
/// Each feature's contribution matrix is held in factored form as its
/// normalized column (`(col[i] − col[j])²` on demand); the full column
/// set is `d · n · 8` bytes and stays cache-resident even at corpus
/// scale, so deriving a contribution costs one subtract-multiply per
/// pair instead of a DRAM load from a dense `d · n²` expansion.
#[derive(Debug, Clone)]
pub struct FeatureDistCache {
    n: usize,
    d: usize,
    /// Normalized feature columns, column-major: `cols[f * n + i]`.
    cols: Vec<f64>,
    labels: Vec<usize>,
}

impl FeatureDistCache {
    /// Normalizes `data` (per-column min-max, exactly as every classifier
    /// in this crate does) and caches the per-feature columns.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.len();
        let d = data.dims();
        let mut cols = vec![0.0; d * n];
        if n > 0 {
            let norm = MinMaxNormalizer::fit(&data.x);
            let xs = norm.transform(&data.x);
            for (i, row) in xs.iter().enumerate() {
                for (f, &v) in row.iter().enumerate() {
                    cols[f * n + i] = v;
                }
            }
        }
        FeatureDistCache {
            n,
            d,
            cols,
            labels: data.y.clone(),
        }
    }

    /// Number of examples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of features.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Adds feature `f`'s pairwise contribution into `strip`, a row strip
    /// of the accumulated distance matrix holding rows `lo..lo + rows`
    /// (`strip.len() == rows · n`; a full n×n matrix is the strip at
    /// `lo = 0`): afterwards `strip[r*n+j] += (x[lo+r][f] − x[j][f])²`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range or `strip` is not whole rows inside
    /// the matrix.
    pub fn accumulate(&self, f: usize, lo: usize, strip: &mut [f64]) {
        assert!(f < self.d, "feature index out of range");
        let n = self.n;
        let rows = strip.len() / n.max(1);
        assert!(
            strip.len() == rows * n && lo + rows <= n,
            "strip must be whole rows of the n×n matrix"
        );
        let col = &self.cols[f * n..(f + 1) * n];
        for (row, &ci) in strip.chunks_exact_mut(n.max(1)).zip(&col[lo..]) {
            for (b, &cj) in row.iter_mut().zip(col) {
                let d = ci - cj;
                *b += d * d;
            }
        }
    }

    /// Leave-self-out 1-NN training error of the subset `S ∪ {f}`, where
    /// `base` is the accumulated distance matrix of `S` (all zeros for
    /// the empty set). O(n²), no allocation: the candidate's contribution
    /// is fused into the nearest-neighbor scan instead of being written
    /// anywhere. Nearest-neighbor ties break toward the lower index,
    /// exactly like [`crate::nn1_training_error`]'s scan.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range or `base` has the wrong length.
    pub fn nn1_error_with(&self, base: &[f64], f: usize) -> f64 {
        assert!(f < self.d, "feature index out of range");
        assert_eq!(base.len(), self.n * self.n, "base must be n×n");
        let n = self.n;
        if n < 2 {
            return 1.0;
        }
        let col = &self.cols[f * n..(f + 1) * n];
        let mut errors = 0usize;
        for i in 0..n {
            let brow = &base[i * n..(i + 1) * n];
            let mut best = (f64::INFINITY, 0usize);
            let ci = col[i];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let d = ci - col[j];
                let d2 = brow[j] + d * d;
                if d2 < best.0 {
                    best = (d2, j);
                }
            }
            if self.labels[best.1] != self.labels[i] {
                errors += 1;
            }
        }
        errors as f64 / n as f64
    }

    /// Leave-self-out 1-NN error counts of every candidate subset
    /// `S ∪ {f}`, `f` over `candidates`, over the examples of one row
    /// strip — the hot loop of greedy forward selection. `strip` holds
    /// rows `lo..` of the accumulated distance matrix of `S`. Equivalent
    /// to [`nn1_error_with`](Self::nn1_error_with) per candidate, but
    /// each row is read once and scanned for all candidates while it is
    /// cache-hot, with a 4-lane argmin instead of a branchy per-pair
    /// scan. Counts are integers, so summing them over any strip
    /// partition gives the same totals.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than two examples (no row has a
    /// neighbor) or any candidate is out of range.
    pub(crate) fn nn1_errors_strip(
        &self,
        strip: &[f64],
        lo: usize,
        candidates: &[usize],
    ) -> Vec<u32> {
        let n = self.n;
        assert!(n >= 2, "leave-self-out 1-NN needs two examples");
        let mut errs = vec![0u32; candidates.len()];
        for (i, brow) in (lo..).zip(strip.chunks_exact(n)) {
            for (e, &f) in errs.iter_mut().zip(candidates) {
                let col = &self.cols[f * n..(f + 1) * n];
                let ci = col[i];
                let below = min_col_range(brow, col, ci, 0, i);
                let above = min_col_range(brow, col, ci, i + 1, n);
                // `<=` sends exact cross-range ties to the first range:
                // the lowest index wins, just like the serial ascending
                // scan.
                let nearest = if below <= above {
                    find_col(brow, col, ci, 0, i, below)
                } else {
                    find_col(brow, col, ci, i + 1, n, above)
                };
                if self.labels[nearest] != self.labels[i] {
                    *e += 1;
                }
            }
        }
        errs
    }
}

/// Minimum of `brow[j] + (ci − col[j])²` over `j ∈ [lo, hi)` (`+∞` when
/// empty). Min-only on purpose: without index tracking the loop is a
/// pure arithmetic-and-min reduction the compiler vectorizes, and the
/// compare-select keeps the minimum equal to one of the computed values
/// exactly, so the winning index is recovered afterwards by an equality
/// scan ([`find_col`]) over the same values.
///
/// `inline(never)`: compiled standalone this is a clean packed-min loop;
/// inlined into the candidate sweep it merges with surrounding control
/// flow and loses half its throughput (measured ~2.5× slower on the
/// smoke corpus). The call overhead is amortized over an O(n) scan.
#[inline(never)]
fn min_col_range(brow: &[f64], col: &[f64], ci: f64, lo: usize, hi: usize) -> f64 {
    const LANES: usize = 4;
    let a = &brow[lo..hi];
    let c = &col[lo..hi];
    let chunks = a.len() / LANES * LANES;
    let mut mv = [f64::INFINITY; LANES];
    let mut k = 0;
    while k < chunks {
        for l in 0..LANES {
            // Compare-select rather than `f64::min`: identical for the
            // NaN-free sums here, and it compiles to the packed-min
            // instruction `f64::min`'s NaN handling blocks.
            let d = ci - c[k + l];
            let v = a[k + l] + d * d;
            mv[l] = if v < mv[l] { v } else { mv[l] };
        }
        k += LANES;
    }
    let mut m = mv[0].min(mv[1]).min(mv[2].min(mv[3]));
    for k in chunks..a.len() {
        let d = ci - c[k];
        m = m.min(a[k] + d * d);
    }
    m
}

/// First `j ∈ [lo, hi)` with `brow[j] + (ci − col[j])² == target` — the
/// lowest index attaining the minimum, the same winner a serial
/// ascending strict-`<` scan picks.
///
/// # Panics
///
/// Panics if no element equals `target` (impossible when `target` came
/// from [`min_col_range`] over the same range).
#[inline]
fn find_col(brow: &[f64], col: &[f64], ci: f64, lo: usize, hi: usize, target: f64) -> usize {
    (lo..hi)
        .find(|&j| {
            let d = ci - col[j];
            brow[j] + d * d == target
        })
        .expect("minimum came from this range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::dist2;
    use loopml_rt::Rng;

    fn arb_dataset(rng: &mut Rng, n: usize, d: usize) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect();
        let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4usize)).collect();
        Dataset::new(
            x,
            y,
            4,
            (0..d).map(|j| format!("f{j}")).collect(),
            (0..n).map(|i| format!("e{i}")).collect(),
        )
    }

    #[test]
    fn tile_rows_spread_across_workers_under_the_budget() {
        // Far under the default budget: the height is capped at
        // ceil(n / threads), so every worker gets a strip.
        let budget = tile_budget_bytes();
        let rows_in_budget = |n: usize, threads: u64| (budget / threads / (8 * n as u64)) as usize;
        if rows_in_budget(1000, 4) >= 250 {
            assert_eq!(tile_rows_for(1000, 4), 250);
        }
        if rows_in_budget(10, 3) >= 4 {
            assert_eq!(tile_rows_for(10, 3), 4);
            assert_eq!(tile_rows_for(10, 1), 10);
        }
        // Past the budget the budget alone sets the height.
        let n = 1 << 22;
        assert_eq!(tile_rows_for(n, 2), rows_in_budget(n, 2).clamp(1, n / 2));
    }

    #[test]
    fn tile_rows_clamp_to_one_through_n() {
        assert_eq!(tile_rows_for(1, 1), 1);
        assert_eq!(tile_rows_for(1, 8), 1);
        // No examples still yields a usable (empty-range) strip height.
        assert_eq!(tile_rows_for(0, 4), 1);
        // More workers than rows: one row each, never zero.
        assert_eq!(tile_rows_for(7, 100), 1);
        // Zero threads counts as one worker.
        assert_eq!(tile_rows_for(5, 0), tile_rows_for(5, 1));
        for n in [1usize, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 4, 16] {
                let t = tile_rows_for(n, threads);
                assert!((1..=n).contains(&t), "n {n}, threads {threads}: {t}");
            }
        }
    }

    /// The incremental accumulate over random subsets must match a direct
    /// `dist2` over the subset's normalized columns (within FP
    /// reassociation tolerance — `dist2` sums lanes, the cache sums in
    /// selection order).
    #[test]
    fn accumulated_subsets_match_direct_dist2() {
        let mut rng = Rng::seed_from_u64(0xCAFE);
        for _ in 0..10 {
            let n = rng.gen_range(4..16usize);
            let d = rng.gen_range(2..9usize);
            let data = arb_dataset(&mut rng, n, d);
            let cache = FeatureDistCache::fit(&data);
            // Random subset, random order.
            let len = rng.gen_range(1..=d);
            let mut subset = Vec::new();
            while subset.len() < len {
                let f = rng.gen_range(0..d);
                if !subset.contains(&f) {
                    subset.push(f);
                }
            }
            let mut base = vec![0.0; n * n];
            for &f in &subset {
                cache.accumulate(f, 0, &mut base);
            }
            let sub = data.select_features(&subset);
            let xs = MinMaxNormalizer::fit(&sub.x).transform(&sub.x);
            for i in 0..n {
                for j in 0..n {
                    let direct = dist2(&xs[i], &xs[j]);
                    let cached = base[i * n + j];
                    assert!(
                        (cached - direct).abs() <= 1e-9 * direct.max(1.0),
                        "subset {subset:?} ({i},{j}): cached {cached} vs direct {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn nn1_error_with_matches_reference() {
        use crate::feature_select::nn1_training_error;
        let mut rng = Rng::seed_from_u64(0x5EED);
        for _ in 0..10 {
            let n = rng.gen_range(4..20usize);
            let d = rng.gen_range(1..7usize);
            let data = arb_dataset(&mut rng, n, d);
            let cache = FeatureDistCache::fit(&data);
            // Build up a subset feature by feature, comparing the fused
            // candidate evaluation against the reference at every step.
            let mut base = vec![0.0; n * n];
            let mut subset: Vec<usize> = Vec::new();
            for f in 0..d {
                let mut cols = subset.clone();
                cols.push(f);
                let reference = nn1_training_error(&data.select_features(&cols));
                let cached = cache.nn1_error_with(&base, f);
                assert_eq!(cached, reference, "subset {cols:?}");
                cache.accumulate(f, 0, &mut base);
                subset.push(f);
            }
        }
    }

    /// The strip scan must agree exactly with the per-candidate path —
    /// summed over every strip partition, and on tie-heavy integer data
    /// where argmin tie-breaking (lowest index wins) actually gets
    /// exercised. Each strip is accumulated on its own, so this also
    /// checks that a strip's rows equal the full matrix's rows.
    #[test]
    fn strip_scan_matches_single_candidate_path() {
        let mut rng = Rng::seed_from_u64(0x417);
        for round in 0..12 {
            let n = rng.gen_range(4..24usize);
            let d = rng.gen_range(1..8usize);
            let data = if round % 2 == 0 {
                arb_dataset(&mut rng, n, d)
            } else {
                // Small-integer features: many exactly-tied distances.
                let x: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..d).map(|_| rng.gen_range(0..3) as f64).collect())
                    .collect();
                let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
                Dataset::new(
                    x,
                    y,
                    3,
                    (0..d).map(|j| format!("f{j}")).collect(),
                    (0..n).map(|i| format!("e{i}")).collect(),
                )
            };
            let cache = FeatureDistCache::fit(&data);
            let selected: Vec<usize> = if d > 1 { vec![d - 1] } else { vec![] };
            let mut base = vec![0.0; n * n];
            for &f in &selected {
                cache.accumulate(f, 0, &mut base);
            }
            let candidates: Vec<usize> = (0..d).collect();
            let single: Vec<f64> = candidates
                .iter()
                .map(|&f| cache.nn1_error_with(&base, f))
                .collect();
            for tile in [1, 3, n] {
                let mut totals = vec![0u32; d];
                for lo in (0..n).step_by(tile) {
                    let mut strip = vec![0.0; tile.min(n - lo) * n];
                    for &f in &selected {
                        cache.accumulate(f, lo, &mut strip);
                    }
                    assert_eq!(strip, base[lo * n..lo * n + strip.len()]);
                    let counts = cache.nn1_errors_strip(&strip, lo, &candidates);
                    for (t, c) in totals.iter_mut().zip(counts) {
                        *t += c;
                    }
                }
                let rates: Vec<f64> = totals.iter().map(|&c| c as f64 / n as f64).collect();
                assert_eq!(rates, single, "round {round}, tile {tile}");
            }
        }
    }

    #[test]
    fn tiny_datasets_report_full_error() {
        let data = arb_dataset(&mut Rng::seed_from_u64(1), 1, 2);
        let cache = FeatureDistCache::fit(&data);
        assert_eq!(cache.nn1_error_with(&[0.0], 0), 1.0);
    }
}
