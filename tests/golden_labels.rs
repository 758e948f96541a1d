//! Golden-label pin: labels a fixed small corpus with software pipelining
//! off and on and checks a fingerprint over every kept loop's name, label
//! and the exact bits of its eight runtimes.
//!
//! The labeler's machine model (schedulers, RecMII, register pressure)
//! and its compile pipeline may be rewritten for speed, but every label
//! and runtime must stay bit-identical. The pinned values were computed
//! before the machine-model fast path landed; a change that moves them
//! changes the training data.

use loopml::{label_suite, LabelConfig, LabeledLoop};
use loopml_corpus::{full_suite, SuiteConfig};
use loopml_ir::Benchmark;
use loopml_machine::SwpMode;
use loopml_rt::{fault_key, fault_key_str};

/// The quick corpus (72 benchmarks, 8–12 loops each).
fn corpus() -> Vec<Benchmark> {
    full_suite(&SuiteConfig {
        min_loops: 8,
        max_loops: 12,
        ..SuiteConfig::default()
    })
}

/// Order-sensitive hash over every labeled loop.
fn fingerprint(labeled: &[LabeledLoop]) -> u64 {
    labeled.iter().fold(0, |h, l| {
        let mut parts = vec![
            h,
            fault_key_str(&l.name),
            l.benchmark as u64,
            l.label as u64,
        ];
        parts.extend(l.runtimes.iter().map(|r| r.to_bits()));
        fault_key(&parts)
    })
}

fn pinned(swp: SwpMode) -> (usize, u64) {
    let labeled = label_suite(&corpus(), &LabelConfig::paper(swp));
    (labeled.len(), fingerprint(&labeled))
}

#[test]
fn labels_without_pipelining_are_pinned() {
    assert_eq!(pinned(SwpMode::Disabled), (469, 0x8806_33fd_f791_92d4));
}

#[test]
fn labels_with_pipelining_are_pinned() {
    assert_eq!(pinned(SwpMode::Enabled), (437, 0x13f6_f0ab_f409_5d87));
}
