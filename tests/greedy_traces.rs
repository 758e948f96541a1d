//! Greedy 1-NN feature selection on the incremental distance cache must
//! retrace the direct recompute-the-subset search exactly: same features,
//! same names, bit-equal training errors at every step.

use loopml_bench::{Context, Scale};
use loopml_machine::SwpMode;
use loopml_ml::{greedy_forward, greedy_forward_nn, nn1_training_error};

/// Greedy steps checked: twice the 5 that `train-quick` and the paper's
/// informative subset take. The first picks dominate the accumulated
/// distances, so a wrongly accumulated strip can leave the first five
/// steps intact and only show in later ones.
const STEPS: usize = 10;

#[test]
fn cached_greedy_trace_equals_direct_trace_on_the_quick_corpus() {
    let ctx = Context::build(Scale::Quick, SwpMode::Disabled);
    let data = &ctx.full_dataset;
    assert!(
        data.len() >= 100,
        "quick corpus has {} examples",
        data.len()
    );
    let cached = greedy_forward_nn(data, STEPS);
    let direct = greedy_forward(data, STEPS, nn1_training_error);
    assert_eq!(cached.len(), STEPS);
    assert_eq!(cached, direct);
}
