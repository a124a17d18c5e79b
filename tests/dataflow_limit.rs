//! Cross-crate integration for the dataflow-limit study: source text →
//! compiler → simulator dependence tracing → critical-path analysis.

use dvp::asm::assemble;
use dvp::core::{
    dataflow_height, oracle_height, value_predicted_height, FcmPredictor, Interned,
    LastValuePredictor, Predictor, StridePredictor,
};
use dvp::lang::{compile, OptLevel};
use dvp::sim::{collect_dataflow, Machine};
use dvp::trace::DepNode;

/// A deliberately serial program: every iteration's accumulator depends on
/// the previous one, and the accumulator walks a stride (sum of constants).
const SERIAL: &str = "
int main() {
    int acc = 0;
    for (int i = 0; i < 500; i = i + 1) {
        acc = acc + 3;
    }
    print_int(acc);
    return 0;
}
";

fn dataflow_of(source: &str) -> Vec<DepNode> {
    let asm = compile(source, OptLevel::O1).expect("compiles");
    let image = assemble(&asm).expect("assembles");
    let mut machine = Machine::load(&image);
    let nodes = collect_dataflow(&mut machine, 10_000_000).expect("runs");
    assert!(machine.halted());
    nodes
}

#[test]
fn dependence_edges_always_point_backwards() {
    let nodes = dataflow_of(SERIAL);
    assert!(nodes.len() > 1000);
    for (i, node) in nodes.iter().enumerate() {
        for dep in node.deps() {
            assert!(dep < i as u64, "forward edge at node {i}");
        }
    }
}

#[test]
fn serial_program_is_dataflow_bound_and_stride_breaks_it() {
    let nodes = dataflow_of(SERIAL);
    let base = dataflow_height(&nodes);
    // The loop-carried chains (accumulator, induction variable) serialize a
    // large fraction of the program: height is within a small factor of the
    // node count.
    assert!(base as usize > nodes.len() / 10, "base height {base} of {} nodes", nodes.len());

    // Both loop-carried chains are stride-class sequences: the stride
    // predictor collapses the critical path dramatically.
    let stride =
        value_predicted_height(&nodes, &mut Interned::new(StridePredictor::two_delta()), 0);
    assert!(
        stride.speedup() > 5.0,
        "stride must break the induction/accumulator spine: {:?}",
        stride
    );

    // The fcm predictor cannot extrapolate non-repeating strides (paper
    // Table 1, row S): it gains far less on this program.
    let fcm = value_predicted_height(&nodes, &mut Interned::new(FcmPredictor::new(3)), 0);
    assert!(
        stride.speedup() > fcm.speedup(),
        "stride {} must out-speed fcm {} on pure stride chains",
        stride.speedup(),
        fcm.speedup()
    );

    // The oracle bounds everything.
    let oracle = base as f64 / oracle_height(&nodes).max(1) as f64;
    assert!(oracle >= stride.speedup() - 1e-9);
}

#[test]
fn value_trace_is_identical_between_plain_and_dataflow_runs() {
    let asm = compile(SERIAL, OptLevel::O1).expect("compiles");
    let image = assemble(&asm).expect("assembles");
    let plain = Machine::load(&image).collect_trace(10_000_000).expect("runs");
    let from_nodes: Vec<_> = dataflow_of(SERIAL).iter().filter_map(|n| n.record).collect();
    assert_eq!(plain, from_nodes);
}

#[test]
fn penalty_free_speculation_never_slows_the_limit() {
    let nodes = dataflow_of(SERIAL);
    let base = dataflow_height(&nodes);
    for p in [
        Box::new(LastValuePredictor::new()) as Box<dyn Predictor>,
        Box::new(StridePredictor::two_delta()),
        Box::new(FcmPredictor::new(2)),
    ] {
        let mut p = Interned::new(p);
        let report = value_predicted_height(&nodes, &mut p, 0);
        assert_eq!(report.base_height, base);
        assert!(report.vp_height <= base, "{} slowed the limit", p.name());
    }
}
