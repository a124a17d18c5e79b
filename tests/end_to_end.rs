//! Cross-crate integration: source text → compiler → assembler → simulator
//! → trace → predictors → paper-shaped conclusions, all through the `dvp`
//! facade.

use dvp::asm::assemble;
use dvp::core::{FcmPredictor, Interned, Predictor, PredictorSet, StridePredictor};
use dvp::engine::{ReplayEngine, SharedTrace};
use dvp::lang::{compile, OptLevel};
use dvp::sim::Machine;
use dvp::trace::{InstrCategory, TraceRecord};

/// A program with three signature value behaviours: a constant, a stride
/// (induction variable), and a repeated non-stride (table walk).
const PROGRAM: &str = "
int table[6] = {13, 7, 99, 22, 5, 64};
int main() {
    int acc = 0;
    for (int round = 0; round < 50; round = round + 1) {
        for (int i = 0; i < 6; i = i + 1) {
            acc = acc + table[i];
        }
    }
    print_int(acc);
    return 0;
}
";

fn trace_of(opt: OptLevel) -> Vec<TraceRecord> {
    let asm = compile(PROGRAM, opt).expect("compiles");
    let image = assemble(&asm).expect("assembles");
    let mut machine = Machine::load(&image);
    let trace = machine.collect_trace(10_000_000).expect("runs");
    assert!(machine.halted());
    assert_eq!(machine.output_string(), (50 * (13 + 7 + 99 + 22 + 5 + 64)).to_string());
    trace
}

#[test]
fn full_pipeline_produces_predictable_trace() {
    let trace = trace_of(OptLevel::O1);
    assert!(trace.len() > 1000);

    // The table loads form a repeated non-stride sequence: fcm must beat
    // stride on the Loads category, exactly the paper's core claim.
    let shared = SharedTrace::from_records(trace);
    let set = ReplayEngine::sequential().observe(&shared, || {
        let mut set = PredictorSet::new();
        set.push(Box::new(StridePredictor::two_delta()));
        set.push(Box::new(FcmPredictor::new(2)));
        set
    });
    let loads_total: u64 = (0..4u32).map(|m| set.subset_count(Some(InstrCategory::Loads), m)).sum();
    let fcm_loads: u64 =
        [0b10u32, 0b11].iter().map(|&m| set.subset_count(Some(InstrCategory::Loads), m)).sum();
    let stride_loads: u64 =
        [0b01u32, 0b11].iter().map(|&m| set.subset_count(Some(InstrCategory::Loads), m)).sum();
    assert!(loads_total > 0);
    assert!(
        fcm_loads > stride_loads,
        "fcm should dominate stride on table-walk loads: {fcm_loads} vs {stride_loads}"
    );

    // Overall accuracy of fcm2 on this loop nest should be high (it is
    // entirely repeating behaviour).
    assert!(set.accuracy(1) > 0.75, "fcm2 accuracy {}", set.accuracy(1));
}

#[test]
fn optimization_levels_preserve_behaviour_but_change_mix() {
    let t0 = trace_of(OptLevel::O0);
    let t2 = trace_of(OptLevel::O2);
    // Same program results (asserted inside trace_of), different dynamic
    // instruction mixes: O0 must be strictly bigger (every local through
    // memory).
    assert!(t0.len() > t2.len(), "O0 {} vs O2 {}", t0.len(), t2.len());
    let loads = |t: &[TraceRecord]| {
        t.iter().filter(|r| r.category == InstrCategory::Loads).count() as f64 / t.len() as f64
    };
    assert!(
        loads(&t0) > loads(&t2),
        "O0 load fraction {} should exceed O2 {}",
        loads(&t0),
        loads(&t2)
    );
}

#[test]
fn idealized_tables_have_one_entry_per_static_instruction() {
    let trace = trace_of(OptLevel::O1);
    let mut fcm = Interned::new(FcmPredictor::new(1));
    for rec in &trace {
        fcm.update(rec.pc, rec.value);
    }
    let distinct_pcs: std::collections::HashSet<_> = trace.iter().map(|r| r.pc).collect();
    assert_eq!(fcm.static_entries(), distinct_pcs.len());
}
