//! A tour of the paper's predictors on its Section 1.1 sequence taxonomy:
//! last value, the hysteresis and two-delta strides, blended and
//! single-order FCM, the stride + FCM hybrid, and the finite-table and
//! delayed-update tier, each against every sequence class.
//!
//! Run with: `cargo run --release --example predictor_tour`

use dvp_core::sequences::{
    constant, measure_learning, non_stride, repeated_non_stride, repeated_stride, stride,
    SequenceClass,
};
use dvp_core::{
    Blending, DelayedPredictor, FcmPredictor, FiniteFcmPredictor, FiniteHybridPredictor,
    FiniteStridePredictor, HybridPredictor, LastValuePredictor, Predictor, StridePolicy,
    StridePredictor, TableSpec,
};

fn zoo() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(LastValuePredictor::new()),
        Box::new(StridePredictor::with_policy(StridePolicy::Hysteresis)),
        Box::new(StridePredictor::two_delta()),
        Box::new(FcmPredictor::new(1)),
        Box::new(FcmPredictor::new(3)),
        Box::new(FcmPredictor::with_config(3, Blending::SingleOrder)),
        Box::new(HybridPredictor::stride_fcm(3)),
        // The realizable tier: fixed direct-mapped tables and a delayed
        // update pipeline (single-PC sequences, so tiny tables suffice).
        Box::new(FiniteStridePredictor::new(TableSpec::new(4))),
        Box::new(FiniteFcmPredictor::new(3, TableSpec::new(4), TableSpec::new(8))),
        Box::new(FiniteHybridPredictor::paper_geometry(4)),
        Box::new(DelayedPredictor::new(StridePredictor::two_delta(), 8)),
    ]
}

fn main() {
    let n = 512;
    let period = 16;
    let sequences: Vec<(SequenceClass, Vec<u64>)> = vec![
        (SequenceClass::Constant, constant(42, n)),
        (SequenceClass::Stride, stride(100, 12, n)),
        (SequenceClass::NonStride, non_stride(7, n)),
        (SequenceClass::RepeatedStride, repeated_stride(1, 1, period, n)),
        (SequenceClass::RepeatedNonStride, repeated_non_stride(7, period, n)),
    ];

    let width = zoo().iter().map(|p| p.name().len()).max().unwrap_or(16) + 2;
    print!("{:<width$}", "predictor");
    for (class, _) in &sequences {
        print!("{:>8}", class.code());
    }
    println!("      (accuracy % over {n} values, period {period})");
    println!("{}", "-".repeat(width + 8 * sequences.len() + 6));

    for make in 0..zoo().len() {
        let name = zoo().remove(make).name().to_owned();
        print!("{name:<width$}");
        for (_, values) in &sequences {
            let mut predictor = zoo().remove(make);
            let learning = measure_learning(predictor.as_mut(), values);
            print!("{:>8.1}", learning.accuracy() * 100.0);
        }
        println!();
    }
    println!(
        "\nReading guide (paper Table 1): last value only learns constants; stride\n\
         variants learn strides; only fcm learns repeated non-strides; the hybrid\n\
         inherits the union of its components."
    );
}
