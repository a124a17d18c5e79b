//! The value-sequence taxonomy of Section 1.1 and the learning-time /
//! learning-degree framework of Section 2.3 (Table 1, Figure 2).

use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};

/// The paper's informal classification of simple value sequences.
///
/// # Examples
///
/// ```
/// use dvp_core::sequences::{classify, SequenceClass};
///
/// assert_eq!(classify(&[5, 5, 5, 5]), SequenceClass::Constant);
/// assert_eq!(classify(&[1, 2, 3, 4]), SequenceClass::Stride);
/// assert_eq!(classify(&[1, 2, 3, 1, 2, 3]), SequenceClass::RepeatedStride);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequenceClass {
    /// `5 5 5 5 …` — the same value repeats.
    Constant,
    /// `1 2 3 4 …` — consecutive elements differ by a fixed delta.
    Stride,
    /// Anything that is not constant/stride and does not repeat.
    NonStride,
    /// A finite stride run repeated: `1 2 3 1 2 3 …`.
    RepeatedStride,
    /// A finite non-stride run repeated: `1 -13 -99 7 1 -13 -99 7 …`.
    RepeatedNonStride,
}

impl SequenceClass {
    /// Short code used in Table 1: C, S, NS, RS, RNS.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SequenceClass::Constant => "C",
            SequenceClass::Stride => "S",
            SequenceClass::NonStride => "NS",
            SequenceClass::RepeatedStride => "RS",
            SequenceClass::RepeatedNonStride => "RNS",
        }
    }

    /// All classes in the paper's order.
    pub const ALL: [SequenceClass; 5] = [
        SequenceClass::Constant,
        SequenceClass::Stride,
        SequenceClass::NonStride,
        SequenceClass::RepeatedStride,
        SequenceClass::RepeatedNonStride,
    ];
}

impl std::fmt::Display for SequenceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Generates a constant sequence `value, value, …` of length `n`.
#[must_use]
pub fn constant(value: Value, n: usize) -> Vec<Value> {
    vec![value; n]
}

/// Generates a stride sequence `start, start+delta, …` of length `n`
/// (wrapping arithmetic; `delta` may encode a negative stride as a
/// two's-complement bit pattern).
#[must_use]
pub fn stride(start: Value, delta: Value, n: usize) -> Vec<Value> {
    (0..n as u64).map(|i| start.wrapping_add(delta.wrapping_mul(i))).collect()
}

/// Generates a deterministic pseudo-random non-stride sequence from `seed`.
///
/// Uses an xorshift64* generator so results are reproducible across runs and
/// platforms. The all-zero state is avoided by seeding with a fixed offset.
#[must_use]
pub fn non_stride(seed: u64, n: usize) -> Vec<Value> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 1;
    }
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        })
        .collect()
}

/// Repeats `period` until the output has length `n` (truncating the final
/// partial period).
///
/// # Panics
///
/// Panics if `period` is empty.
#[must_use]
pub fn repeated(period: &[Value], n: usize) -> Vec<Value> {
    assert!(!period.is_empty(), "period must be non-empty");
    period.iter().copied().cycle().take(n).collect()
}

/// A repeated stride sequence with the given `period` length:
/// `start, start+delta, …, start+(period-1)·delta`, repeated.
///
/// # Panics
///
/// Panics if `period == 0`.
#[must_use]
pub fn repeated_stride(start: Value, delta: Value, period: usize, n: usize) -> Vec<Value> {
    repeated(&stride(start, delta, period), n)
}

/// A repeated non-stride sequence with `period` distinct pseudo-random
/// values.
///
/// # Panics
///
/// Panics if `period == 0`.
#[must_use]
pub fn repeated_non_stride(seed: u64, period: usize, n: usize) -> Vec<Value> {
    repeated(&non_stride(seed, period), n)
}

/// Classifies a complete sequence per the Section 1.1 taxonomy.
///
/// A sequence shorter than 2 elements is `Constant`. Repetition is detected
/// by finding the smallest period that tiles the sequence; pure stride and
/// constant take precedence over repetition.
#[must_use]
pub fn classify(values: &[Value]) -> SequenceClass {
    if values.len() < 2 || values.windows(2).all(|w| w[0] == w[1]) {
        return SequenceClass::Constant;
    }
    let delta = values[1].wrapping_sub(values[0]);
    if values.windows(2).all(|w| w[1].wrapping_sub(w[0]) == delta) {
        return SequenceClass::Stride;
    }
    // Find the smallest tiling period (if any) that repeats at least twice.
    let n = values.len();
    for p in 1..=n / 2 {
        if (p..n).all(|i| values[i] == values[i - p]) {
            let period = &values[..p];
            // A period of < 3 values cannot evidence a stride (any two
            // values trivially form one), so alternations are non-stride.
            let pd = period.get(1).map(|v| v.wrapping_sub(period[0]));
            let is_stride_run =
                p >= 3 && period.windows(2).all(|w| Some(w[1].wrapping_sub(w[0])) == pd);
            return if is_stride_run {
                SequenceClass::RepeatedStride
            } else {
                SequenceClass::RepeatedNonStride
            };
        }
    }
    SequenceClass::NonStride
}

/// Learning behaviour of a predictor on a sequence (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Learning {
    /// Learning time (LT): the number of values observed before the first
    /// correct prediction. `None` if no prediction was ever correct.
    pub learning_time: Option<usize>,
    /// Learning degree (LD): the fraction of correct predictions *after*
    /// the first correct one (the paper's "percentage of correct
    /// predictions following the first correct prediction"), in `[0, 1]`.
    pub learning_degree: f64,
    /// Total correct predictions over the whole sequence.
    pub correct: usize,
    /// Sequence length.
    pub total: usize,
}

impl Learning {
    /// Overall accuracy over the entire sequence, in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// Measures learning time and learning degree of `predictor` on `values`,
/// treating the whole sequence as the output of a single static instruction.
///
/// # Examples
///
/// ```
/// use dvp_core::sequences::{measure_learning, constant};
/// use dvp_core::LastValuePredictor;
///
/// let learn = measure_learning(&mut LastValuePredictor::new(), &constant(5, 50));
/// assert_eq!(learn.learning_time, Some(1)); // one observation suffices
/// assert_eq!(learn.learning_degree, 1.0);   // and then it never misses
/// ```
pub fn measure_learning<P: Predictor + ?Sized>(predictor: &mut P, values: &[Value]) -> Learning {
    let (id, pc) = (PcId(0), Pc(0));
    let mut first_correct: Option<usize> = None;
    let mut correct = 0usize;
    let mut correct_after = 0usize;
    let mut total_after = 0usize;
    for (i, &v) in values.iter().enumerate() {
        let ok = predictor.step(id, pc, v) == Some(v);
        if ok {
            correct += 1;
            if first_correct.is_none() {
                first_correct = Some(i);
            }
        }
        if let Some(fc) = first_correct {
            if i > fc {
                total_after += 1;
                if ok {
                    correct_after += 1;
                }
            }
        }
    }
    Learning {
        learning_time: first_correct,
        learning_degree: if total_after == 0 {
            if first_correct.is_some() {
                1.0
            } else {
                0.0
            }
        } else {
            correct_after as f64 / total_after as f64
        },
        correct,
        total: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FcmPredictor, LastValuePredictor, StridePolicy, StridePredictor};

    #[test]
    fn generators_have_requested_length() {
        assert_eq!(constant(1, 7).len(), 7);
        assert_eq!(stride(0, 2, 9).len(), 9);
        assert_eq!(non_stride(1, 11).len(), 11);
        assert_eq!(repeated(&[1, 2], 5), vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn stride_generator_wraps() {
        let seq = stride(u64::MAX - 1, 1, 4);
        assert_eq!(seq, vec![u64::MAX - 1, u64::MAX, 0, 1]);
    }

    #[test]
    fn negative_stride_via_twos_complement() {
        let seq = stride(10, (-3i64) as u64, 4);
        assert_eq!(seq, vec![10, 7, 4, 1]);
    }

    #[test]
    fn non_stride_is_deterministic_and_seed_sensitive() {
        assert_eq!(non_stride(42, 5), non_stride(42, 5));
        assert_ne!(non_stride(42, 5), non_stride(43, 5));
    }

    #[test]
    fn non_stride_zero_seed_is_fine() {
        let seq = non_stride(0x9E37_79B9_7F4A_7C15, 3); // forces state==0 path
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn classify_all_simple_classes() {
        assert_eq!(classify(&constant(9, 10)), SequenceClass::Constant);
        assert_eq!(classify(&stride(3, 4, 10)), SequenceClass::Stride);
        assert_eq!(classify(&non_stride(7, 32)), SequenceClass::NonStride);
        assert_eq!(classify(&repeated_stride(1, 1, 3, 12)), SequenceClass::RepeatedStride);
        assert_eq!(classify(&repeated_non_stride(5, 4, 16)), SequenceClass::RepeatedNonStride);
    }

    #[test]
    fn classify_edge_cases() {
        assert_eq!(classify(&[]), SequenceClass::Constant);
        assert_eq!(classify(&[1]), SequenceClass::Constant);
        assert_eq!(classify(&[1, 2]), SequenceClass::Stride);
        // Alternation = repeated non-stride with period 2.
        assert_eq!(classify(&[1, 5, 1, 5, 1, 5]), SequenceClass::RepeatedNonStride);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn repeated_rejects_empty_period() {
        let _ = repeated(&[], 5);
    }

    // ----- Table 1 rows, measured -------------------------------------

    #[test]
    fn table1_last_value_on_constant() {
        let learn = measure_learning(&mut LastValuePredictor::new(), &constant(5, 100));
        assert_eq!(learn.learning_time, Some(1), "LT = 1");
        assert_eq!(learn.learning_degree, 1.0, "LD = 100%");
    }

    #[test]
    fn table1_last_value_useless_on_stride() {
        let learn = measure_learning(&mut LastValuePredictor::new(), &stride(0, 1, 100));
        assert_eq!(learn.correct, 0);
    }

    #[test]
    fn table1_stride_on_constant() {
        let mut p = StridePredictor::two_delta();
        let learn = measure_learning(&mut p, &constant(5, 100));
        assert_eq!(learn.learning_time, Some(1), "LT = 1 (zero stride)");
        assert_eq!(learn.learning_degree, 1.0);
    }

    #[test]
    fn table1_stride_on_stride() {
        // Paper: LT = 2, LD = 100%. The hysteresis variant achieves LT = 2.
        let mut p = StridePredictor::with_policy(StridePolicy::Hysteresis);
        let learn = measure_learning(&mut p, &stride(10, 3, 100));
        assert_eq!(learn.learning_time, Some(2), "LT = 2");
        assert_eq!(learn.learning_degree, 1.0, "LD = 100%");
    }

    #[test]
    fn table1_stride_on_repeated_stride() {
        // Paper: LD = (p-1)/p with one miss per period.
        let p_len = 5;
        let mut p = StridePredictor::with_policy(StridePolicy::Hysteresis);
        let learn = measure_learning(&mut p, &repeated_stride(1, 1, p_len, 20 * p_len));
        let expected = (p_len - 1) as f64 / p_len as f64;
        assert!(
            (learn.learning_degree - expected).abs() < 0.03,
            "LD {} vs (p-1)/p = {}",
            learn.learning_degree,
            expected
        );
    }

    #[test]
    fn table1_fcm_on_repeated_sequences_reaches_full_accuracy() {
        for seq in [repeated_stride(1, 1, 6, 120), repeated_non_stride(3, 6, 120)] {
            let order = 2;
            let mut p = FcmPredictor::new(order);
            let learn = measure_learning(&mut p, &seq);
            // Paper: LT ≈ p + o, LD = 100%.
            let lt = learn.learning_time.expect("fcm learns repeated sequences");
            assert!(lt <= 6 + order + 2, "LT {lt} should be ≈ p + o");
            assert!(learn.learning_degree > 0.99, "LD {}", learn.learning_degree);
        }
    }

    #[test]
    fn table1_fcm_useless_on_pure_stride_and_non_stride() {
        for seq in [stride(0, 7, 150), non_stride(11, 150)] {
            let mut p = FcmPredictor::new(3);
            let learn = measure_learning(&mut p, &seq);
            assert!(
                learn.accuracy() < 0.05,
                "fcm should fail on non-repeating sequences: {}",
                learn.accuracy()
            );
        }
    }

    #[test]
    fn figure2_worked_example() {
        // Figure 2: sequence 1 2 3 4 repeated; stride (with hysteresis)
        // mispredicts exactly once per period in steady state; order-2 FCM
        // learns after period+order values and then never mispredicts.
        let seq = repeated_stride(1, 1, 4, 48);
        let mut s = StridePredictor::with_policy(StridePolicy::Hysteresis);
        let learn_s = measure_learning(&mut s, &seq);
        assert!((learn_s.learning_degree - 0.75).abs() < 0.05, "LD ≈ 75%");

        let mut f = FcmPredictor::new(2);
        let learn_f = measure_learning(&mut f, &seq);
        assert_eq!(learn_f.learning_degree, 1.0, "no mispredictions in steady state");
        let lt = learn_f.learning_time.unwrap();
        assert!((5..=8).contains(&lt), "LT ≈ period + order = 6, measured {lt}");
    }

    #[test]
    fn learning_degree_is_one_when_only_last_prediction_correct() {
        // Sequence where the single correct prediction is the final element.
        let mut p = LastValuePredictor::new();
        let learn = measure_learning(&mut p, &[1, 1]);
        assert_eq!(learn.learning_time, Some(1));
        assert_eq!(learn.learning_degree, 1.0);
    }

    #[test]
    fn class_codes_match_paper() {
        let codes: Vec<_> = SequenceClass::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, vec!["C", "S", "NS", "RS", "RNS"]);
    }
}
