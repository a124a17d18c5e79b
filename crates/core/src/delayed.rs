//! Delayed table updates: relaxing the paper's immediate-update idealization.
//!
//! Section 3 of the paper: *"prediction tables are updated immediately after
//! a prediction is made, unlike the situation in practice where it may take
//! many cycles for the actual data value to be known and available for
//! prediction table updates."* In a real pipeline the true value of an
//! instruction only becomes available at writeback, many instructions after
//! the predictor was consulted for the *next* dynamic instances.
//!
//! [`DelayedPredictor`] wraps any [`Predictor`] and models exactly this: an
//! update is buffered and applied only after `delay` further observations
//! have been made, so predictions are served from state that is `delay`
//! observations stale. With `delay == 0` the wrapper is behaviourally
//! identical to the wrapped predictor. The `ext-delay` experiment
//! (`repro ext-delay`) quantifies the accuracy cost.

use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};
use std::collections::VecDeque;

/// Wraps a predictor so that updates take effect only after `delay` further
/// observations — the update latency of a real pipeline.
///
/// Each [`step`](Predictor::step) reads the inner predictor's (stale)
/// prediction, then queues the (id, pc, value) update; the oldest queued
/// update is applied to the inner predictor once the queue exceeds
/// `delay`. Pending updates are **not** consulted, which is precisely the
/// hazard a delayed-update pipeline suffers on tight-loop instructions.
///
/// # Examples
///
/// ```
/// use dvp_core::{DelayedPredictor, Interned, LastValuePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(DelayedPredictor::new(LastValuePredictor::new(), 2));
/// let pc = Pc(0x40);
/// p.update(pc, 7);
/// // The update is still in flight:
/// assert_eq!(p.predict(pc), None);
/// p.update(pc, 7);
/// p.update(pc, 7); // first update now applied
/// assert_eq!(p.predict(pc), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct DelayedPredictor<P> {
    inner: P,
    name: String,
    delay: usize,
    pending: VecDeque<(PcId, Pc, Value)>,
}

impl<P: Predictor> DelayedPredictor<P> {
    /// Wraps `inner` with an update latency of `delay` observations.
    ///
    /// `delay == 0` reproduces the paper's immediate-update idealization
    /// exactly.
    #[must_use]
    pub fn new(inner: P, delay: usize) -> Self {
        let name = format!("{}+d{delay}", inner.name());
        DelayedPredictor { inner, name, delay, pending: VecDeque::with_capacity(delay + 1) }
    }

    /// The configured update latency.
    #[must_use]
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Number of updates currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Shared access to the wrapped predictor.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Applies all pending updates immediately (e.g. at a trace boundary,
    /// where a pipeline would drain) and returns the wrapped predictor.
    #[must_use]
    pub fn into_inner(mut self) -> P {
        self.drain();
        self.inner
    }

    /// Applies all pending updates immediately.
    pub fn drain(&mut self) {
        while let Some((id, pc, value)) = self.pending.pop_front() {
            let _ = self.inner.step(id, pc, value);
        }
    }
}

impl<P: Predictor> Predictor for DelayedPredictor<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.inner.static_entries()
    }

    fn reserve_ids(&mut self, n: usize) {
        self.inner.reserve_ids(n);
    }

    #[inline]
    fn predict(&self, id: PcId, pc: Pc) -> Option<Value> {
        self.inner.predict(id, pc)
    }

    #[inline]
    fn step(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        let prediction = self.inner.predict(id, pc);
        self.pending.push_back((id, pc, actual));
        if self.pending.len() > self.delay {
            let (id, pc, value) = self.pending.pop_front().expect("non-empty: len > delay >= 0");
            let _ = self.inner.step(id, pc, value);
        }
        prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FcmPredictor, Interned, LastValuePredictor, StridePredictor};

    const PC: Pc = Pc(0x40);
    const ID: PcId = PcId(0);

    #[test]
    fn zero_delay_is_transparent() {
        let mut delayed = Interned::new(DelayedPredictor::new(StridePredictor::two_delta(), 0));
        let mut direct = Interned::new(StridePredictor::two_delta());
        for step in 0u64..500 {
            let pc = Pc(0x100 + (step % 7) * 4);
            let value = step.wrapping_mul(0x9e37_79b9) >> 13;
            assert_eq!(delayed.predict(pc), direct.predict(pc), "step {step}");
            delayed.update(pc, value);
            direct.update(pc, value);
        }
        assert_eq!(delayed.in_flight(), 0);
    }

    #[test]
    fn updates_apply_after_exactly_delay_observations() {
        let mut p = Interned::new(DelayedPredictor::new(LastValuePredictor::new(), 3));
        p.update(PC, 1);
        assert_eq!(p.in_flight(), 1);
        p.update(PC, 2);
        p.update(PC, 3);
        assert_eq!(p.in_flight(), 3);
        assert_eq!(p.predict(PC), None, "nothing applied yet");
        p.update(PC, 4);
        assert_eq!(p.in_flight(), 3);
        assert_eq!(p.predict(PC), Some(1), "oldest update applied");
    }

    #[test]
    fn constant_sequences_are_immune_to_delay() {
        // A constant stream mispredicts only during the pipeline fill.
        let mut p = Interned::new(DelayedPredictor::new(LastValuePredictor::new(), 8));
        let mut correct = 0;
        for _ in 0..100 {
            correct += u32::from(p.observe(PC, 42));
        }
        assert_eq!(correct, 100 - 9, "one cold miss + 8 in-flight misses");
    }

    #[test]
    fn tight_loop_strides_suffer_from_delay() {
        // With immediate update a stride sequence is exact from value 3; with
        // delay d, the predictor's "last" lags d behind and every prediction
        // is off by d strides.
        let mut delayed = Interned::new(DelayedPredictor::new(StridePredictor::two_delta(), 4));
        let mut correct = 0;
        for v in (0u64..200).map(|i| i * 10) {
            correct += u32::from(delayed.observe(PC, v));
        }
        assert_eq!(correct, 0, "stale last value shifts every stride prediction");

        // The same predictor with delay 0 is near-perfect.
        let mut direct = Interned::new(DelayedPredictor::new(StridePredictor::two_delta(), 0));
        let mut direct_correct = 0;
        for v in (0u64..200).map(|i| i * 10) {
            direct_correct += u32::from(direct.observe(PC, v));
        }
        assert_eq!(direct_correct, 197);
    }

    #[test]
    fn drain_applies_everything() {
        let mut p = DelayedPredictor::new(LastValuePredictor::new(), 16);
        p.step(ID, PC, 9);
        assert_eq!(p.predict(ID, PC), None);
        p.drain();
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.predict(ID, PC), Some(9));
    }

    #[test]
    fn into_inner_drains_first() {
        let mut p = DelayedPredictor::new(LastValuePredictor::new(), 5);
        p.step(ID, PC, 3);
        assert_eq!(p.into_inner().predict(ID, PC), Some(3));
    }

    #[test]
    fn name_reports_delay() {
        let p = Interned::new(DelayedPredictor::new(FcmPredictor::new(2), 7));
        assert_eq!(p.name(), "fcm2+d7");
    }

    #[test]
    fn interleaved_pcs_drain_in_order() {
        // Updates to different PCs share one in-order pipeline, as writeback
        // order would.
        let mut p = Interned::new(DelayedPredictor::new(LastValuePredictor::new(), 2));
        p.update(Pc(0), 10);
        p.update(Pc(4), 20);
        assert_eq!(p.predict(Pc(0)), None);
        p.update(Pc(8), 30);
        assert_eq!(p.predict(Pc(0)), Some(10));
        assert_eq!(p.predict(Pc(4)), None);
        p.update(Pc(12), 40);
        assert_eq!(p.predict(Pc(4)), Some(20));
    }
}
