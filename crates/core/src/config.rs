//! Named, reusable predictor configurations.
//!
//! A [`PredictorConfig`] is a recipe: a display name plus a factory that
//! builds a fresh boxed [`Predictor`] with empty tables. Recipes exist so
//! that the same configuration can be instantiated many times — once per
//! benchmark in a sequential harness, or once per instruction in the
//! parallel replay engine — while the *set* of configurations under study
//! stays a single value that can be enumerated, cloned, and sent across
//! threads.

use crate::{FcmPredictor, LastValuePredictor, Predictor, StridePredictor};
use std::fmt;
use std::sync::Arc;

/// A named recipe for constructing a value predictor.
///
/// Cloning a config is cheap (the factory is behind an [`Arc`]); building
/// from it always yields a predictor with empty tables.
///
/// # Examples
///
/// ```
/// use dvp_core::{Predictor, PredictorConfig};
/// use dvp_trace::{Pc, PcId};
///
/// let config = PredictorConfig::new("s2", || {
///     Box::new(dvp_core::StridePredictor::two_delta())
/// });
/// let mut a = config.build();
/// let b = config.build(); // independent tables
/// a.step(PcId(0), Pc(0), 7);
/// assert_eq!(a.predict(PcId(0), Pc(0)), Some(7));
/// assert_eq!(b.predict(PcId(0), Pc(0)), None);
/// ```
#[derive(Clone)]
pub struct PredictorConfig {
    name: String,
    build: Arc<dyn Fn() -> Box<dyn Predictor> + Send + Sync>,
}

impl PredictorConfig {
    /// Creates a config from a display name and a factory closure.
    pub fn new<F>(name: impl Into<String>, build: F) -> Self
    where
        F: Fn() -> Box<dyn Predictor> + Send + Sync + 'static,
    {
        PredictorConfig { name: name.into(), build: Arc::new(build) }
    }

    /// The configuration's display name (used in experiment reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds a fresh predictor with empty tables.
    #[must_use]
    pub fn build(&self) -> Box<dyn Predictor> {
        (self.build)()
    }

    /// The five predictors of the paper's accuracy figures (Figures 3–7),
    /// in reporting order: `l`, `s2`, `fcm1`, `fcm2`, `fcm3`.
    #[must_use]
    pub fn paper_bank() -> Vec<PredictorConfig> {
        let mut bank = vec![
            PredictorConfig::new("l", || Box::new(LastValuePredictor::new())),
            PredictorConfig::new("s2", || Box::new(StridePredictor::two_delta())),
        ];
        bank.extend(PredictorConfig::fcm_orders(1..=3));
        bank
    }

    /// One order-`k` FCM config (lazy-exclusion blending, exact counters —
    /// the paper's configuration) per order in `orders`.
    #[must_use]
    pub fn fcm_orders(orders: impl IntoIterator<Item = usize>) -> Vec<PredictorConfig> {
        orders
            .into_iter()
            .map(|order| {
                PredictorConfig::new(format!("fcm{order}"), move || {
                    Box::new(FcmPredictor::new(order))
                })
            })
            .collect()
    }
}

impl fmt::Debug for PredictorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredictorConfig").field("name", &self.name).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BankForm;
    use dvp_trace::{Pc, PcId};

    #[test]
    fn paper_bank_names_match_reporting_order() {
        let names: Vec<String> =
            PredictorConfig::paper_bank().iter().map(|c| c.name().to_owned()).collect();
        assert_eq!(names, ["l", "s2", "fcm1", "fcm2", "fcm3"]);
    }

    #[test]
    fn built_predictors_are_independent_and_freshly_named() {
        for config in PredictorConfig::paper_bank() {
            let mut a = config.build();
            let b = config.build();
            assert_eq!(a.name(), config.name());
            a.step(PcId(0), Pc(4), 9);
            assert_eq!(a.static_entries(), 1);
            assert_eq!(b.static_entries(), 0, "{}: builds must not share tables", config.name());
        }
    }

    #[test]
    fn fcm_orders_covers_the_requested_range() {
        let bank = PredictorConfig::fcm_orders(1..=8);
        assert_eq!(bank.len(), 8);
        assert_eq!(bank[7].name(), "fcm8");
        // The built predictor agrees with its recipe's name.
        assert_eq!(bank[7].build().name(), "fcm8");
        assert_eq!(bank[7].build().bank_form(), Some(BankForm::Fcm(8)));
    }

    #[test]
    fn the_built_instance_declares_its_form_never_the_name() {
        let forms: Vec<_> =
            PredictorConfig::paper_bank().iter().map(|c| c.build().bank_form()).collect();
        let fcm = |k| Some(BankForm::Fcm(k));
        assert_eq!(forms, [None, Some(BankForm::TwoDeltaStride), fcm(1), fcm(2), fcm(3)]);
        let custom = PredictorConfig::new("mine", || Box::new(FcmPredictor::new(2)));
        assert_eq!(custom.build().bank_form(), fcm(2), "any factory of FcmPredictor::new(2)");
        let impostor = PredictorConfig::new("fcm2", || {
            Box::new(FcmPredictor::with_config(2, crate::Blending::SingleOrder))
        });
        assert_eq!(impostor.build().bank_form(), None, "a name is no form");
        let hybrid =
            PredictorConfig::new("hybrid", || Box::new(crate::HybridPredictor::stride_fcm(2)));
        assert_eq!(hybrid.build().bank_form(), Some(BankForm::StrideFcm(2)));
    }

    #[test]
    fn only_unaliased_immediate_predictors_keep_per_id_state() {
        use crate::{
            DelayedPredictor, FiniteFcmPredictor, FiniteHybridPredictor, FiniteLastValuePredictor,
            FiniteStridePredictor, HybridPredictor, TableSpec,
        };
        for config in PredictorConfig::paper_bank() {
            assert!(config.build().keeps_per_id_state(), "{}", config.name());
        }
        let spec = TableSpec::new(3);
        let per_id: [(Box<dyn Predictor>, bool); 8] = [
            (Box::new(HybridPredictor::stride_fcm(2)), true),
            (Box::new(FcmPredictor::with_config(2, crate::Blending::SingleOrder)), true),
            (
                Box::new(HybridPredictor::new(
                    FiniteStridePredictor::new(spec),
                    FcmPredictor::new(1),
                )),
                false,
            ),
            (Box::new(DelayedPredictor::new(LastValuePredictor::new(), 4)), false),
            (Box::new(FiniteLastValuePredictor::new(spec)), false),
            (Box::new(FiniteStridePredictor::new(spec)), false),
            (Box::new(FiniteFcmPredictor::new(2, spec, spec)), false),
            (Box::new(FiniteHybridPredictor::paper_geometry(3)), false),
        ];
        for (predictor, want) in per_id {
            assert_eq!(predictor.keeps_per_id_state(), want, "{}", predictor.name());
        }
    }

    #[test]
    fn clones_share_the_factory() {
        let config = PredictorConfig::new("l", || Box::new(LastValuePredictor::new()));
        let clone = config.clone();
        assert_eq!(clone.name(), "l");
        assert_eq!(clone.build().name(), "l");
        assert!(format!("{config:?}").contains("PredictorConfig"));
    }
}
