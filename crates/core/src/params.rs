//! Tunable parameters for dependence discovery.

use serde::{Deserialize, Serialize};

use sailing_model::SailingError;

/// Parameters of snapshot dependence detection and the joint pipeline.
///
/// Defaults follow the conventions of the authors' Bayesian copy-detection
/// line of work: a small prior on dependence, a substantial per-item copy
/// rate once dependence exists, and a modest universe of plausible false
/// values per item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionParams {
    /// Prior probability that an arbitrary ordered source pair is dependent.
    pub prior_dependence: f64,
    /// Probability that a dependent source copies any particular shared item
    /// (the per-item copy rate `c`).
    pub copy_rate: f64,
    /// Probability a copied value is altered in transit (Table 1's `S5`
    /// "makes a change during the copying process"). A non-zero rate keeps a
    /// single divergent value from vetoing an otherwise perfect copy match.
    pub copy_mutation_rate: f64,
    /// Once a pair's dependence posterior reaches this threshold, the
    /// lower-ranked supporter's vote is ignored outright instead of
    /// fractionally damped — the paper's "we would like to ignore values
    /// that are copied" (Section 4, Data fusion).
    pub hard_damping_threshold: f64,
    /// Assumed number of plausible *false* values per item (`n`). The larger
    /// `n`, the stronger the evidence from a shared false value. Per-object
    /// observed diversity overrides this lower bound.
    pub n_false_values: usize,
    /// Initial source accuracy before any iteration.
    pub initial_accuracy: f64,
    /// Accuracies are clamped into `[accuracy_floor, accuracy_ceiling]` to
    /// keep vote weights and likelihoods finite.
    pub accuracy_floor: f64,
    /// See [`DetectionParams::accuracy_floor`].
    pub accuracy_ceiling: f64,
    /// Pairs sharing fewer objects than this are never tested (Example 4.1
    /// uses 10 shared books as the screening threshold).
    pub min_overlap: usize,
    /// Maximum iterations of the truth ↔ accuracy ↔ dependence loop.
    pub max_iterations: usize,
    /// The loop stops once no source accuracy moves by more than this.
    pub convergence_epsilon: f64,
    /// When `false`, the pipeline runs accuracy-weighted voting only
    /// (the ACCU baseline) without discounting copied votes.
    pub enable_copy_detection: bool,
    /// Number of contiguous pair ranges each discovery iteration runs on
    /// scoped threads, covering detection and refinement (1 = one range
    /// on the calling thread). Results are bitwise identical for every
    /// count.
    pub threads: usize,
}

impl Default for DetectionParams {
    fn default() -> Self {
        Self {
            prior_dependence: 0.2,
            copy_rate: 0.8,
            copy_mutation_rate: 0.1,
            hard_damping_threshold: 0.15,
            n_false_values: 10,
            initial_accuracy: 0.8,
            accuracy_floor: 0.05,
            accuracy_ceiling: 0.99,
            min_overlap: 3,
            max_iterations: 20,
            convergence_epsilon: 1e-4,
            enable_copy_detection: true,
            threads: 1,
        }
    }
}

impl DetectionParams {
    /// Parameters for the ACCU baseline: accuracy-aware but
    /// dependence-unaware.
    pub fn accu_baseline() -> Self {
        Self {
            enable_copy_detection: false,
            ..Self::default()
        }
    }

    /// Clamps an accuracy estimate into the configured band.
    #[inline]
    pub fn clamp_accuracy(&self, a: f64) -> f64 {
        a.clamp(self.accuracy_floor, self.accuracy_ceiling)
    }

    /// Validates parameter consistency; reports the first violated
    /// constraint as a typed [`SailingError::InvalidParameter`].
    pub fn validate(&self) -> Result<(), SailingError> {
        fn prob(name: &'static str, p: f64) -> Result<(), SailingError> {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(SailingError::param_outside_unit(name, p))
            }
        }
        prob("prior_dependence", self.prior_dependence)?;
        prob("copy_rate", self.copy_rate)?;
        prob("copy_mutation_rate", self.copy_mutation_rate)?;
        prob("hard_damping_threshold", self.hard_damping_threshold)?;
        prob("initial_accuracy", self.initial_accuracy)?;
        prob("accuracy_floor", self.accuracy_floor)?;
        prob("accuracy_ceiling", self.accuracy_ceiling)?;
        if self.accuracy_floor >= self.accuracy_ceiling {
            return Err(SailingError::param(
                "accuracy_floor",
                format!(
                    "{} must be below accuracy_ceiling {}",
                    self.accuracy_floor, self.accuracy_ceiling
                ),
            ));
        }
        if self.n_false_values == 0 {
            return Err(SailingError::param("n_false_values", "must be at least 1"));
        }
        if self.max_iterations == 0 {
            return Err(SailingError::param("max_iterations", "must be at least 1"));
        }
        if self.threads == 0 {
            return Err(SailingError::param("threads", "must be at least 1"));
        }
        if self.convergence_epsilon <= 0.0 {
            return Err(SailingError::param(
                "convergence_epsilon",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// Parameters of temporal (update-trace) dependence detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalParams {
    /// Prior probability of dependence for an ordered pair.
    pub prior_dependence: f64,
    /// Per-update copy rate once dependent.
    pub copy_rate: f64,
    /// Maximum lag (in trace time units) for an update of the candidate
    /// copier to count as a repetition of the original's update. Captures
    /// *lazy copiers* (Example 3.2: `S3` trails `S1` by about a year).
    pub max_lag: i64,
    /// Pairs sharing fewer objects than this are not tested.
    pub min_overlap: usize,
    /// Additive smoothing for update-rarity estimates.
    pub rarity_smoothing: f64,
}

impl Default for TemporalParams {
    fn default() -> Self {
        Self {
            prior_dependence: 0.2,
            copy_rate: 0.8,
            max_lag: 2,
            min_overlap: 2,
            rarity_smoothing: 0.5,
        }
    }
}

impl TemporalParams {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), SailingError> {
        if !(0.0..=1.0).contains(&self.prior_dependence) {
            return Err(SailingError::param_outside_unit(
                "prior_dependence",
                self.prior_dependence,
            ));
        }
        if !(0.0..=1.0).contains(&self.copy_rate) {
            return Err(SailingError::param_outside_unit(
                "copy_rate",
                self.copy_rate,
            ));
        }
        if self.max_lag < 0 {
            return Err(SailingError::param("max_lag", "must be non-negative"));
        }
        if self.rarity_smoothing <= 0.0 {
            return Err(SailingError::param("rarity_smoothing", "must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert_eq!(DetectionParams::default().validate(), Ok(()));
        assert_eq!(TemporalParams::default().validate(), Ok(()));
        assert_eq!(DetectionParams::accu_baseline().validate(), Ok(()));
    }

    #[test]
    fn accu_baseline_disables_copy_detection() {
        assert!(!DetectionParams::accu_baseline().enable_copy_detection);
        assert!(DetectionParams::default().enable_copy_detection);
    }

    #[test]
    fn clamp_accuracy_respects_band() {
        let p = DetectionParams::default();
        assert_eq!(p.clamp_accuracy(1.0), p.accuracy_ceiling);
        assert_eq!(p.clamp_accuracy(0.0), p.accuracy_floor);
        assert_eq!(p.clamp_accuracy(0.5), 0.5);
    }

    #[test]
    fn validation_catches_bad_probabilities() {
        let bad = DetectionParams {
            prior_dependence: 1.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectionParams {
            copy_rate: -0.1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_catches_structural_errors() {
        let bad = DetectionParams {
            accuracy_floor: 0.9,
            accuracy_ceiling: 0.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectionParams {
            n_false_values: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectionParams {
            max_iterations: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectionParams {
            threads: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectionParams {
            convergence_epsilon: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn temporal_validation() {
        let bad = TemporalParams {
            max_lag: -1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TemporalParams {
            rarity_smoothing: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TemporalParams {
            prior_dependence: 2.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TemporalParams {
            copy_rate: 2.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let p = DetectionParams::default();
        let back: DetectionParams =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(p, back);
    }
}
