//! Bayesian snapshot copy detection (similarity-dependence).
//!
//! Implements the paper's key snapshot intuition (Section 3.2): *data sources
//! that share common false values are much more likely to be dependent than
//! data sources that share common true values* — "akin to how teachers
//! determine if students copied from each other in a multiple-choice quiz".
//!
//! For a source pair, each shared object contributes evidence depending on
//! whether the two values agree and how likely the agreed value is to be
//! true. Under independence a shared *false* value requires both sources to
//! independently pick the same wrong value out of `n` possibilities — very
//! unlikely — while under copying it merely requires the original to be
//! wrong. The posterior over {independent, A copies B, B copies A} follows
//! by Bayes' rule.

use sailing_model::{SnapshotView, SourceId};

use crate::params::DetectionParams;
use crate::report::{DependenceKind, Direction, PairDependence};
use crate::truth::{effective_n_false, ValueProbabilities};

/// Per-hypothesis log-likelihoods of one pair's joint observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairLikelihoods {
    /// Log-likelihood under independence.
    pub log_independent: f64,
    /// Log-likelihood under "`a` copies from `b`".
    pub log_a_copies_b: f64,
    /// Log-likelihood under "`b` copies from `a`".
    pub log_b_copies_a: f64,
    /// Number of shared objects.
    pub overlap: usize,
    /// Soft count of shared values weighted by probability of being false.
    pub shared_false_mass: f64,
}

/// Probability of both sources asserting the same value, split by the value
/// being true/false, plus the probability of differing — under independence.
fn independent_probs(aa: f64, ab: f64, n: f64) -> (f64, f64, f64) {
    let pt = aa * ab;
    let pf = (1.0 - aa) * (1.0 - ab) / n;
    let pd = (1.0 - pt - pf).max(1e-12);
    (pt, pf, pd)
}

/// Same, under "the copier copies each item with rate `c` from an original
/// with accuracy `a_orig`, mutating the copied value with rate `mu`";
/// `a_copier` is the copier's own accuracy for the independent remainder.
fn copying_probs(a_orig: f64, a_copier: f64, c: f64, mu: f64, n: f64) -> (f64, f64, f64) {
    let (pt_ind, pf_ind, pd_ind) = independent_probs(a_orig, a_copier, n);
    let keep = c * (1.0 - mu);
    let pt = keep * a_orig + (1.0 - c) * pt_ind;
    let pf = keep * (1.0 - a_orig) + (1.0 - c) * pf_ind;
    let pd = (c * mu + (1.0 - c) * pd_ind).max(1e-12);
    (pt, pf, pd)
}

/// The nine per-object hypothesis probabilities of one pair, which depend
/// only on the pair's accuracies, the copy parameters, and `n`.
#[derive(Debug, Clone, Copy)]
struct HypothesisProbs {
    /// Independent: shared-true, shared-false, differ.
    ind: (f64, f64, f64),
    /// "`a` copies `b`": the original is `b`.
    a_on_b: (f64, f64, f64),
    /// "`b` copies `a`": the original is `a`.
    b_on_a: (f64, f64, f64),
}

/// Per-pair cache of [`HypothesisProbs`] keyed by `n`.
///
/// Across one pair's overlap the accuracies and copy parameters are fixed,
/// so the triples vary only with the per-object effective `n`. The
/// pre-columnar code recomputed all nine probabilities for every shared
/// object; here each distinct `n` is computed once. `n` is always an
/// integral count (the effective-false-value count, bounded by the
/// per-object value diversity), so the cache is a direct-indexed table —
/// O(1) hits regardless of how many distinct `n` values an overlap spans.
struct PairHypotheses {
    aa: f64,
    ab: f64,
    c: f64,
    mu: f64,
    by_n: Vec<Option<HypothesisProbs>>,
}

impl PairHypotheses {
    fn new(aa: f64, ab: f64, c: f64, mu: f64) -> Self {
        Self {
            aa,
            ab,
            c,
            mu,
            by_n: Vec::new(),
        }
    }

    #[inline]
    fn probs_for(&mut self, n: f64) -> HypothesisProbs {
        let idx = n as usize;
        if idx >= self.by_n.len() {
            self.by_n.resize(idx + 1, None);
        }
        if let Some(h) = self.by_n[idx] {
            return h;
        }
        let h = HypothesisProbs {
            ind: independent_probs(self.aa, self.ab, n),
            a_on_b: copying_probs(self.ab, self.aa, self.c, self.mu, n),
            b_on_a: copying_probs(self.aa, self.ab, self.c, self.mu, n),
        };
        self.by_n[idx] = Some(h);
        h
    }
}

/// Computes the three hypothesis log-likelihoods for a pair from the current
/// value probabilities.
///
/// The truth of a shared value is a latent variable: a shared value that is
/// true with probability `p` contributes the **marginal** likelihood
/// `ln(p·P_sharedtrue + (1−p)·P_sharedfalse)` to each hypothesis. The
/// marginal (not the expected log-likelihood — Jensen's inequality makes
/// that difference decisive) keeps the evidence weak while the truth is
/// still uncertain, so honest sources that merely share disputed values are
/// not flagged; as the iterative scheme sharpens the truth estimates,
/// confidently-false shared values dominate exactly as the paper's
/// intuition 1 prescribes.
pub fn pair_likelihoods(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> PairLikelihoods {
    pair_likelihoods_impl(snapshot, a, b, probs, accuracies, params, |object| {
        effective_n_false(snapshot, object, params) as f64
    })
}

/// [`pair_likelihoods`] with the effective-`n` column hoisted out: `n_false`
/// is [`crate::truth::effective_n_false_table`]'s output, computed once per iteration (it
/// is snapshot-invariant) instead of once per shared object per pair.
pub fn pair_likelihoods_with(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    n_false: &[f64],
    params: &DetectionParams,
) -> PairLikelihoods {
    pair_likelihoods_impl(snapshot, a, b, probs, accuracies, params, |object| {
        n_false.get(object.index()).copied().unwrap_or(1.0)
    })
}

fn pair_likelihoods_impl(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
    n_of: impl Fn(sailing_model::ObjectId) -> f64,
) -> PairLikelihoods {
    let aa = params.clamp_accuracy(accuracies.get(a.index()).copied().unwrap_or(0.5));
    let ab = params.clamp_accuracy(accuracies.get(b.index()).copied().unwrap_or(0.5));
    let mut hyp = PairHypotheses::new(aa, ab, params.copy_rate, params.copy_mutation_rate);

    let mut out = PairLikelihoods {
        log_independent: 0.0,
        log_a_copies_b: 0.0,
        log_b_copies_a: 0.0,
        overlap: 0,
        shared_false_mass: 0.0,
    };

    for (object, va, vb) in snapshot.overlap(a, b) {
        out.overlap += 1;
        let h = hyp.probs_for(n_of(object));
        let (it, if_, id) = h.ind;
        let (abt, abf, abd) = h.a_on_b;
        let (bat, baf, bad) = h.b_on_a;

        if va == vb {
            let p_true = probs.prob(object, va);
            let p_false = 1.0 - p_true;
            out.shared_false_mass += p_false;
            out.log_independent += (p_true * it + p_false * if_).max(1e-300).ln();
            out.log_a_copies_b += (p_true * abt + p_false * abf).max(1e-300).ln();
            out.log_b_copies_a += (p_true * bat + p_false * baf).max(1e-300).ln();
        } else {
            out.log_independent += id.ln();
            out.log_a_copies_b += abd.ln();
            out.log_b_copies_a += bad.ln();
        }
    }
    out
}

/// Turns the three log-likelihoods into a posterior [`PairDependence`].
pub fn posterior(
    a: SourceId,
    b: SourceId,
    lik: &PairLikelihoods,
    params: &DetectionParams,
) -> PairDependence {
    let prior_dep = params.prior_dependence;
    let log_priors = [
        (1.0 - prior_dep).max(1e-12).ln(),
        (prior_dep / 2.0).max(1e-12).ln(),
        (prior_dep / 2.0).max(1e-12).ln(),
    ];
    let logs = [
        log_priors[0] + lik.log_independent,
        log_priors[1] + lik.log_a_copies_b,
        log_priors[2] + lik.log_b_copies_a,
    ];
    let m = logs.iter().fold(f64::NEG_INFINITY, |x, &y| x.max(y));
    let exps: Vec<f64> = logs.iter().map(|&l| (l - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    let p_ind = exps[0] / z;
    let p_ab = exps[1] / z;
    let p_ba = exps[2] / z;

    let probability = 1.0 - p_ind;
    let prob_a_on_b = if p_ab + p_ba > 0.0 {
        p_ab / (p_ab + p_ba)
    } else {
        0.5
    };
    let direction = if probability < 0.5 || (prob_a_on_b - 0.5).abs() < 0.1 {
        Direction::Unknown
    } else if prob_a_on_b > 0.5 {
        Direction::AOnB
    } else {
        Direction::BOnA
    };
    PairDependence {
        a,
        b,
        probability,
        prob_a_on_b,
        kind: DependenceKind::Similarity,
        direction,
        overlap: lik.overlap,
        diagnostic: lik.log_a_copies_b.max(lik.log_b_copies_a) - lik.log_independent,
    }
    .canonical()
}

/// Detects copying for one pair; `None` when the overlap is below
/// [`DetectionParams::min_overlap`].
pub fn detect_pair(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> Option<PairDependence> {
    let lik = pair_likelihoods(snapshot, a, b, probs, accuracies, params);
    (lik.overlap >= params.min_overlap).then(|| posterior(a, b, &lik, params))
}

/// [`detect_pair`] with the effective-`n` column hoisted out — the form
/// [`crate::pairs::detect_all_with_pairs`] and the discovery loop's pair
/// ranges use.
pub fn detect_pair_with(
    snapshot: &SnapshotView,
    a: SourceId,
    b: SourceId,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    n_false: &[f64],
    params: &DetectionParams,
) -> Option<PairDependence> {
    let lik = pair_likelihoods_with(snapshot, a, b, probs, accuracies, n_false, params);
    (lik.overlap >= params.min_overlap).then(|| posterior(a, b, &lik, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{naive_probabilities, weighted_vote, DependenceMatrix};
    use sailing_model::fixtures;

    fn setup_table1() -> (
        sailing_model::ClaimStore,
        SnapshotView,
        ValueProbabilities,
        Vec<f64>,
        DetectionParams,
    ) {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = naive_probabilities(&snap);
        (store, snap, probs, accs, params)
    }

    #[test]
    fn exact_copiers_are_detected() {
        // One-shot detection from five objects is necessarily soft (the
        // iterative pipeline sharpens it to ≈1); what must hold is that the
        // exact copy stands above the dependence prior and above every
        // independent pair.
        let (store, snap, probs, accs, params) = setup_table1();
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        let dep = detect_pair(&snap, s3, s4, &probs, &accs, &params).unwrap();
        assert!(
            dep.probability > 0.35 && dep.diagnostic > 0.5,
            "S3–S4 share five identical values incl. disputed ones: {dep:?}"
        );
        assert_eq!(dep.overlap, 5);
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let indep = detect_pair(&snap, s1, s2, &probs, &accs, &params).unwrap();
        assert!(dep.probability > 2.0 * indep.probability);
    }

    #[test]
    fn near_copiers_are_detected() {
        let (store, snap, probs, accs, params) = setup_table1();
        let s3 = store.source_id("S3").unwrap();
        let s5 = store.source_id("S5").unwrap();
        let dep = detect_pair(&snap, s3, s5, &probs, &accs, &params).unwrap();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let indep = detect_pair(&snap, s1, s2, &probs, &accs, &params).unwrap();
        assert!(
            dep.probability > indep.probability,
            "S5 copies S3 with one change and must outrank S1–S2: {} vs {}",
            dep.probability,
            indep.probability
        );
        assert!(
            dep.probability > 0.15,
            "above the hard-damping bar: {dep:?}"
        );
    }

    #[test]
    fn independent_accurate_sources_are_not_flagged() {
        let (store, snap, probs, accs, params) = setup_table1();
        let s1 = store.source_id("S1").unwrap();
        let s2 = store.source_id("S2").unwrap();
        let dep = detect_pair(&snap, s1, s2, &probs, &accs, &params).unwrap();
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        let cluster = detect_pair(&snap, s3, s4, &probs, &accs, &params).unwrap();
        assert!(
            dep.probability < cluster.probability,
            "S1–S2 (shared true values) must score far below S3–S4: {} vs {}",
            dep.probability,
            cluster.probability
        );
    }

    #[test]
    fn min_overlap_gate() {
        let (store, snap, probs, accs, _) = setup_table1();
        let params = DetectionParams {
            min_overlap: 6,
            ..DetectionParams::default()
        };
        let s3 = store.source_id("S3").unwrap();
        let s4 = store.source_id("S4").unwrap();
        assert!(detect_pair(&snap, s3, s4, &probs, &accs, &params).is_none());
    }

    #[test]
    fn shared_false_values_outweigh_shared_true_values() {
        // Two synthetic pairs with identical overlap size: one shares values
        // believed true, the other values believed false. The latter must
        // produce a larger likelihood ratio — the paper's central intuition.
        let mut b = sailing_model::ClaimStoreBuilder::new();
        for i in 0..8 {
            let o = format!("obj{i}");
            b.add("T1", &o, "right")
                .add("T2", &o, "right")
                .add("W1", &o, "wrong")
                .add("W2", &o, "wrong")
                // Three extra independent voters make "right" the consensus.
                .add("V1", &o, "right")
                .add("V2", &o, "right")
                .add("V3", &o, "right");
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);

        let t = |n: &str| store.source_id(n).unwrap();
        let lik_true = pair_likelihoods(&snap, t("T1"), t("T2"), &probs, &accs, &params);
        let lik_false = pair_likelihoods(&snap, t("W1"), t("W2"), &probs, &accs, &params);
        let ratio_true = lik_true.log_a_copies_b - lik_true.log_independent;
        let ratio_false = lik_false.log_a_copies_b - lik_false.log_independent;
        assert!(
            ratio_false > ratio_true + 1.0,
            "shared-false evidence {ratio_false} must dominate shared-true {ratio_true}"
        );
        assert!(lik_false.shared_false_mass > lik_true.shared_false_mass);
    }

    #[test]
    fn posterior_probabilities_are_coherent() {
        let (store, snap, probs, accs, params) = setup_table1();
        for a in store.source_ids() {
            for b in store.source_ids() {
                if a >= b {
                    continue;
                }
                let dep = detect_pair(&snap, a, b, &probs, &accs, &params).unwrap();
                assert!((0.0..=1.0).contains(&dep.probability));
                assert!((0.0..=1.0).contains(&dep.prob_a_on_b));
                assert!(dep.a < dep.b);
            }
        }
    }

    #[test]
    fn direction_prefers_the_less_accurate_copier() {
        // Original O is accurate everywhere; copier C repeats O's values on
        // shared objects but is wrong on its private ones, so C's accuracy
        // estimate is lower. The direction posterior should lean toward
        // "C copies O" (the hypothesis where the original is accurate).
        let mut b = sailing_model::ClaimStoreBuilder::new();
        for i in 0..6 {
            let o = format!("shared{i}");
            b.add("O", &o, "v");
            b.add("C", &o, "v");
            b.add("X1", &o, "v");
            b.add("X2", &o, "other");
        }
        let store = b.build();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let o_id = store.source_id("O").unwrap();
        let c_id = store.source_id("C").unwrap();
        let mut accs = vec![params.initial_accuracy; snap.num_sources()];
        accs[o_id.index()] = 0.95;
        accs[c_id.index()] = 0.55;
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);
        let dep = detect_pair(&snap, o_id, c_id, &probs, &accs, &params).unwrap();
        let p_c_on_o = if dep.a == c_id {
            dep.prob_a_on_b
        } else {
            1.0 - dep.prob_a_on_b
        };
        assert!(
            p_c_on_o > 0.5,
            "direction should favour the less accurate source copying: {dep:?}"
        );
    }

    #[test]
    fn probs_helpers_are_distributions() {
        let (pt, pf, pd) = independent_probs(0.8, 0.7, 10.0);
        assert!((pt + pf + pd - 1.0).abs() < 1e-9);
        let (ct, cf, cd) = copying_probs(0.8, 0.7, 0.8, 0.1, 10.0);
        assert!((ct + cf + cd - 1.0).abs() < 1e-9);
        assert!(ct > pt && cf > pf && cd < pd);
    }
}
