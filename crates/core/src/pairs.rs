//! Scalable candidate-pair enumeration and parallel pairwise detection.
//!
//! "Given the huge number of data sources ... determining dependence between
//! sources in a scalable manner is extremely challenging" (Section 1).
//! Testing all `O(S²)` pairs is wasteful when most pairs share nothing: only
//! pairs that co-cover at least `min_overlap` objects can ever be flagged
//! (the paper's Example 4.1 screens AbeBooks bookstore pairs by "at least
//! the same 10 books"). [`candidate_pairs`] enumerates exactly those pairs
//! from a per-object inverted index; [`detect_all`] tests the surviving
//! pairs. Parallelism lives one level up, in the discovery loop's pair pass
//! ([`crate::shard`]), which splits this list into contiguous ranges.

use std::collections::HashMap;

use sailing_model::{ObjectId, SnapshotView, SourceId};

use crate::copy;
use crate::params::DetectionParams;
use crate::report::PairDependence;
use crate::truth::ValueProbabilities;

/// Enumerates unordered source pairs sharing at least `min_overlap` objects,
/// with their exact overlap counts, sorted by source ids.
///
/// Cost is `Σ_o support(o)²` rather than `S² · O` — proportional to the
/// actual co-coverage in the data.
pub fn candidate_pairs(
    snapshot: &SnapshotView,
    min_overlap: usize,
) -> Vec<(SourceId, SourceId, usize)> {
    let mut counts: HashMap<(SourceId, SourceId), usize> = HashMap::new();
    for idx in 0..snapshot.num_objects() {
        let assertions = snapshot.assertions_on(ObjectId::from_index(idx));
        for (i, &(a, _)) in assertions.iter().enumerate() {
            for &(b, _) in &assertions[i + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                *counts.entry(key).or_insert(0) += 1;
            }
        }
    }
    let mut pairs: Vec<_> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_overlap.max(1))
        .map(|((a, b), c)| (a, b, c))
        .collect();
    pairs.sort();
    pairs
}

/// Number of pairs the naive all-pairs strategy would test.
pub fn all_pairs_count(num_sources: usize) -> usize {
    num_sources * num_sources.saturating_sub(1) / 2
}

/// Runs snapshot copy detection over every candidate pair.
///
/// The output is sorted by `(a, b)`.
pub fn detect_all(
    snapshot: &SnapshotView,
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> Vec<PairDependence> {
    let pairs = candidate_pairs(snapshot, params.min_overlap);
    detect_all_with_pairs(snapshot, &pairs, probs, accuracies, params)
}

/// [`detect_all`] over an already-enumerated candidate-pair list.
///
/// The pair list is snapshot-invariant, so iterative callers enumerate it
/// **once per snapshot** and thread it through every iteration instead of
/// rebuilding the inverted-index counts each round. The per-object
/// effective-`n` column is hoisted here, once per call. The output is
/// sorted by `(a, b)` whatever order the pairs come in.
pub fn detect_all_with_pairs(
    snapshot: &SnapshotView,
    pairs: &[(SourceId, SourceId, usize)],
    probs: &ValueProbabilities,
    accuracies: &[f64],
    params: &DetectionParams,
) -> Vec<PairDependence> {
    let n_false = crate::truth::effective_n_false_table(snapshot, params);
    let mut out = detect_pairs(snapshot, pairs, probs, accuracies, &n_false, params);
    out.sort_by_key(|p| (p.a, p.b));
    out
}

/// Detection over `pairs` in the given order with a precomputed
/// effective-`n` column — the discovery loop's per-range kernel, which
/// hoists the column once per analysis.
pub(crate) fn detect_pairs(
    snapshot: &SnapshotView,
    pairs: &[(SourceId, SourceId, usize)],
    probs: &ValueProbabilities,
    accuracies: &[f64],
    n_false: &[f64],
    params: &DetectionParams,
) -> Vec<PairDependence> {
    pairs
        .iter()
        .filter_map(|&(a, b, _)| {
            copy::detect_pair_with(snapshot, a, b, probs, accuracies, n_false, params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{weighted_vote, DependenceMatrix};
    use sailing_model::fixtures;

    #[test]
    fn candidate_pairs_on_table1_is_complete() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        // All 5 sources cover all 5 objects → C(5,2)=10 pairs, overlap 5.
        let pairs = candidate_pairs(&snap, 1);
        assert_eq!(pairs.len(), 10);
        assert!(pairs.iter().all(|&(_, _, c)| c == 5));
        assert_eq!(all_pairs_count(5), 10);
    }

    #[test]
    fn min_overlap_prunes() {
        let mut b = sailing_model::ClaimStoreBuilder::new();
        b.add("A", "x", "1").add("B", "x", "1"); // overlap 1
        b.add("C", "y", "1").add("C", "z", "1");
        b.add("D", "y", "1").add("D", "z", "1"); // overlap 2
        let store = b.build();
        let snap = store.snapshot();
        assert_eq!(candidate_pairs(&snap, 1).len(), 2);
        assert_eq!(candidate_pairs(&snap, 2).len(), 1);
        assert_eq!(candidate_pairs(&snap, 3).len(), 0);
        // min_overlap 0 behaves like 1 (disjoint sources never pair).
        assert_eq!(candidate_pairs(&snap, 0).len(), 2);
    }

    #[test]
    fn pairs_are_canonical_and_sorted() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pairs = candidate_pairs(&snap, 1);
        assert!(pairs.iter().all(|&(a, b, _)| a < b));
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn detect_all_sequential_equals_parallel() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = weighted_vote(&snap, &accs, &DependenceMatrix::new(), &params);

        let seq = detect_all(&snap, &probs, &accs, &params);
        let par_params = DetectionParams {
            threads: 4,
            ..params
        };
        let par = detect_all(&snap, &probs, &accs, &par_params);
        assert_eq!(seq.len(), par.len());
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
            assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn detect_all_flags_the_copy_cluster() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = crate::truth::naive_probabilities(&snap);
        let deps = detect_all(&snap, &probs, &accs, &params);
        let s = |n: &str| store.source_id(n).unwrap();
        let find = |a: SourceId, b: SourceId| {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            deps.iter().find(|p| p.a == a && p.b == b).unwrap()
        };
        let p34 = find(s("S3"), s("S4")).probability;
        let p12 = find(s("S1"), s("S2")).probability;
        assert!(p34 > 0.35, "one-shot cluster evidence: {p34}");
        assert!(p12 < p34);
    }

    #[test]
    fn empty_snapshot_no_pairs() {
        let snap = SnapshotView::from_triples(0, 0, Vec::new());
        assert!(candidate_pairs(&snap, 1).is_empty());
    }

    #[test]
    fn detect_all_equals_hoisted_pair_list() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let params = DetectionParams::default();
        let accs = vec![params.initial_accuracy; snap.num_sources()];
        let probs = crate::truth::naive_probabilities(&snap);

        let direct = detect_all(&snap, &probs, &accs, &params);
        let pairs = candidate_pairs(&snap, params.min_overlap);
        let hoisted = detect_all_with_pairs(&snap, &pairs, &probs, &accs, &params);
        assert_eq!(direct.len(), hoisted.len());
        for (x, y) in direct.iter().zip(&hoisted) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert_eq!(x.probability, y.probability);
            assert_eq!(x.prob_a_on_b, y.prob_a_on_b);
        }
    }
}
