//! The discovery loop, split over contiguous slices of the canonical
//! candidate-pair list.
//!
//! Per iteration, dependence detection (plus direction refinement) is
//! O(|pairs|) pairwise Bayesian tests and dominates the loop's cost, while
//! the vote/estimate tail is cheap and global. [`AccuCopy::run_with_pair_pass`]
//! is the one loop that exploits the split: a caller-supplied **pair
//! pass** returns one [`PartialDependence`] per [`PairRange`], and the
//! merge tail ([`AccuCopy::merge_partials`]) folds them into the full
//! [`DependenceMatrix`] and runs vote → accuracy estimate → convergence →
//! re-vote. [`AccuCopy::run_warm`] is this loop with ranges on scoped
//! threads; the `sailing` engine's sharded analysis is this loop with
//! ranges claimed, adopted and published across cooperating processes.
//!
//! # Exactness
//!
//! The result is **bitwise identical** for every range tiling:
//!
//! * candidate enumeration ([`crate::pairs::candidate_pairs`]) is a
//!   deterministic, sorted function of the snapshot, so every worker
//!   sees the same list and slicing commutes with detection;
//! * per-pair detection and direction refinement touch no cross-pair
//!   state, so concatenating per-range outputs in range order
//!   reproduces the one-range output element for element;
//! * the merge tail runs the same `f64` operations in the same order
//!   whatever the tiling (vote with the *old* accuracies, re-estimate,
//!   convergence test, and only then the second vote).
//!
//! Each partial is stamped with the [`state digest`](PartialDependence::state_digest)
//! of the iteration state it was computed against; the merge rejects
//! stale or mismatched partials rather than folding them in, so a
//! worker that raced an old epoch can never skew the posterior.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use sailing_model::{SailingError, SnapshotView, SourceId};

use crate::accuracy::{estimate_accuracies, max_delta};
use crate::pairs::{candidate_pairs, detect_pairs};
use crate::pipeline::{refine_directions, seed_accuracies, state_digest};
use crate::pipeline::{AccuCopy, PipelineResult, Termination};
use crate::report::PairDependence;
use crate::truth::{effective_n_false_table, naive_probabilities, DependenceMatrix};
use crate::truth::{weighted_vote, ValueProbabilities};

/// One contiguous half-open slice `[start, end)` of the canonical sorted
/// candidate-pair list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairRange {
    /// First pair index covered (inclusive).
    pub start: usize,
    /// One past the last pair index covered.
    pub end: usize,
}

impl PairRange {
    /// Number of candidate pairs in the range.
    pub fn len(self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the range covers no pairs.
    pub fn is_empty(self) -> bool {
        self.end <= self.start
    }
}

/// Dependence posteriors for one pair-range shard at one iteration —
/// the unit workers publish and the coordinator merges.
///
/// Serializable (canonical JSON via [`PartialDependence::to_canonical_json`])
/// so cooperating worker *processes* can publish partials through the
/// persistent store's blob API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialDependence {
    /// The slice of the canonical pair list this partial covers.
    pub range: PairRange,
    /// Length of the full candidate-pair list the worker enumerated —
    /// lets the merge confirm every worker saw the same snapshot-derived
    /// list before trusting the tiling.
    pub total_pairs: usize,
    /// Digest of the iteration state (accuracies + posteriors) the
    /// detection ran against; the merge rejects partials whose digest
    /// differs from the coordinator's own.
    pub state_digest: u64,
    /// Detected dependences for the range, in canonical pair order.
    pub dependences: Vec<PairDependence>,
}

impl PartialDependence {
    /// Canonical JSON text of this partial (same guarantees as
    /// [`PipelineResult::to_canonical_json`]: byte-identical for equal
    /// partials, floats round-trip bit for bit).
    pub fn to_canonical_json(&self) -> String {
        serde::json::write(&self.serialize())
    }

    /// Parses a partial back from its canonical JSON text.
    ///
    /// # Errors
    /// Returns the underlying parse/shape error; coordinators treat any
    /// error as "partial not available" and recompute locally.
    pub fn from_json_str(text: &str) -> Result<Self, serde::Error> {
        Self::deserialize(&serde::json::parse(text)?)
    }
}

/// The outcome of merging one iteration's partials.
#[derive(Debug, Clone)]
pub struct ShardStep {
    /// The post-iteration state: updated posteriors, accuracies, and the
    /// merged dependences, with `iterations` advanced and `converged` /
    /// `termination` reflecting this iteration's convergence test. When
    /// `done`, this is the final result.
    pub state: PipelineResult,
    /// `true` once the loop should stop — converged, or the iteration
    /// cap was reached.
    pub done: bool,
}

/// The digest a [`PartialDependence`] computed against `state` must
/// carry ([`PartialDependence::state_digest`]) — what a coordinator
/// compares before *adopting* a partial published by a cooperating
/// process, so a stale one is recomputed locally instead of poisoning
/// the merge.
pub fn iteration_digest(state: &PipelineResult) -> u64 {
    state_digest(&state.accuracies, &state.probabilities)
}

/// Splits `[0, total_pairs)` into at most `workers` contiguous
/// near-equal ranges (earlier ranges take the remainder). Always returns
/// at least one range; with `total_pairs == 0` that single range is
/// empty, so a copy-detection-free run still produces a valid tiling.
pub fn shard_ranges(total_pairs: usize, workers: usize) -> Vec<PairRange> {
    if total_pairs == 0 {
        return vec![PairRange { start: 0, end: 0 }];
    }
    let workers = workers.clamp(1, total_pairs);
    let base = total_pairs / workers;
    let extra = total_pairs % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = base + usize::from(i < extra);
        out.push(PairRange {
            start,
            end: start + len,
        });
        start += len;
    }
    out
}

/// One iteration's pair pass, as handed to the closure of
/// [`AccuCopy::run_with_pair_pass`]: the iteration state, the analysis's
/// candidate-pair list (enumerated once per analysis) and its range
/// tiling. The closure must return one [`PartialDependence`] per range of
/// [`PairPass::ranges`], computed here ([`PairPass::run`]) or adopted
/// from elsewhere after checking [`PairPass::state_digest`].
pub struct PairPass<'a> {
    pipeline: &'a AccuCopy,
    snapshot: &'a SnapshotView,
    candidates: &'a [(SourceId, SourceId, usize)],
    n_false: &'a [f64],
    ranges: &'a [PairRange],
    state: &'a PipelineResult,
    state_digest: u64,
}

impl PairPass<'_> {
    /// The range tiling of the candidate-pair list for this analysis.
    pub fn ranges(&self) -> &[PairRange] {
        self.ranges
    }

    /// The 1-based number of the iteration this pass feeds.
    pub fn iteration(&self) -> usize {
        self.state.iterations + 1
    }

    /// [`iteration_digest`] of the iteration state: the stamp every
    /// partial of this pass carries.
    pub fn state_digest(&self) -> u64 {
        self.state_digest
    }

    /// Length of the candidate-pair list.
    pub fn total_pairs(&self) -> usize {
        self.candidates.len()
    }

    /// Detection plus per-pair direction refinement over one range. The
    /// range is clamped to the candidate list, so a range that overshoots
    /// (e.g. computed against a different snapshot) yields a short partial
    /// the merge's tiling check rejects rather than a panic.
    pub fn run(&self, range: PairRange) -> PartialDependence {
        let total = self.candidates.len();
        let start = range.start.min(total);
        let end = range.end.clamp(start, total);
        let probabilities = &self.state.probabilities;
        let mut dependences = detect_pairs(
            self.snapshot,
            &self.candidates[start..end],
            probabilities,
            &self.state.accuracies,
            self.n_false,
            self.pipeline.params(),
        );
        refine_directions(self.snapshot, probabilities, &mut dependences);
        PartialDependence {
            range: PairRange { start, end },
            total_pairs: total,
            state_digest: self.state_digest,
            dependences,
        }
    }

    /// Runs `ranges` on scoped threads — the first on the calling thread,
    /// so a single range spawns nothing — and returns the partials in
    /// range order.
    pub fn run_ranges(&self, ranges: &[PairRange]) -> Vec<PartialDependence> {
        let Some((&first, rest)) = ranges.split_first() else {
            return Vec::new();
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter()
                .map(|&range| scope.spawn(move || self.run(range)))
                .collect();
            let mut out = vec![self.run(first)];
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pair-pass worker panicked")),
            );
            out
        })
    }
}

impl AccuCopy {
    /// The canonical candidate-pair list — empty when copy detection is
    /// disabled.
    fn candidates(&self, snapshot: &SnapshotView) -> Vec<(SourceId, SourceId, usize)> {
        if self.params().enable_copy_detection {
            candidate_pairs(snapshot, self.params().min_overlap)
        } else {
            Vec::new()
        }
    }

    /// Length of the canonical candidate-pair list for `snapshot` under
    /// these parameters — zero when copy detection is disabled. This is
    /// the `total_pairs` that [`shard_ranges`] should tile.
    pub fn pair_count(&self, snapshot: &SnapshotView) -> usize {
        self.candidates(snapshot).len()
    }

    /// The iteration-zero state every participant must agree on before
    /// the first pair pass: naive bootstrap posteriors and the (optionally
    /// warm-seeded) accuracy vector, with `iterations == 0`. Non-converged
    /// or accuracy-blind priors are ignored.
    ///
    /// The bootstrap uses naive vote shares even when warm (see
    /// [`naive_probabilities`]): the bootstrap beliefs feed the *first*
    /// dependence-detection pass, and seeding it with saturated
    /// posteriors — the prior's, or any weighted vote's — hides the
    /// shared-false-value mass copy detection needs, steering the loop
    /// into the copier-locked fixpoint. Warmth lives in the accuracy seed
    /// alone, which is what the convergence criterion measures.
    pub fn bootstrap_sharded(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&PipelineResult>,
    ) -> PipelineResult {
        PipelineResult {
            probabilities: naive_probabilities(snapshot),
            accuracies: seed_accuracies(self.params(), snapshot, prior),
            dependences: Vec::new(),
            iterations: 0,
            converged: false,
            termination: Termination::IterationCap,
        }
    }

    /// Runs one shard's dependence-detection pass (detection plus
    /// per-pair direction refinement) against the current iteration
    /// `state`, over `range` of the canonical candidate-pair list.
    ///
    /// A standalone wrapper over [`PairPass::run`] that enumerates the
    /// candidate list itself on every call; inside the loop, pair passes
    /// share the list enumerated once per analysis.
    pub fn run_shard(
        &self,
        snapshot: &SnapshotView,
        range: PairRange,
        state: &PipelineResult,
    ) -> PartialDependence {
        let candidates = self.candidates(snapshot);
        let n_false = effective_n_false_table(snapshot, self.params());
        PairPass {
            pipeline: self,
            snapshot,
            candidates: &candidates,
            n_false: &n_false,
            ranges: &[],
            state,
            state_digest: iteration_digest(state),
        }
        .run(range)
    }

    /// Merges one iteration's partials and runs the global tail:
    /// concatenates the per-range dependences in canonical order,
    /// rebuilds the full [`DependenceMatrix`], votes with the *old*
    /// accuracies, re-estimates accuracies, tests convergence, and (only
    /// when not converged) re-votes with the fresh accuracies.
    ///
    /// A borrowed wrapper over the merge [`AccuCopy::run_with_pair_pass`]
    /// runs each iteration (which takes the state and partials by value).
    ///
    /// # Errors
    /// Rejects (without partial effects) any fan-in that cannot be
    /// trusted to reproduce the one-range pass:
    /// * no partials at all;
    /// * partials disagreeing on the candidate-list length;
    /// * a partial computed against a different iteration state
    ///   (digest mismatch — the stale-worker case);
    /// * ranges that gap, overlap, or fail to cover `[0, total_pairs)`
    ///   (duplicated claims must be deduplicated by the caller).
    pub fn merge_partials(
        &self,
        snapshot: &SnapshotView,
        state: &PipelineResult,
        partials: &[PartialDependence],
    ) -> Result<ShardStep, SailingError> {
        self.merge_tail(
            snapshot,
            &state.accuracies,
            state.iterations,
            iteration_digest(state),
            partials.to_vec(),
        )
    }

    /// The merge shared by [`AccuCopy::merge_partials`] and the loop:
    /// validates the tiling against `digest`, then runs the one
    /// vote → estimate → convergence → re-vote step of the crate.
    fn merge_tail(
        &self,
        snapshot: &SnapshotView,
        accuracies: &[f64],
        iterations: usize,
        digest: u64,
        mut partials: Vec<PartialDependence>,
    ) -> Result<ShardStep, SailingError> {
        let p = self.params();
        let Some(total) = partials.first().map(|part| part.total_pairs) else {
            return Err(SailingError::config(
                "shard merge",
                "no partials to merge; every iteration needs a full tiling",
            ));
        };
        partials.sort_by_key(|part| (part.range.start, part.range.end));
        let mut cursor = 0usize;
        for part in &partials {
            if part.total_pairs != total {
                return Err(SailingError::config(
                    "shard merge",
                    format!(
                        "partials disagree on the candidate-pair list: {} vs {}",
                        part.total_pairs, total
                    ),
                ));
            }
            if part.state_digest != digest {
                return Err(SailingError::config(
                    "shard merge",
                    format!(
                        "stale partial for pairs [{}, {}): state digest {:016x} != {:016x}",
                        part.range.start, part.range.end, part.state_digest, digest
                    ),
                ));
            }
            if part.range.start != cursor || part.range.end < part.range.start {
                return Err(SailingError::config(
                    "shard merge",
                    format!(
                        "ranges gap or overlap at pair {}: next partial covers [{}, {})",
                        cursor, part.range.start, part.range.end
                    ),
                ));
            }
            cursor = part.range.end;
        }
        if cursor != total {
            return Err(SailingError::config(
                "shard merge",
                format!("ranges cover [0, {cursor}) of {total} candidate pairs"),
            ));
        }

        // Move, don't copy: the first range's vector becomes the merged
        // list. With copy detection off every range is empty, and so is
        // the matrix.
        let mut parts = partials.into_iter().map(|part| part.dependences);
        let mut dependences = parts.next().unwrap_or_default();
        parts.for_each(|more| dependences.extend(more));
        let matrix = DependenceMatrix::from_pairs(&dependences);

        let iterations = iterations + 1;
        let mut probabilities: ValueProbabilities = weighted_vote(snapshot, accuracies, &matrix, p);
        let new_accuracies = estimate_accuracies(snapshot, &probabilities, p);
        let delta = max_delta(accuracies, &new_accuracies);
        let accuracies = new_accuracies;
        let converged = delta < p.convergence_epsilon;
        if !converged {
            // The second vote damps copied votes with the fresh
            // accuracies before the next detection pass; a converged
            // iteration skips it.
            probabilities = weighted_vote(snapshot, &accuracies, &matrix, p);
        }
        Ok(ShardStep {
            done: converged || iterations >= p.max_iterations,
            state: PipelineResult {
                probabilities,
                accuracies,
                dependences,
                iterations,
                converged,
                termination: Termination::from_converged(converged),
            },
        })
    }

    /// The discovery loop. Bootstraps (optionally warm-seeded from
    /// `prior`), enumerates the candidate-pair list once and tiles it into
    /// `workers` ranges ([`shard_ranges`]), then per iteration: calls
    /// `pair_pass` for one partial per range, merges them (dropping the
    /// previous posteriors before the votes), and runs the armed
    /// [`Watchdog`](crate::Watchdog) check — also after the capped
    /// iteration, so a cycle closing exactly at the cap still reports
    /// [`Termination::LimitCycle`]. A converged iteration is never
    /// interrupted.
    ///
    /// The result is bitwise identical for every `workers` count and for
    /// every pair pass that returns the partials [`PairPass::run`] would.
    ///
    /// # Errors
    /// Propagates the merge's rejection of partials that do not tile the
    /// candidate list for the current state (see
    /// [`AccuCopy::merge_partials`]); a pass built from
    /// [`PairPass::run`] never triggers it.
    pub fn run_with_pair_pass<F>(
        &self,
        snapshot: &SnapshotView,
        prior: Option<&PipelineResult>,
        workers: usize,
        mut pair_pass: F,
    ) -> Result<PipelineResult, SailingError>
    where
        F: FnMut(&PairPass<'_>) -> Vec<PartialDependence>,
    {
        let p = self.params();
        let watchdog = self.watchdog();
        let candidates = self.candidates(snapshot);
        let n_false = if p.enable_copy_detection {
            effective_n_false_table(snapshot, p)
        } else {
            Vec::new()
        };
        let ranges = shard_ranges(candidates.len(), workers);
        let mut state = self.bootstrap_sharded(snapshot, prior);
        let mut digest = iteration_digest(&state);
        let started = Instant::now();
        // Digests of each iteration's end state, in order — empty unless
        // limit-cycle detection is armed.
        let mut seen_states: Vec<u64> = Vec::new();

        while state.iterations < p.max_iterations {
            let partials = pair_pass(&PairPass {
                pipeline: self,
                snapshot,
                candidates: &candidates,
                n_false: &n_false,
                ranges: &ranges,
                state: &state,
                state_digest: digest,
            });
            // The previous posteriors and dependences are dead once the
            // partials exist: free them before the votes allocate fresh
            // ones.
            let PipelineResult {
                probabilities,
                accuracies,
                dependences,
                iterations,
                ..
            } = state;
            drop((probabilities, dependences));
            state = self
                .merge_tail(snapshot, &accuracies, iterations, digest, partials)?
                .state;
            if state.converged {
                break;
            }
            digest = iteration_digest(&state);
            if watchdog.detect_limit_cycles {
                if let Some(seen_at) = seen_states.iter().position(|&d| d == digest) {
                    // The full iteration state (accuracies + posteriors,
                    // from which the next pair pass derives
                    // deterministically) recurred exactly: the loop is in
                    // a cycle and will never converge. End it now.
                    state.termination = Termination::LimitCycle {
                        period: seen_states.len() - seen_at,
                    };
                    break;
                }
                seen_states.push(digest);
            }
            if watchdog.deadline.is_some_and(|d| started.elapsed() >= d) {
                state.termination = Termination::DeadlineExceeded;
                break;
            }
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DetectionParams;
    use sailing_model::fixtures;

    fn assert_bitwise_equal(sharded: &PipelineResult, monolithic: &PipelineResult) {
        assert_eq!(sharded.iterations, monolithic.iterations);
        assert_eq!(sharded.converged, monolithic.converged);
        assert_eq!(sharded.termination, monolithic.termination);
        assert_eq!(sharded.accuracies.len(), monolithic.accuracies.len());
        for (i, (a, b)) in sharded
            .accuracies
            .iter()
            .zip(&monolithic.accuracies)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "accuracy[{i}] {a} vs {b}");
        }
        for o in monolithic.probabilities.objects() {
            let got = sharded.probabilities.distribution(o);
            let want = monolithic.probabilities.distribution(o);
            assert_eq!(got.len(), want.len(), "distribution width for {o:?}");
            for (&(v, p), &(w, q)) in got.iter().zip(want) {
                assert_eq!(v, w, "value order for {o:?}");
                assert_eq!(p.to_bits(), q.to_bits(), "posterior({o:?}, {v:?})");
            }
        }
        assert_eq!(sharded.dependences, monolithic.dependences);
    }

    fn with_threads(pipeline: &AccuCopy, threads: usize) -> AccuCopy {
        AccuCopy::new(DetectionParams {
            threads,
            ..pipeline.params().clone()
        })
        .unwrap()
    }

    /// Steps the loop by hand through the borrowed one-step wrappers, the
    /// path an external coordinator takes.
    fn stepped(
        pipeline: &AccuCopy,
        snap: &SnapshotView,
        prior: Option<&PipelineResult>,
        workers: usize,
    ) -> PipelineResult {
        let ranges = shard_ranges(pipeline.pair_count(snap), workers);
        let mut state = pipeline.bootstrap_sharded(snap, prior);
        loop {
            let partials: Vec<PartialDependence> = ranges
                .iter()
                .map(|&range| pipeline.run_shard(snap, range, &state))
                .collect();
            let step = pipeline.merge_partials(snap, &state, &partials).unwrap();
            state = step.state;
            if step.done {
                return state;
            }
        }
    }

    /// Cold and warm-start runs at `threads ∈ {1, 2, 3, 16}`, and the
    /// hand-stepped wrappers at as many ranges, all equal the one-range
    /// run bit for bit.
    fn assert_thread_parity(pipeline: &AccuCopy, snap: &SnapshotView) {
        let cold = pipeline.run(snap);
        let warm = cold.converged.then(|| pipeline.run_warm(snap, Some(&cold)));
        for threads in [1, 2, 3, 16] {
            let threaded = with_threads(pipeline, threads);
            assert_bitwise_equal(&threaded.run(snap), &cold);
            assert_bitwise_equal(&stepped(pipeline, snap, None, threads), &cold);
            if let Some(warm) = &warm {
                assert_bitwise_equal(&threaded.run_warm(snap, Some(&cold)), warm);
                assert_bitwise_equal(&stepped(pipeline, snap, Some(&cold), threads), warm);
            }
        }
    }

    #[test]
    fn shard_ranges_tile_exactly() {
        for (total, workers) in [(0, 4), (1, 4), (7, 3), (12, 4), (5, 1), (3, 9)] {
            let ranges = shard_ranges(total, workers);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= workers.max(1));
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor, "total={total} workers={workers}");
                assert!(r.end >= r.start);
                cursor = r.end;
            }
            assert_eq!(cursor, total, "total={total} workers={workers}");
        }
    }

    #[test]
    fn sharded_matches_monolithic_bitwise_on_table1() {
        let (store, truth) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        assert_thread_parity(&pipeline, &snap);
        let threaded = with_threads(&pipeline, 3).run(&snap);
        assert_eq!(
            truth.decision_precision(&threaded.decisions()).unwrap(),
            1.0,
            "the threaded loop keeps the paper's Table 1 outcome"
        );
    }

    #[test]
    fn sharded_matches_monolithic_with_copy_detection_off() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::baseline();
        assert_eq!(pipeline.pair_count(&snap), 0);
        assert_thread_parity(&pipeline, &snap);
        assert!(with_threads(&pipeline, 4).run(&snap).dependences.is_empty());
    }

    #[test]
    fn sharded_warm_start_matches_monolithic_warm_start() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let prior = pipeline.run(&snap);
        assert!(prior.converged);
        let warm = pipeline.run_warm(&snap, Some(&prior));
        for threads in [2, 3] {
            let threaded = with_threads(&pipeline, threads).run_warm(&snap, Some(&prior));
            assert_bitwise_equal(&threaded, &warm);
        }
    }

    #[test]
    fn skewed_world_threads_match_sequential() {
        // One source pair overlaps on everything and the rest barely
        // overlap: equal-length ranges put all the heavy work in one.
        let mut b = sailing_model::ClaimStoreBuilder::new();
        for i in 0..30 {
            let o = format!("o{i}");
            b.add("big1", &o, "v").add("big2", &o, "v");
            if i < 3 {
                b.add("small1", &o, "v").add("small2", &o, "w");
            }
        }
        let store = b.build();
        let snap = store.snapshot();
        let pipeline = AccuCopy::new(DetectionParams {
            min_overlap: 1,
            ..DetectionParams::default()
        })
        .unwrap();
        assert!(pipeline.pair_count(&snap) >= 3);
        assert_thread_parity(&pipeline, &snap);
    }

    #[test]
    fn loop_rejects_a_pair_pass_that_drops_a_range() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let err = pipeline
            .run_with_pair_pass(&snap, None, 2, |pass| pass.run_ranges(&pass.ranges()[..1]))
            .unwrap_err();
        assert!(err.to_string().contains("cover"), "{err}");
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_stale_partials() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::with_defaults();
        let state = pipeline.bootstrap_sharded(&snap, None);
        let total = pipeline.pair_count(&snap);
        assert!(total >= 2, "table1 must produce at least two candidates");
        let ranges = shard_ranges(total, 2);
        let partials: Vec<PartialDependence> = ranges
            .iter()
            .map(|&r| pipeline.run_shard(&snap, r, &state))
            .collect();

        // The honest tiling merges.
        assert!(pipeline.merge_partials(&snap, &state, &partials).is_ok());

        // A missing range is a gap.
        let err = pipeline
            .merge_partials(&snap, &state, &partials[..1])
            .unwrap_err();
        assert!(err.to_string().contains("cover"), "{err}");

        // A duplicated range overlaps.
        let mut dup = partials.clone();
        dup.push(partials[0].clone());
        assert!(pipeline.merge_partials(&snap, &state, &dup).is_err());

        // A partial from a different iteration state is stale.
        let mut stale = partials.clone();
        stale[0].state_digest ^= 1;
        let err = pipeline.merge_partials(&snap, &state, &stale).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");

        // Disagreement on the candidate list is rejected.
        let mut other = partials.clone();
        other[1].total_pairs += 1;
        assert!(pipeline.merge_partials(&snap, &state, &other).is_err());

        // No partials at all is rejected.
        assert!(pipeline.merge_partials(&snap, &state, &[]).is_err());
    }

    #[test]
    fn partial_dependence_round_trips_canonical_json() {
        let (store, _) = fixtures::table1();
        let snap = store.snapshot();
        let pipeline = AccuCopy::new(DetectionParams {
            convergence_epsilon: 1e-12,
            max_iterations: 50,
            ..DetectionParams::default()
        })
        .unwrap();
        let state = pipeline.bootstrap_sharded(&snap, None);
        let total = pipeline.pair_count(&snap);
        let partial = pipeline.run_shard(
            &snap,
            PairRange {
                start: 0,
                end: total,
            },
            &state,
        );
        assert!(!partial.dependences.is_empty());
        let text = partial.to_canonical_json();
        let back = PartialDependence::from_json_str(&text).unwrap();
        assert_eq!(back, partial);
        assert_eq!(back.to_canonical_json(), text, "canonical text is stable");
    }
}
