//! `cold-batch`: distinct specialist snapshots, each analyzed by a
//! cache-less engine once through `analyze` (one thread) and once through
//! `analyze_sharded(_, 2)`.
//!
//! The traced run additionally replays both loops through the public
//! phase functions of `sailing::core` — candidate pairs, detection,
//! direction refinement, the dependence matrix, the two weighted votes
//! and accuracy estimation; and the sharded bootstrap / range / merge
//! steps — recording one span per phase call, and checks that each
//! replay equals the program's own result bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sailing::core::accuracy::{estimate_accuracies, max_delta};
use sailing::core::pairs::{candidate_pairs, detect_all_with_pairs};
use sailing::core::partial::direction_hint;
use sailing::core::truth::{naive_probabilities, weighted_vote, DependenceMatrix};
use sailing::core::{
    shard_ranges, AccuCopy, DetectionParams, Direction, PairDependence, PartialDependence,
    PipelineResult, Termination,
};
use sailing::datagen::{SnapshotWorld, WorldConfig};
use sailing::engine::SailingEngine;
use sailing::model::SnapshotView;

use crate::stats::{self, ms, Fingerprint};
use crate::trace::Tracer;
use crate::Report;

/// Distinct snapshots generated per set-up. The measured loop cycles
/// through them in order and stops only at the end of a cycle, so every
/// run analyzes each snapshot equally often and per-snapshot cost
/// differences cannot shift the run's figures.
const SNAPSHOTS: usize = 4;
/// Set-up repetitions; `setup_s` is their median. One set-up takes
/// milliseconds, so many repetitions keep the median steady.
const SETUP_REPS: usize = 15;

fn config(seed: u64, index: usize) -> WorldConfig {
    WorldConfig::specialist(200, 400, 40, stats::sub_seed(seed, index as u64))
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    // Set-up: world generation, repeated so its time is a median.
    let mut setup_s = Vec::new();
    let mut world_ms = Vec::new();
    let mut worlds = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        worlds = (0..SNAPSHOTS)
            .map(|i| {
                let t = Instant::now();
                let world = SnapshotWorld::generate(&config(seed, i));
                world_ms.push(ms(t.elapsed()));
                world
            })
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut fingerprint = Fingerprint::new("cold-batch");
    for world in &worlds {
        fingerprint.snapshot(&world.snapshot);
    }
    let engine = SailingEngine::builder()
        .cache_capacity(0)
        .build()
        .expect("default parameters are valid");
    let params = engine.params().clone();
    let pipeline = AccuCopy::new(params.clone()).expect("default parameters are valid");

    let mut report = Report::new(fingerprint);
    let mut mono_ms = Vec::new();
    let mut sharded_ms = Vec::new();
    let mut claims = 0usize;
    let mut precision = Vec::new();
    let mut replay = ReplayStats::default();
    let mut sharded_bitwise = true;

    let start = Instant::now();
    let mut index = 0;
    while index == 0 || index % SNAPSHOTS != 0 || start.elapsed().as_secs_f64() < seconds {
        let world = &worlds[index % SNAPSHOTS];
        let snapshot = &world.snapshot;
        let t = Instant::now();
        let mono = catch_unwind(AssertUnwindSafe(|| engine.analyze(snapshot)));
        let t_mono = t.elapsed();
        let t = Instant::now();
        let sharded = catch_unwind(AssertUnwindSafe(|| engine.analyze_sharded(snapshot, 2)));
        let t_sharded = t.elapsed();

        // Output checks, outside the timed calls.
        let mono = mono.ok();
        report.op(mono.is_some());
        let sharded_ok = match (&mono, &sharded) {
            (Some(a), Ok(Ok(b))) => same_result(a.result(), b.result()),
            _ => false,
        };
        sharded_bitwise &= sharded_ok;
        report.op(sharded_ok);
        if let Some(a) = &mono {
            mono_ms.push(ms(t_mono));
            sharded_ms.push(ms(t_sharded));
            claims += snapshot.num_assertions();
            if index < SNAPSHOTS {
                precision.push(
                    world
                        .truth
                        .decision_precision(&a.decisions())
                        .unwrap_or(0.0),
                );
            }
            if tracer.enabled() {
                replay.record(
                    snapshot,
                    &params,
                    &pipeline,
                    tracer,
                    index as u64,
                    a.result(),
                    t_mono + t_sharded,
                );
                replay
                    .dependent_pairs
                    .push(a.dependent_pairs(0.5).len() as f64);
            }
        }
        index += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();

    report.check("sharded_equals_monolithic_bitwise", sharded_bitwise);
    let setup_s = stats::median(&setup_s);
    let cold_claims_per_s = claims as f64 / (mono_ms.iter().sum::<f64>() / 1e3);
    let sharded2_claims_per_s = claims as f64 / (sharded_ms.iter().sum::<f64>() / 1e3);
    let precision = stats::mean(&precision);
    report.end_to_end.extend([
        ("setup_s", setup_s),
        ("decision_precision", precision),
        ("throughput_per_s", cold_claims_per_s),
        ("op_ms_p50", stats::median(&mono_ms)),
        ("op_ms_tail", stats::quantile(&mono_ms, 0.9)),
        ("alt_ms_p50", stats::median(&sharded_ms)),
    ]);
    report.named.extend([
        ("setup_s", setup_s),
        ("decision_precision", precision),
        ("cold_claims_per_s", cold_claims_per_s),
        ("sharded2_claims_per_s", sharded2_claims_per_s),
    ]);
    report.notes.push(format!(
        "{} analyses of each path over {SNAPSHOTS} distinct snapshots in {measured_s:.1} s; \
         op = one 1-thread analyze, alt = one analyze_sharded(_, 2)",
        mono_ms.len(),
    ));
    if stats::nproc() < 2 {
        report.notes.push(
            "sharded2_claims_per_s is not meaningful: fewer than 2 CPUs are available".into(),
        );
    }
    report
        .per_layer
        .insert("datagen.world_ms", stats::mean(&world_ms));
    if tracer.enabled() {
        replay.finish(tracer, &mut report);
    }
    report
}

/// Bitwise equality of two results: the canonical wire (every posterior,
/// accuracy and dependence, floats in round-trip form, iterations and the
/// convergence flag) plus the termination record.
fn same_result(a: &PipelineResult, b: &PipelineResult) -> bool {
    a.termination == b.termination && a.to_canonical_json() == b.to_canonical_json()
}

/// Per-layer accumulators of the traced replays.
#[derive(Default)]
struct ReplayStats {
    replays: usize,
    mismatches: usize,
    iterations: Vec<f64>,
    converged: Vec<f64>,
    candidate_pairs: Vec<f64>,
    dependent_pairs: Vec<f64>,
    imbalance: Vec<f64>,
    traced: Duration,
    untraced: Duration,
}

impl ReplayStats {
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        snapshot: &SnapshotView,
        params: &DetectionParams,
        pipeline: &AccuCopy,
        tracer: &Tracer,
        request: u64,
        program: &PipelineResult,
        untraced: Duration,
    ) {
        let t = Instant::now();
        let (mono, candidates) = replay_loop(snapshot, params, tracer, request);
        let sharded = replay_sharded(snapshot, pipeline, tracer, request, &mut self.imbalance);
        self.traced += t.elapsed();
        self.untraced += untraced;
        let same =
            same_result(&mono, program) && sharded.as_ref().is_ok_and(|s| same_result(s, program));
        self.mismatches += usize::from(!same);
        self.replays += 1;
        self.iterations.push(mono.iterations as f64);
        self.converged.push(f64::from(u8::from(mono.converged)));
        self.candidate_pairs.push(candidates as f64);
    }

    fn finish(&self, tracer: &Tracer, report: &mut Report) {
        let summary = tracer.summary();
        let parity = self.replays > 0 && self.mismatches == 0;
        let n = self.replays.max(1) as f64;
        let per_analysis_ms = |name: &str| summary.total_ns(name) / n / 1e6;
        let ranges_per_iteration = summary.count("core.shard.range") as f64
            / summary.count("core.shard.merge").max(1) as f64;
        report.per_layer.extend([
            (
                "core.pairs.candidates_ms",
                per_analysis_ms("core.pairs.candidates"),
            ),
            ("core.pairs.detect_ms", per_analysis_ms("core.pairs.detect")),
            (
                "core.partial.refine_ms",
                per_analysis_ms("core.partial.refine"),
            ),
            ("core.truth.matrix_ms", per_analysis_ms("core.truth.matrix")),
            ("core.truth.vote_ms", per_analysis_ms("core.truth.vote")),
            (
                "core.accuracy.estimate_ms",
                per_analysis_ms("core.accuracy.estimate"),
            ),
            // Work of one range, summed over an analysis's iterations.
            (
                "core.shard.range_ms",
                per_analysis_ms("core.shard.range") / ranges_per_iteration.max(1.0),
            ),
            ("core.shard.merge_ms", per_analysis_ms("core.shard.merge")),
            ("core.shard.imbalance", stats::mean(&self.imbalance)),
            ("core.pipeline.iterations", stats::mean(&self.iterations)),
            (
                "core.pipeline.converged_ratio",
                stats::mean(&self.converged),
            ),
            (
                "core.pairs.candidate_pairs",
                stats::mean(&self.candidate_pairs),
            ),
            (
                "core.pipeline.dependent_pairs",
                stats::mean(&self.dependent_pairs),
            ),
            ("core.replay_parity", f64::from(u8::from(parity))),
            (
                "trace.overhead_frac",
                self.traced.as_secs_f64() / self.untraced.as_secs_f64().max(1e-9),
            ),
        ]);
        report.check("replay_equals_program_bitwise", parity);
        report.notes.push(format!(
            "replayed {} snapshots through the phase functions; {} mismatched the program",
            self.replays, self.mismatches
        ));
    }
}

/// `AccuCopy::run` (cold, no watchdog) replayed through the public phase
/// functions, one span per phase call. Returns the result and the
/// candidate-pair count.
fn replay_loop(
    snapshot: &SnapshotView,
    p: &DetectionParams,
    tracer: &Tracer,
    request: u64,
) -> (PipelineResult, usize) {
    let root = tracer.begin("core.pipeline.replay", 0, request);
    let parent = root.id();
    let span = |name, f: &mut dyn FnMut()| tracer.span(name, parent, request, |_| f());

    let mut accuracies = vec![p.initial_accuracy; snapshot.num_sources()];
    let mut dependences: Vec<PairDependence> = Vec::new();
    let mut matrix = DependenceMatrix::new();
    let mut candidates = Vec::new();
    if p.enable_copy_detection {
        span("core.pairs.candidates", &mut || {
            candidates = candidate_pairs(snapshot, p.min_overlap);
        });
    }
    let mut probabilities = tracer.span("core.truth.bootstrap", parent, request, |_| {
        naive_probabilities(snapshot)
    });
    let mut iterations = 0;
    let mut converged = false;
    while iterations < p.max_iterations {
        iterations += 1;
        if p.enable_copy_detection {
            span("core.pairs.detect", &mut || {
                dependences =
                    detect_all_with_pairs(snapshot, &candidates, &probabilities, &accuracies, p);
            });
            span("core.partial.refine", &mut || {
                refine_directions(snapshot, &probabilities, &mut dependences);
            });
            span("core.truth.matrix", &mut || {
                matrix = DependenceMatrix::from_pairs(&dependences);
            });
        }
        span("core.truth.vote", &mut || {
            probabilities = weighted_vote(snapshot, &accuracies, &matrix, p);
        });
        let mut delta = 0.0;
        span("core.accuracy.estimate", &mut || {
            let fresh = estimate_accuracies(snapshot, &probabilities, p);
            delta = max_delta(&accuracies, &fresh);
            accuracies = fresh;
        });
        if delta < p.convergence_epsilon {
            converged = true;
            break;
        }
        span("core.truth.vote", &mut || {
            probabilities = weighted_vote(snapshot, &accuracies, &matrix, p);
        });
    }
    tracer.end(root);
    let result = PipelineResult {
        probabilities,
        accuracies,
        dependences,
        iterations,
        converged,
        termination: Termination::from_converged(converged),
    };
    (result, candidates.len())
}

/// The direction blend `AccuCopy` applies after detection: an
/// equal-weight blend of the likelihood direction posterior with the
/// overlap-contrast hint, then the direction label.
fn refine_directions(
    snapshot: &SnapshotView,
    probabilities: &sailing::core::truth::ValueProbabilities,
    dependences: &mut [PairDependence],
) {
    for dep in dependences {
        if let Some(hint) = direction_hint(snapshot, dep.a, dep.b, probabilities) {
            dep.prob_a_on_b = 0.5 * dep.prob_a_on_b + 0.5 * hint;
            dep.direction = if dep.probability < 0.5 || (dep.prob_a_on_b - 0.5).abs() < 0.1 {
                Direction::Unknown
            } else if dep.prob_a_on_b > 0.5 {
                Direction::AOnB
            } else {
                Direction::BOnA
            };
        }
    }
}

/// `analyze_sharded(_, 2)` replayed through `bootstrap_sharded`,
/// `run_shard` (one range on this thread, one on a scoped thread) and
/// `merge_partials`. Pushes each iteration's slowest-range / mean-range
/// ratio onto `imbalance`.
fn replay_sharded(
    snapshot: &SnapshotView,
    pipeline: &AccuCopy,
    tracer: &Tracer,
    request: u64,
    imbalance: &mut Vec<f64>,
) -> Result<PipelineResult, sailing::SailingError> {
    let root = tracer.begin("core.shard.replay", 0, request);
    let parent = root.id();
    let ranges = tracer.span("core.shard.plan", parent, request, |_| {
        shard_ranges(pipeline.pair_count(snapshot), 2)
    });
    let mut state = pipeline.bootstrap_sharded(snapshot, None);
    while state.iterations < pipeline.params().max_iterations {
        let state_ref = &state;
        let run_range = |range| {
            let t = Instant::now();
            let partial = tracer.span("core.shard.range", parent, request, |_| {
                pipeline.run_shard(snapshot, range, state_ref)
            });
            (partial, t.elapsed().as_secs_f64())
        };
        let timed: Vec<(PartialDependence, f64)> = std::thread::scope(|scope| {
            let (&first, rest) = ranges.split_first().expect("shard_ranges is never empty");
            let handles: Vec<_> = rest
                .iter()
                .map(|&range| scope.spawn(move || run_range(range)))
                .collect();
            let mut out = vec![run_range(first)];
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard replay worker panicked")),
            );
            out
        });
        let times: Vec<f64> = timed.iter().map(|(_, t)| *t).collect();
        let slowest = times.iter().copied().fold(0.0, f64::max);
        imbalance.push(slowest / stats::mean(&times).max(1e-12));
        let partials: Vec<PartialDependence> = timed.into_iter().map(|(p, _)| p).collect();
        let step = tracer.span("core.shard.merge", parent, request, |_| {
            pipeline.merge_partials(snapshot, &state, &partials)
        });
        let step = match step {
            Ok(step) => step,
            Err(e) => {
                tracer.end(root);
                return Err(e);
            }
        };
        state = step.state;
        if step.done {
            break;
        }
    }
    tracer.end(root);
    Ok(state)
}
