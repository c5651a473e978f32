//! Ablations: the headline conclusions must be stable under reasonable
//! parameter perturbations (prior, false-value universe, thread count,
//! damping threshold), and the knobs must matter in the documented
//! direction.

use sailing::core::{AccuCopy, DetectionParams};
use sailing::datagen::world::{SnapshotWorld, SourceBehavior, WorldConfig};
use sailing::model::fixtures;

fn copier_world(seed: u64) -> SnapshotWorld {
    let mut sources = vec![
        SourceBehavior::Independent {
            accuracy: 0.9,
            coverage: 150,
        },
        SourceBehavior::Independent {
            accuracy: 0.8,
            coverage: 150,
        },
        SourceBehavior::Independent {
            accuracy: 0.7,
            coverage: 150,
        },
        SourceBehavior::Independent {
            accuracy: 0.4,
            coverage: 150,
        },
    ];
    for _ in 0..3 {
        sources.push(SourceBehavior::Copier {
            original: 3,
            copy_fraction: 1.0,
            mutation_rate: 0.02,
            own_accuracy: 0.5,
            own_coverage: 0,
        });
    }
    SnapshotWorld::generate(&WorldConfig {
        num_objects: 150,
        domain_size: 10,
        sources,
        seed,
    })
}

#[test]
fn table1_conclusion_stable_under_prior_sweep() {
    let (store, truth) = fixtures::table1();
    let snapshot = store.snapshot();
    for prior in [0.1, 0.2, 0.3] {
        let params = DetectionParams {
            prior_dependence: prior,
            ..DetectionParams::default()
        };
        let result = AccuCopy::new(params).unwrap().run(&snapshot);
        assert_eq!(
            truth.decision_precision(&result.decisions()),
            Some(1.0),
            "prior {prior} must not change the Table 1 outcome"
        );
    }
}

#[test]
fn table1_conclusion_stable_under_n_sweep() {
    let (store, truth) = fixtures::table1();
    let snapshot = store.snapshot();
    for n in [5usize, 10, 50, 100] {
        let params = DetectionParams {
            n_false_values: n,
            ..DetectionParams::default()
        };
        let result = AccuCopy::new(params).unwrap().run(&snapshot);
        assert_eq!(
            truth.decision_precision(&result.decisions()),
            Some(1.0),
            "n = {n} must not change the Table 1 outcome"
        );
    }
}

#[test]
fn scaled_world_stable_under_copy_rate_sweep() {
    let w = copier_world(3);
    for copy_rate in [0.6, 0.8, 0.9] {
        let params = DetectionParams {
            copy_rate,
            ..DetectionParams::default()
        };
        let result = AccuCopy::new(params).unwrap().run(&w.snapshot);
        let p = w.truth.decision_precision(&result.decisions()).unwrap();
        assert!(p > 0.9, "copy_rate {copy_rate}: precision {p}");
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let w = copier_world(11);
    let run = |threads: usize| {
        let params = DetectionParams {
            threads,
            ..DetectionParams::default()
        };
        AccuCopy::new(params).unwrap().run(&w.snapshot)
    };
    let seq = run(1);
    for threads in [2, 4] {
        let par = run(threads);
        assert_eq!(seq.decisions(), par.decisions(), "threads {threads}");
        assert_eq!(seq.dependences, par.dependences, "threads {threads}");
        assert_eq!(seq.iterations, par.iterations, "threads {threads}");
        assert_eq!(seq.termination, par.termination, "threads {threads}");
        // The pair pass splits work, never arithmetic: bit-for-bit equal.
        for (x, y) in seq.accuracies.iter().zip(&par.accuracies) {
            assert_eq!(x.to_bits(), y.to_bits(), "threads {threads}");
        }
        assert_eq!(
            seq.content_digest(),
            par.content_digest(),
            "threads {threads}"
        );
    }
}

#[test]
fn disabling_hard_damping_weakens_small_sample_recovery() {
    // The hard threshold is what lets five objects overcome the copier
    // majority; with it effectively disabled (threshold 1.0) the soft
    // posteriors cannot fully suppress the cluster.
    let (store, truth) = fixtures::table1();
    let snapshot = store.snapshot();
    let soft = DetectionParams {
        hard_damping_threshold: 1.0,
        ..DetectionParams::default()
    };
    let soft_p = truth
        .decision_precision(&AccuCopy::new(soft).unwrap().run(&snapshot).decisions())
        .unwrap();
    let hard_p = truth
        .decision_precision(&AccuCopy::with_defaults().run(&snapshot).decisions())
        .unwrap();
    assert!(
        hard_p >= soft_p,
        "hard damping must not hurt: hard {hard_p} vs soft {soft_p}"
    );
    assert_eq!(hard_p, 1.0);
}

#[test]
fn copy_detection_toggle_is_the_decisive_factor() {
    // Same pipeline, same parameters, only the dependence detection toggled:
    // that one bit must account for the whole quality gap on copier worlds.
    let w = copier_world(21);
    let aware = AccuCopy::with_defaults().run(&w.snapshot);
    let unaware = AccuCopy::baseline().run(&w.snapshot);
    let p_aware = w.truth.decision_precision(&aware.decisions()).unwrap();
    let p_unaware = w.truth.decision_precision(&unaware.decisions()).unwrap();
    assert!(
        p_aware > p_unaware + 0.2,
        "aware {p_aware} vs unaware {p_unaware}"
    );
}

#[test]
fn mutation_rate_zero_still_catches_exact_copiers() {
    let (store, _) = fixtures::table1();
    let snapshot = store.snapshot();
    let params = DetectionParams {
        copy_mutation_rate: 0.0,
        ..DetectionParams::default()
    };
    let result = AccuCopy::new(params).unwrap().run(&snapshot);
    let s3 = store.source_id("S3").unwrap();
    let s4 = store.source_id("S4").unwrap();
    let p34 = result
        .dependences
        .iter()
        .find(|d| (d.a, d.b) == (s3, s4))
        .unwrap()
        .probability;
    assert!(p34 > 0.9, "exact copier pair: {p34}");
}

#[test]
fn convergence_is_deterministic_across_runs() {
    let w = copier_world(33);
    let r1 = AccuCopy::with_defaults().run(&w.snapshot);
    let r2 = AccuCopy::with_defaults().run(&w.snapshot);
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.decisions(), r2.decisions());
    // Hash-map iteration order varies between runs, so float summation can
    // differ by an ULP; the estimates must agree to high precision.
    for (x, y) in r1.accuracies.iter().zip(&r2.accuracies) {
        assert!((x - y).abs() < 1e-9);
    }
}
