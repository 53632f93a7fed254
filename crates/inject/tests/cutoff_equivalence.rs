//! Regression tests for the reconvergence cutoff's core guarantee: a
//! campaign run with `cutoff_stride > 0` produces a trial vector
//! **bit-identical** to the exhaustive run (`cutoff_stride == 0`), at
//! every thread count — the cutoff may only change how many cycles get
//! simulated, never what a trial reports.
//!
//! Two cuts must both be exact. A trial equal to the golden run in its
//! artifact digest and every injectable field at a stride boundary is
//! the golden machine, and the simulator is deterministic, so the rest
//! of the faulty window is literally the golden run's (see
//! `crates/uarch/tests/fingerprint_reconvergence.rs` for the
//! state-level property). A trial that differs only in fields the
//! occupancy walk marks dead has the golden run's live future, and the
//! point's residue shadow decides whether those fields are rewritten
//! before the end of the drain (`MaskedClean`) or not (`DeadResidue`).

use restore_inject::{
    run_uarch_campaign, run_uarch_campaign_with_stats, CampaignStats, EndState, InjectionTarget,
    UarchCampaignConfig, UarchTrial,
};

/// Small plan, small window: fast enough to run many times in debug
/// builds. `stride` is the cutoff knob under test (0 = exhaustive).
fn small_cfg(threads: usize, stride: u64) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        warmup_cycles: 500,
        window_cycles: 1_500,
        drain_cycles: 1_000,
        seed: 0xC0FF,
        threads,
        cutoff_stride: stride,
        ..UarchCampaignConfig::default()
    }
}

/// The residue cut is only exercised if the exhaustive run has trials
/// that end with the fault resident in dead state.
fn assert_has_dead_residue(baseline: &[UarchTrial]) {
    assert!(
        baseline.iter().any(|t| t.end == EndState::DeadResidue),
        "the exhaustive baseline has no DeadResidue trial for the residue cut to end early"
    );
}

fn assert_residue_cuts(stats: &CampaignStats, threads: usize) {
    assert!(
        stats.trials_residue_cut > 0,
        "expected some trials to be cut at dead residue at {threads} threads: {stats}"
    );
    assert!(stats.trials_residue_cut <= stats.trials_cut, "residue cuts are cuts");
}

#[test]
fn cutoff_on_equals_cutoff_off_at_every_thread_count() {
    let (baseline, stats_off) = run_uarch_campaign_with_stats(&small_cfg(1, 0));
    assert!(!baseline.is_empty());
    assert_eq!(stats_off.trials_cut, 0, "stride 0 must disable the cutoff");
    assert_eq!(stats_off.trials_residue_cut, 0, "stride 0 must disable the residue cut");
    assert_eq!(stats_off.cycles_saved, 0);
    assert_has_dead_residue(&baseline);
    for threads in [1, 2, 4] {
        let (got, stats_on) = run_uarch_campaign_with_stats(&small_cfg(threads, 100));
        assert_eq!(got, baseline, "cutoff diverged at {threads} threads");
        assert!(
            stats_on.trials_cut > 0,
            "expected some reconvergent trials to be cut at {threads} threads"
        );
        assert_residue_cuts(&stats_on, threads);
        assert!(stats_on.cycles_saved > 0);
        assert_eq!(
            stats_on.cycles_simulated + stats_on.cycles_saved,
            stats_off.cycles_simulated,
            "simulated + saved must account for the exhaustive run's cycles"
        );
    }
}

#[test]
fn cutoff_on_equals_cutoff_off_for_latch_campaign() {
    let cfg = |threads, stride| UarchCampaignConfig {
        target: InjectionTarget::LatchesOnly,
        ..small_cfg(threads, stride)
    };
    let baseline = run_uarch_campaign(&cfg(1, 0));
    assert!(!baseline.is_empty());
    assert_has_dead_residue(&baseline);
    for threads in [1, 2, 4] {
        let (got, stats) = run_uarch_campaign_with_stats(&cfg(threads, 100));
        assert_eq!(got, baseline, "latch campaign diverged at {threads} threads");
        assert_residue_cuts(&stats, threads);
    }
}

/// Acceptance check for the optimisation itself: with the default
/// 10 000-cycle window and default stride, a campaign must skip at
/// least 30 % of its planned trial window cycles (most flips are masked
/// and reconverge within a few hundred cycles). Plan size is shrunk so
/// the exhaustive reference stays affordable in debug builds; window,
/// warmup, drain and stride are the defaults that set the reconvergence
/// behaviour.
#[test]
fn default_window_cutoff_saves_at_least_30_percent() {
    let cfg = |stride| UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        seed: 0xF4F5,
        threads: 1,
        cutoff_stride: stride,
        ..UarchCampaignConfig::default()
    };
    let default_stride = UarchCampaignConfig::default().cutoff_stride;
    assert!(default_stride > 0, "cutoff must be on by default");
    let (baseline, _) = run_uarch_campaign_with_stats(&cfg(0));
    let (got, stats) = run_uarch_campaign_with_stats(&cfg(default_stride));
    assert_eq!(got, baseline, "default-stride cutoff changed trial results");
    assert!(
        stats.cycles_saved_fraction() >= 0.30,
        "cutoff saved only {:.1}% of window cycles: {}",
        100.0 * stats.cycles_saved_fraction(),
        stats.summary()
    );
}
