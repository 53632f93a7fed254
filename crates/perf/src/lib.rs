//! # restore-perf
//!
//! Performance model for false-positive rollback overhead — the paper's
//! Figure 7 study (§5.2.3).
//!
//! The paper evaluates ReStore's performance cost "on a timing model
//! configured to resemble our processor model": two checkpoints are
//! live, a rollback restores the **older** one (average distance 1.5×
//! the interval), and re-execution uses the branch-outcome event log for
//! perfect control-flow prediction. Two policies are compared:
//!
//! * `imm` — roll back immediately on each symptom (may pay several
//!   rollbacks against one checkpoint);
//! * `delayed` — defer the rollback until the current interval
//!   completes (one rollback per symptomatic interval, but a longer
//!   2-interval re-execution distance).
//!
//! This crate measures each workload's fault-free execution profile on
//! the real pipeline (cycles, instructions, false-positive
//! high-confidence mispredictions and their positions) and applies the
//! same analytic model.
//!
//! # Examples
//!
//! ```no_run
//! use restore_perf::{profile_workload, PerfModel, Policy};
//! use restore_workloads::{Scale, WorkloadId};
//! use restore_uarch::UarchConfig;
//!
//! let p = profile_workload(WorkloadId::Gzipx, Scale::campaign(),
//!                          &UarchConfig::default(), 200_000);
//! let model = PerfModel::default();
//! let s = model.speedup(&p, 100, Policy::Immediate);
//! assert!(s <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use restore_uarch::{CycleReport, Pipeline, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

/// Fault-free execution profile of one workload on the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Workload measured.
    pub workload: WorkloadId,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Conditional-branch mispredictions observed.
    pub mispredicts: u64,
    /// Retired-instruction positions of false-positive symptoms
    /// (high-confidence conditional mispredictions).
    pub symptom_positions: Vec<u64>,
}

impl WorkloadProfile {
    /// Baseline cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// False-positive symptoms per retired instruction.
    pub fn symptom_rate(&self) -> f64 {
        self.symptom_positions.len() as f64 / self.instructions.max(1) as f64
    }
}

/// Measures a workload's fault-free profile by running the pipeline.
pub fn profile_workload(
    id: WorkloadId,
    scale: Scale,
    uarch: &UarchConfig,
    max_cycles: u64,
) -> WorkloadProfile {
    let program = id.build(scale);
    let mut pipe = Pipeline::new(uarch.clone(), &program);
    let mut mispredicts = 0u64;
    let mut symptoms = Vec::new();
    let mut r = CycleReport::default();
    for _ in 0..max_cycles {
        if pipe.status() != Stop::Running {
            break;
        }
        pipe.cycle_into(&mut r);
        for m in &r.mispredicts {
            if m.conditional {
                mispredicts += 1;
                if m.high_confidence {
                    symptoms.push(m.retired_before);
                }
            }
        }
    }
    WorkloadProfile {
        workload: id,
        instructions: pipe.retired(),
        cycles: pipe.cycles(),
        mispredicts,
        symptom_positions: symptoms,
    }
}

/// Rollback policy (the `imm`/`delayed` bars of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Roll back as soon as a symptom fires.
    Immediate,
    /// Defer the rollback until the interval completes.
    Delayed,
}

/// The analytic rollback-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Pipeline refill cost of one misprediction flush (cycles); used to
    /// estimate the perfect-prediction re-execution CPI.
    pub flush_penalty: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        // Front-end depth plus scheduler refill, matching the default
        // UarchConfig's recovery cost.
        PerfModel { flush_penalty: 10.0 }
    }
}

impl PerfModel {
    /// Re-execution CPI: the baseline with misprediction flushes removed
    /// (the event log predicts control flow perfectly during replay).
    pub fn reexec_cpi(&self, p: &WorkloadProfile) -> f64 {
        let saved = self.flush_penalty * p.mispredicts as f64;
        ((p.cycles as f64 - saved) / p.instructions.max(1) as f64).max(0.3)
    }

    /// Extra cycles spent on rollbacks for a checkpoint interval.
    pub fn rollback_cycles(&self, p: &WorkloadProfile, interval: u64, policy: Policy) -> f64 {
        let i = interval as f64;
        let re_cpi = self.reexec_cpi(p);
        match policy {
            Policy::Immediate => {
                // Each symptom restores the older checkpoint: expected
                // distance 1.5 intervals, re-executed once per symptom.
                p.symptom_positions.len() as f64 * 1.5 * i * re_cpi
            }
            Policy::Delayed => {
                // One rollback per interval containing at least one
                // symptom, at a 2-interval re-execution distance.
                let mut symptomatic = std::collections::BTreeSet::new();
                for &pos in &p.symptom_positions {
                    symptomatic.insert(pos / interval.max(1));
                }
                symptomatic.len() as f64 * 2.0 * i * re_cpi
            }
        }
    }

    /// Relative performance vs. the checkpoint-free baseline (≤ 1).
    pub fn speedup(&self, p: &WorkloadProfile, interval: u64, policy: Policy) -> f64 {
        let base = p.cycles as f64;
        base / (base + self.rollback_cycles(p, interval, policy))
    }

    /// Geometric-mean speedup across profiles (the Figure 7 bars).
    pub fn mean_speedup(&self, profiles: &[WorkloadProfile], interval: u64, policy: Policy) -> f64 {
        if profiles.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = profiles.iter().map(|p| self.speedup(p, interval, policy).ln()).sum();
        (log_sum / profiles.len() as f64).exp()
    }
}

/// The x-axis of Figure 7.
pub const FIGURE7_INTERVALS: [u64; 5] = [50, 100, 200, 500, 1000];

/// Profiles every workload (convenience for the figure generator).
pub fn profile_all(scale: Scale, uarch: &UarchConfig, max_cycles: u64) -> Vec<WorkloadProfile> {
    WorkloadId::ALL.iter().map(|&id| profile_workload(id, scale, uarch, max_cycles)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_profile(symptoms: Vec<u64>) -> WorkloadProfile {
        WorkloadProfile {
            workload: WorkloadId::Mcfx,
            instructions: 100_000,
            cycles: 120_000,
            mispredicts: 1_000,
            symptom_positions: symptoms,
        }
    }

    #[test]
    fn cpi_and_rates() {
        let p = synthetic_profile(vec![10, 20]);
        assert!((p.cpi() - 1.2).abs() < 1e-12);
        assert!((p.symptom_rate() - 2e-5).abs() < 1e-12);
    }

    #[test]
    fn reexec_is_faster_than_baseline() {
        let p = synthetic_profile(vec![]);
        let m = PerfModel::default();
        assert!(m.reexec_cpi(&p) < p.cpi());
    }

    #[test]
    fn no_symptoms_means_no_slowdown() {
        let p = synthetic_profile(vec![]);
        let m = PerfModel::default();
        for policy in [Policy::Immediate, Policy::Delayed] {
            assert!((m.speedup(&p, 100, policy) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn imm_beats_delayed_at_small_intervals() {
        // Spread symptoms so each lands in its own interval: delayed pays
        // 2I per interval vs imm's 1.5I per symptom.
        let p = synthetic_profile((0..50).map(|k| k * 2_000).collect());
        let m = PerfModel::default();
        assert!(m.speedup(&p, 50, Policy::Immediate) > m.speedup(&p, 50, Policy::Delayed));
    }

    #[test]
    fn delayed_wins_when_symptoms_cluster() {
        // Ten symptoms inside one interval: imm pays ten rollbacks,
        // delayed one.
        let p = synthetic_profile((0..10).map(|k| 5_000 + k * 10).collect());
        let m = PerfModel::default();
        assert!(m.speedup(&p, 1000, Policy::Delayed) > m.speedup(&p, 1000, Policy::Immediate));
    }

    #[test]
    fn slowdown_grows_with_interval_for_imm() {
        let p = synthetic_profile((0..20).map(|k| k * 5_000).collect());
        let m = PerfModel::default();
        let s100 = m.speedup(&p, 100, Policy::Immediate);
        let s1000 = m.speedup(&p, 1000, Policy::Immediate);
        assert!(s1000 < s100);
    }

    #[test]
    fn real_profiles_give_minor_hit_at_100() {
        // Paper: ~6% at a 100-instruction interval. Band generously.
        let profiles =
            profile_all(restore_workloads::Scale::campaign(), &UarchConfig::default(), 60_000);
        let m = PerfModel::default();
        let s = m.mean_speedup(&profiles, 100, Policy::Immediate);
        assert!((0.80..=1.0).contains(&s), "speedup {s:.3} out of band");
    }

    #[test]
    fn mean_speedup_of_empty_is_one() {
        assert_eq!(PerfModel::default().mean_speedup(&[], 100, Policy::Immediate), 1.0);
    }
}
