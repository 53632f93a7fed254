//! The **liveness oracle** behind dead-state injection pruning
//! ([`crate::PruneMode`]).
//!
//! At an injection point, occupancy metadata (ROB/IQ/LSQ valid windows,
//! the rename free list, fetch/decode latch valid flags) proves many
//! catalog fields *dead*: their current value cannot be read before its
//! next overwrite, so no single-bit flip inside them can steer the live
//! computation. [`restore_uarch::OccupancyRecorder`] reports exactly
//! that per-field verdict through the same `visit_state` traversal that
//! numbers the bits, so the oracle and the injector agree on which bit
//! is which by construction.
//!
//! Deadness alone does **not** decide the trial record: a dead field
//! that is never overwritten inside the observation window leaves the
//! flip resident in microarchitectural state, which the campaign's
//! end-of-window hash comparison classifies as `DeadResidue`, not
//! `MaskedClean`. The oracle therefore runs one **shadow run** per
//! injection point (lazily, on the first dead draw): it clones the
//! point, flips *every* dead field wholesale
//! ([`restore_uarch::DeadStatePerturber`]), and replays the window plus
//! drain. Because dead state cannot influence live evolution, the
//! shadow's live trajectory must equal the golden run's — asserted
//! field-by-field — and each dead field ends either rewritten (equal to
//! the golden end value) or untouched (equal to its flipped original).
//! That written/untouched verdict is exactly what distinguishes
//! `MaskedClean` from `DeadResidue` for every single-bit trial at the
//! point, so one shadow run prices all dead trials of the point.
//!
//! The written test is unambiguous: an untouched field ends at
//! `orig ^ mask` while a rewritten one ends at the golden end value,
//! and the two coincide only when the golden run itself wrote
//! `orig ^ mask` — in which case the field *was* written and the
//! verdict is correct either way.
//!
//! Soundness is not taken on faith: every shadow run asserts the live
//! trajectory really was undisturbed (a component reporting a live
//! field as dead fails loudly here), and `PruneMode::Audit` re-runs
//! every pruned trial exhaustively and asserts the predicted record is
//! identical. See DESIGN.md "Liveness oracle" for the argument.

use crate::classify::SymptomLatencies;
use crate::uarch_campaign::UarchCampaignConfig;
use crate::uarch_trial::{drain, EndState, GoldenRun, UarchTrial};
use restore_uarch::state::width_mask;
use restore_uarch::{
    CycleReport, DeadStatePerturber, FaultState, OccupancyRecorder, Pipeline, StateCatalog, Stop,
};
use restore_workloads::WorkloadId;

/// Per-injection-point liveness verdicts, captured once and shared by
/// all of the point's trials.
pub(crate) struct PointOracle {
    /// Per-field liveness at the injection point, in catalog order.
    live: Vec<bool>,
    /// Per-field value at the injection point, in catalog order.
    orig: Vec<u64>,
    /// Per-field "rewritten before end of trial" verdict from the shadow
    /// run; `None` until the first dead draw forces the shadow run.
    written: Option<Vec<bool>>,
}

impl PointOracle {
    /// Records occupancy at the injection point. The visitor only reads,
    /// so `pipe` is unchanged afterwards.
    pub(crate) fn capture(pipe: &mut Pipeline) -> PointOracle {
        let mut rec = OccupancyRecorder::new();
        pipe.visit_state(&mut rec);
        PointOracle { live: rec.live, orig: rec.values, written: None }
    }

    /// The catalog field index of `bit` if the oracle can prune it
    /// (i.e. the field is occupancy-dead at this point).
    pub(crate) fn dead_field(&self, catalog: &StateCatalog, bit: u64) -> Option<usize> {
        debug_assert_eq!(self.live.len(), catalog.fields.len());
        let f = catalog.field_index_of(bit)?;
        (!self.live[f]).then_some(f)
    }

    /// Whether dead field `f` is rewritten before the end of the trial.
    /// Requires [`PointOracle::ensure_written`] to have run.
    pub(crate) fn written(&self, f: usize) -> bool {
        self.written.as_ref().expect("ensure_written must run before predicting")[f]
    }

    /// Whether this point's shadow run actually happened — the cost the
    /// interval map exists to avoid.
    pub(crate) fn shadow_ran(&self) -> bool {
        self.written.is_some()
    }

    /// Runs the shadow run once per point: all dead fields flipped
    /// wholesale, window + drain replayed, and each dead field
    /// classified as rewritten or untouched. Also asserts, field by
    /// field, that the perturbed machine's live trajectory matched the
    /// golden run — the oracle's soundness condition.
    pub(crate) fn ensure_written(
        &mut self,
        at: &Pipeline,
        golden: &GoldenRun,
        catalog: &StateCatalog,
        cfg: &UarchCampaignConfig,
    ) {
        if self.written.is_some() {
            return;
        }
        let mut shadow = at.clone();
        let mut perturb = DeadStatePerturber::new(&self.live);
        shadow.visit_state(&mut perturb);
        assert_eq!(perturb.visited(), self.live.len(), "catalog drifted since capture");
        // Mirror run_trial's window loop and end-of-trial drain exactly:
        // `written` must describe the state the classifier hashes.
        let mut r = CycleReport::default();
        for _ in 0..cfg.window_cycles {
            if shadow.status() != Stop::Running {
                break;
            }
            shadow.cycle_into(&mut r);
        }
        drain(&mut shadow, cfg.drain_cycles, &mut r);

        // Soundness self-checks: dead state must not have steered the
        // live computation.
        assert_eq!(shadow.status(), golden.end_status, "dead flips changed the end status");
        assert_eq!(shadow.retired(), golden.retired, "dead flips changed retirement");
        assert_eq!(shadow.arch_regs(), golden.end_regs, "dead flips changed register state");
        assert_eq!(
            shadow.memory().content_hash(),
            golden.end_mem_hash,
            "dead flips changed memory state"
        );

        let mut rec = OccupancyRecorder::new();
        shadow.visit_state(&mut rec);
        let end = rec.values;
        assert_eq!(end.len(), golden.end_fields.len(), "golden run lacks end-field values");
        let written = (0..end.len())
            .map(|f| {
                let golden_end = golden.end_fields[f];
                if self.live[f] {
                    assert_eq!(
                        end[f], golden_end,
                        "live field {f} diverged in the all-dead-bits shadow run"
                    );
                    return true;
                }
                let untouched = self.orig[f] ^ width_mask(catalog.fields[f].1);
                assert!(
                    end[f] == golden_end || end[f] == untouched,
                    "dead field {f} ended at {:#x}, neither rewritten ({golden_end:#x}) \
                     nor untouched ({untouched:#x})",
                    end[f],
                );
                end[f] == golden_end
            })
            .collect();
        self.written = Some(written);
    }
}

/// Predicts the exact trial record for a dead-bit injection without
/// simulating it.
///
/// A dead flip cannot produce any symptom of its own — the live
/// trajectory, retired stream, mispredictions and miss counters are the
/// golden run's — so every latency stays `None`, the counter deltas are
/// zero, and the ending depends only on how the golden run ended and
/// whether the field is rewritten (mirroring the reconvergence cutoff's
/// back-fill for the terminated cases).
pub(crate) fn predict_dead_trial(
    golden: &GoldenRun,
    catalog: &StateCatalog,
    id: WorkloadId,
    bit: u64,
    base_retired: u64,
    written: bool,
) -> UarchTrial {
    let mut trial = UarchTrial {
        workload: id,
        bit,
        region: catalog.region_of(bit).map(|r| r.name).unwrap_or("?"),
        lhf_protected: catalog.lhf_protected(bit),
        symptoms: SymptomLatencies::default(),
        value_divergence: None,
        hc_mispredict: None,
        any_mispredict: None,
        // A dead flip never perturbs the retired stream, so the
        // software sources (signature, duplication) see only aligned,
        // matching events and stay silent.
        sig_mismatch: None,
        dup_mismatch: None,
        extra_dcache_misses: 0,
        extra_dtlb_misses: 0,
        end: EndState::MaskedClean,
    };
    trial.end = match (golden.end_status, written) {
        (Stop::Halted, true) => EndState::Completed,
        (Stop::Running, true) => EndState::MaskedClean,
        (Stop::Halted | Stop::Running, false) => EndState::DeadResidue,
        (Stop::Deadlock, _) => {
            trial.symptoms.deadlock = Some(golden.retired - base_retired);
            EndState::Terminated
        }
        (Stop::Exception(_), _) => {
            trial.symptoms.exception = Some(golden.retired - base_retired);
            EndState::Terminated
        }
    };
    trial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch_campaign::maskmap_horizon;
    use crate::uarch_trial::golden_run;
    use proptest::prelude::*;
    use restore_maskmap::UarchMaskMap;
    use restore_workloads::{Scale, WorkloadId};
    use std::sync::OnceLock;

    /// Long-running workload so sampled cycles stay inside the live
    /// region, with the small cycle geometry of the equivalence suites.
    fn cfg() -> UarchCampaignConfig {
        UarchCampaignConfig {
            scale: Scale::smoke(),
            warmup_cycles: 500,
            window_cycles: 1_500,
            drain_cycles: 1_000,
            // `golden_run` only records end-field values (which
            // `ensure_written` compares against) when pruning is on.
            prune: crate::uarch_campaign::PruneMode::Interval,
            ..UarchCampaignConfig::default()
        }
    }

    /// One shared map (a full horizon replay) for all proptest cases.
    fn shared_map() -> &'static UarchMaskMap {
        static MAP: OnceLock<UarchMaskMap> = OnceLock::new();
        MAP.get_or_init(|| {
            let c = cfg();
            let program = WorkloadId::Parserx.build(c.scale);
            UarchMaskMap::build(&c.uarch, &program, maskmap_horizon(&c), 0)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The static map may only ever *strengthen* the dynamic
        /// oracle, never contradict it: a map prune claiming deadness
        /// at injection must land on a field the occupancy oracle also
        /// reports dead, and the map's written/residue verdict must
        /// match the verdict the shadow run reaches dynamically. Each
        /// case scans forward from a random bit at a random plan cycle
        /// to the first bit the map actually proves, so cases exercise
        /// real prunes.
        #[test]
        fn map_verdicts_never_contradict_the_oracle(
            cycle_frac in 0.0f64..1.0,
            bit_frac in 0.0f64..1.0,
        ) {
            let c = cfg();
            let program = WorkloadId::Parserx.build(c.scale);
            let mut pipe = Pipeline::new(c.uarch.clone(), &program);
            let catalog = pipe.catalog();
            let cycle = c.warmup_cycles + ((4 * c.window_cycles) as f64 * cycle_frac) as u64;
            while pipe.cycles() < cycle {
                assert_eq!(pipe.status(), Stop::Running, "workload died inside the plan span");
                pipe.cycle();
            }
            let run = golden_run(&pipe, &c);
            let map = shared_map();
            let total = catalog.total_bits;
            let start = ((total as f64 - 1.0) * bit_frac) as u64;
            let Some((bit, proof)) = (0..total)
                .map(|o| (start + o) % total)
                .find_map(|b| map.proves(b, cycle, cycle + run.window_executed).map(|p| (b, p)))
            else {
                // No provable bit at this cycle at all — nothing to
                // cross-check.
                return;
            };

            let mut oracle = PointOracle::capture(&mut pipe);
            if proof.dead_at_injection {
                prop_assert!(
                    oracle.dead_field(&catalog, bit).is_some(),
                    "map claims bit {} dead at cycle {}; the oracle says live", bit, cycle
                );
            }
            // When the bit is occupancy-dead, the shadow run's dynamic
            // written/untouched verdict must match the map's.
            if let Some(f) = oracle.dead_field(&catalog, bit) {
                oracle.ensure_written(&pipe, &run, &catalog, &c);
                prop_assert_eq!(
                    oracle.written(f), proof.written,
                    "map and shadow run disagree on bit {} at cycle {}", bit, cycle
                );
            }
        }
    }
}
