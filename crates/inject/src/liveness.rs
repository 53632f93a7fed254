//! The **liveness oracle** behind dead-state injection pruning
//! ([`crate::PruneMode`]) and the residue-aware reconvergence cutoff.
//!
//! At any cycle, occupancy metadata (ROB/IQ/LSQ valid windows, the
//! rename free list, fetch/decode latch valid flags) proves many catalog
//! fields *dead*: their current value cannot be read before its next
//! overwrite, so no value inside them can steer the live computation.
//! The golden run records that verdict per field at the injection point
//! and at every stride boundary ([`crate::planes`]), through the same
//! `visit_state` traversal that numbers the bits, so the oracle and the
//! injector agree on which bit is which by construction.
//!
//! Deadness alone does **not** decide a trial record: a dead field that
//! is never overwritten before the end of the drain leaves the
//! difference resident in microarchitectural state, which the
//! end-of-trial hash comparison classifies as `DeadResidue`, not
//! `MaskedClean`. One **residue shadow** per injection point
//! ([`ResidueVerdicts::shadow`], run lazily the first time a trial at the
//! point needs a verdict) decides that for every field at every
//! recorded boundary: it clones the point, flips every dead field
//! wholesale at the injection point, and replays the window plus drain.
//! At each boundary it flips every field that is dead there and not
//! already carrying a flip, so each flip is an *episode* that starts
//! where its field is dead and ends when the field equals golden again
//! (rewritten) or at the end of the drain (residue). The verdict for
//! field `f` at boundary `b` is the verdict of the episode covering `b`.
//!
//! The written test is unambiguous: an untouched field stays at
//! `golden ^ mask` while a rewritten one equals golden, and the two
//! coincide only when the golden run itself wrote `golden ^ mask` — in
//! which case the field *was* written and the verdict is correct either
//! way.
//!
//! Soundness is not taken on faith: at every boundary the shadow asserts
//! that every field it did not flip equals golden (a component reporting
//! a live field as dead fails loudly here), that every flipped field is
//! either rewritten or untouched (never partially written), and at the
//! end that status, retirement, registers and memory equal golden's.
//! `PruneMode::Audit` re-runs every pruned trial without the residue cut
//! and asserts the predicted record is identical. See DESIGN.md
//! "Liveness oracle" and "Reconvergence cutoff" for the argument.

use crate::classify::SymptomLatencies;
use crate::planes::{bit, read_bits, set_bit};
use crate::uarch_campaign::UarchCampaignConfig;
use crate::uarch_trial::{drain, EndState, GoldenRun, UarchTrial};
use restore_uarch::state::{width_mask, FieldClass, StateKind, StateVisitor};
use restore_uarch::{CycleReport, FaultState, Pipeline, StateCatalog, Stop};
use restore_workloads::WorkloadId;

/// One injection point's written/residue verdicts: for every recorded
/// boundary `b` and every field `f` dead at `b`, whether `f` is
/// rewritten before the end of the drain.
#[derive(Debug)]
pub(crate) struct ResidueVerdicts {
    live_words: usize,
    /// Bit `f` of row `b` is set when the episode covering boundary `b`
    /// of field `f` closed as written.
    written: Vec<u64>,
}

impl ResidueVerdicts {
    /// Whether field `f`, dead at boundary `b`, is rewritten before the
    /// end of the drain. Boundary 0 is the injection point.
    pub(crate) fn written(&self, b: usize, f: usize) -> bool {
        bit(&self.written[b * self.live_words..(b + 1) * self.live_words], f)
    }

    /// Runs the point's residue shadow against the golden run's planes
    /// (see the module docs) and collects its verdicts.
    pub(crate) fn shadow(
        at: &Pipeline,
        golden: &GoldenRun,
        cfg: &UarchCampaignConfig,
    ) -> ResidueVerdicts {
        let planes = &golden.planes;
        let (boundaries, live_words) = (planes.boundaries(), planes.live_words());
        let mut carrying = vec![0u64; live_words];
        let mut since = vec![0u32; planes.fields()];
        let mut written = vec![0u64; boundaries * live_words];
        let mut walk = |shadow: &mut Pipeline, b: usize, plane: &[u64], live: Option<&[u64]>| {
            let mut ep = Episodes {
                plane,
                live,
                b,
                pos: 0,
                field: 0,
                carrying: &mut carrying,
                since: &mut since,
                written: &mut written,
                live_words,
            };
            shadow.visit_state(&mut ep);
            assert_eq!(ep.field, planes.fields(), "catalog drifted since the golden run");
        };

        let mut shadow = at.clone();
        walk(&mut shadow, 0, planes.plane(0), Some(planes.live(0)));
        // Mirror run_trial's window loop and end-of-trial drain exactly:
        // the end verdicts must describe the state the classifier hashes.
        let stride = cfg.cutoff_stride;
        let mut r = CycleReport::default();
        for i in 0..cfg.window_cycles {
            if shadow.status() != Stop::Running {
                break;
            }
            shadow.cycle_into(&mut r);
            if stride > 0 && (i + 1) % stride == 0 {
                let b = ((i + 1) / stride) as usize;
                if b < boundaries {
                    walk(&mut shadow, b, planes.plane(b), Some(planes.live(b)));
                }
            }
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
        // Closes every open episode: written if the field ends at the
        // golden end value, residue otherwise.
        walk(&mut shadow, boundaries, planes.end(), None);
        ResidueVerdicts { live_words, written }
    }
}

/// The residue shadow's per-boundary walk: checks every field against
/// the golden plane, closes the episodes of rewritten fields, and (when
/// `live` is given) opens an episode in every dead field not already
/// carrying a flip.
struct Episodes<'a> {
    plane: &'a [u64],
    live: Option<&'a [u64]>,
    /// The boundary walked (the boundary count for the end plane).
    b: usize,
    pos: u64,
    field: usize,
    /// Fields carrying a flip.
    carrying: &'a mut [u64],
    /// Boundary each carried flip was made at.
    since: &'a mut [u32],
    written: &'a mut [u64],
    live_words: usize,
}

impl StateVisitor for Episodes<'_> {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let (f, b) = (self.field, self.b);
        let golden = read_bits(self.plane, self.pos, width);
        let mask = width_mask(width);
        if bit(self.carrying, f) {
            if *value == golden {
                // Rewritten since the last boundary: the episode covers
                // every boundary from its flip up to this one.
                for covered in self.since[f] as usize..b {
                    let row = covered * self.live_words;
                    set_bit(&mut self.written[row..row + self.live_words], f);
                }
                self.carrying[f / 64] &= !(1 << (f % 64));
            } else {
                assert_eq!(
                    *value,
                    golden ^ mask,
                    "dead field {f} was partially rewritten by boundary {b} of the residue shadow"
                );
            }
        } else {
            assert_eq!(
                *value, golden,
                "field {f} diverged from golden at boundary {b} of the residue shadow \
                 (a component reported live state dead)"
            );
        }
        if let Some(live) = self.live {
            if !bit(self.carrying, f) && !bit(live, f) {
                *value ^= mask;
                set_bit(self.carrying, f);
                self.since[f] = b as u32;
            }
        }
        self.pos += width as u64;
        self.field += 1;
    }
}

/// The ending of a trial whose live future is the golden run's from
/// some point on — a trial cut at a stride boundary, or a flip into dead
/// state: the golden run's ending, with `symptoms` back-filled for a
/// deadlock or exception, and the masked/residue split decided by
/// `written` (is every field where the trial still differs rewritten
/// before the end of the drain?), which is consulted only when the
/// golden run ended halted or running.
pub(crate) fn golden_ending(
    golden: &GoldenRun,
    base_retired: u64,
    symptoms: &mut SymptomLatencies,
    written: impl FnOnce() -> bool,
) -> EndState {
    match golden.end_status {
        status @ (Stop::Halted | Stop::Running) => match (written(), status) {
            (false, _) => EndState::DeadResidue,
            (true, Stop::Halted) => EndState::Completed,
            (true, _) => EndState::MaskedClean,
        },
        Stop::Deadlock => {
            symptoms.deadlock.get_or_insert(golden.retired - base_retired);
            EndState::Terminated
        }
        Stop::Exception(_) => {
            symptoms.exception.get_or_insert(golden.retired - base_retired);
            EndState::Terminated
        }
    }
}

/// Predicts the exact trial record for a dead-bit injection without
/// simulating it.
///
/// A dead flip cannot produce any symptom of its own — the live
/// trajectory, retired stream, mispredictions and miss counters are the
/// golden run's — so every latency stays `None`, the counter deltas are
/// zero, and the ending is [`golden_ending`] with the field's
/// injection-point verdict.
pub(crate) fn predict_dead_trial(
    golden: &GoldenRun,
    catalog: &StateCatalog,
    id: WorkloadId,
    bit: u64,
    base_retired: u64,
    written: impl FnOnce() -> bool,
) -> UarchTrial {
    let mut symptoms = SymptomLatencies::default();
    let end = golden_ending(golden, base_retired, &mut symptoms, written);
    UarchTrial {
        workload: id,
        bit,
        region: catalog.region_of(bit).map(|r| r.name).unwrap_or("?"),
        lhf_protected: catalog.lhf_protected(bit),
        symptoms,
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
        end,
    }
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
            let run = golden_run(&pipe, &catalog, &c);
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

            if proof.dead_at_injection {
                prop_assert!(
                    run.dead_field(&catalog, bit).is_some(),
                    "map claims bit {} dead at cycle {}; the oracle says live", bit, cycle
                );
            }
            // When the bit is occupancy-dead, the shadow run's dynamic
            // written/untouched verdict must match the map's.
            if let Some(f) = run.dead_field(&catalog, bit) {
                prop_assert_eq!(
                    run.verdicts(&pipe, &c).written(0, f), proof.written,
                    "map and shadow run disagree on bit {} at cycle {}", bit, cycle
                );
            }
        }
    }
}
