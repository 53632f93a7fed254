//! The microarchitectural trial monitor: the per-point golden
//! observation ([`GoldenRun`]), the injected lockstep trial
//! ([`run_trial`]), and the trial record ([`UarchTrial`]) it produces.
//!
//! Each trial clones a warmed-up pipeline at a pre-selected random cycle,
//! flips one uniformly chosen state bit, and monitors up to 10,000 cycles
//! against a cached golden run from the same point (§4.2): watchdog
//! deadlock, spurious exceptions, divergence of the retired stream
//! (control flow vs. value corruption), fault-induced high-confidence
//! branch mispredictions, and end-of-trial state comparison for the
//! masked/latent/other split. Campaign orchestration — planning, seeding,
//! parallelism — lives in [`crate::campaign`]; this module only ever sees
//! one fork, one golden run, and one bit.

use crate::campaign::TrialCost;
use crate::classify::{Symptom, SymptomLatencies, UarchCategory};
use crate::liveness::{golden_ending, predict_dead_trial, ResidueVerdicts};
use crate::planes::{bit, GoldenPlanes, Reconvergence};
use crate::uarch_campaign::{CfvMode, InjectionTarget, PruneMode, UarchCampaignConfig};
use rand::rngs::StdRng;
use rand::Rng;
use restore_arch::Retired;
use restore_core::{DetectorSet, Observation, RetiredCompare, SourceSet, SymptomKind};
use restore_uarch::{CycleReport, Pipeline, StateCatalog, Stop};
use restore_workloads::WorkloadId;
use std::cell::{Cell, OnceCell};
use std::collections::BTreeSet;

/// How a trial's observation window ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndState {
    /// Ran the full window; microarchitectural state identical to golden.
    MaskedClean,
    /// Ran the full window with matching architectural state, but residue
    /// remains in (dead) microarchitectural state.
    DeadResidue,
    /// Ran the full window; architectural registers/memory differ from
    /// golden while the retired streams matched — the fault is latent in
    /// software-visible state.
    Latent,
    /// The window was cut short by an exception or deadlock.
    Terminated,
    /// Both runs halted (program completed) with identical final state.
    Completed,
}

/// One microarchitectural injection trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UarchTrial {
    /// Workload injected into.
    pub workload: WorkloadId,
    /// Global bit index injected.
    pub bit: u64,
    /// Region (component) name of the bit.
    pub region: &'static str,
    /// `true` if the hardened pipeline's parity/ECC covers this bit.
    pub lhf_protected: bool,
    /// First-observation symptom latencies. This fault model observes
    /// deadlock, exception and cfv (the latency to the first
    /// control-flow divergence from golden); the memory-symptom classes
    /// are architectural-level observables and stay `None`.
    pub symptoms: SymptomLatencies,
    /// Latency to the first value divergence (register write or store
    /// data/address) from golden.
    pub value_divergence: Option<u64>,
    /// Latency to the first fault-induced high-confidence misprediction.
    pub hc_mispredict: Option<u64>,
    /// Latency to the first fault-induced misprediction of any
    /// confidence (the perfect-confidence-predictor ablation).
    pub any_mispredict: Option<u64>,
    /// Latency at which software control-flow signature checking
    /// ([`restore_core::detector::SignatureSource`]) would flag the
    /// trial: the first retired-PC mismatch, rounded up to its signature
    /// block boundary. `None` when control flow never diverged (or the
    /// source is disabled by `sig_chunk = 0`).
    pub sig_mismatch: Option<u64>,
    /// Latency at which selective variable duplication
    /// ([`restore_core::detector::DupSource`]) would flag the trial: the
    /// first aligned register-write mismatch whose destination is a
    /// protected register. `None` when no protected write diverged (or
    /// `dup_mask = 0`).
    pub dup_mismatch: Option<u64>,
    /// Data-cache misses beyond the golden run's count (§3.3 candidate
    /// symptom; can be negative when the fault shortens execution).
    pub extra_dcache_misses: i64,
    /// Data-TLB misses beyond the golden run's count.
    pub extra_dtlb_misses: i64,
    /// How the window ended.
    pub end: EndState,
}

impl UarchTrial {
    /// Ground truth: did this fault cause (or remain able to cause) a
    /// failure?
    pub fn is_failure(&self) -> bool {
        self.symptoms.any() || self.value_divergence.is_some() || self.end == EndState::Latent
    }

    /// Classifies the trial for a checkpoint interval (detection-latency
    /// bound), a cfv detection mode, and optionally the hardened
    /// (parity/ECC) pipeline of §5.2.2.
    pub fn classify(&self, interval: u64, cfv: CfvMode, hardened: bool) -> UarchCategory {
        if hardened && self.lhf_protected {
            // Parity/ECC detects and recovers the flip before it can
            // propagate; like the paper we report these under `other`
            // ("covered by ECC and will not cause data corruption").
            return UarchCategory::Other;
        }
        if !self.is_failure() {
            return match self.end {
                EndState::DeadResidue => UarchCategory::Other,
                _ => UarchCategory::Masked,
            };
        }
        // The cfv detector resolves its own model ([`CfvMode::resolve`]);
        // classification then reads only the shared precedence
        // ([`SymptomLatencies::first_within`]), with no per-mode special
        // case here.
        let detected = SymptomLatencies {
            cfv: cfv.resolve(self.symptoms.cfv, self.hc_mispredict, self.any_mispredict),
            ..self.symptoms
        };
        match detected.first_within(interval) {
            Some(Symptom::Deadlock) => UarchCategory::Deadlock,
            Some(Symptom::Exception) => UarchCategory::Exception,
            Some(Symptom::Cfv) => UarchCategory::Cfv,
            // The memory-symptom classes stay `None` at this level, so
            // only the undetected-failure split remains.
            _ => {
                if self.symptoms.cfv.is_some() || self.value_divergence.is_some() {
                    UarchCategory::Sdc
                } else {
                    UarchCategory::Latent
                }
            }
        }
    }

    /// Would the enabled detector subset catch this trial within
    /// `interval` retired instructions of the flip? Post-hoc and free:
    /// every selection reads the recorded first-firing latencies.
    pub fn detected_within(&self, sel: &SourceSet, interval: u64) -> bool {
        let firings = [
            if sel.watchdog { self.symptoms.deadlock } else { None },
            if sel.exceptions { self.symptoms.exception } else { None },
            sel.cfv.and_then(|m| {
                m.resolve(self.symptoms.cfv, self.hc_mispredict, self.any_mispredict)
            }),
            if sel.signature { self.sig_mismatch } else { None },
            if sel.dup { self.dup_mismatch } else { None },
        ];
        firings.iter().flatten().any(|&l| l <= interval)
    }
}

/// Cached golden observation from one injection point.
#[derive(Debug)]
pub(crate) struct GoldenRun {
    trace: Vec<Retired>,
    /// `(retired_before, pc)` of golden high-confidence mispredicts.
    hc_events: BTreeSet<(u64, u64)>,
    /// `(retired_before, pc)` of all golden conditional mispredicts.
    all_events: BTreeSet<(u64, u64)>,
    end_state_hash: u64,
    pub(crate) end_regs: [u64; 32],
    /// Digest of the end memory image ([`restore_arch::Memory::content_hash`],
    /// the incremental per-page digest: O(pages dirtied since the last
    /// artifact digest), not a walk of the image); keeping the full
    /// golden `Memory` alive per point was the campaign's largest
    /// resident allocation.
    pub(crate) end_mem_hash: u64,
    /// Status after the end-of-window drain (a trial cut at reconvergence
    /// back-fills its ending from this).
    pub(crate) end_status: Stop,
    pub(crate) retired: u64,
    dcache_misses: u64,
    dtlb_misses: u64,
    /// Per-boundary records of the window — artifact digest, packed
    /// plane and live mask at the injection point (boundary 0) and at
    /// each `cutoff_stride` boundary (boundary `b` is after `b * stride`
    /// cycles; recording stops when the golden run halts) — plus the
    /// plane after the drain. Empty when both the cutoff and pruning are
    /// off.
    pub(crate) planes: GoldenPlanes,
    /// Window cycles the golden run actually executed (less than
    /// `window_cycles` when the workload halts inside the window). A cut
    /// trial's remaining cycles are counted against this, not the full
    /// window — post-match the trial mirrors the golden run, halts
    /// included, so this is exactly what the exhaustive trial would have
    /// simulated.
    pub(crate) window_executed: u64,
    /// The point's written/residue verdicts, from the residue shadow the
    /// first trial that needs one runs.
    verdicts: OnceCell<ResidueVerdicts>,
    /// Trials at this point that took the residue cut.
    residue_cuts: Cell<u64>,
}

impl GoldenRun {
    /// The catalog field index of `bit` if the occupancy walk proves
    /// that field dead at the injection point.
    pub(crate) fn dead_field(&self, catalog: &StateCatalog, bit_index: u64) -> Option<usize> {
        let f = catalog.field_index_of(bit_index)?;
        (!bit(self.planes.live(0), f)).then_some(f)
    }

    /// The point's residue verdicts, running the residue shadow from
    /// `at` (the injection point) on first use.
    pub(crate) fn verdicts(&self, at: &Pipeline, cfg: &UarchCampaignConfig) -> &ResidueVerdicts {
        self.verdicts.get_or_init(|| ResidueVerdicts::shadow(at, self, cfg))
    }

    /// Whether this point's residue shadow ran.
    pub(crate) fn shadow_ran(&self) -> bool {
        self.verdicts.get().is_some()
    }

    /// Trials at this point that took the residue cut.
    pub(crate) fn residue_cuts(&self) -> u64 {
        self.residue_cuts.get()
    }
}

/// Stops fetch and runs until the machine is empty (or `max` cycles),
/// clocking through the caller's scratch `report`. An empty machine must
/// stop cycling before the retirement watchdog misreads the idle period
/// as a deadlock.
pub(crate) fn drain(pipe: &mut Pipeline, max: u64, report: &mut CycleReport) {
    pipe.set_fetch_enabled(false);
    for _ in 0..max {
        if pipe.status() != Stop::Running || pipe.in_flight() == 0 {
            break;
        }
        pipe.cycle_into(report);
    }
    pipe.set_fetch_enabled(true);
}

/// `(retired-since-fork, pc)` identity of a mispredict event.
/// `retired_before` is sampled from the (possibly fault-corrupted)
/// machine and can sit below the fork's baseline when the fault hits the
/// retirement counter itself — saturate rather than underflow; such an
/// event can never match a golden key, which is exactly right.
#[inline]
fn event_key(retired_before: u64, base_retired: u64, pc: u64) -> (u64, u64) {
    (retired_before.saturating_sub(base_retired), pc)
}

pub(crate) fn golden_run(
    at: &Pipeline,
    catalog: &StateCatalog,
    cfg: &UarchCampaignConfig,
) -> GoldenRun {
    let mut g = at.clone();
    let base_retired = g.retired();
    let mut trace = Vec::new();
    let mut hc = BTreeSet::new();
    let mut all = BTreeSet::new();
    let stride = cfg.cutoff_stride;
    let record = stride > 0 || cfg.prune != PruneMode::Off;
    let boundaries =
        if record { 1 + cfg.window_cycles.checked_div(stride).unwrap_or(0) } else { 0 };
    let mut planes = GoldenPlanes::new(catalog, boundaries as usize);
    if record {
        planes.record(&mut g);
    }
    let mut window_executed = 0u64;
    let mut r = CycleReport::default();
    for i in 0..cfg.window_cycles {
        if g.status() != Stop::Running {
            break;
        }
        window_executed += 1;
        g.cycle_into(&mut r);
        assert!(r.exception.is_none(), "golden run raised an exception");
        assert!(!r.deadlock, "golden run deadlocked");
        for m in &r.mispredicts {
            if m.conditional {
                all.insert(event_key(m.retired_before, base_retired, m.pc));
                if m.high_confidence {
                    hc.insert(event_key(m.retired_before, base_retired, m.pc));
                }
            }
        }
        trace.extend_from_slice(&r.retired);
        if stride > 0 && (i + 1) % stride == 0 && g.status() == Stop::Running {
            planes.record(&mut g);
        }
    }
    drain(&mut g, cfg.drain_cycles, &mut r);
    if record {
        planes.record_end(&mut g);
    }
    GoldenRun {
        trace,
        hc_events: hc,
        all_events: all,
        end_state_hash: g.state_hash(),
        end_regs: g.arch_regs(),
        end_mem_hash: g.memory().content_hash(),
        end_status: g.status(),
        retired: g.retired(),
        dcache_misses: g.miss_counters().1,
        dtlb_misses: g.miss_counters().3,
        planes,
        window_executed,
        verdicts: OnceCell::new(),
        residue_cuts: Cell::new(0),
    }
}

/// Draws a global bit index for the configured target.
pub(crate) fn draw_bit(rng: &mut StdRng, catalog: &StateCatalog, target: InjectionTarget) -> u64 {
    match target {
        InjectionTarget::AllState => rng.gen_range(0..catalog.total_bits),
        InjectionTarget::LatchesOnly => catalog.latch_bit(rng.gen_range(0..catalog.latch_bits())),
    }
}

/// The shortcuts a trial may take instead of simulating its whole
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shortcuts {
    /// Dead-state pruning (when `cfg.prune` asks for it) and both
    /// reconvergence cuts, exact and residue (when `cfg.cutoff_stride`
    /// is non-zero).
    All,
    /// The exact cut only: the independent reference an audit compares a
    /// liveness prediction with, which must not consult the residue
    /// shadow the prediction came from.
    ExactCut,
}

pub(crate) fn run_trial(
    at: &Pipeline,
    golden: &GoldenRun,
    catalog: &StateCatalog,
    id: WorkloadId,
    bit: u64,
    cfg: &UarchCampaignConfig,
    shortcuts: Shortcuts,
) -> (UarchTrial, TrialCost) {
    if shortcuts == Shortcuts::All && cfg.prune != PruneMode::Off {
        if let Some(field) = golden.dead_field(catalog, bit) {
            let written = || golden.verdicts(at, cfg).written(0, field);
            let predicted = predict_dead_trial(golden, catalog, id, bit, at.retired(), written);
            // A dead trial's live evolution is the golden run's, so the
            // exhaustive trial would have simulated (or been cut across)
            // exactly the golden run's window cycles.
            let pruned_cycles = golden.window_executed;
            if cfg.prune == PruneMode::Audit {
                let (actual, mut cost) =
                    run_trial(at, golden, catalog, id, bit, cfg, Shortcuts::ExactCut);
                assert_eq!(
                    actual, predicted,
                    "liveness oracle disagrees with simulation (workload {id:?}, bit {bit})"
                );
                cost.pruned = true;
                cost.pruned_cycles = pruned_cycles;
                return (actual, cost);
            }
            let cost = TrialCost { pruned: true, pruned_cycles, ..TrialCost::default() };
            return (predicted, cost);
        }
    }
    let mut pipe = at.clone();
    let base_retired = pipe.retired();
    pipe.flip_bit(bit);

    let region = catalog.region_of(bit).map(|r| r.name).unwrap_or("?");
    let mut trial = UarchTrial {
        workload: id,
        bit,
        region,
        lhf_protected: catalog.lhf_protected(bit),
        symptoms: SymptomLatencies::default(),
        value_divergence: None,
        hc_mispredict: None,
        any_mispredict: None,
        sig_mismatch: None,
        dup_mismatch: None,
        extra_dcache_misses: 0,
        extra_dtlb_misses: 0,
        end: EndState::MaskedClean,
    };

    // The detector bank: every symptom latency this monitor records is
    // the first firing of a registered `SymptomSource`. The sustained
    // cfv model (a control-flow violation means the *wrong instruction
    // executed* — a single-event PC label mismatch that immediately
    // re-aligns is a corrupted reporting field, i.e. data corruption,
    // not cfv) lives inside the cfv source.
    let mut set = DetectorSet::uarch_trial(&cfg.detectors, &cfg.uarch);
    let mut idx = 0usize; // next golden trace index to compare
    let mut terminated = false;
    let stride = cfg.cutoff_stride;
    let mut executed = 0u64;
    // The boundary the trial was cut at, and the dead fields it still
    // differs from golden in there (none for an exact cut).
    let mut cut = None;
    let mut dead = Vec::new();
    let mut r = CycleReport::default();
    for i in 0..cfg.window_cycles {
        if pipe.status() != Stop::Running {
            break;
        }
        executed += 1;
        let lat_now = |p: &Pipeline| p.retired() - base_retired;
        pipe.cycle_into(&mut r);
        for m in &r.mispredicts {
            if !m.conditional {
                continue;
            }
            let key = event_key(m.retired_before, base_retired, m.pc);
            let any = !golden.all_events.contains(&key);
            let high_confidence = m.high_confidence && !golden.hc_events.contains(&key);
            if any || high_confidence {
                set.observe(&Observation::NovelMispredict {
                    latency: key.0 + 1,
                    any,
                    high_confidence,
                });
            }
        }
        for ret in &r.retired {
            if set.first(SymptomKind::Cfv).is_some() {
                break; // streams no longer aligned; nothing to compare
            }
            let Some(g) = golden.trace.get(idx) else { break };
            let lat = idx as u64 + 1;
            let pc_mismatch = ret.pc != g.pc;
            // Dataflow is only comparable on an aligned stream — exactly
            // what an embedded software check could compare.
            let value_mismatch = !pc_mismatch
                && (ret.reg_write != g.reg_write || ret.mem != g.mem || ret.halted != g.halted);
            let reg_write_mismatch = !pc_mismatch && ret.reg_write != g.reg_write;
            set.observe(&Observation::Retired(RetiredCompare {
                latency: lat,
                pc_mismatch,
                value_mismatch,
                reg_write_mismatch,
                trial_reg: ret.reg_write.map(|(reg, _)| reg.index() as u8),
                golden_reg: g.reg_write.map(|(reg, _)| reg.index() as u8),
            }));
            idx += 1;
        }
        if r.deadlock {
            set.observe(&Observation::Deadlock { latency: lat_now(&pipe) });
            terminated = true;
        }
        if r.exception.is_some() {
            set.observe(&Observation::Exception { latency: lat_now(&pipe) });
            terminated = true;
        }
        // Reconvergence check at the boundaries the golden run recorded
        // (`status` is `Running` at every recorded boundary, so a
        // stopped trial can never alias one). An exact match means
        // identical machines; a match up to dead fields means the live
        // future is the golden run's. Either way the rest of the window
        // replays the golden run — stop simulating and back-fill below.
        if stride > 0 && (i + 1) % stride == 0 && pipe.status() == Stop::Running {
            let b = ((i + 1) / stride) as usize;
            let reconverged = match golden.planes.reconverge(b, &mut pipe, &mut dead) {
                Reconvergence::Exact => true,
                Reconvergence::DeadOnly => shortcuts == Shortcuts::All,
                Reconvergence::Diverged => false,
            };
            if reconverged {
                cut = Some(b);
                break;
            }
        }
    }
    // Harvest the bank into the record. (A cfv still pending on the
    // final compared event is indistinguishable from a label flip and
    // never fires; end-of-trial state comparison adjudicates it.) The
    // cut/drain endings below back-fill via `get_or_insert`, so the
    // harvest must precede them.
    trial.symptoms.deadlock = set.first(SymptomKind::Deadlock);
    trial.symptoms.exception = set.first(SymptomKind::Exception);
    trial.symptoms.cfv = set.first(SymptomKind::Cfv);
    trial.value_divergence = set.first(SymptomKind::ValueDivergence);
    trial.hc_mispredict = set.first(SymptomKind::HcMispredict);
    trial.any_mispredict = set.first(SymptomKind::AnyMispredict);
    trial.sig_mismatch = set.first(SymptomKind::Signature);
    trial.dup_mismatch = set.first(SymptomKind::Dup);

    let mut cost = TrialCost { simulated: executed, cut: cut.is_some(), ..TrialCost::default() };
    if let Some(b) = cut {
        // Not `window_cycles - executed`: the exhaustive trial would have
        // stopped when the golden run stops (identical futures), so only
        // the golden run's remaining executed cycles are real savings.
        cost.saved = golden.window_executed - executed;
        if !dead.is_empty() {
            golden.residue_cuts.set(golden.residue_cuts.get() + 1);
        }
        // From the cut on the trial's live evolution is the golden
        // run's: the skipped window cycles and the drain reproduce the
        // golden run's ending and its miss counters, so the counter
        // deltas stay zero and the ending maps from the golden end
        // status. What is left of the fault sits in the dead fields
        // still differing at the cut (none after an exact match): the
        // trial ends `DeadResidue` unless the golden future rewrites
        // every one of them before the end of the drain, which the
        // point's residue shadow decides.
        trial.end = golden_ending(golden, base_retired, &mut trial.symptoms, || {
            dead.is_empty() || {
                let verdicts = golden.verdicts(at, cfg);
                dead.iter().all(|&f| verdicts.written(b, f))
            }
        });
        return (trial, cost);
    }
    trial.end = if terminated {
        EndState::Terminated
    } else {
        drain(&mut pipe, cfg.drain_cycles, &mut r);
        match pipe.status() {
            Stop::Deadlock => {
                // Saturation during the drain still counts.
                trial.symptoms.deadlock.get_or_insert(pipe.retired() - base_retired);
                EndState::Terminated
            }
            Stop::Exception(_) => {
                trial.symptoms.exception.get_or_insert(pipe.retired() - base_retired);
                EndState::Terminated
            }
            _ => {
                // Cheap comparisons first; the memory digest only runs
                // when counters, halt status and registers all match.
                let arch_clean = pipe.retired() == golden.retired
                    && (pipe.status() == Stop::Halted) == (golden.end_status == Stop::Halted)
                    && pipe.arch_regs() == golden.end_regs
                    && pipe.memory().content_hash() == golden.end_mem_hash;
                if !arch_clean {
                    EndState::Latent
                } else if pipe.state_hash() == golden.end_state_hash {
                    if golden.end_status == Stop::Halted {
                        EndState::Completed
                    } else {
                        EndState::MaskedClean
                    }
                } else {
                    EndState::DeadResidue
                }
            }
        }
    };
    // Miss counters sample here — after the end-of-trial drain, the same
    // point where the golden run samples its own. (They were previously
    // read before the drain, silently excluding drain-window misses.)
    let (_, dc, _, dt) = pipe.miss_counters();
    trial.extra_dcache_misses = dc as i64 - golden.dcache_misses as i64;
    trial.extra_dtlb_misses = dt as i64 - golden.dtlb_misses as i64;
    (trial, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_key_saturates_below_baseline() {
        // A flipped retirement counter can report `retired_before` below
        // the fork's baseline; the key must clamp, not underflow.
        assert_eq!(event_key(5, 10, 0x40), (0, 0x40));
        assert_eq!(event_key(10, 10, 0x40), (0, 0x40));
        assert_eq!(event_key(17, 10, 0x44), (7, 0x44));
    }

    /// A flip into a physical register the free list proves dead leaves
    /// the machine equal to golden everywhere except that register. If
    /// the register is still unwritten at the first stride boundary, the
    /// trial must stop there with the residue cut, and its record must
    /// equal the exhaustive one.
    #[test]
    fn dead_phys_reg_flip_is_residue_cut_at_the_first_boundary() {
        use restore_workloads::Scale;
        let cfg = UarchCampaignConfig {
            scale: Scale::smoke(),
            window_cycles: 1_500,
            drain_cycles: 1_000,
            // Rename cycles through the free list within a few dozen
            // cycles, so the first boundary must come early.
            cutoff_stride: 10,
            ..UarchCampaignConfig::default()
        };
        let exhaustive = UarchCampaignConfig { cutoff_stride: 0, ..cfg.clone() };
        let id = WorkloadId::Parserx;
        let mut at = Pipeline::new(cfg.uarch.clone(), &id.build(cfg.scale));
        for _ in 0..500 {
            at.cycle();
        }
        let catalog = at.catalog();
        let golden = golden_run(&at, &catalog, &cfg);
        let reference = golden_run(&at, &catalog, &exhaustive);
        let regfile = catalog.regions.iter().find(|r| r.name == "phys-regfile").unwrap();
        // Registers reallocated before the first boundary match golden
        // exactly there; take the first one still holding the flip.
        let (trial, cost) = (regfile.start..regfile.start + regfile.len)
            .step_by(64)
            .filter(|&bit| golden.dead_field(&catalog, bit).is_some())
            .find_map(|bit| {
                let before = golden.residue_cuts();
                let (trial, cost) =
                    run_trial(&at, &golden, &catalog, id, bit, &cfg, Shortcuts::All);
                let residue = golden.residue_cuts() > before;
                assert!(cost.cut, "a dead flip must reconverge (bit {bit})");
                (residue && cost.simulated == cfg.cutoff_stride).then_some((trial, cost))
            })
            .expect("no dead register was residue-cut at the first boundary");
        assert_eq!(cost.simulated + cost.saved, golden.window_executed);
        let (full, full_cost) =
            run_trial(&at, &reference, &catalog, id, trial.bit, &exhaustive, Shortcuts::All);
        assert!(!full_cost.cut);
        assert_eq!(trial, full, "the residue cut changed the record");
    }

    #[test]
    fn hardened_classification_moves_protected_bits_to_other() {
        let t = UarchTrial {
            workload: WorkloadId::Mcfx,
            bit: 0,
            region: "phys-regfile",
            lhf_protected: true,
            symptoms: SymptomLatencies { exception: Some(10), ..SymptomLatencies::default() },
            value_divergence: None,
            hc_mispredict: None,
            any_mispredict: None,
            sig_mismatch: None,
            dup_mismatch: None,
            extra_dcache_misses: 0,
            extra_dtlb_misses: 0,
            end: EndState::Terminated,
        };
        assert_eq!(t.classify(100, CfvMode::Perfect, false), UarchCategory::Exception);
        assert_eq!(t.classify(100, CfvMode::Perfect, true), UarchCategory::Other);
    }

    #[test]
    fn classification_precedence_and_latency() {
        let t = UarchTrial {
            workload: WorkloadId::Mcfx,
            bit: 0,
            region: "scheduler",
            lhf_protected: false,
            symptoms: SymptomLatencies {
                deadlock: Some(500),
                exception: Some(50),
                cfv: Some(20),
                ..SymptomLatencies::default()
            },
            value_divergence: Some(5),
            hc_mispredict: Some(80),
            any_mispredict: Some(30),
            sig_mismatch: Some(64),
            dup_mismatch: None,
            extra_dcache_misses: 0,
            extra_dtlb_misses: 0,
            end: EndState::Terminated,
        };
        use CfvMode::*;
        assert_eq!(t.classify(10, Perfect, false), UarchCategory::Sdc);
        assert_eq!(t.classify(20, Perfect, false), UarchCategory::Cfv);
        assert_eq!(t.classify(50, Perfect, false), UarchCategory::Exception);
        assert_eq!(t.classify(500, Perfect, false), UarchCategory::Deadlock);
        // Realistic cfv detection fires later than perfect.
        assert_eq!(t.classify(20, HighConfidence, false), UarchCategory::Sdc);
        assert_eq!(t.classify(80, HighConfidence, false), UarchCategory::Exception);
        // The perfect-confidence ablation sits between the two.
        assert_eq!(t.classify(30, AnyMispredict, false), UarchCategory::Cfv);

        // The post-hoc detector selection reads the same observables.
        let paper = SourceSet::paper();
        assert!(!t.detected_within(&paper, 20), "hc cfv fires at 80, not 20");
        assert!(t.detected_within(&paper, 50), "the exception at 50 covers it");
        let sig_only = SourceSet {
            exceptions: false,
            watchdog: false,
            cfv: None,
            signature: true,
            dup: false,
        };
        assert!(t.detected_within(&sig_only, 64), "signature fires at its block boundary");
        assert!(!t.detected_within(&sig_only, 63));
        let dup_only = SourceSet { signature: false, dup: true, ..sig_only };
        assert!(!t.detected_within(&dup_only, 10_000), "no protected write diverged");
    }
}
