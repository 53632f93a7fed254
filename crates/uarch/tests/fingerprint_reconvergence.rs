//! Property tests of the reconvergence fingerprint's soundness claim:
//! **equal fingerprints at equal cycle ⇒ identical futures**. The
//! pipeline is deterministic, so if [`Pipeline::fingerprint`] really
//! covers every bit of state that can steer execution, two machines
//! that fingerprint equal must retire the same instruction stream and
//! land in the same end state for the rest of the window. A fingerprint
//! that missed a live field (a scheduler seq tag, a predictor counter, a
//! dirty memory page…) would eventually diverge here.

use proptest::prelude::*;
use restore_arch::{Exception, Retired};
use restore_uarch::{CycleReport, MispredictEvent, Pipeline, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

/// Everything a campaign can observe from one cycle, in a comparable
/// form. `CycleReport` intentionally doesn't implement `PartialEq`
/// (float-free but large); project it onto one.
type ReportKey = (
    Vec<Retired>,
    Vec<(u64, u64, u64)>,
    Option<Exception>,
    Vec<MispredictEvent>,
    bool,
    bool,
    bool,
    Vec<u64>,
    u32,
    u32,
);

fn report_key(r: &CycleReport) -> ReportKey {
    (
        r.retired.clone(),
        r.store_undo.clone(),
        r.exception,
        r.mispredicts.clone(),
        r.deadlock,
        r.halted,
        r.sync_retired,
        r.output.clone(),
        r.dcache_misses,
        r.dtlb_misses,
    )
}

fn warm_pipeline(warm_cycles: u64) -> Pipeline {
    let program = WorkloadId::Vortexx.build(Scale::campaign());
    let mut p = Pipeline::new(UarchConfig::default(), &program);
    for _ in 0..warm_cycles {
        p.cycle();
    }
    p
}

/// Advance `golden` and `faulty` in lockstep until their fingerprints
/// match while both still run, for at most `limit` cycles. Returns
/// whether a match occurred.
fn advance_to_match(golden: &mut Pipeline, faulty: &mut Pipeline, limit: u64) -> bool {
    for _ in 0..limit {
        if golden.status() != Stop::Running || faulty.status() != Stop::Running {
            return false;
        }
        golden.cycle();
        faulty.cycle();
        if golden.status() == Stop::Running
            && faulty.status() == Stop::Running
            && golden.fingerprint() == faulty.fingerprint()
        {
            return true;
        }
    }
    false
}

/// After a fingerprint match, the next `cycles` reports and the final
/// machine state must be literally equal.
fn assert_identical_future(golden: &mut Pipeline, faulty: &mut Pipeline, cycles: u64) {
    for _ in 0..cycles {
        assert_eq!(golden.status(), faulty.status());
        if golden.status() != Stop::Running {
            break;
        }
        let g = golden.cycle();
        let f = faulty.cycle();
        assert_eq!(report_key(&g), report_key(&f), "retired streams diverged after match");
    }
    assert_eq!(golden.status(), faulty.status());
    assert_eq!(golden.retired(), faulty.retired());
    assert_eq!(golden.arch_regs(), faulty.arch_regs());
    assert_eq!(golden.miss_counters(), faulty.miss_counters());
    assert_eq!(golden.state_hash(), faulty.state_hash());
    assert_eq!(golden.fingerprint(), faulty.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flip an arbitrary bit in a clone and wait for the clone's
    /// fingerprint to reconverge with the unperturbed machine's. From
    /// that cycle on, retired streams and end state must be identical.
    /// (Flips that never reconverge — unmasked faults — exit the search
    /// loop and pass vacuously; `masked_flip_reconverges_and_rejoins`
    /// guarantees the property is exercised.)
    #[test]
    fn fingerprint_match_implies_identical_remainder(
        warm in 200u64..1_500,
        bit_frac in 0.0f64..1.0,
    ) {
        let mut golden = warm_pipeline(warm);
        let mut faulty = golden.clone();
        let bits = faulty.catalog().total_bits;
        faulty.flip_bit(((bits as f64 - 1.0) * bit_frac) as u64);
        if advance_to_match(&mut golden, &mut faulty, 800) {
            assert_identical_future(&mut golden, &mut faulty, 500);
        }
    }
}

/// Deterministic witness that the proptest's interesting branch is
/// reachable: a flip in dead fetch-queue payload (or any quickly-masked
/// bit — sweep until one is found) reconverges, and from the matching
/// fingerprint onward the two machines are indistinguishable.
#[test]
fn masked_flip_reconverges_and_rejoins() {
    let bits = warm_pipeline(0).catalog().total_bits;
    let mut step = bits / 97;
    if step == 0 {
        step = 1;
    }
    for bit in (0..bits).step_by(step as usize) {
        let mut golden = warm_pipeline(600);
        let mut faulty = golden.clone();
        faulty.flip_bit(bit);
        if advance_to_match(&mut golden, &mut faulty, 400) {
            assert_identical_future(&mut golden, &mut faulty, 400);
            return;
        }
    }
    panic!("no sampled flip reconverged within 400 cycles — fingerprint too strict?");
}

/// Unperturbed clones fingerprint equal at every cycle — the trivial
/// direction, but it pins down that the fingerprint is a pure function
/// of machine state (no interior mutability leaking in, no caching bug
/// across `clone()`).
#[test]
fn clones_fingerprint_equal_every_cycle() {
    let mut a = warm_pipeline(300);
    let mut b = a.clone();
    for _ in 0..200 {
        assert_eq!(a.fingerprint(), b.fingerprint());
        if a.status() != Stop::Running {
            break;
        }
        a.cycle();
        b.cycle();
    }
}

/// Digest strength: on a warmed campaign-scale machine, flipping any one
/// of ~500 bits sampled evenly over the whole catalog changes both
/// `state_hash` and `fingerprint`, and flipping it back restores both
/// exactly — no single-bit difference cancels in the word mixer.
#[test]
fn single_flip_moves_both_digests_and_reflip_restores_them() {
    let mut p = warm_pipeline(1_000);
    let bits = p.catalog().total_bits;
    let (hash, fp) = (p.state_hash(), p.fingerprint());
    let step = (bits / 500).max(1) as usize;
    for bit in (0..bits).step_by(step).chain([bits - 1]) {
        p.flip_bit(bit);
        assert_ne!(p.state_hash(), hash, "bit {bit}: state_hash missed the flip");
        assert_ne!(p.fingerprint(), fp, "bit {bit}: fingerprint missed the flip");
        p.flip_bit(bit);
        assert_eq!(p.state_hash(), hash, "bit {bit}: re-flip did not restore state_hash");
        assert_eq!(p.fingerprint(), fp, "bit {bit}: re-flip did not restore fingerprint");
    }
}
