//! Behavioural tests of the pipeline beyond lockstep: precise exceptions,
//! the deadlock watchdog, misprediction events, fault injection plumbing
//! and checkpoint restore.

use restore_arch::Exception;
use restore_isa::{layout, Asm, Reg};
use restore_uarch::{CycleReport, Pipeline, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

fn run_until_stop(pipe: &mut Pipeline, max_cycles: u64) -> Stop {
    for _ in 0..max_cycles {
        if pipe.status() != Stop::Running {
            break;
        }
        pipe.cycle();
    }
    pipe.status()
}

#[test]
fn wild_load_raises_precise_access_violation() {
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.li(Reg::T0, 5); // retires fine
    a.li(Reg::T1, 0x4000_0000);
    a.ldq(Reg::T2, 0, Reg::T1); // faults
    a.li(Reg::T3, 9); // younger; must not commit
    a.halt();
    let mut pipe = Pipeline::new(UarchConfig::default(), &a.finish().unwrap());
    let stop = run_until_stop(&mut pipe, 10_000);
    match stop {
        Stop::Exception(Exception::AccessViolation { addr, .. }) => {
            assert_eq!(addr, 0x4000_0000);
        }
        other => panic!("expected access violation, got {other:?}"),
    }
    // Precision: T3's write never became architectural.
    assert_eq!(pipe.arch_regs()[Reg::T3.index()], 0);
}

#[test]
fn arithmetic_trap_is_raised() {
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.li(Reg::T0, i64::MAX);
    a.op(restore_isa::AluOp::Addqv, Reg::T0, Reg::T0, Reg::T1);
    a.halt();
    let mut pipe = Pipeline::new(UarchConfig::default(), &a.finish().unwrap());
    assert!(matches!(
        run_until_stop(&mut pipe, 10_000),
        Stop::Exception(Exception::ArithmeticTrap { .. })
    ));
}

#[test]
fn illegal_instruction_is_raised() {
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.nop();
    a.emit_raw(0x7fff_ffff);
    a.halt();
    let mut pipe = Pipeline::new(UarchConfig::default(), &a.finish().unwrap());
    assert!(matches!(
        run_until_stop(&mut pipe, 10_000),
        Stop::Exception(Exception::IllegalInstruction { word: 0x7fff_ffff, .. })
    ));
}

#[test]
fn wild_jump_raises_fetch_fault() {
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.li(Reg::T0, 0x5000_0000);
    a.jmp(Reg::ZERO, Reg::T0);
    let mut pipe = Pipeline::new(UarchConfig::default(), &a.finish().unwrap());
    assert!(matches!(
        run_until_stop(&mut pipe, 10_000),
        Stop::Exception(Exception::FetchFault { pc: 0x5000_0000 })
    ));
}

#[test]
fn speculative_wrong_path_fault_is_squashed() {
    // A branch that is always taken guards a wild load on the
    // fall-through path. The predictor may speculate into it early on,
    // but the fault must never be raised architecturally.
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.li(Reg::T0, 50);
    a.li(Reg::T1, 0x4000_0000);
    let top = a.bind_here();
    let skip = a.label();
    a.bne(Reg::T0, skip); // always taken while t0 > 0
    a.ldq(Reg::T2, 0, Reg::T1); // wrong-path wild load
    a.bind(skip).unwrap();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bgt(Reg::T0, top);
    a.halt();
    let mut pipe = Pipeline::new(UarchConfig::default(), &a.finish().unwrap());
    // t0 is always nonzero when `bne` executes (the decrement + `bgt`
    // exit the loop before t0 hits zero), so the wild load lives only on
    // speculative wrong paths. A clean halt proves every speculative
    // fault was squashed rather than raised.
    let stop = run_until_stop(&mut pipe, 100_000);
    assert_eq!(stop, Stop::Halted);
    assert_eq!(pipe.arch_regs()[Reg::T2.index()], 0, "wild load must not commit");
}

#[test]
fn mispredict_events_are_reported() {
    // A data-dependent unpredictable branch pattern produces mispredict
    // events.
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.li(Reg::T0, 400);
    a.li(Reg::T3, 0x9E37_79B9);
    a.clr(Reg::T4);
    let top = a.bind_here();
    // Pseudo-random condition: t4 = t4*lcg + t0
    a.mulq(Reg::T4, Reg::T3, Reg::T4);
    a.addq(Reg::T4, Reg::T0, Reg::T4);
    a.srl(Reg::T4, 13u8, Reg::T5);
    let skip = a.label();
    a.blbc(Reg::T5, skip);
    a.addq_lit(Reg::T4, 3, Reg::T4);
    a.bind(skip).unwrap();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bgt(Reg::T0, top);
    a.halt();
    let mut pipe = Pipeline::new(UarchConfig::default(), &a.finish().unwrap());
    let mut mispredicts = 0;
    for _ in 0..200_000 {
        if pipe.status() != Stop::Running {
            break;
        }
        mispredicts += pipe.cycle().mispredicts.len();
    }
    assert_eq!(pipe.status(), Stop::Halted);
    assert!(mispredicts > 20, "expected real mispredicts, got {mispredicts}");
}

#[test]
fn watchdog_detects_artificial_deadlock() {
    // Stopping fetch with nothing in flight starves retirement; the
    // watchdog must fire within its configured window.
    let p = WorkloadId::Mcfx.build(Scale::smoke());
    let mut pipe = Pipeline::new(UarchConfig::default(), &p);
    for _ in 0..100 {
        pipe.cycle();
    }
    pipe.set_fetch_enabled(false);
    let mut fired = false;
    for _ in 0..5_000 {
        if pipe.status() != Stop::Running {
            break;
        }
        if pipe.cycle().deadlock {
            fired = true;
        }
    }
    assert!(fired, "watchdog did not fire");
    assert_eq!(pipe.status(), Stop::Deadlock);
}

#[test]
fn state_catalog_is_paper_sized_and_stable() {
    let p = WorkloadId::Gapx.build(Scale::smoke());
    let mut pipe = Pipeline::new(UarchConfig::default(), &p);
    let cat = pipe.catalog();
    // Paper: "approximately 46,000 bits of interesting state".
    assert!(
        (30_000..80_000).contains(&cat.total_bits),
        "catalog {} bits not in the paper's ballpark",
        cat.total_bits
    );
    assert!(cat.latch_bits() > 5_000);
    assert!(cat.ram_bits() > 10_000);
    // Catalog must be identical after running: the bit space is fixed.
    for _ in 0..500 {
        pipe.cycle();
    }
    let cat2 = pipe.catalog();
    assert_eq!(cat.total_bits, cat2.total_bits);
    assert_eq!(cat.regions.len(), cat2.regions.len());
}

#[test]
fn state_hash_tracks_flips_and_restores() {
    let p = WorkloadId::Gccx.build(Scale::smoke());
    let mut pipe = Pipeline::new(UarchConfig::default(), &p);
    for _ in 0..300 {
        pipe.cycle();
    }
    let h0 = pipe.state_hash();
    assert_eq!(h0, pipe.state_hash(), "hashing must not perturb state");
    let cat = pipe.catalog();
    let bit = cat.total_bits / 2;
    pipe.flip_bit(bit);
    assert_ne!(h0, pipe.state_hash());
    pipe.flip_bit(bit);
    assert_eq!(h0, pipe.state_hash(), "flip must be involutive");
}

#[test]
fn every_region_flip_keeps_the_simulator_alive() {
    // Robustness: flip one bit in each region and run 2000 cycles; the
    // simulator must never panic (outcomes may be exceptions/deadlocks —
    // that is the point of the experiment).
    let p = WorkloadId::Vortexx.build(Scale::smoke());
    let base = Pipeline::new(UarchConfig::default(), &p);
    let mut warm = base.clone();
    for _ in 0..400 {
        warm.cycle();
    }
    let cat = warm.clone().catalog();
    for region in &cat.regions {
        for probe in [0, region.len / 2, region.len - 1] {
            let mut victim = warm.clone();
            victim.flip_bit(region.start + probe);
            for _ in 0..2_000 {
                if victim.status() != Stop::Running {
                    break;
                }
                victim.cycle();
            }
        }
    }
}

#[test]
fn clone_fork_runs_identically() {
    let p = WorkloadId::Bzip2x.build(Scale::smoke());
    let mut a = Pipeline::new(UarchConfig::default(), &p);
    for _ in 0..200 {
        a.cycle();
    }
    let mut b = a.clone();
    for _ in 0..1_000 {
        a.cycle();
        b.cycle();
    }
    assert_eq!(a.retired(), b.retired());
    assert_eq!(a.state_hash(), b.state_hash());
    assert_eq!(a.arch_regs(), b.arch_regs());
}

/// A report reused through `cycle_into` reads, every clock, exactly as
/// the fresh report `cycle` returns — nothing of an earlier clock leaks
/// into a later one.
#[test]
fn reused_report_matches_fresh_reports() {
    let p = WorkloadId::Bzip2x.build(Scale::smoke());
    let mut a = Pipeline::new(UarchConfig::default(), &p);
    let mut b = a.clone();
    let mut reused = CycleReport::default();
    let (mut mispredicts, mut stores, mut outputs) = (0, 0, 0);
    while a.status() == Stop::Running && a.cycles() < 200_000 {
        let fresh = a.cycle();
        b.cycle_into(&mut reused);
        assert_eq!(format!("{fresh:?}"), format!("{reused:?}"), "cycle {}", a.cycles());
        mispredicts += usize::from(!fresh.mispredicts.is_empty());
        stores += usize::from(!fresh.store_undo.is_empty());
        outputs += usize::from(!fresh.output.is_empty());
    }
    assert_eq!(a.status(), Stop::Halted);
    assert!(mispredicts > 0 && stores > 0 && outputs > 0, "{mispredicts} {stores} {outputs}");
    // A stopped machine clears the reused report too.
    b.cycle_into(&mut reused);
    assert_eq!(format!("{:?}", a.cycle()), format!("{reused:?}"));
}

#[test]
fn checkpoint_restore_resumes_execution() {
    let p = WorkloadId::Mcfx.build(Scale::smoke());
    let mut pipe = Pipeline::new(UarchConfig::default(), &p);
    for _ in 0..500 {
        pipe.cycle();
    }
    let regs = pipe.arch_regs();
    let pc = pipe.retired_next_pc();
    let retired_at = pipe.retired();
    // Keep running, then roll back.
    for _ in 0..300 {
        pipe.cycle();
    }
    pipe.restore_checkpoint(&regs, pc);
    assert_eq!(pipe.status(), Stop::Running);
    assert_eq!(pipe.arch_regs(), regs);
    assert_eq!(pipe.retired_next_pc(), pc);
    // It must make forward progress again.
    let before = pipe.retired();
    let _ = retired_at;
    for _ in 0..500 {
        pipe.cycle();
    }
    assert!(pipe.retired() > before + 100);
}

#[test]
fn miss_counters_accumulate() {
    let p = WorkloadId::Mcfx.build(Scale::campaign());
    let mut pipe = Pipeline::new(UarchConfig::default(), &p);
    for _ in 0..5_000 {
        pipe.cycle();
    }
    let (ic, dc, it, dt) = pipe.miss_counters();
    assert!(ic > 0, "icache never missed");
    assert!(dc > 0, "dcache never missed");
    // TLBs are large relative to footprints; just ensure the counters
    // exist and are consistent.
    assert!(it <= ic + 100_000);
    assert!(dt <= dc + 100_000);
}

#[test]
fn ipc_is_respectable_on_workloads() {
    // The model should behave like a real OoO core: IPC comfortably
    // above 0.3 on these kernels and at most the retire width.
    for id in [WorkloadId::Gapx, WorkloadId::Mcfx, WorkloadId::Gzipx] {
        let p = id.build(Scale::campaign());
        let mut pipe = Pipeline::new(UarchConfig::default(), &p);
        for _ in 0..20_000 {
            pipe.cycle();
        }
        let ipc = pipe.retired() as f64 / pipe.cycles() as f64;
        assert!((0.3..=4.0).contains(&ipc), "{id}: implausible IPC {ipc:.2}");
    }
}

#[test]
fn memory_dependence_speculation_violates_then_learns() {
    // A store whose address comes off a long multiply chain, followed
    // immediately by a load of the same location: the dependence
    // predictor speculates the load past the store the first time
    // (violation + replay), then turns conservative for that load PC.
    let mut a = Asm::new("t", layout::TEXT_BASE);
    a.li(Reg::S0, restore_isa::layout::STACK_TOP as i64 - 256);
    a.li(Reg::S1, 40); // iterations
    a.li(Reg::T6, 1);
    a.clr(Reg::A1);
    let top = a.bind_here();
    // Slow address: s2 = s0 + 0 via multiply chain.
    a.mulq(Reg::T6, Reg::T6, Reg::T7);
    a.mulq(Reg::T7, Reg::T7, Reg::T7);
    a.mulq(Reg::T7, Reg::T7, Reg::T7); // t7 == 1, slowly
    a.subq_lit(Reg::T7, 1, Reg::T7); // 0
    a.addq(Reg::S0, Reg::T7, Reg::S2);
    a.stq(Reg::S1, 0, Reg::S2); // store iteration count
    a.ldq(Reg::T0, 0, Reg::S0); // same address, address ready instantly
    a.addq(Reg::A1, Reg::T0, Reg::A1);
    a.subq_lit(Reg::S1, 1, Reg::S1);
    a.bgt(Reg::S1, top);
    a.mov(Reg::A1, Reg::A0);
    a.outq();
    a.halt();
    let p = a.finish().unwrap();

    // Architectural reference.
    let mut cpu = restore_arch::Cpu::new(&p);
    cpu.run(1_000_000).unwrap();

    let mut pipe = Pipeline::new(UarchConfig::default(), &p);
    let stop = run_until_stop(&mut pipe, 1_000_000);
    assert_eq!(stop, Stop::Halted);
    assert_eq!(pipe.output(), cpu.output(), "replay must be architecturally invisible");
    assert!(pipe.replay_count() >= 1, "the first iteration should speculate and violate");
    assert!(
        pipe.replay_count() <= 5,
        "the predictor must learn: {} replays in 40 iterations",
        pipe.replay_count()
    );
}
