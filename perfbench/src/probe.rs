//! The `probe` mode: per-call cost of the layers the campaigns drive,
//! measured through their public calls on the seven campaign-scale
//! programs, in the access pattern a campaign uses (clock the pipeline,
//! fingerprint every 250 cycles, fork a trial machine and flip a bit).
//!
//! Calls that take about a microsecond (`Pipeline::cycle`,
//! `Cpu::run` per instruction, `DetectorSet::scan_cycle`,
//! `TrialCache::lookup`) are timed in batches and reported per call.

use crate::{Args, Report, Rng};
use restore_arch::{Cpu, RunExit};
use restore_core::{DetectorSet, SymptomConfig};
use restore_inject::{TrialCache, UarchTrial};
use restore_snapshot::GoldenCheckpointLibrary;
use restore_store::TrialStore;
use restore_uarch::{Pipeline, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rounds of (250 cycles, fingerprint, state hash, fork, flip) per program.
const ROUNDS: usize = 40;
/// The campaigns' reconvergence-cutoff stride.
const STRIDE: u64 = 250;
/// Warm-up before the first round, as in a campaign plan.
const WARMUP: u64 = 2_000;
/// Checkpoint stride and sampling span of a default µarch campaign.
const CKPT_STRIDE: u64 = 2_000;
const CKPT_SPAN: u64 = 42_000;

#[derive(Default)]
struct Acc {
    secs: f64,
    calls: u64,
}

impl Acc {
    fn time<R>(&mut self, calls: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = black_box(f());
        self.secs += t0.elapsed().as_secs_f64();
        self.calls += calls;
        r
    }

    fn per_call(&self, unit: f64) -> f64 {
        unit * self.secs / self.calls.max(1) as f64
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut rng = Rng::new(args.num("seed", 0)?);
    let scale = Scale::campaign();
    let uarch = UarchConfig::default();
    let detectors = DetectorSet::live(&SymptomConfig::default());
    let (mut cycle, mut fp, mut hash, mut clone, mut flip, mut scan) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let (mut step, mut afp, mut lib_build, mut mat) =
        (Acc::default(), Acc::default(), Acc::default(), Acc::default());

    for &id in &WorkloadId::ALL {
        let program = id.build(scale);

        let mut pipe = Pipeline::new(uarch.clone(), &program);
        let bits = pipe.catalog().total_bits;
        while pipe.cycles() < WARMUP && pipe.status() == Stop::Running {
            pipe.cycle();
        }
        for _ in 0..ROUNDS {
            if pipe.status() != Stop::Running {
                break;
            }
            let reports =
                cycle.time(STRIDE, || (0..STRIDE).map(|_| pipe.cycle()).collect::<Vec<_>>());
            scan.time(STRIDE, || {
                reports.iter().map(|r| detectors.scan_cycle(r).len()).sum::<usize>()
            });
            fp.time(1, || pipe.fingerprint());
            hash.time(1, || pipe.state_hash());
            let mut fork = clone.time(1, || pipe.clone());
            let bit = rng.below(bits);
            flip.time(1, || fork.flip_bit(bit));
        }

        let mut cpu = Cpu::new(&program);
        for _ in 0..ROUNDS {
            let before = cpu.retired();
            let exit = step.time(0, || cpu.run(STRIDE)).map_err(|e| format!("{id:?}: {e:?}"))?;
            step.calls += cpu.retired() - before;
            afp.time(1, || cpu.fingerprint());
            if exit == RunExit::Halted {
                break;
            }
        }

        let origin = Pipeline::new(uarch.clone(), &program);
        let mut lib = lib_build.time(1, || {
            let mut lib = GoldenCheckpointLibrary::new(origin, CKPT_STRIDE);
            lib.materialize(CKPT_SPAN).map(|m| m.base_coord);
            lib
        });
        for _ in 0..ROUNDS {
            let coord = WARMUP + rng.below(CKPT_SPAN - WARMUP);
            mat.time(1, || lib.materialize(coord).map(|m| m.base_coord));
        }
    }
    report.value("uarch.cycle_us", cycle.per_call(1e6));
    report.value("uarch.fingerprint_us", fp.per_call(1e6));
    report.value("uarch.state_hash_us", hash.per_call(1e6));
    report.value("uarch.clone_us", clone.per_call(1e6));
    report.value("uarch.flip_bit_us", flip.per_call(1e6));
    report.value("core.scan_cycle_ns", scan.per_call(1e9));
    report.value("arch.step_ns", step.per_call(1e9));
    report.value("arch.fingerprint_us", afp.per_call(1e6));
    // Summed over the seven programs: one campaign's cold library cost.
    report.value("snapshot.library_build_s", lib_build.secs);
    report.value("snapshot.materialize_us", mat.per_call(1e6));

    if let Ok(store) = args.path("store") {
        store_probe(&store, &args.path("scratch")?, report)?;
    }
    Ok(())
}

/// Look up every µarch record of a filled store, and append the same
/// records to an empty one.
fn store_probe(store: &Path, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let records = TrialStore::<UarchTrial>::open(store, "all")
        .map_err(|e| format!("store: {e}"))?
        .records()
        .to_vec();
    if records.is_empty() {
        return Err(format!("store {} holds no µarch records", store.display()));
    }
    let config = records[0].key.config;
    let cache =
        TrialCache::<UarchTrial>::open(store, "all", config).map_err(|e| format!("store: {e}"))?;
    let mut lookup = Acc::default();
    let hits = lookup.time(records.len() as u64, || {
        records.iter().filter(|r| cache.lookup(&r.key).is_some()).count()
    });
    report.check(
        "store_probe_lookups_hit",
        hits == records.len(),
        format!("{hits} of {} records found", records.len()),
    );
    let fresh = TrialCache::<UarchTrial>::open(scratch, "all", config)
        .map_err(|e| format!("scratch store: {e}"))?;
    let mut record = Acc::default();
    record.time(records.len() as u64, || {
        for r in &records {
            fresh.record(r.clone());
        }
    });
    report.value("store.lookup_us", lookup.per_call(1e6));
    report.value("store.record_us", record.per_call(1e6));
    Ok(())
}
