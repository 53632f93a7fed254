//! Per-region bit census of both machine models.
//!
//! Walks a default-configuration [`Pipeline`] and [`Cpu`] with a
//! `RangeRecorder` and tabulates, per named region, how many bits are
//! latch vs. RAM and control vs. data — the numbers EXPERIMENTS.md
//! compares against the paper's "~46,000 bits of interesting state"
//! (§4.2) and the §5.2.2 protection-domain split. Array sizes are fixed
//! by the configuration, so the census is a function of the config
//! alone, not of how far the machine has run.

use restore_arch::state::{StateCatalog, StateKind};
use restore_arch::Cpu;
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

/// One region's tally.
#[derive(Debug, Clone)]
pub struct RegionCensus {
    /// Region name.
    pub name: &'static str,
    /// `"latch"` or `"ram"`.
    pub kind: &'static str,
    /// Total bits.
    pub bits: u64,
    /// Control-word bits (parity domain in the hardened pipeline).
    pub control_bits: u64,
    /// Datapath bits.
    pub data_bits: u64,
    /// ECC-protected in the hardened pipeline.
    pub ecc: bool,
}

/// Census of one machine model.
#[derive(Debug, Clone)]
pub struct Census {
    /// Machine label (`"uarch-pipeline"` / `"arch-cpu"`).
    pub machine: &'static str,
    /// Per-region rows in traversal order.
    pub regions: Vec<RegionCensus>,
    /// Total eligible bits.
    pub total_bits: u64,
    /// Bits in latch regions.
    pub latch_bits: u64,
    /// Bits in RAM regions.
    pub ram_bits: u64,
    /// Fraction of bits the hardened (§5.2.2) pipeline protects.
    pub lhf_coverage: f64,
    /// Added-storage fraction of the hardened pipeline.
    pub lhf_overhead: f64,
}

impl Census {
    fn from_catalog(machine: &'static str, cat: &StateCatalog) -> Census {
        let regions = cat
            .regions
            .iter()
            .map(|r| RegionCensus {
                name: r.name,
                kind: match r.kind {
                    StateKind::Latch => "latch",
                    StateKind::Ram => "ram",
                },
                bits: r.len,
                control_bits: r.control_bits,
                data_bits: r.len - r.control_bits,
                ecc: r.ecc,
            })
            .collect();
        Census {
            machine,
            regions,
            total_bits: cat.total_bits,
            latch_bits: cat.latch_bits(),
            ram_bits: cat.ram_bits(),
            lhf_coverage: cat.lhf_coverage(),
            lhf_overhead: cat.lhf_overhead(),
        }
    }

    /// Renders as a JSON object (hand-rolled: the census is flat and the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"machine\":\"{}\",\"total_bits\":{},\"latch_bits\":{},\"ram_bits\":{},\
             \"lhf_coverage\":{:.6},\"lhf_overhead\":{:.6},\"regions\":[",
            self.machine,
            self.total_bits,
            self.latch_bits,
            self.ram_bits,
            self.lhf_coverage,
            self.lhf_overhead,
        ));
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"bits\":{},\"control_bits\":{},\
                 \"data_bits\":{},\"ecc\":{}}}",
                r.name, r.kind, r.bits, r.control_bits, r.data_bits, r.ecc,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{} — {} bits ({} latch, {} ram), LHF coverage {:.1}% at {:.1}% overhead\n",
            self.machine,
            self.total_bits,
            self.latch_bits,
            self.ram_bits,
            self.lhf_coverage * 100.0,
            self.lhf_overhead * 100.0,
        );
        out.push_str(&format!(
            "  {:<24} {:>6} {:>8} {:>8} {:>8}  {}\n",
            "region", "kind", "bits", "control", "data", "ecc"
        ));
        for r in &self.regions {
            out.push_str(&format!(
                "  {:<24} {:>6} {:>8} {:>8} {:>8}  {}\n",
                r.name,
                r.kind,
                r.bits,
                r.control_bits,
                r.data_bits,
                if r.ecc { "yes" } else { "-" },
            ));
        }
        out
    }
}

/// A minimal workload: the catalog depends only on configuration, so the
/// smallest deterministic program suffices to construct the machines.
fn seed_program() -> restore_isa::Program {
    WorkloadId::Vortexx.build(Scale { size: 16, seed: 1 })
}

/// Census of the default-configuration out-of-order pipeline.
pub fn pipeline_census() -> Census {
    let program = seed_program();
    let mut p = Pipeline::new(UarchConfig::default(), &program);
    Census::from_catalog("uarch-pipeline", &p.catalog())
}

/// Census of the architectural reference CPU.
pub fn cpu_census() -> Census {
    let program = seed_program();
    let mut c = Cpu::new(&program);
    Census::from_catalog("arch-cpu", &c.catalog())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_census_is_nonempty_and_consistent() {
        let c = pipeline_census();
        // Exact per-region (bits, control, data) of the default pipeline:
        // the runtime partner of the walks' exhaustive destructuring. A
        // dropped visit, or an excluded field walked through `self`,
        // moves a count here.
        let expected = [
            ("pc-and-fetch-control", 65, 1, 64),
            ("fetch-queue", 5196, 1100, 4096),
            ("decode-latch", 652, 140, 512),
            ("scheduler", 4704, 2656, 2048),
            ("exec-latches", 4992, 896, 4096),
            ("reorder-buffer", 21006, 4622, 16384),
            ("load-queue", 2394, 346, 2048),
            ("store-queue", 2234, 186, 2048),
            ("branch-order-buffer", 1800, 1800, 0),
            ("spec-rat", 224, 224, 0),
            ("arch-rat", 224, 224, 0),
            ("free-list", 688, 688, 0),
            ("phys-regfile", 6144, 0, 6144),
            ("ready-scoreboard", 96, 96, 0),
        ];
        let got: Vec<_> =
            c.regions.iter().map(|r| (r.name, r.bits, r.control_bits, r.data_bits)).collect();
        assert_eq!(got, expected);
        assert_eq!((c.total_bits, c.latch_bits, c.ram_bits), (50_419, 15_137, 35_282));
        assert_eq!(c.total_bits, c.latch_bits + c.ram_bits);
        let sum: u64 = c.regions.iter().map(|r| r.bits).sum();
        assert_eq!(sum, c.total_bits);
        for r in &c.regions {
            assert_eq!(r.bits, r.control_bits + r.data_bits, "region {}", r.name);
        }
        assert!(c.lhf_coverage > 0.0 && c.lhf_coverage < 1.0);
        assert!(c.lhf_overhead > 0.0 && c.lhf_overhead < 0.25);
    }

    #[test]
    fn cpu_census_matches_register_file_shape() {
        let c = cpu_census();
        // 31 visitable 64-bit registers (r31 is hardwired zero) + 64-bit PC.
        assert_eq!(c.total_bits, 31 * 64 + 64);
        let got: Vec<_> = c
            .regions
            .iter()
            .map(|r| (r.name, r.kind, r.bits, r.control_bits, r.data_bits))
            .collect();
        assert_eq!(
            got,
            [("arch-regfile", "ram", 31 * 64, 0, 31 * 64), ("arch-pc", "latch", 64, 0, 64)]
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let j = pipeline_census().to_json();
        assert!(j.starts_with("{\"machine\":\"uarch-pipeline\""));
        assert!(j.contains("\"regions\":["));
        assert!(j.ends_with("]}"));
        // Balanced braces: every region object closes.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn census_is_deterministic() {
        assert_eq!(pipeline_census().to_json(), pipeline_census().to_json());
    }

    #[test]
    fn table_lists_every_region() {
        let c = pipeline_census();
        let t = c.to_table();
        for r in &c.regions {
            assert!(t.contains(r.name), "missing region {}", r.name);
        }
    }
}
