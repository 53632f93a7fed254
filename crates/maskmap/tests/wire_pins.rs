//! Pinned map bytes: the persisted JSON of every program's µarch and
//! arch maps, and the AVF rows folded from them, at smoke scale over a
//! short horizon.
//!
//! The interval and prune equivalence suites only check that every
//! prune a map issues is sound, so a map that silently became more
//! conservative (fewer runs, fewer stamps) would still pass them. These
//! digests catch any change to a map byte or an AVF figure. A change to
//! the builder, the fold or the wire format that is meant to alter them
//! must bump the map `VERSION` and re-pin here.

use restore_core::config_digest;
use restore_maskmap::{ArchMaskMap, AvfRow, UarchMaskMap};
use restore_store::Json;
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

const HORIZON: u64 = 400;

/// Per program: FNV-1a of the rendered µarch map, of the rendered arch
/// map, and of the rendered AVF rows (µarch regions, then arch).
const PINS: [(WorkloadId, u64, u64, u64); 7] = [
    (WorkloadId::Bzip2x, 0xa11038fe9467bcc0, 0x95e65f261312b1b6, 0xe653792e839967e3),
    (WorkloadId::Gapx, 0xbba41c906a168f13, 0x6e12fc8f0dd27320, 0x359879172513222d),
    (WorkloadId::Gccx, 0x7141e5ba4d0eed45, 0x15cec5f3bd0c0495, 0xd983d2adf51e997a),
    (WorkloadId::Gzipx, 0xe60309d5bb904594, 0x2165294f3fae5df9, 0x24d8d3e7cab22043),
    (WorkloadId::Mcfx, 0xfe7baf380d2226e5, 0x03803c7a751662cb, 0xd6fec83d2feb5de9),
    (WorkloadId::Parserx, 0x6b16d9d76fdc80d3, 0xefb8cf15ca25a70c, 0x4719e2486e5c1f16),
    (WorkloadId::Vortexx, 0x78ac3cd818bfd932, 0x1ae2654a143c49c1, 0xcb0400e579c664ec),
];

#[test]
fn map_bytes_and_avf_rows_are_pinned() {
    assert_eq!(PINS.map(|p| p.0), WorkloadId::ALL, "one pin per program, in order");
    let scale = Scale::smoke();
    let uarch = UarchConfig::default();
    let mut mismatches = Vec::new();
    for (id, uarch_pin, arch_pin, avf_pin) in PINS {
        let program = id.build(scale);
        let umap = UarchMaskMap::build(&uarch, &program, HORIZON, 1);
        let amap = ArchMaskMap::build(&program, 2);
        let mut rows = umap.avf(&Pipeline::new(uarch.clone(), &program).catalog());
        rows.extend(amap.avf());
        let got = (
            config_digest(&umap.to_json().render()),
            config_digest(&amap.to_json().render()),
            config_digest(&Json::Arr(rows.iter().map(AvfRow::to_json).collect()).render()),
        );
        if got != (uarch_pin, arch_pin, avf_pin) {
            mismatches.push(format!(
                "(WorkloadId::{id:?}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(mismatches.is_empty(), "pinned map digests moved:\n{}", mismatches.join("\n"));
}
