//! Bit-addressable state: the fault-injection substrate.
//!
//! The paper's fault model is "a single bit flip of a state element"
//! (§4.2), applied to a latch-level Verilog model. This module gives both
//! Rust machine models — the architectural [`crate::Cpu`] and the
//! microarchitectural pipeline in `restore-uarch` (which re-exports this
//! module as `restore_uarch::state`) — the same property: every
//! structure walks its state bits through a [`StateVisitor`], so one
//! `visit_state` implementation per component serves four uses:
//!
//! * [`BitCounter`] — how many bits of eligible state exist (the paper's
//!   "~46,000 bits of interesting state"),
//! * [`BitFlipper`] — flip exactly one globally-indexed bit,
//! * [`StateHasher`] — order-sensitive digest for golden-run masking
//!   comparison, folding each field as one word into the shared
//!   [`Fingerprint`] word mixer,
//! * [`RangeRecorder`] — build the [`StateCatalog`] of named regions with
//!   latch/RAM classification and parity/ECC protection domains (§5.2.2's
//!   "low hanging fruit").
//!
//! Caches and predictor tables are deliberately **not** visited: the paper
//! excludes them ("caches are easily protected by ECC or parity and
//! corrupt predictor table entries cannot lead to failure").

/// Latch vs. SRAM classification of a component (paper §5.1.2 runs a
/// latches-only campaign; §5.2.2 protects SRAMs with ECC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// Pipeline latches / flip-flop registers.
    Latch,
    /// SRAM-array-like storage (register file, alias tables, queues).
    Ram,
}

/// Role of a field within its component, used to scope the hardened
/// pipeline's parity protection ("parity was added to the control word
/// latches within the pipeline").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldClass {
    /// Control word bits: opcodes, register tags, valid/ready bits,
    /// queue indices. Parity-protected in the hardened pipeline.
    Control,
    /// Datapath values: operands, addresses, PCs, store data. Not covered
    /// by the paper's low-hanging-fruit parity.
    Data,
}

/// Visitor over a component's state bits.
///
/// Components call [`StateVisitor::region`] once (with their name and
/// kind), then [`StateVisitor::word`] for every field in a fixed order.
/// The traversal order defines the global bit numbering, so it must be
/// deterministic — all components iterate fixed-size arrays.
pub trait StateVisitor {
    /// Starts a named region (one microarchitectural component).
    fn region(&mut self, name: &'static str, kind: StateKind);
    /// Visits one field of up to 64 bits.
    fn word(&mut self, value: &mut u64, width: u32, class: FieldClass);

    /// Visits a boolean field (1 bit, control).
    fn flag(&mut self, value: &mut bool) {
        let mut v = *value as u64;
        self.word(&mut v, 1, FieldClass::Control);
        *value = v & 1 != 0;
    }

    /// Visits a `u32` field.
    fn word32(&mut self, value: &mut u32, width: u32, class: FieldClass) {
        debug_assert!(width <= 32);
        let mut v = *value as u64;
        self.word(&mut v, width, class);
        *value = v as u32;
    }

    /// Visits a `u8` field.
    fn word8(&mut self, value: &mut u8, width: u32, class: FieldClass) {
        debug_assert!(width <= 8);
        let mut v = *value as u64;
        self.word(&mut v, width, class);
        *value = v as u8;
    }

    /// Declares the liveness of the fields visited *after* this call:
    /// `false` means the machine's own occupancy metadata (queue
    /// pointers, valid bits, the rename free list) proves the upcoming
    /// fields cannot be read before they are next overwritten. The
    /// setting holds until the next `occupancy` or [`StateVisitor::region`]
    /// call — every region starts implicitly live. Consumes no bits, so
    /// the global bit numbering is identical whether or not a component
    /// reports occupancy.
    fn occupancy(&mut self, _live: bool) {}

    /// `true` if this visitor consumes [`StateVisitor::occupancy`] calls.
    /// Components may skip *computing* occupancy (not the bit walk!) for
    /// visitors that ignore it — the hash/fingerprint hot paths.
    fn wants_occupancy(&self) -> bool {
        false
    }

    /// Declares that the set bits of `mask` in the *next* field visited
    /// are statically masked: the machine's own control state (a role
    /// tag, a valid bit, a decoded opcode) proves that flipping them
    /// cannot change any future architectural observable for as long as
    /// that control state holds. One-shot — the declaration applies to
    /// the immediately following `word`/`word32`/`word8`/`flag` call and
    /// then clears, so un-annotated fields implicitly carry mask `0`
    /// (nothing provable). Like [`StateVisitor::occupancy`] it consumes
    /// no bits: the global bit numbering is identical whether or not a
    /// component reports masks.
    fn masked(&mut self, _mask: u64) {}

    /// `true` if this visitor consumes [`StateVisitor::masked`] calls.
    /// Mask computation requires decoding in-flight instruction words,
    /// so components skip it entirely — not just the call — for the
    /// hash/fingerprint/flip hot paths that ignore it.
    fn wants_masks(&self) -> bool {
        false
    }
}

/// Mask covering the low `width` bits of a field.
#[inline]
pub fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A component whose state bits can be visited.
pub trait FaultState {
    /// Walks every eligible state bit in deterministic order.
    fn visit_state<V: StateVisitor>(&mut self, v: &mut V);
}

/// Counts total bits.
#[derive(Debug, Default)]
pub struct BitCounter {
    /// Total bits visited.
    pub bits: u64,
}

impl StateVisitor for BitCounter {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, _value: &mut u64, width: u32, _class: FieldClass) {
        self.bits += width as u64;
    }
}

/// Flips one bit, identified by its global index in traversal order.
#[derive(Debug)]
pub struct BitFlipper {
    target: u64,
    pos: u64,
    /// `true` once the target bit has been flipped.
    pub flipped: bool,
}

impl BitFlipper {
    /// Creates a flipper for global bit `target`.
    pub fn new(target: u64) -> BitFlipper {
        BitFlipper { target, pos: 0, flipped: false }
    }
}

impl StateVisitor for BitFlipper {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let w = width as u64;
        if !self.flipped && self.target >= self.pos && self.target < self.pos + w {
            *value ^= 1u64 << (self.target - self.pos);
            self.flipped = true;
        }
        self.pos += w;
    }
}

/// Order- and width-sensitive digest of the visited state — the
/// golden-run masking comparison (`Pipeline::state_hash` in
/// `restore-uarch`).
///
/// Each field is folded into a [`Fingerprint`] as one word, its value
/// tagged with its declared width, and each region start as one word; the
/// hasher is just the visitor front end of that word mixer.
#[derive(Debug, Default)]
pub struct StateHasher {
    words: Fingerprint,
}

impl StateHasher {
    /// Fresh hasher.
    pub fn new() -> StateHasher {
        StateHasher::default()
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.words.finish()
    }
}

impl StateVisitor for StateHasher {
    fn region(&mut self, name: &'static str, _kind: StateKind) {
        self.words.mix(name.len() as u64);
    }
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        debug_assert!(width == 64 || *value < (1u64 << width), "field exceeds declared width");
        self.words.mix(*value ^ ((width as u64) << 56));
    }
}

/// Seeds of the four [`Fingerprint`] lanes: the splitmix64 increment and
/// the first three splitmix64 outputs from seed 0.
const LANE_SEEDS: [u64; 4] =
    [0x9e37_79b9_7f4a_7c15, 0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f];

/// One splitmix-style round: folds `v` into the lane accumulator `acc`.
/// For a fixed `v` it is a bijection of `acc`, and for a fixed `acc` a
/// bijection of `v`, so changing any single folded word always changes
/// the lane — no single-word change can cancel.
#[inline(always)]
fn lane_step(acc: u64, v: u64) -> u64 {
    let mut x = acc ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// Order-sensitive 64-bit word digest — the one word mixer behind every
/// state digest: [`StateHasher`], the full-machine reconvergence
/// fingerprints (`Pipeline::fingerprint` in `restore-uarch`,
/// [`crate::Cpu::fingerprint`]) and the per-page memory digests
/// ([`crate::Memory::fingerprint`]).
///
/// Word `k` is folded into lane `k % 4` with one splitmix-style round, so
/// the four lanes form independent dependency chains that a superscalar
/// core overlaps; [`Fingerprint::finish`] folds the word count and the
/// lanes in order through the same round plus a final avalanche. Every
/// step is a bijection of the state it updates, so two word sequences of
/// equal length that differ in exactly one word always digest
/// differently. Digests are compared only within one process and never
/// persisted, so the constants carry no compatibility weight.
#[derive(Debug)]
pub struct Fingerprint {
    lanes: [u64; 4],
    words: u64,
}

impl Fingerprint {
    /// Fresh accumulator.
    pub fn new() -> Fingerprint {
        Fingerprint { lanes: LANE_SEEDS, words: 0 }
    }

    /// Folds one word into the digest; ordering matters.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        let lane = (self.words & 3) as usize;
        self.lanes[lane] = lane_step(self.lanes[lane], v);
        self.words += 1;
    }

    /// Folds a byte slice in as packed little-endian words — exactly as
    /// if each word were passed to [`Fingerprint::mix`] in turn, but four
    /// words per step once the next word falls in lane 0.
    #[inline]
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        let mut rest = bytes;
        while self.words & 3 != 0 && rest.len() >= 8 {
            self.mix(word(&rest[..8]));
            rest = &rest[8..];
        }
        let mut blocks = rest.chunks_exact(32);
        for b in &mut blocks {
            for (lane, c) in self.lanes.iter_mut().zip(b.chunks_exact(8)) {
                *lane = lane_step(*lane, word(c));
            }
            self.words += 4;
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for c in &mut words {
            self.mix(word(c));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            // Tag the tail with its length so `[1]` and `[1, 0]` differ.
            self.mix(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        let mut h = lane_step(0x5245_5354_4f52_4546, self.words); // "RESTOREF"
        for &lane in &self.lanes {
            h = lane_step(h, lane);
        }
        h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 29)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Records, for every field in traversal order, whether the owning
/// component reported it live and what value it held — the liveness
/// oracle's snapshot of a machine.
///
/// Field numbering matches [`RangeRecorder::fields`] exactly (both push
/// one entry per [`StateVisitor::word`] call), so `live[i]` and
/// `values[i]` describe `catalog.fields[i]`.
#[derive(Debug, Default)]
pub struct OccupancyRecorder {
    /// Per-field liveness, in traversal order. `false` means the
    /// component's occupancy metadata proves the field is dead:
    /// unreadable before its next overwrite.
    pub live: Vec<bool>,
    /// Per-field value at visit time, in traversal order.
    pub values: Vec<u64>,
    current: bool,
}

impl OccupancyRecorder {
    /// Fresh recorder.
    pub fn new() -> OccupancyRecorder {
        OccupancyRecorder { live: Vec::new(), values: Vec::new(), current: true }
    }

    /// Fields reported dead.
    pub fn dead_fields(&self) -> usize {
        self.live.iter().filter(|&&l| !l).count()
    }
}

impl StateVisitor for OccupancyRecorder {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {
        self.current = true;
    }
    fn word(&mut self, value: &mut u64, _width: u32, _class: FieldClass) {
        self.live.push(self.current);
        self.values.push(*value);
    }
    fn occupancy(&mut self, live: bool) {
        self.current = live;
    }
    fn wants_occupancy(&self) -> bool {
        true
    }
}

/// Records, for every field in traversal order, its liveness, value,
/// static mask, and *occupancy group* — one strictly richer snapshot of
/// a machine than [`OccupancyRecorder`]. The masking-interval map takes
/// its field table's group numbering from it.
///
/// Field numbering matches [`RangeRecorder::fields`] exactly. The group
/// index increments on every [`StateVisitor::region`] and
/// [`StateVisitor::occupancy`] call, so fields governed by the same
/// occupancy declaration share a group; because every component issues
/// a structurally fixed number of those calls per walk (occupancy is
/// emitted per slot, not per *live* slot), group numbering is stable
/// across cycles of the same machine.
#[derive(Debug, Default)]
pub struct MaskRecorder {
    /// Per-field liveness, in traversal order (see
    /// [`OccupancyRecorder::live`]).
    pub live: Vec<bool>,
    /// Per-field value at visit time, in traversal order.
    pub values: Vec<u64>,
    /// Per-field static mask: set bits are provably unobservable while
    /// the declaring control state holds; `0` means nothing provable.
    pub masks: Vec<u64>,
    /// Per-field occupancy-group index, in traversal order.
    pub groups: Vec<u32>,
    current: bool,
    pending_mask: u64,
    group: u32,
}

impl MaskRecorder {
    /// Fresh recorder.
    pub fn new() -> MaskRecorder {
        MaskRecorder::default()
    }
}

impl StateVisitor for MaskRecorder {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {
        self.current = true;
        self.pending_mask = 0;
        self.group += 1;
    }
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        self.live.push(self.current);
        self.values.push(*value);
        self.masks.push(self.pending_mask & width_mask(width));
        self.groups.push(self.group);
        self.pending_mask = 0;
    }
    fn occupancy(&mut self, live: bool) {
        self.current = live;
        self.group += 1;
    }
    fn wants_occupancy(&self) -> bool {
        true
    }
    fn masked(&mut self, mask: u64) {
        self.pending_mask = mask;
    }
    fn wants_masks(&self) -> bool {
        true
    }
}

/// One named region of the global bit space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateRegion {
    /// Component name.
    pub name: &'static str,
    /// Latch or RAM.
    pub kind: StateKind,
    /// First global bit index of the region.
    pub start: u64,
    /// Bits in the region.
    pub len: u64,
    /// Bits in the region classified as control-word bits.
    pub control_bits: u64,
    /// Whole region is ECC-protected in the hardened pipeline (§5.2.2's
    /// "register file and other key data stores"). Set via
    /// [`StateCatalog::mark_ecc`].
    pub ecc: bool,
}

/// Records region boundaries and per-field classes during a traversal.
#[derive(Debug, Default)]
pub struct RangeRecorder {
    regions: Vec<StateRegion>,
    /// `(global_start, width, class)` for every field, in order.
    pub fields: Vec<(u64, u32, FieldClass)>,
    pos: u64,
}

impl RangeRecorder {
    /// Fresh recorder.
    pub fn new() -> RangeRecorder {
        RangeRecorder::default()
    }

    /// Finalises into a catalog.
    pub fn into_catalog(mut self) -> StateCatalog {
        if let Some(last) = self.regions.last_mut() {
            last.len = self.pos - last.start;
        }
        StateCatalog { regions: self.regions, fields: self.fields, total_bits: self.pos }
    }
}

impl StateVisitor for RangeRecorder {
    fn region(&mut self, name: &'static str, kind: StateKind) {
        if let Some(last) = self.regions.last_mut() {
            last.len = self.pos - last.start;
        }
        self.regions.push(StateRegion {
            name,
            kind,
            start: self.pos,
            len: 0,
            control_bits: 0,
            ecc: false,
        });
    }
    fn word(&mut self, _value: &mut u64, width: u32, class: FieldClass) {
        self.fields.push((self.pos, width, class));
        if class == FieldClass::Control {
            if let Some(last) = self.regions.last_mut() {
                last.control_bits += width as u64;
            }
        }
        self.pos += width as u64;
    }
}

/// The pipeline's complete map of injectable state.
///
/// Built once per configuration by walking the pipeline with a
/// [`RangeRecorder`]; campaigns use it to draw uniformly distributed
/// target bits, restrict to latches (§5.1.2), or test protection
/// domains (§5.2.2).
#[derive(Debug, Clone)]
pub struct StateCatalog {
    /// All regions in traversal order.
    pub regions: Vec<StateRegion>,
    /// `(global_start, width, class)` per field.
    pub fields: Vec<(u64, u32, FieldClass)>,
    /// Total eligible bits.
    pub total_bits: u64,
}

impl StateCatalog {
    /// Marks the named regions as ECC-protected in the hardened pipeline.
    pub fn mark_ecc(&mut self, names: &[&str]) {
        for r in self.regions.iter_mut() {
            r.ecc = names.contains(&r.name);
        }
    }

    /// The region containing a global bit index.
    pub fn region_of(&self, bit: u64) -> Option<&StateRegion> {
        self.regions.iter().find(|r| bit >= r.start && bit < r.start + r.len)
    }

    /// The field class of a global bit index.
    pub fn class_of(&self, bit: u64) -> Option<FieldClass> {
        self.field_index_of(bit).map(|i| self.fields[i].2)
    }

    /// The traversal-order field index containing a global bit index —
    /// the key that links a drawn injection bit to per-field data
    /// recorded by an [`OccupancyRecorder`] over the same machine.
    pub fn field_index_of(&self, bit: u64) -> Option<usize> {
        // Fields are sorted by start; binary search.
        let idx = self.fields.partition_point(|&(start, _, _)| start <= bit).checked_sub(1)?;
        let (start, width, _) = *self.fields.get(idx)?;
        (bit < start + width as u64).then_some(idx)
    }

    /// Total bits in latch regions.
    pub fn latch_bits(&self) -> u64 {
        self.regions.iter().filter(|r| r.kind == StateKind::Latch).map(|r| r.len).sum()
    }

    /// Total bits in RAM regions.
    pub fn ram_bits(&self) -> u64 {
        self.total_bits - self.latch_bits()
    }

    /// Maps a uniform index over latch bits to a global bit index.
    pub fn latch_bit(&self, latch_index: u64) -> u64 {
        let mut remaining = latch_index;
        for r in &self.regions {
            if r.kind == StateKind::Latch {
                if remaining < r.len {
                    return r.start + remaining;
                }
                remaining -= r.len;
            }
        }
        panic!("latch index {latch_index} out of range");
    }

    /// `true` if the hardened ("low hanging fruit", §5.2.2) pipeline
    /// protects this bit: ECC on the marked key data stores, parity on
    /// the control-word bits everywhere else.
    pub fn lhf_protected(&self, bit: u64) -> bool {
        match self.region_of(bit) {
            Some(r) if r.ecc => true,
            Some(_) => self.class_of(bit) == Some(FieldClass::Control),
            None => false,
        }
    }

    /// Extra storage the hardened pipeline adds, as a fraction of the
    /// unprotected design — the paper reports "approximately 7%
    /// additional state in the execution core". SECDED ECC costs 8 check
    /// bits per 64 data bits; parity costs one bit per protected control
    /// field.
    pub fn lhf_overhead(&self) -> f64 {
        let ecc_bits: f64 =
            self.regions.iter().filter(|r| r.ecc).map(|r| (r.len as f64 / 64.0).ceil() * 8.0).sum();
        let parity_fields = self
            .fields
            .iter()
            .filter(|&&(start, _, class)| {
                class == FieldClass::Control
                    && self.region_of(start).map(|r| !r.ecc).unwrap_or(false)
            })
            .count() as f64;
        (ecc_bits + parity_fields) / self.total_bits.max(1) as f64
    }

    /// Fraction of all bits covered by the hardened pipeline.
    pub fn lhf_coverage(&self) -> f64 {
        let covered: u64 =
            self.regions.iter().map(|r| if r.ecc { r.len } else { r.control_bits }).sum();
        covered as f64 / self.total_bits.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy two-component device for exercising the visitors.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        a: u64,
        b: u32,
        flag: bool,
        ram: [u64; 2],
    }

    impl Toy {
        fn new() -> Toy {
            Toy { a: 0xff, b: 7, flag: false, ram: [1, 2] }
        }
    }

    impl FaultState for Toy {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("toy-latch", StateKind::Latch);
            v.word(&mut self.a, 64, FieldClass::Data);
            v.word32(&mut self.b, 4, FieldClass::Control);
            v.flag(&mut self.flag);
            v.region("toy-ram", StateKind::Ram);
            for w in self.ram.iter_mut() {
                v.word(w, 64, FieldClass::Data);
            }
        }
    }

    #[test]
    fn counter_counts() {
        let mut c = BitCounter::default();
        Toy::new().visit_state(&mut c);
        assert_eq!(c.bits, 64 + 4 + 1 + 128);
    }

    #[test]
    fn flipper_flips_each_bit_once() {
        let total = 64 + 4 + 1 + 128;
        for bit in 0..total {
            let mut t = Toy::new();
            let mut f = BitFlipper::new(bit);
            t.visit_state(&mut f);
            assert!(f.flipped, "bit {bit}");
            // Flipping the same bit again restores the original.
            let mut f2 = BitFlipper::new(bit);
            t.visit_state(&mut f2);
            assert_eq!(t, Toy::new(), "bit {bit} not involutive");
        }
    }

    #[test]
    fn flip_changes_hash() {
        let mut t = Toy::new();
        let mut h = StateHasher::new();
        t.visit_state(&mut h);
        let before = h.finish();
        let mut f = BitFlipper::new(65); // bit 1 of `b` (a occupies 0..64)
        t.visit_state(&mut f);
        let mut h2 = StateHasher::new();
        t.visit_state(&mut h2);
        assert_ne!(before, h2.finish());
        assert_eq!(t.b, 7 ^ 2);
    }

    #[test]
    fn catalog_regions_and_classes() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let cat = rec.into_catalog();
        assert_eq!(cat.total_bits, 197);
        assert_eq!(cat.regions.len(), 2);
        assert_eq!(cat.regions[0].name, "toy-latch");
        assert_eq!(cat.regions[0].len, 69);
        assert_eq!(cat.regions[0].control_bits, 5);
        assert_eq!(cat.regions[1].kind, StateKind::Ram);
        assert_eq!(cat.latch_bits(), 69);
        assert_eq!(cat.ram_bits(), 128);
        assert_eq!(cat.class_of(0), Some(FieldClass::Data));
        assert_eq!(cat.class_of(64), Some(FieldClass::Control));
        assert_eq!(cat.class_of(196), Some(FieldClass::Data));
        assert_eq!(cat.class_of(197), None);
        assert_eq!(cat.region_of(100).unwrap().name, "toy-ram");
    }

    #[test]
    fn latch_bit_maps_uniformly() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let cat = rec.into_catalog();
        assert_eq!(cat.latch_bit(0), 0);
        assert_eq!(cat.latch_bit(68), 68);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn latch_bit_out_of_range_panics() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        rec.into_catalog().latch_bit(69);
    }

    #[test]
    fn lhf_domains() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let mut cat = rec.into_catalog();
        cat.mark_ecc(&["toy-ram"]);
        assert!(!cat.lhf_protected(0)); // data bits of a latch
        assert!(cat.lhf_protected(64)); // control bits of a latch
        assert!(cat.lhf_protected(68)); // the flag
        assert!(cat.lhf_protected(100)); // ECC'd RAM
        let cov = cat.lhf_coverage();
        assert!((cov - (5.0 + 128.0) / 197.0).abs() < 1e-12);
        // Without the marking, the RAM bits are unprotected.
        cat.mark_ecc(&[]);
        assert!(!cat.lhf_protected(100));
    }

    #[test]
    fn lhf_overhead_is_modest() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let mut cat = rec.into_catalog();
        cat.mark_ecc(&["toy-ram"]);
        // ECC: 128 bits -> 2 words -> 16 check bits; parity: 2 control
        // fields in the latch region -> 2 bits. (16+2)/197.
        assert!((cat.lhf_overhead() - 18.0 / 197.0).abs() < 1e-12);
    }

    /// A device that reports half its RAM dead via `occupancy`.
    struct HalfDead {
        live_word: u64,
        dead_word: u64,
        flag: bool,
    }

    impl FaultState for HalfDead {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("half-dead", StateKind::Ram);
            v.flag(&mut self.flag);
            v.word(&mut self.live_word, 16, FieldClass::Data);
            v.occupancy(false);
            v.word(&mut self.dead_word, 16, FieldClass::Data);
            v.region("after", StateKind::Latch);
            // A new region resets to live without an explicit call.
            let mut x = 3u64;
            v.word(&mut x, 2, FieldClass::Control);
        }
    }

    #[test]
    fn occupancy_recorder_tracks_liveness_and_values() {
        let mut d = HalfDead { live_word: 0xAB, dead_word: 0xCD, flag: true };
        let mut rec = OccupancyRecorder::new();
        d.visit_state(&mut rec);
        assert_eq!(rec.live, vec![true, true, false, true]);
        assert_eq!(rec.values, vec![1, 0xAB, 0xCD, 3]);
        assert_eq!(rec.dead_fields(), 1);
    }

    #[test]
    fn occupancy_recorder_field_order_matches_catalog() {
        let mut d = HalfDead { live_word: 0, dead_word: 0, flag: false };
        let mut rec = OccupancyRecorder::new();
        d.visit_state(&mut rec);
        let mut ranges = RangeRecorder::new();
        HalfDead { live_word: 0, dead_word: 0, flag: false }.visit_state(&mut ranges);
        let cat = ranges.into_catalog();
        assert_eq!(rec.live.len(), cat.fields.len());
        // The dead 16-bit word starts at bit 17 (flag + 16-bit live word).
        for bit in [17, 25, 32] {
            assert!(!rec.live[cat.field_index_of(bit).unwrap()], "bit {bit}");
        }
        for bit in [0, 1, 16, 33, 34] {
            assert!(rec.live[cat.field_index_of(bit).unwrap()], "bit {bit}");
        }
        assert_eq!(cat.field_index_of(35), None);
    }

    #[test]
    fn occupancy_is_invisible_to_bit_numbering() {
        let mut with = BitCounter::default();
        HalfDead { live_word: 0, dead_word: 0, flag: false }.visit_state(&mut with);
        assert_eq!(with.bits, 1 + 16 + 16 + 2);
    }

    /// A device that declares a static mask on one field, conditioned on
    /// its flag (mirroring "role proves these bits unread" in the
    /// pipeline), with a dead slot after it.
    struct PartMasked {
        flag: bool,
        imm: u64,
        spare: u64,
    }

    impl FaultState for PartMasked {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("part-masked", StateKind::Latch);
            v.flag(&mut self.flag);
            if v.wants_masks() && !self.flag {
                v.masked(0xFF00);
            }
            v.word(&mut self.imm, 16, FieldClass::Data);
            v.occupancy(false);
            v.word(&mut self.spare, 8, FieldClass::Data);
        }
    }

    #[test]
    fn mask_recorder_captures_masks_liveness_and_groups() {
        let mut d = PartMasked { flag: false, imm: 0xABCD, spare: 0x55 };
        let mut rec = MaskRecorder::new();
        d.visit_state(&mut rec);
        assert_eq!(rec.live, vec![true, true, false]);
        assert_eq!(rec.values, vec![0, 0xABCD, 0x55]);
        assert_eq!(rec.masks, vec![0, 0xFF00, 0], "one-shot mask hits only the next field");
        // flag and imm precede the occupancy call; spare follows it.
        assert_eq!(rec.groups[0], rec.groups[1]);
        assert_ne!(rec.groups[1], rec.groups[2]);
    }

    #[test]
    fn mask_declaration_is_conditional_on_machine_state() {
        let mut d = PartMasked { flag: true, imm: 0xABCD, spare: 0 };
        let mut rec = MaskRecorder::new();
        d.visit_state(&mut rec);
        assert_eq!(rec.masks, vec![0, 0, 0], "flag set ⇒ no mask declared");
    }

    #[test]
    fn mask_channel_is_invisible_to_bit_numbering_and_flipping() {
        let mut c = BitCounter::default();
        PartMasked { flag: false, imm: 0, spare: 0 }.visit_state(&mut c);
        assert_eq!(c.bits, 1 + 16 + 8);
        // Flipping through a mask-declaring component is still involutive
        // and hits the same global indices as a mask-free walk would.
        let mut d = PartMasked { flag: false, imm: 0xABCD, spare: 0x55 };
        let mut f = BitFlipper::new(9); // bit 8 of imm (flag occupies bit 0)
        d.visit_state(&mut f);
        assert!(f.flipped);
        assert_eq!(d.imm, 0xABCD ^ 0x100);
        assert!(!f.wants_masks(), "hot-path visitors skip mask computation");
    }

    #[test]
    fn mask_recorder_is_masked_to_field_width() {
        struct Wide(u64);
        impl FaultState for Wide {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                v.region("wide", StateKind::Latch);
                v.masked(u64::MAX);
                v.word(&mut self.0, 12, FieldClass::Data);
            }
        }
        let mut rec = MaskRecorder::new();
        Wide(0).visit_state(&mut rec);
        assert_eq!(rec.masks, vec![0xFFF], "declared mask clipped to the field width");
    }

    #[test]
    fn mask_recorder_field_order_matches_catalog() {
        let mut rec = MaskRecorder::new();
        PartMasked { flag: false, imm: 0, spare: 0 }.visit_state(&mut rec);
        let mut ranges = RangeRecorder::new();
        PartMasked { flag: false, imm: 0, spare: 0 }.visit_state(&mut ranges);
        let cat = ranges.into_catalog();
        assert_eq!(rec.masks.len(), cat.fields.len());
        assert_eq!(rec.groups.len(), cat.fields.len());
        // Global bit 9 lands in the masked imm field; its mask covers
        // relative bit 8.
        let f = cat.field_index_of(9).unwrap();
        let (start, _, _) = cat.fields[f];
        assert_ne!(rec.masks[f] & (1 << (9 - start)), 0);
    }

    #[test]
    fn width_mask_covers_all_widths() {
        assert_eq!(width_mask(0), 0, "zero-width field covers no bits");
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(7), 0x7F);
        assert_eq!(width_mask(63), u64::MAX >> 1);
        assert_eq!(width_mask(64), u64::MAX);
        // Widths beyond a word saturate rather than wrapping the shift.
        assert_eq!(width_mask(65), u64::MAX);
        assert_eq!(width_mask(u32::MAX), u64::MAX);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "assertion failed: width <= 32")]
    fn word32_rejects_overwide_declaration_in_debug() {
        let mut c = BitCounter::default();
        let mut v = 0u32;
        c.word32(&mut v, 33, FieldClass::Data);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "assertion failed: width <= 8")]
    fn word8_rejects_overwide_declaration_in_debug() {
        let mut c = BitCounter::default();
        let mut v = 0u8;
        c.word8(&mut v, 9, FieldClass::Data);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "field exceeds declared width")]
    fn hasher_rejects_value_wider_than_declared_in_debug() {
        let mut h = StateHasher::new();
        let mut v = 0x10u64;
        h.word(&mut v, 4, FieldClass::Data);
    }

    #[test]
    fn field_index_of_agrees_with_class_of() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let cat = rec.into_catalog();
        for bit in 0..cat.total_bits {
            let idx = cat.field_index_of(bit).unwrap();
            let (start, width, class) = cat.fields[idx];
            assert!(bit >= start && bit < start + width as u64);
            assert_eq!(cat.class_of(bit), Some(class));
        }
    }

    #[test]
    fn hash_is_stable_across_identical_state() {
        let mut a = Toy::new();
        let mut b = Toy::new();
        let (mut ha, mut hb) = (StateHasher::new(), StateHasher::new());
        a.visit_state(&mut ha);
        b.visit_state(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let digest = |words: &[u64]| {
            let mut f = Fingerprint::new();
            for &w in words {
                f.mix(w);
            }
            f.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }

    #[test]
    fn fingerprint_bytes_fold_exactly_like_words() {
        // The four-words-per-step block path must agree with word-by-word
        // mixing at every lane offset and every tail length.
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for lead in 0..5 {
            for len in [0, 7, 8, 31, 32, 33, 64, 95, 200] {
                let mut block = Fingerprint::new();
                let mut words = Fingerprint::new();
                for w in 0..lead {
                    block.mix(w);
                    words.mix(w);
                }
                block.mix_bytes(&bytes[..len]);
                let mut chunks = bytes[..len].chunks_exact(8);
                for c in &mut chunks {
                    words.mix(u64::from_le_bytes(c.try_into().unwrap()));
                }
                let tail = chunks.remainder();
                if !tail.is_empty() {
                    let mut last = [0u8; 8];
                    last[..tail.len()].copy_from_slice(tail);
                    words.mix(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
                }
                assert_eq!(block.finish(), words.finish(), "lead {lead}, len {len}");
            }
        }
    }

    #[test]
    fn fingerprint_detects_every_single_word_change() {
        let base: Vec<u64> = (0..11u64).map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef)).collect();
        let digest = |words: &[u64]| {
            let mut f = Fingerprint::new();
            words.iter().for_each(|&w| f.mix(w));
            f.finish()
        };
        let want = digest(&base);
        for i in 0..base.len() {
            for bit in 0..64 {
                let mut w = base.clone();
                w[i] ^= 1 << bit;
                assert_ne!(digest(&w), want, "word {i}, bit {bit}");
            }
        }
        // Words in different lanes swapped, and in the same lane swapped.
        let mut w = base.clone();
        w.swap(0, 1);
        assert_ne!(digest(&w), want);
        let mut w = base.clone();
        w.swap(0, 4);
        assert_ne!(digest(&w), want);
    }

    #[test]
    fn fingerprint_bytes_tag_the_tail() {
        let digest = |bytes: &[u8]| {
            let mut f = Fingerprint::new();
            f.mix_bytes(bytes);
            f.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1]), digest(&[1, 0]), "zero-padded tails must stay distinct");
        assert_ne!(digest(&[1; 8]), digest(&[1; 9]));
    }
}
