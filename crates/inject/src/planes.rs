//! Packed state planes of a golden run: what the residue-aware
//! reconvergence cutoff compares a trial against, and what the liveness
//! oracle's residue shadow checks itself against.
//!
//! At the injection point (boundary 0), at every `cutoff_stride`
//! boundary the golden run reaches while running, and once after the
//! end-of-window drain, the golden run records:
//!
//! * its **artifact digest** ([`Pipeline::artifact_digest`]): everything
//!   that steers the machine but is not injectable state (boundaries
//!   only);
//! * a **plane**: every catalog field's value packed at its global bit
//!   index, so field `f` of width `w` starting at census bit `s` occupies
//!   plane bits `s..s + w` — 50,419 bits (788 words) for the default
//!   pipeline;
//! * a **live mask** (boundaries only): bit `f` is set when the
//!   occupancy walk reports field `f` live.
//!
//! Each record is one walk over the machine's state that writes into
//! storage reserved up front for the whole window, so recording
//! allocates nothing per boundary.

use restore_uarch::state::{width_mask, FieldClass, StateKind, StateVisitor};
use restore_uarch::{FaultState, Pipeline, StateCatalog};

/// The value of the `width`-bit field packed at bit `pos` of `plane`.
#[inline]
pub(crate) fn read_bits(plane: &[u64], pos: u64, width: u32) -> u64 {
    let (w, s) = ((pos / 64) as usize, (pos % 64) as u32);
    let mut v = plane[w] >> s;
    if s + width > 64 {
        v |= plane[w + 1] << (64 - s);
    }
    v & width_mask(width)
}

/// Packs the `width`-bit `value` at bit `pos` of a zeroed `plane`.
#[inline]
fn write_bits(plane: &mut [u64], pos: u64, width: u32, value: u64) {
    debug_assert!(value & !width_mask(width) == 0, "field exceeds declared width");
    let (w, s) = ((pos / 64) as usize, (pos % 64) as u32);
    plane[w] |= value << s;
    if s + width > 64 {
        plane[w + 1] |= value >> (64 - s);
    }
}

/// Whether bit `i` of the bitset `bits` is set.
#[inline]
pub(crate) fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// Sets bit `i` of the bitset `bits`.
#[inline]
pub(crate) fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// How a trial compares with the golden run at a stride boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reconvergence {
    /// Not comparable (no golden record at this boundary) or different
    /// in an artifact or a live field: keep simulating.
    Diverged,
    /// Bit-identical to the golden run.
    Exact,
    /// Identical except in fields the golden occupancy walk marks dead
    /// at this boundary (listed by [`GoldenPlanes::reconverge`]).
    DeadOnly,
}

/// A golden run's per-boundary records (see the module docs).
#[derive(Debug)]
pub(crate) struct GoldenPlanes {
    /// Words per plane: one bit per catalog bit.
    plane_words: usize,
    /// Words per live mask: one bit per catalog field.
    live_words: usize,
    fields: usize,
    /// Artifact digest per recorded boundary.
    artifacts: Vec<u64>,
    /// One plane per recorded boundary, back to back.
    planes: Vec<u64>,
    /// One live mask per recorded boundary, back to back.
    live: Vec<u64>,
    /// The plane after the end-of-window drain; empty until recorded.
    end: Vec<u64>,
}

impl GoldenPlanes {
    /// Empty records for a pipeline with `catalog`'s layout, with room
    /// for `boundaries` boundary records.
    pub(crate) fn new(catalog: &StateCatalog, boundaries: usize) -> GoldenPlanes {
        let plane_words = catalog.total_bits.div_ceil(64) as usize;
        let live_words = catalog.fields.len().div_ceil(64);
        GoldenPlanes {
            plane_words,
            live_words,
            fields: catalog.fields.len(),
            artifacts: Vec::with_capacity(boundaries),
            planes: Vec::with_capacity(boundaries * plane_words),
            live: Vec::with_capacity(boundaries * live_words),
            end: Vec::new(),
        }
    }

    /// Records the next boundary: artifact digest, plane and live mask.
    pub(crate) fn record(&mut self, pipe: &mut Pipeline) {
        self.artifacts.push(pipe.artifact_digest());
        let (p0, l0) = (self.planes.len(), self.live.len());
        self.planes.resize(p0 + self.plane_words, 0);
        self.live.resize(l0 + self.live_words, 0);
        let mut rec = Record {
            plane: &mut self.planes[p0..],
            live: Some(&mut self.live[l0..]),
            pos: 0,
            field: 0,
            current: true,
        };
        pipe.visit_state(&mut rec);
        assert_eq!(rec.field, self.fields, "catalog drifted since the golden run started");
    }

    /// Records the plane after the end-of-window drain.
    pub(crate) fn record_end(&mut self, pipe: &mut Pipeline) {
        self.end = vec![0; self.plane_words];
        let mut rec = Record { plane: &mut self.end, live: None, pos: 0, field: 0, current: true };
        pipe.visit_state(&mut rec);
        assert_eq!(rec.field, self.fields, "catalog drifted since the golden run started");
    }

    /// Boundaries recorded (boundary 0 is the injection point).
    pub(crate) fn boundaries(&self) -> usize {
        self.artifacts.len()
    }

    /// Catalog fields per plane.
    pub(crate) fn fields(&self) -> usize {
        self.fields
    }

    /// Words per live mask.
    pub(crate) fn live_words(&self) -> usize {
        self.live_words
    }

    /// The plane recorded at boundary `b`.
    pub(crate) fn plane(&self, b: usize) -> &[u64] {
        &self.planes[b * self.plane_words..(b + 1) * self.plane_words]
    }

    /// The live mask recorded at boundary `b`.
    pub(crate) fn live(&self, b: usize) -> &[u64] {
        &self.live[b * self.live_words..(b + 1) * self.live_words]
    }

    /// The plane after the end-of-window drain.
    pub(crate) fn end(&self) -> &[u64] {
        assert!(!self.end.is_empty(), "the golden run recorded no end plane");
        &self.end
    }

    /// Compares `pipe` with boundary `b`: the artifact digest first, then
    /// field by field. On [`Reconvergence::DeadOnly`], `dead` holds the
    /// differing (all dead) fields; otherwise its contents are
    /// unspecified.
    pub(crate) fn reconverge(
        &self,
        b: usize,
        pipe: &mut Pipeline,
        dead: &mut Vec<usize>,
    ) -> Reconvergence {
        if self.artifacts.get(b) != Some(&pipe.artifact_digest()) {
            return Reconvergence::Diverged;
        }
        dead.clear();
        let mut diff = Diff {
            plane: self.plane(b),
            live: self.live(b),
            pos: 0,
            field: 0,
            live_diff: false,
            dead,
        };
        pipe.visit_state(&mut diff);
        if diff.live_diff {
            Reconvergence::Diverged
        } else if dead.is_empty() {
            Reconvergence::Exact
        } else {
            Reconvergence::DeadOnly
        }
    }
}

/// Packs every field into a plane and, when `live` is given, the
/// occupancy verdicts into a live mask.
struct Record<'a> {
    plane: &'a mut [u64],
    live: Option<&'a mut [u64]>,
    pos: u64,
    field: usize,
    current: bool,
}

impl StateVisitor for Record<'_> {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {
        self.current = true;
    }
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        write_bits(self.plane, self.pos, width, *value);
        if self.current {
            if let Some(live) = self.live.as_deref_mut() {
                set_bit(live, self.field);
            }
        }
        self.pos += width as u64;
        self.field += 1;
    }
    fn occupancy(&mut self, live: bool) {
        self.current = live;
    }
    fn wants_occupancy(&self) -> bool {
        self.live.is_some()
    }
}

/// Lists the fields that differ from a plane, stopping the comparisons
/// at the first differing live field.
struct Diff<'a> {
    plane: &'a [u64],
    live: &'a [u64],
    pos: u64,
    field: usize,
    live_diff: bool,
    dead: &'a mut Vec<usize>,
}

impl StateVisitor for Diff<'_> {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        if !self.live_diff && read_bits(self.plane, self.pos, width) != *value {
            if bit(self.live, self.field) {
                self.live_diff = true;
            } else {
                self.dead.push(self.field);
            }
        }
        self.pos += width as u64;
        self.field += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_across_word_boundaries() {
        let mut plane = [0u64; 3];
        // (pos, width, value): straddles words 0/1, sits inside word 1,
        // and a full 64-bit field straddles words 1/2.
        let fields = [(60, 8, 0xA5), (68, 55, (1 << 55) - 3), (123, 64, u64::MAX - 7)];
        for &(pos, width, value) in &fields {
            write_bits(&mut plane, pos, width, value);
        }
        for &(pos, width, value) in &fields {
            assert_eq!(read_bits(&plane, pos, width), value, "field at {pos}");
        }
    }

    #[test]
    fn a_recorded_plane_reads_back_the_machine() {
        use restore_uarch::{OccupancyRecorder, UarchConfig};
        use restore_workloads::{Scale, WorkloadId};
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let mut pipe = Pipeline::new(UarchConfig::default(), &program);
        for _ in 0..300 {
            pipe.cycle();
        }
        let catalog = pipe.catalog();
        let mut planes = GoldenPlanes::new(&catalog, 1);
        planes.record(&mut pipe);
        let mut rec = OccupancyRecorder::new();
        pipe.visit_state(&mut rec);
        for (f, &(start, width, _)) in catalog.fields.iter().enumerate() {
            assert_eq!(read_bits(planes.plane(0), start, width), rec.values[f], "field {f}");
            assert_eq!(bit(planes.live(0), f), rec.live[f], "field {f}");
        }
        let mut dead = Vec::new();
        assert_eq!(planes.reconverge(0, &mut pipe, &mut dead), Reconvergence::Exact);
        assert_eq!(planes.reconverge(1, &mut pipe, &mut dead), Reconvergence::Diverged);
    }
}
