//! Canonical configuration digesting, shared by the golden checkpoint
//! library ([`restore_snapshot::LibraryKey`]) and the on-disk trial
//! store (`restore-store`).
//!
//! Both caches key on "everything that shapes the result": the
//! checkpoint library on what shapes a golden run's evolution, the
//! trial store on what shapes a trial record. Those keys must agree on
//! *how* a configuration folds into a `u64`, or a campaign could read
//! checkpoints under one identity and trial records under another.
//! This module is that single definition; the historical ad-hoc
//! computation in `restore-snapshot` moved here unchanged
//! ([`config_digest`] still produces byte-for-byte the same values, so
//! pinned digests stay valid).
//!
//! [`ConfigDigest`] is the builder form for multi-field keys: each
//! fielded chunk is terminated by a separator byte that never occurs in
//! a `Debug` rendering of these configs, so field *boundaries* are part
//! of the digest — `("ab", "c")` and `("a", "bc")` differ, and dropping
//! a field can never alias a digest that kept it.

use core::fmt::Debug;

/// FNV-1a offset basis (64-bit).
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x100_0000_01b3;
/// Chunk terminator: ASCII unit separator, which `Debug` renderings of
/// configuration types never contain.
const SEP: u8 = 0x1F;

/// Incremental FNV-1a digest over delimited configuration chunks.
///
/// ```
/// use restore_core::ConfigDigest;
///
/// let a = ConfigDigest::new().text("smoke").word(300_000).finish();
/// let b = ConfigDigest::new().text("smoke").word(300_001).finish();
/// assert_ne!(a, b, "every field change must change the digest");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigDigest {
    h: u64,
}

impl ConfigDigest {
    /// An empty digest (the FNV-1a offset basis).
    pub fn new() -> ConfigDigest {
        ConfigDigest { h: OFFSET }
    }

    fn byte(mut self, b: u8) -> ConfigDigest {
        self.h ^= u64::from(b);
        self.h = self.h.wrapping_mul(PRIME);
        self
    }

    /// Folds one text chunk (plus the chunk terminator).
    #[must_use]
    pub fn text(mut self, s: &str) -> ConfigDigest {
        for b in s.as_bytes() {
            self = self.byte(*b);
        }
        self.byte(SEP)
    }

    /// Folds a value's `Debug` rendering as one chunk. The rendering is
    /// what makes float-carrying configs digestible without demanding
    /// `Hash`; `Debug` for these types is derived, so every field shows
    /// up in it.
    #[must_use]
    pub fn debug<T: Debug + ?Sized>(self, value: &T) -> ConfigDigest {
        self.text(&format!("{value:?}"))
    }

    /// Folds one `u64` chunk (little-endian bytes plus the terminator).
    #[must_use]
    pub fn word(mut self, value: u64) -> ConfigDigest {
        for b in value.to_le_bytes() {
            self = self.byte(b);
        }
        self.byte(SEP)
    }

    /// The folded digest.
    pub fn finish(self) -> u64 {
        self.h
    }
}

impl Default for ConfigDigest {
    fn default() -> Self {
        ConfigDigest::new()
    }
}

/// FNV-1a digest of a configuration's debug rendering — the stable
/// within-process way to fold "everything that shapes the golden run"
/// into a cache key without imposing `Hash` on config types that carry
/// floats. This is the historical `restore_snapshot::config_digest`,
/// moved here so the checkpoint library and the trial store share one
/// definition; values are unchanged (no chunk terminator — the whole
/// rendering is the digest).
pub fn config_digest(rendering: &str) -> u64 {
    let mut h = OFFSET;
    for b in rendering.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Historical pin: `uarch_campaign_digest(&UarchCampaignConfig::default())`.
///
/// Every record a warm store holds is filed under a digest value; if
/// either constant below moves, every existing store directory is
/// silently orphaned (cold re-simulation, not corruption). The digest
/// functions in `restore-inject` destructure their configs
/// exhaustively and fold the shaped fields in the historical order:
/// the compiler forces every new field to be classified, and these
/// values move only when a shaped fold is deliberately added or changed.
/// Asserted by `crates/audit/tests/digest_battery.rs`; update ONLY with
/// a changelog entry explaining the store invalidation.
pub const PINNED_UARCH_DEFAULT_DIGEST: u64 = 0x2a32_b7db_a46e_878a;
/// Historical pin: `arch_campaign_digest(&ArchCampaignConfig::default())`.
pub const PINNED_ARCH_DEFAULT_DIGEST: u64 = 0x1b19_cb1a_5692_9a3c;

#[cfg(test)]
mod tests {
    use super::*;
    use restore_workloads::Scale;

    /// The digest of a fixed rendering is pinned: trial stores persist
    /// digests on disk, so a silent change here would orphan every
    /// record ever written. If this assertion fires, the hash function
    /// changed — that is a breaking store-format change, not a test to
    /// update casually.
    #[test]
    fn golden_digests_are_pinned() {
        assert_eq!(config_digest(""), 0xcbf2_9ce4_8422_2325, "empty digest is the offset basis");
        assert_eq!(config_digest("a"), 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector");
        assert_eq!(config_digest("foobar"), 0x8594_4171_f739_67e8, "FNV-1a test vector");
        // The exact rendering the µarch campaign has always used for
        // `Scale::campaign()`; the checkpoint library keyed on this
        // value before the digest moved here.
        assert_eq!(
            config_digest(&format!("{:?}", Scale::campaign())),
            config_digest("Scale { size: 256, seed: 24301 }"),
        );
    }

    /// Any change to any config field must change the digest — the
    /// builder must not let two different configurations alias.
    #[test]
    fn every_field_change_changes_the_digest() {
        let base = Scale::campaign();
        let digest = |s: &Scale| ConfigDigest::new().debug(s).finish();
        let d0 = digest(&base);
        assert_eq!(d0, digest(&{ base }), "digesting is deterministic");
        assert_ne!(d0, digest(&Scale { size: base.size + 1, ..base }), "size must matter");
        assert_ne!(d0, digest(&base.with_seed(base.seed + 1)), "seed must matter");
    }

    /// Field boundaries are part of the digest: moving bytes across a
    /// chunk boundary must not alias.
    #[test]
    fn chunk_boundaries_matter() {
        let ab_c = ConfigDigest::new().text("ab").text("c").finish();
        let a_bc = ConfigDigest::new().text("a").text("bc").finish();
        assert_ne!(ab_c, a_bc);
        let one_chunk = ConfigDigest::new().text("abc").finish();
        assert_ne!(ab_c, one_chunk);
        // A dropped trailing field must not alias the shorter digest.
        assert_ne!(
            ConfigDigest::new().text("abc").finish(),
            ConfigDigest::new().text("abc").word(0).finish()
        );
        // Word chunks are order- and value-sensitive.
        assert_ne!(
            ConfigDigest::new().word(1).word(2).finish(),
            ConfigDigest::new().word(2).word(1).finish()
        );
    }

    /// The one-shot form matches a single undelimited fold, so the
    /// historical call sites (library keys built from one rendering)
    /// keep their values.
    #[test]
    fn one_shot_matches_manual_fnv() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in b"Scale { size: 48, seed: 24301 }" {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(config_digest("Scale { size: 48, seed: 24301 }"), h);
    }
}
