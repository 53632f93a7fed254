//! Sparse paged memory with per-page permissions.
//!
//! The architecture exposes a full 64-bit virtual address space while
//! programs map only a few small regions. That sparseness is a first-class
//! experimental variable in the ReStore paper (§3.1): a single bit flip in
//! a pointer almost always lands in unmapped space and faults, which is why
//! the exception symptom covers so many failures.

use crate::state::Fingerprint;
use core::fmt;
use core::ops::Deref;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

const PAGE_SHIFT: u32 = 12;

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Perm {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub execute: bool,
}

impl Perm {
    /// `true` if these permissions allow `access`.
    #[inline]
    fn allows(self, access: AccessKind) -> bool {
        match access {
            AccessKind::Load => self.read,
            AccessKind::Store => self.write,
            AccessKind::Fetch => self.execute,
        }
    }

    /// Read-only data.
    pub const R: Perm = Perm { read: true, write: false, execute: false };
    /// Read-write data.
    pub const RW: Perm = Perm { read: true, write: true, execute: false };
    /// Read-execute text.
    pub const RX: Perm = Perm { read: true, write: false, execute: true };
}

/// The kind of access that failed (reported in exceptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store.
    Store,
    /// Instruction fetch.
    Fetch,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Fetch => "fetch",
        })
    }
}

/// Memory access errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// The page is not mapped.
    Unmapped {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: AccessKind,
    },
    /// The page is mapped but the permission bits forbid the access.
    Protection {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: AccessKind,
    },
    /// The address is not aligned for the access width.
    Misaligned {
        /// Faulting address.
        addr: u64,
        /// Access kind.
        access: AccessKind,
    },
}

impl MemError {
    /// The faulting virtual address.
    pub fn addr(&self) -> u64 {
        match *self {
            MemError::Unmapped { addr, .. }
            | MemError::Protection { addr, .. }
            | MemError::Misaligned { addr, .. } => addr,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr, access } => {
                write!(f, "{access} to unmapped address {addr:#x}")
            }
            MemError::Protection { addr, access } => {
                write!(f, "{access} violates page protection at {addr:#x}")
            }
            MemError::Misaligned { addr, access } => {
                write!(f, "misaligned {access} at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[derive(Clone, PartialEq, Eq)]
struct Page {
    data: Box<[u8]>,
    perm: Perm,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page").field("perm", &self.perm).finish_non_exhaustive()
    }
}

/// One mapped page plus its digest cache. The page body is shared
/// copy-on-write between clones; `digest` is `None` exactly while the
/// page's base is on the owning [`Memory`]'s dirty list.
#[derive(Debug, Clone)]
struct PageSlot {
    page: Arc<Page>,
    digest: Option<u64>,
}

impl PageSlot {
    /// Copies `bytes` into the page at `off`, un-sharing the body first
    /// (copy-on-write). Returns the cached digest the write invalidated,
    /// if the page was clean.
    fn write(&mut self, off: usize, bytes: &[u8]) -> Option<u64> {
        let stale = self.digest.take();
        Arc::make_mut(&mut self.page).data[off..off + bytes.len()].copy_from_slice(bytes);
        stale
    }
}

/// Digest of one page — base, permissions and the digest of its contents
/// — through the shared [`Fingerprint`] word mixer. Each page's digest is
/// independent of every other page's, so whole-image digests can
/// XOR-combine them (the base address keys each term).
fn page_digest(base: u64, page: &Page) -> u64 {
    let mut contents = Fingerprint::new();
    contents.mix_bytes(&page.data);
    keyed_page_digest(base, page.perm, contents.finish())
}

/// A page digest from the page's base, permissions and contents digest.
fn keyed_page_digest(base: u64, perm: Perm, contents: u64) -> u64 {
    let mut f = Fingerprint::new();
    f.mix(base);
    f.mix(perm.read as u64 | (perm.write as u64) << 1 | (perm.execute as u64) << 2);
    f.mix(contents);
    f.finish()
}

/// [`page_digest`] of a freshly mapped, zero-filled page — most of an
/// image is untouched stack — without hashing its 4 KiB: the contents
/// digest of a zero page is computed once per process.
fn zero_page_digest(base: u64, perm: Perm) -> u64 {
    static ZERO_CONTENTS: OnceLock<u64> = OnceLock::new();
    let contents = *ZERO_CONTENTS.get_or_init(|| {
        let mut f = Fingerprint::new();
        f.mix_bytes(&[0; PAGE_SIZE as usize]);
        f.finish()
    });
    keyed_page_digest(base, perm, contents)
}

/// Sparse, permission-checked paged memory.
///
/// Pages are copy-on-write: cloning a `Memory` shares every page body
/// behind an [`Arc`] and the first store to a shared page copies just
/// that page, so campaigns fork golden and injected runs at the cost of
/// the page *table*, not the image.
///
/// The image also maintains an incremental digest: each page caches a
/// digest of its contents (known without hashing for a freshly mapped
/// zero page), invalidated on the store path, and
/// [`Memory::content_hash`] / [`Memory::fingerprint`] recombine them in
/// O(dirty pages) — cheap enough to sample every few hundred cycles
/// during a trial.
///
/// # Examples
///
/// ```
/// use restore_arch::{Memory, Perm, AccessKind};
/// let mut m = Memory::new();
/// m.map(0x1000, 0x1000, Perm::RW);
/// m.store_u64(0x1008, 42).unwrap();
/// assert_eq!(m.load_u64(0x1008).unwrap(), 42);
/// assert!(m.load_u64(0x9000_0000).is_err()); // unmapped
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: BTreeMap<u64, PageSlot>,
    /// XOR of every cached (clean) page digest.
    clean_xor: u64,
    /// Bases of pages whose digest cache is invalid. Invariant: a base is
    /// listed here exactly once iff its slot's `digest` is `None`.
    dirty: Vec<u64>,
}

/// Equality is over the architectural image — page bases, permissions and
/// contents. The digest cache is excluded: two memories that differ only
/// in which digests happen to be cached still compare equal.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && self.pages.iter().zip(other.pages.iter()).all(|((ab, a), (bb, b))| {
                ab == bb && (Arc::ptr_eq(&a.page, &b.page) || a.page == b.page)
            })
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page_base(addr: u64) -> u64 {
        addr >> PAGE_SHIFT << PAGE_SHIFT
    }

    /// Maps `[base, base+len)` (rounded out to page granularity) with the
    /// given permissions, zero-filled. Remapping an existing page updates
    /// its permissions and keeps its contents.
    pub fn map(&mut self, base: u64, len: u64, perm: Perm) {
        if len == 0 {
            return;
        }
        let first = Self::page_base(base);
        let last = Self::page_base(base + len - 1);
        let mut p = first;
        loop {
            match self.pages.entry(p) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let slot = e.get_mut();
                    if slot.page.perm != perm {
                        let stale = slot.digest.take();
                        Arc::make_mut(&mut slot.page).perm = perm;
                        self.invalidate(p, stale);
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    let digest = zero_page_digest(p, perm);
                    e.insert(PageSlot {
                        page: Arc::new(Page {
                            data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
                            perm,
                        }),
                        digest: Some(digest),
                    });
                    self.clean_xor ^= digest;
                }
            }
            if p == last {
                break;
            }
            p += PAGE_SIZE;
        }
    }

    /// `true` if `addr` is on a mapped page.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&Self::page_base(addr))
    }

    /// Permission of the page containing `addr`, if mapped.
    pub fn perm_at(&self, addr: u64) -> Option<Perm> {
        self.pages.get(&Self::page_base(addr)).map(|p| p.page.perm)
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Drops a page's invalidated digest from the clean XOR and lists the
    /// page as dirty.
    #[inline]
    fn invalidate(&mut self, base: u64, stale: Option<u64>) {
        if let Some(d) = stale {
            self.clean_xor ^= d;
            self.dirty.push(base);
        }
    }

    /// Passes `slot` — the page lookup of an access of `len` bytes at
    /// `addr`, shared or mutable — through the alignment, mapping and
    /// permission checks, in that order. An aligned power-of-two access
    /// never crosses a page, so one lookup serves the whole access.
    #[inline]
    fn checked<S: Deref<Target = PageSlot>>(
        slot: Option<S>,
        addr: u64,
        len: u64,
        access: AccessKind,
    ) -> Result<S, MemError> {
        if len > 1 && addr & (len - 1) != 0 {
            return Err(MemError::Misaligned { addr, access });
        }
        let slot = slot.ok_or(MemError::Unmapped { addr, access })?;
        if slot.page.perm.allows(access) {
            Ok(slot)
        } else {
            Err(MemError::Protection { addr, access })
        }
    }

    #[inline]
    fn slot(&self, addr: u64, len: u64, access: AccessKind) -> Result<&PageSlot, MemError> {
        Self::checked(self.pages.get(&Self::page_base(addr)), addr, len, access)
    }

    /// Reads `len` (at most 8) bytes at `addr` from its page as a
    /// zero-extended little-endian value.
    #[inline]
    fn read_le(slot: &PageSlot, addr: u64, len: u64) -> u64 {
        let off = (addr - Self::page_base(addr)) as usize;
        let mut buf = [0u8; 8];
        buf[..len as usize].copy_from_slice(&slot.page.data[off..off + len as usize]);
        u64::from_le_bytes(buf)
    }

    /// Checks that an access of `len` bytes at `addr` is legal without
    /// performing it: alignment, mapping, and permission, in that order.
    ///
    /// # Errors
    ///
    /// The same errors the corresponding load/store/fetch would produce.
    pub fn check(&self, addr: u64, len: u64, access: AccessKind) -> Result<(), MemError> {
        self.slot(addr, len, access).map(|_| ())
    }

    /// Loads a zero-extended little-endian value of `len` bytes (1, 2, 4
    /// or 8).
    ///
    /// # Errors
    ///
    /// Alignment, mapping and permission errors per [`Memory::check`].
    pub fn load(&self, addr: u64, len: u64) -> Result<u64, MemError> {
        let slot = self.slot(addr, len, AccessKind::Load)?;
        Ok(Self::read_le(slot, addr, len))
    }

    /// Stores the low `len` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Alignment, mapping and permission errors per [`Memory::check`].
    pub fn store(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemError> {
        self.replace(addr, len, value).map(|_| ())
    }

    /// Stores the low `len` bytes of `value` little-endian, like
    /// [`Memory::store`], and returns the zero-extended value they
    /// overwrote — the undo record of a retiring store, in one page
    /// lookup.
    ///
    /// # Errors
    ///
    /// Alignment, mapping and permission errors per [`Memory::check`].
    pub fn replace(&mut self, addr: u64, len: u64, value: u64) -> Result<u64, MemError> {
        let base = Self::page_base(addr);
        let slot = Self::checked(self.pages.get_mut(&base), addr, len, AccessKind::Store)?;
        let old = Self::read_le(slot, addr, len);
        let stale = slot.write((addr - base) as usize, &value.to_le_bytes()[..len as usize]);
        self.invalidate(base, stale);
        Ok(old)
    }

    /// Convenience 64-bit load.
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.load(addr, 8)
    }

    /// Convenience 64-bit store.
    pub fn store_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.store(addr, 8, value)
    }

    /// Fetches a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Misalignment, unmapped or non-executable pages report under
    /// [`AccessKind::Fetch`].
    pub fn fetch(&self, pc: u64) -> Result<u32, MemError> {
        let slot = self.slot(pc, 4, AccessKind::Fetch)?;
        Ok(Self::read_le(slot, pc, 4) as u32)
    }

    /// Writes raw bytes ignoring permissions — used by the program loader
    /// and by fault injection. One page lookup per page touched.
    ///
    /// # Panics
    ///
    /// Panics if any byte of the destination is unmapped; callers map
    /// regions before initialising them.
    pub fn poke_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            let slot =
                self.pages.get_mut(&base).unwrap_or_else(|| panic!("poke to unmapped {a:#x}"));
            let stale = slot.write(off, &rest[..n]);
            self.invalidate(base, stale);
            rest = &rest[n..];
            a += n as u64;
        }
    }

    /// Reads raw bytes ignoring permissions. One page lookup per page
    /// touched.
    ///
    /// # Panics
    ///
    /// Panics if unmapped.
    pub fn peek_bytes(&self, addr: u64, out: &mut [u8]) {
        let mut a = addr;
        let mut rest = out;
        while !rest.is_empty() {
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            let slot = self.pages.get(&base).unwrap_or_else(|| panic!("peek of unmapped {a:#x}"));
            let (head, tail) = rest.split_at_mut(n);
            head.copy_from_slice(&slot.page.data[off..off + n]);
            rest = tail;
            a += n as u64;
        }
    }

    /// Flips a single bit of a mapped byte (fault injection helper).
    ///
    /// # Panics
    ///
    /// Panics if the byte is unmapped or `bit >= 8`.
    pub fn flip_bit(&mut self, addr: u64, bit: u32) {
        assert!(bit < 8);
        let mut b = [0u8; 1];
        self.peek_bytes(addr, &mut b);
        b[0] ^= 1 << bit;
        self.poke_bytes(addr, &b);
    }

    /// Iterates `(page_base, page_bytes)` in address order, for hashing
    /// and state comparison.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter().map(|(&b, s)| (b, &s.page.data[..]))
    }

    /// Number of pages whose bodies are physically shared (same `Arc`
    /// allocation) between this image and `other` — the copy-on-write
    /// savings a clone currently enjoys. Pages mapped at the same base
    /// but already un-shared by a store count zero.
    pub fn shared_page_count(&self, other: &Memory) -> usize {
        self.pages
            .iter()
            .filter(|(base, slot)| {
                other.pages.get(base).is_some_and(|o| Arc::ptr_eq(&slot.page, &o.page))
            })
            .count()
    }

    /// Digest of the full memory image — bases, permissions and page
    /// contents. Equal images hash equal, so a campaign can compare an end
    /// state against a golden reference without keeping the golden
    /// `Memory` alive (64-bit collisions are negligible at campaign
    /// scale).
    ///
    /// It is the XOR of every page's digest (each keyed by its base and
    /// permissions) plus a page-count term: the cached clean-page XOR
    /// combined with fresh digests of only the pages dirtied since the
    /// last [`Memory::fingerprint`] call. It always equals what
    /// `fingerprint` would return, whatever the store history.
    pub fn content_hash(&self) -> u64 {
        let dirty =
            self.dirty.iter().fold(0, |x, base| x ^ page_digest(*base, &self.pages[base].page));
        self.clean_xor ^ dirty ^ (self.pages.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// [`Memory::content_hash`], after caching the digests of the pages
    /// dirtied since the last call — the per-stride reconvergence
    /// fingerprint, which then costs O(pages stored to since the last
    /// call) rather than a walk of the image.
    pub fn fingerprint(&mut self) -> u64 {
        while let Some(base) = self.dirty.pop() {
            let slot = self.pages.get_mut(&base).expect("dirty page is mapped");
            let d = page_digest(base, &slot.page);
            slot.digest = Some(d);
            self.clean_xor ^= d;
        }
        self.content_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_rounds_to_pages() {
        let mut m = Memory::new();
        m.map(0x1800, 0x1000, Perm::RW); // straddles two pages
        assert!(m.is_mapped(0x1000));
        assert!(m.is_mapped(0x2fff));
        assert!(!m.is_mapped(0x3000));
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn zero_length_map_is_noop() {
        let mut m = Memory::new();
        m.map(0x1000, 0, Perm::RW);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn load_store_roundtrip_all_widths() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        for (len, val) in [(1u64, 0xab), (2, 0xabcd), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)]
        {
            m.store(0x1000, len, val).unwrap();
            assert_eq!(m.load(0x1000, len).unwrap(), val);
        }
    }

    #[test]
    fn store_is_little_endian() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        m.store(0x1000, 4, 0x0102_0304).unwrap();
        assert_eq!(m.load(0x1000, 1).unwrap(), 0x04);
        assert_eq!(m.load(0x1003, 1).unwrap(), 0x01);
    }

    #[test]
    fn misaligned_access_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        assert!(matches!(
            m.load(0x1001, 8),
            Err(MemError::Misaligned { addr: 0x1001, access: AccessKind::Load })
        ));
        assert!(matches!(m.store(0x1002, 4, 0), Err(MemError::Misaligned { .. })));
        // Byte accesses never misalign.
        assert!(m.load(0x1001, 1).is_ok());
    }

    #[test]
    fn protection_enforced() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::R);
        assert!(m.load(0x1000, 8).is_ok());
        assert!(matches!(m.store(0x1000, 8, 1), Err(MemError::Protection { .. })));
        assert!(matches!(m.fetch(0x1000), Err(MemError::Protection { .. })));
        m.map(0x2000, 0x1000, Perm::RX);
        assert!(m.fetch(0x2000).is_ok());
    }

    #[test]
    fn unmapped_access_faults_with_address() {
        let m = Memory::new();
        let e = m.load(0xdead_0000, 8).unwrap_err();
        assert_eq!(e.addr(), 0xdead_0000);
        assert!(e.to_string().contains("unmapped"));
    }

    #[test]
    fn fetch_requires_alignment() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RX);
        assert!(matches!(m.fetch(0x1002), Err(MemError::Misaligned { .. })));
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        m.store(0x1000, 1, 0b1010).unwrap();
        m.flip_bit(0x1000, 0);
        assert_eq!(m.load(0x1000, 1).unwrap(), 0b1011);
        m.flip_bit(0x1000, 3);
        assert_eq!(m.load(0x1000, 1).unwrap(), 0b0011);
    }

    #[test]
    fn clone_then_diverge() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let mut b = a.clone();
        assert_eq!(a, b);
        b.store_u64(0x1000, 8).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.load_u64(0x1000).unwrap(), 7);
    }

    #[test]
    fn clone_shares_pages_until_first_store() {
        let mut a = Memory::new();
        a.map(0x1000, 2 * PAGE_SIZE, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let mut b = a.clone();
        for (base, slot) in a.pages.iter() {
            assert!(Arc::ptr_eq(&slot.page, &b.pages[base].page), "page {base:#x} copied eagerly");
        }
        // A store to one page un-shares exactly that page.
        b.store_u64(0x1000, 8).unwrap();
        assert!(!Arc::ptr_eq(&a.pages[&0x1000].page, &b.pages[&0x1000].page));
        assert!(Arc::ptr_eq(&a.pages[&0x2000].page, &b.pages[&0x2000].page));
        assert_eq!(a.load_u64(0x1000).unwrap(), 7, "original must not see the clone's store");
        assert_eq!(b.load_u64(0x1000).unwrap(), 8);
    }

    #[test]
    fn shared_page_count_tracks_cow_divergence() {
        let mut a = Memory::new();
        a.map(0x1000, 3 * PAGE_SIZE, Perm::RW);
        let mut b = a.clone();
        assert_eq!(a.shared_page_count(&b), 3);
        assert_eq!(b.shared_page_count(&a), 3);
        b.store_u64(0x1000, 1).unwrap();
        assert_eq!(a.shared_page_count(&b), 2, "store un-shares exactly one page");
        // A page mapped in only one image never counts as shared.
        b.map(0x9000, PAGE_SIZE, Perm::RW);
        assert_eq!(b.shared_page_count(&a), 2);
        // Unrelated images share nothing even when contents are equal.
        let mut c = Memory::new();
        c.map(0x1000, 3 * PAGE_SIZE, Perm::RW);
        assert_eq!(a.shared_page_count(&c), 0);
    }

    #[test]
    fn fingerprint_tracks_equality_like_content_hash() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.store_u64(0x1000, 8).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Writing the old value back restores the fingerprint: it depends
        // on contents, not store history.
        a.store_u64(0x1000, 7).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same contents, different permissions.
        a.map(0x1000, 0x1000, Perm::R);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Restoring the permissions restores both digests; `a`'s page is
        // dirty here, so its `content_hash` takes the uncached path.
        a.map(0x1000, 0x1000, Perm::RW);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// The same image rebuilt from scratch: every page mapped and filled
    /// in one go, with no store history and a cold digest cache.
    fn rebuilt(m: &Memory) -> Memory {
        let mut r = Memory::new();
        for (base, bytes) in m.pages() {
            r.map(base, PAGE_SIZE, m.perm_at(base).unwrap());
            r.poke_bytes(base, bytes);
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any history of maps (fresh and re-permissioned), stores,
        /// bit flips, clones and cache refreshes, `content_hash` equals
        /// `fingerprint` for the image and every fork, depends only on the
        /// image's contents, and moves on a one-byte change to any page.
        #[test]
        fn content_hash_is_the_incremental_fingerprint(
            ops in prop::collection::vec((0u8..5, 0..8 * PAGE_SIZE, any::<u64>()), 1..40),
        ) {
            let perms = [Perm::R, Perm::RW, Perm::RX];
            let mut m = Memory::new();
            let mut forks = Vec::new();
            for (kind, off, v) in ops {
                let addr = 0x10_000 + off;
                match kind {
                    0 => m.map(addr, 1 + v % (2 * PAGE_SIZE), perms[(v % 3) as usize]),
                    1 => {
                        let len = 1u64 << (v % 4);
                        let _ = m.store(addr & !(len - 1), len, v);
                    }
                    2 if m.is_mapped(addr) => m.flip_bit(addr, (v % 8) as u32),
                    3 => forks.push(m.clone()),
                    _ => {
                        m.fingerprint();
                    }
                }
                let hash = m.content_hash();
                prop_assert_eq!(hash, m.clone().fingerprint());
                prop_assert_eq!(hash, rebuilt(&m).content_hash());
            }
            for f in forks.iter_mut().chain([&mut m]) {
                let hash = f.content_hash();
                prop_assert_eq!(hash, f.fingerprint());
                prop_assert_eq!(hash, f.content_hash());
                let bases: Vec<u64> = f.pages().map(|(b, _)| b).collect();
                for (i, base) in bases.into_iter().enumerate() {
                    let mut g = f.clone();
                    g.flip_bit(base + (i as u64 * 977) % PAGE_SIZE, (i % 8) as u32);
                    prop_assert_ne!(g.content_hash(), hash, "page {:#x}", base);
                }
            }
        }
    }

    #[test]
    fn fresh_pages_start_clean_with_their_true_digest() {
        for perm in [Perm::R, Perm::RW, Perm::RX] {
            let page = Page { data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(), perm };
            assert_eq!(zero_page_digest(0x7000, perm), page_digest(0x7000, &page));
        }
        let mut m = Memory::new();
        m.map(0x1000, 3 * PAGE_SIZE, Perm::RW);
        assert!(m.dirty.is_empty(), "a zero page needs no hashing");
        assert_eq!(m.content_hash(), rebuilt(&m).clone().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_page_placement() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        let mut b = Memory::new();
        b.map(0x2000, 0x1000, Perm::RW);
        assert_ne!(a.fingerprint(), b.fingerprint(), "page base must key the digest");
        let mut c = Memory::new();
        c.map(0x1000, 0x2000, Perm::RW);
        assert_ne!(a.fingerprint(), c.fingerprint(), "page count must matter");
    }

    #[test]
    fn fingerprint_cache_survives_clone() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1008, 3).unwrap();
        let fresh = a.fingerprint();
        // Clone after the cache is warm, dirty one page, and check the
        // incremental recombination against a from-scratch image.
        let mut b = a.clone();
        b.store_u64(0x1008, 4).unwrap();
        b.store_u64(0x1008, 3).unwrap();
        assert_eq!(b.fingerprint(), fresh);
        assert_eq!(a.fingerprint(), fresh);
    }

    #[test]
    fn content_hash_tracks_equality() {
        let mut a = Memory::new();
        a.map(0x1000, 0x1000, Perm::RW);
        a.store_u64(0x1000, 7).unwrap();
        let b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        a.store_u64(0x1000, 8).unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
        a.store_u64(0x1000, 7).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        // Same contents, different permissions.
        a.map(0x1000, 0x1000, Perm::R);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn remap_updates_perm_keeps_contents() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW);
        m.store_u64(0x1000, 99).unwrap();
        m.map(0x1000, 0x1000, Perm::R);
        assert_eq!(m.load_u64(0x1000).unwrap(), 99);
        assert!(m.store_u64(0x1000, 1).is_err());
    }
}
