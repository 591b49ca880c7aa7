//! Region-based memory with RWX permissions.
//!
//! The permission model is the load-bearing part: Chimera's SMILE trampoline
//! guarantees that a partially executed trampoline jumps through the
//! unmodified `gp`, which points into a **non-executable** data region, so
//! the fetch raises [`MemFault`] with [`Access::Fetch`] — the deterministic
//! "segmentation fault" of the paper. The emulator enforces R/W/X on every
//! access, exactly like the MMU the paper's kernel relies on.

use chimera_obj::{Binary, Perms, DEFAULT_STACK_SIZE, STACK_TOP};
use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The workspace-global source of region generation values. Process-wide
/// (not per-[`Memory`]) so that two `Memory` instances can never hand out
/// the same `(start, generation)` fingerprint for different bytes — a
/// decode cache shared across view switches or differential runs must
/// never validate a block against a recycled stamp. Monotonic; the value
/// itself carries no meaning beyond ordering and uniqueness.
static GENERATION_SOURCE: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    GENERATION_SOURCE.fetch_add(1, Ordering::Relaxed) + 1
}

/// The access kind that faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Instruction fetch (needs X).
    Fetch,
    /// Data load (needs R).
    Load,
    /// Data store (needs W).
    Store,
}

/// A memory access fault: unmapped address or insufficient permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u64,
    /// What kind of access faulted.
    pub access: Access,
    /// Whether the address was mapped at all (false = unmapped).
    pub mapped: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} fault at {:#x} ({})",
            self.access,
            self.addr,
            if self.mapped {
                "permission denied"
            } else {
                "unmapped"
            }
        )
    }
}

impl std::error::Error for MemFault {}

/// The physical backing of a [`Region`]: bytes this memory owns
/// privately, or a copy-on-write reference into an immutable
/// [`MasterImage`]. Regions are the paging granule of this model: a
/// shared region privatizes wholesale on its first write.
#[derive(Debug, Clone)]
enum Backing {
    /// Private bytes; in-place writes, never reallocated by guest
    /// execution (every guest store is a fixed-length overwrite).
    Owned(Vec<u8>),
    /// Clean copy-on-write view of a master region. Any write (or raw
    /// mirror request) converts to `Owned` first.
    Shared(Arc<[u8]>),
}

/// One mapped region.
#[derive(Debug, Clone)]
pub struct Region {
    /// First mapped address.
    pub start: u64,
    /// Region permissions.
    pub perms: Perms,
    /// Backing bytes (private, or shared copy-on-write with a master
    /// image — see [`Region::bytes`]).
    backing: Backing,
    /// Bounding offset span `[lo, hi)` of every byte written since the
    /// region was mapped, instantiated, or last recycled. Slot recycling
    /// restores exactly this span from the master image — the rest of the
    /// region is untouched and needs no work.
    written: Option<(usize, usize)>,
    /// Diagnostic name (usually the originating section).
    pub name: String,
    /// Write generation. Starts from a fresh **workspace-unique** value at
    /// map time (drawn from a process-global monotonic counter, so not even
    /// two different [`Memory`] instances can repeat one) and is bumped
    /// whenever the region's bytes change while it is executable; the
    /// CPU's basic-block decode cache keys validity on
    /// `(start, generation)`, so a bump — or an unmap/remap at the same
    /// address — invalidates every cached block decoded from this region.
    pub generation: u64,
}

impl Region {
    /// The region's bytes (read-only; writes go through [`Memory`]'s
    /// accessors so copy-on-write and generation bookkeeping hold).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Owned(v) => v,
            Backing::Shared(a) => a,
        }
    }

    /// The mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the region is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the last mapped address.
    pub fn end(&self) -> u64 {
        self.start + self.len() as u64
    }

    /// Whether the backing is still shared (clean copy-on-write) with a
    /// master image.
    pub fn is_shared(&self) -> bool {
        matches!(self.backing, Backing::Shared(_))
    }

    /// Converts a shared backing into a private copy; no-op when already
    /// owned. Guest-visible bytes are unchanged.
    fn privatize(&mut self) {
        if let Backing::Shared(a) = &self.backing {
            let owned = a.to_vec();
            self.backing = Backing::Owned(owned);
        }
    }

    /// Widens the written span to cover `[lo, hi)`.
    #[inline]
    fn mark_written(&mut self, lo: usize, hi: usize) {
        self.written = Some(match self.written {
            Some((a, b)) => (a.min(lo), b.max(hi)),
            None => (lo, hi),
        });
    }

    /// Mutable view of `[lo, hi)`: privatizes a shared backing and records
    /// the span as written. Every byte-mutation path funnels through here.
    #[inline]
    fn bytes_mut(&mut self, lo: usize, hi: usize) -> &mut [u8] {
        self.privatize();
        self.mark_written(lo, hi);
        match &mut self.backing {
            Backing::Owned(v) => &mut v[lo..hi],
            Backing::Shared(_) => unreachable!("privatized above"),
        }
    }
}

/// A per-access-kind "last region" translation hint held by the CPU (one
/// each for loads, stores and fetches — see [`AccessHints`]).
///
/// The hint is only ever an *index guess*: the fast path re-validates
/// bounds and permissions against the live region on every access, so a
/// stale hint can never return wrong data or skip a fault — it just falls
/// back to the full region search (which refreshes the hint). No epoch or
/// generation is needed for correctness; the store fast path additionally
/// restricts itself to writable non-executable regions so the
/// self-modifying-code generation bookkeeping in [`Memory::write`] is never
/// bypassed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionHint(u32);

/// The three per-CPU translation hints, one per access kind, so a hot
/// loop's loads, stores and fetches each stay pinned to their own region.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessHints {
    /// Last region that satisfied a data load.
    pub load: RegionHint,
    /// Last (non-executable) region that satisfied a data store.
    pub store: RegionHint,
    /// Last region that satisfied an instruction fetch.
    pub fetch: RegionHint,
}

/// An immutable master memory image: the template pooled process slots
/// instantiate from. Region bytes live behind `Arc`s, so
/// [`Memory::instantiate_from`] shares every clean region with the master
/// (copy-on-write) instead of copying — instantiation cost is O(regions),
/// not O(bytes) — and slot recycling restores only the spans a run
/// actually dirtied.
#[derive(Debug)]
pub struct MasterImage {
    regions: Vec<MasterRegion>,
    entry: u64,
    gp: u64,
}

#[derive(Debug, Clone)]
struct MasterRegion {
    start: u64,
    perms: Perms,
    bytes: Arc<[u8]>,
    name: String,
}

impl MasterImage {
    /// Builds a master image from a binary: every section becomes a
    /// region, plus a zeroed stack of `stack_size` bytes ending at
    /// [`STACK_TOP`] (mirroring [`Memory::load_with_stack`]).
    pub fn new(binary: &Binary, stack_size: u64) -> MasterImage {
        assert!(stack_size > 0, "stack must be at least one byte");
        let mut img = MasterImage {
            regions: Vec::with_capacity(binary.sections.len() + 1),
            entry: binary.entry,
            gp: binary.gp,
        };
        for s in &binary.sections {
            img.push_region(s.addr, s.data.clone(), s.perms, &s.name);
        }
        img.push_region(
            STACK_TOP - stack_size,
            vec![0; stack_size as usize],
            Perms::RW,
            "[stack]",
        );
        img
    }

    /// Adds an extra region to the template (e.g. the kernel's `[lazy]`
    /// rewrite slack). Panics on overlap, like [`Memory::map_bytes`].
    pub fn push_region(&mut self, start: u64, bytes: Vec<u8>, perms: Perms, name: &str) {
        let end = start + bytes.len() as u64;
        for r in &self.regions {
            let r_end = r.start + r.bytes.len() as u64;
            assert!(
                end <= r.start || start >= r_end,
                "master region {name} [{start:#x},{end:#x}) overlaps {}",
                r.name
            );
        }
        self.regions.push(MasterRegion {
            start,
            perms,
            bytes: bytes.into(),
            name: name.to_string(),
        });
        self.regions.sort_by_key(|r| r.start);
    }

    /// The entry point instantiated CPUs boot at.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The global-pointer value for the psABI environment.
    pub fn gp(&self) -> u64 {
        self.gp
    }

    /// Total mapped bytes across all template regions.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes.len() as u64).sum()
    }
}

/// Region-based memory.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    regions: Vec<Region>,
    /// Incremented whenever executable bytes change (lazy rewriting) or the
    /// region layout changes; CPUs use it to invalidate decoded-instruction
    /// caches cheaply ("anything executable may have changed").
    code_generation: u64,
    /// Index of the region that satisfied the last access (locality cache).
    last_hit: usize,
    /// The master image this memory was instantiated from, if pooled;
    /// recycling restores dirtied spans from it.
    master: Option<Arc<MasterImage>>,
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Maps a new zero-filled region. Panics on overlap (programming error
    /// in the loader, not a runtime condition).
    pub fn map(&mut self, start: u64, size: u64, perms: Perms, name: &str) {
        self.map_bytes(start, vec![0; size as usize], perms, name)
    }

    /// Maps a new region with the given contents.
    pub fn map_bytes(&mut self, start: u64, bytes: Vec<u8>, perms: Perms, name: &str) {
        let end = start + bytes.len() as u64;
        for r in &self.regions {
            assert!(
                end <= r.start || start >= r.end(),
                "region {name} [{start:#x},{end:#x}) overlaps {}",
                r.name
            );
        }
        self.regions.push(Region {
            start,
            perms,
            backing: Backing::Owned(bytes),
            written: None,
            name: name.to_string(),
            generation: next_generation(),
        });
        self.regions.sort_by_key(|r| r.start);
        self.last_hit = 0;
        // Mapping can place new executable bytes at previously cached
        // addresses (view switching); force decode-cache revalidation.
        self.code_generation += 1;
    }

    /// Builds memory from a binary: every section becomes a region, plus a
    /// stack region under [`STACK_TOP`] ([`DEFAULT_STACK_SIZE`] bytes; use
    /// [`Memory::load_with_stack`] for workloads needing deeper stacks).
    pub fn load(binary: &Binary) -> Memory {
        Memory::load_with_stack(binary, DEFAULT_STACK_SIZE)
    }

    /// [`Memory::load`] with an explicit stack size. The stack always ends
    /// at [`STACK_TOP`], so the boot `sp` is identical whatever the size;
    /// only the lowest mapped stack address moves. Stacks are committed
    /// eagerly, which at hundreds of guests dominates the runtime's entire
    /// footprint (256 harts × 8 MiB = 2 GiB of zeroed, re-faulted pages) —
    /// hence the small [`DEFAULT_STACK_SIZE`] everywhere and
    /// [`Memory::instantiate_from`] for pooled spawns.
    pub fn load_with_stack(binary: &Binary, stack_size: u64) -> Memory {
        assert!(stack_size > 0, "stack must be at least one byte");
        let mut m = Memory::new();
        for s in &binary.sections {
            m.map_bytes(s.addr, s.data.clone(), s.perms, &s.name);
        }
        m.map(STACK_TOP - stack_size, stack_size, Perms::RW, "[stack]");
        m
    }

    /// Instantiates a pooled memory from a master image: every region is
    /// a clean copy-on-write view of the master's bytes, so the cost is
    /// O(regions) rather than O(bytes). Writes privatize the touched
    /// region; [`Memory::recycle`] later restores exactly the dirtied
    /// spans. Every region draws a fresh generation, as
    /// [`Memory::map_bytes`] does.
    pub fn instantiate_from(master: &Arc<MasterImage>) -> Memory {
        let mut m = Memory {
            regions: Vec::with_capacity(master.regions.len()),
            code_generation: 0,
            last_hit: 0,
            master: Some(master.clone()),
        };
        for src in &master.regions {
            m.regions.push(Region {
                start: src.start,
                perms: src.perms,
                backing: Backing::Shared(src.bytes.clone()),
                written: None,
                name: src.name.clone(),
                generation: next_generation(),
            });
            m.code_generation += 1;
        }
        m
    }

    /// The master image this memory was instantiated from, if pooled.
    pub fn master(&self) -> Option<&Arc<MasterImage>> {
        self.master.as_ref()
    }

    /// Bytes of privately owned backing (copy-on-write regions that were
    /// never written contribute nothing). For a freshly instantiated slot
    /// this is 0; [`Memory::load`] commits everything eagerly.
    pub fn resident_bytes(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| match &r.backing {
                Backing::Owned(v) => v.len() as u64,
                Backing::Shared(_) => 0,
            })
            .sum()
    }

    /// Total mapped bytes across all regions (owned or shared).
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.len() as u64).sum()
    }

    /// Restores a pooled memory to its master image so the slot can be
    /// handed to the next spawn: only the spans a run actually wrote are
    /// copied back (the written-span log makes "zeroing" proportional to
    /// dirt, not to memory size), and restored regions draw fresh
    /// generations (their bytes changed, so no decode cache may validate
    /// stale blocks). Returns the number of restored bytes, or `None` when
    /// the memory is not recyclable — not pooled, or its region layout
    /// diverged from the master (map/unmap happened) — in which case the
    /// caller discards it.
    pub fn recycle(&mut self) -> Option<u64> {
        let master = self.master.clone()?;
        if self.regions.len() != master.regions.len() {
            return None;
        }
        for (r, m) in self.regions.iter().zip(master.regions.iter()) {
            if r.start != m.start
                || r.len() != m.bytes.len()
                || r.perms != m.perms
                || r.name != m.name
            {
                return None;
            }
        }
        let mut restored = 0u64;
        for (r, m) in self.regions.iter_mut().zip(master.regions.iter()) {
            let Some((lo, hi)) = r.written.take() else {
                // Never written: shared backings are still bit-identical to
                // the master, and privatized-but-unwritten backings (raw
                // load mirrors) were only read. Nothing to restore.
                continue;
            };
            match &mut r.backing {
                Backing::Owned(v) => v[lo..hi].copy_from_slice(&m.bytes[lo..hi]),
                Backing::Shared(_) => unreachable!("written implies privatized"),
            }
            restored += (hi - lo) as u64;
            // The restored bytes differ from what this generation was
            // stamped for; draw a fresh workspace-unique one.
            r.generation = next_generation();
        }
        self.code_generation += 1;
        self.last_hit = 0;
        Some(restored)
    }

    /// The regions, sorted by address.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The current code generation (bumped by [`Memory::poke_code`]).
    pub fn code_generation(&self) -> u64 {
        self.code_generation
    }

    /// Raw view of the region containing `addr`, for the JIT tier's
    /// in-trace fast-path mirrors: `(backing pointer, start, len)`. Loads
    /// mirror any readable region; stores only writable *non-executable*
    /// regions, so the self-modifying-code generation bookkeeping in
    /// [`Memory::write`] can never be bypassed. The pointer stays valid
    /// until the region list changes (nothing reachable from guest
    /// execution does that) and is re-requested on every mirror refresh.
    ///
    /// Mirrors cache the pointer across guest instructions, so the backing
    /// is privatized here: a later copy-on-write privatization would
    /// reallocate a shared backing out from under the pointer, while an
    /// owned backing never moves (every guest store is an in-place
    /// fixed-length overwrite). Store mirrors additionally mark the whole
    /// region written — raw-pointer stores bypass the span tracking, so
    /// recycling must be conservative about them.
    pub(crate) fn region_raw(&mut self, addr: u64, store: bool) -> Option<(*mut u8, u64, usize)> {
        let idx = self.region_idx(addr)?;
        let r = &mut self.regions[idx];
        let ok = if store {
            r.perms.w && !r.perms.x
        } else {
            r.perms.r
        };
        if !ok {
            return None;
        }
        r.privatize();
        if store {
            let len = r.len();
            r.mark_written(0, len);
        }
        match &mut r.backing {
            Backing::Owned(v) => Some((v.as_mut_ptr(), r.start, v.len())),
            Backing::Shared(_) => unreachable!("privatized above"),
        }
    }

    fn region_idx(&mut self, addr: u64) -> Option<usize> {
        // An empty memory maps nothing: `get` is `None` and so is the result.
        let r = self
            .regions
            .get(self.last_hit.min(self.regions.len().saturating_sub(1)))?;
        if addr >= r.start && addr < r.end() {
            return Some(self.last_hit);
        }
        let idx = self
            .regions
            .partition_point(|r| r.end() <= addr)
            .min(self.regions.len().saturating_sub(1));
        let r = self.regions.get(idx)?;
        if addr >= r.start && addr < r.end() {
            self.last_hit = idx;
            Some(idx)
        } else {
            None
        }
    }

    /// Resolves an access to `(region index, offset)` after the permission
    /// and bounds checks, so callers that mutate (e.g. [`Memory::write`])
    /// can also update the region's generation bookkeeping.
    fn resolve(
        &mut self,
        addr: u64,
        len: usize,
        access: Access,
    ) -> Result<(usize, usize), MemFault> {
        let Some(idx) = self.region_idx(addr) else {
            return Err(MemFault {
                addr,
                access,
                mapped: false,
            });
        };
        let r = &self.regions[idx];
        let ok = match access {
            Access::Fetch => r.perms.x,
            Access::Load => r.perms.r,
            Access::Store => r.perms.w,
        };
        if !ok {
            return Err(MemFault {
                addr,
                access,
                mapped: true,
            });
        }
        let off = (addr - r.start) as usize;
        if off + len > r.len() {
            // Access runs off the end of the region.
            return Err(MemFault {
                addr: r.end(),
                access,
                mapped: false,
            });
        }
        Ok((idx, off))
    }

    /// Read-only access: never privatizes a copy-on-write backing.
    fn access(&mut self, addr: u64, len: usize, access: Access) -> Result<&[u8], MemFault> {
        let (idx, off) = self.resolve(addr, len, access)?;
        Ok(&self.regions[idx].bytes()[off..off + len])
    }

    /// Loads `N` bytes with R permission.
    pub fn read<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], MemFault> {
        let b = self.access(addr, N, Access::Load)?;
        Ok(<[u8; N]>::try_from(b).expect("length checked"))
    }

    /// Stores bytes with W permission. A store into an *executable* region
    /// (self-modifying code on a writable+executable mapping) bumps both
    /// that region's generation and the global code generation, so decode
    /// caches invalidate before stale instructions could run.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let (idx, off) = self.resolve(addr, bytes.len(), Access::Store)?;
        let r = &mut self.regions[idx];
        r.bytes_mut(off, off + bytes.len()).copy_from_slice(bytes);
        if r.perms.x {
            r.generation = next_generation();
            self.code_generation += 1;
        }
        Ok(())
    }

    /// Loads `N` bytes with R permission through a [`RegionHint`].
    ///
    /// Fast path: the hinted region is bounds- and permission-checked
    /// directly (one compare each plus pointer arithmetic). Any failure —
    /// stale hint, region boundary, missing permission — falls back to
    /// [`Memory::read`]'s full resolution, which refreshes the hint, so
    /// results and faults are identical to the unhinted accessor.
    #[inline]
    pub fn read_hinted<const N: usize>(
        &mut self,
        hint: &mut RegionHint,
        addr: u64,
    ) -> Result<[u8; N], MemFault> {
        if let Some(r) = self.regions.get(hint.0 as usize) {
            if r.perms.r && addr >= r.start {
                let off = (addr - r.start) as usize;
                if let Some(b) = r.bytes().get(off..off.wrapping_add(N)) {
                    return Ok(<[u8; N]>::try_from(b).expect("length checked"));
                }
            }
        }
        let (idx, off) = self.resolve(addr, N, Access::Load)?;
        hint.0 = idx as u32;
        let b = &self.regions[idx].bytes()[off..off + N];
        Ok(<[u8; N]>::try_from(b).expect("length checked"))
    }

    /// Stores bytes with W permission through a [`RegionHint`].
    ///
    /// The fast path only engages for writable **non-executable** regions:
    /// stores into W+X mappings are self-modifying code and must go through
    /// [`Memory::write`]'s generation bookkeeping (the slow path below),
    /// which therefore never updates the hint with an executable region.
    #[inline]
    pub fn write_hinted(
        &mut self,
        hint: &mut RegionHint,
        addr: u64,
        bytes: &[u8],
    ) -> Result<(), MemFault> {
        if let Some(r) = self.regions.get_mut(hint.0 as usize) {
            if r.perms.w && !r.perms.x && addr >= r.start {
                let off = (addr - r.start) as usize;
                let end = off.wrapping_add(bytes.len());
                if off <= end && end <= r.len() {
                    r.bytes_mut(off, end).copy_from_slice(bytes);
                    return Ok(());
                }
            }
        }
        let (idx, off) = self.resolve(addr, bytes.len(), Access::Store)?;
        let r = &mut self.regions[idx];
        r.bytes_mut(off, off + bytes.len()).copy_from_slice(bytes);
        if r.perms.x {
            r.generation = next_generation();
            self.code_generation += 1;
        } else {
            hint.0 = idx as u32;
        }
        Ok(())
    }

    /// Fetches a 16-bit parcel with X permission through a [`RegionHint`].
    ///
    /// Forced inline: it runs once or twice per instruction in
    /// `ExecMode::Reference` and per instruction of every block build, and
    /// with a plain `#[inline]` the compiler kept it out of line, which
    /// made the reference interpreter 16–19 % slower.
    #[inline(always)]
    pub fn fetch_u16_hinted(&mut self, hint: &mut RegionHint, addr: u64) -> Result<u16, MemFault> {
        if let Some(r) = self.regions.get(hint.0 as usize) {
            if r.perms.x && addr >= r.start {
                let off = (addr - r.start) as usize;
                if let Some(b) = r.bytes().get(off..off.wrapping_add(2)) {
                    return Ok(u16::from_le_bytes([b[0], b[1]]));
                }
            }
        }
        let (idx, off) = self.resolve(addr, 2, Access::Fetch)?;
        hint.0 = idx as u32;
        let b = &self.regions[idx].bytes()[off..off + 2];
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Fetches a 16-bit parcel with X permission.
    pub fn fetch_u16(&mut self, addr: u64) -> Result<u16, MemFault> {
        let b = self.access(addr, 2, Access::Fetch)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads bytes regardless of permissions (debugger/kernel view).
    pub fn peek(&mut self, addr: u64, len: usize) -> Option<Vec<u8>> {
        let idx = self.region_idx(addr)?;
        let r = &self.regions[idx];
        let off = (addr - r.start) as usize;
        r.bytes()
            .get(off..off.checked_add(len)?)
            .map(<[u8]>::to_vec)
    }

    /// Writes code bytes regardless of permissions and bumps the code
    /// generation. This is the kernel's channel for lazy rewriting
    /// (patching an unrecognized instruction at fault time, §4.3).
    pub fn poke_code(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let Some(idx) = self.region_idx(addr) else {
            return Err(MemFault {
                addr,
                access: Access::Store,
                mapped: false,
            });
        };
        let r = &mut self.regions[idx];
        let off = (addr - r.start) as usize;
        if off + bytes.len() > r.len() {
            return Err(MemFault {
                addr: r.end(),
                access: Access::Store,
                mapped: false,
            });
        }
        r.bytes_mut(off, off + bytes.len()).copy_from_slice(bytes);
        r.generation = next_generation();
        self.code_generation += 1;
        Ok(())
    }

    /// Unmaps the region with the given name; `true` if found. Used by the
    /// kernel's MMView switching (per-view code sections come and go while
    /// shared data regions stay). The address range may be remapped with
    /// different code, but a remap draws a new workspace-unique
    /// generation, so a block cached against the old region can never
    /// validate against the remapped one.
    pub fn unmap(&mut self, name: &str) -> bool {
        let before = self.regions.len();
        self.regions.retain(|r| r.name != name);
        self.last_hit = 0;
        let removed = self.regions.len() != before;
        if removed {
            // Force decode-cache revalidation.
            self.code_generation += 1;
        }
        removed
    }

    /// The region with the given name, if mapped.
    pub fn region(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// The decode-cache validity token for the *executable* region holding
    /// `addr`: `(region start, region generation)`. `None` when `addr` is
    /// unmapped or not executable (the caller falls back to a plain fetch,
    /// which raises the architecturally correct fault). A cached block is
    /// valid iff the fingerprint it was built under still matches.
    pub fn code_fingerprint(&mut self, addr: u64) -> Option<(u64, u64)> {
        let idx = self.region_idx(addr)?;
        let r = &self.regions[idx];
        r.perms.x.then_some((r.start, r.generation))
    }

    /// The executable region holding `addr`, resolved once for a whole
    /// block build: its [`Memory::code_fingerprint`] and its bytes from
    /// `addr` to the region end. `None` when `addr` is unmapped or not
    /// executable.
    pub(crate) fn code_from(&mut self, addr: u64) -> Option<((u64, u64), &[u8])> {
        let idx = self.region_idx(addr)?;
        let r = &self.regions[idx];
        let code = &r.bytes()[(addr - r.start) as usize..];
        r.perms.x.then_some(((r.start, r.generation), code))
    }

    /// Convenience typed accessors.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, MemFault> {
        Ok(u64::from_le_bytes(self.read::<8>(addr)?))
    }

    /// Reads a u32 with R permission.
    pub fn read_u32(&mut self, addr: u64) -> Result<u32, MemFault> {
        Ok(u32::from_le_bytes(self.read::<4>(addr)?))
    }

    /// Writes a u64 with W permission.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map_bytes(0x1000, vec![1, 2, 3, 4, 5, 6, 7, 8], Perms::RX, ".text");
        m.map(0x2000, 0x100, Perms::RW, ".data");
        m.map(0x3000, 0x100, Perms::R, ".rodata");
        m
    }

    #[test]
    fn fetch_requires_x() {
        let mut m = mem();
        assert_eq!(m.fetch_u16(0x1000).unwrap(), 0x0201);
        let e = m.fetch_u16(0x2000).unwrap_err();
        assert_eq!(e.access, Access::Fetch);
        assert!(e.mapped);
    }

    #[test]
    fn store_requires_w() {
        let mut m = mem();
        m.write(0x2000, &[9]).unwrap();
        assert!(m.write(0x3000, &[9]).is_err());
        assert!(m.write(0x1000, &[9]).is_err());
    }

    #[test]
    fn unmapped_reports_unmapped() {
        let mut m = mem();
        let e = m.read::<4>(0x9000).unwrap_err();
        assert!(!e.mapped);
    }

    #[test]
    fn empty_memory_reports_unmapped() {
        let mut m = Memory::new();
        let fault = MemFault {
            addr: 0x1000,
            access: Access::Load,
            mapped: false,
        };
        assert_eq!(m.read::<8>(0x1000), Err(fault));
        assert_eq!(m.peek(0x1000, 1), None);
        assert_eq!(m.code_fingerprint(0x1000), None);
    }

    #[test]
    fn peek_length_overflow_is_none() {
        let mut m = mem();
        assert_eq!(m.peek(0x2001, usize::MAX), None);
        assert_eq!(m.peek(0x2001, 2), Some(vec![0, 0]));
    }

    #[test]
    fn access_cannot_cross_region_end() {
        let mut m = mem();
        assert!(m.read::<4>(0x1006).is_err());
    }

    #[test]
    fn poke_code_bumps_generation() {
        let mut m = mem();
        let g0 = m.code_generation();
        let fp0 = m.code_fingerprint(0x1000).unwrap();
        m.poke_code(0x1000, &[0xaa, 0xbb]).unwrap();
        assert!(m.code_generation() > g0);
        assert_ne!(m.code_fingerprint(0x1000).unwrap(), fp0);
        assert_eq!(m.fetch_u16(0x1000).unwrap(), 0xbbaa);
    }

    #[test]
    fn store_to_executable_region_bumps_generations() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100, Perms::RWX, ".wx");
        m.map(0x2000, 0x100, Perms::RW, ".data");
        let g0 = m.code_generation();
        let fp0 = m.code_fingerprint(0x1000).unwrap();
        // A store to plain RW data must NOT bump the code generation.
        m.write(0x2000, &[1, 2, 3]).unwrap();
        assert_eq!(m.code_generation(), g0);
        // A store into the RWX region must bump both.
        m.write(0x1000, &[4, 5]).unwrap();
        assert!(m.code_generation() > g0);
        assert_ne!(m.code_fingerprint(0x1000).unwrap(), fp0);
    }

    #[test]
    fn fingerprint_is_none_for_non_executable_or_unmapped() {
        let mut m = mem();
        assert!(m.code_fingerprint(0x1000).is_some()); // RX .text
        assert!(m.code_fingerprint(0x2000).is_none()); // RW .data
        assert!(m.code_fingerprint(0x9000).is_none()); // unmapped
    }

    #[test]
    fn code_from_is_the_fingerprint_and_the_bytes_to_the_region_end() {
        let mut m = mem();
        let fp = m.code_fingerprint(0x1003);
        let (got_fp, code) = m.code_from(0x1003).unwrap();
        assert_eq!((Some(got_fp), code), (fp, &[4, 5, 6, 7, 8][..]));
        assert!(m.code_from(0x1008).is_none()); // one past the end
        assert!(m.code_from(0x2000).is_none()); // RW .data
        assert!(m.code_from(0x9000).is_none()); // unmapped
    }

    #[test]
    fn remap_at_same_address_changes_fingerprint() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100, Perms::RX, ".text");
        let fp0 = m.code_fingerprint(0x1000).unwrap();
        let g0 = m.code_generation();
        assert!(m.unmap(".text"));
        assert!(m.code_generation() > g0);
        m.map(0x1000, 0x100, Perms::RX, ".text2");
        assert_ne!(m.code_fingerprint(0x1000).unwrap(), fp0);
    }

    #[test]
    fn hinted_accessors_match_unhinted_across_regions_and_faults() {
        let mut m = Memory::new();
        m.map_bytes(0x1000, (0..=255).collect(), Perms::RX, ".text");
        m.map(0x2000, 0x100, Perms::RW, ".data");
        m.map(0x3000, 0x100, Perms::R, ".rodata");
        let mut h = AccessHints::default();
        // Ping-pong across regions: every access must agree with the
        // unhinted path no matter how stale the hint is.
        for addr in [0x1000u64, 0x3000, 0x1004, 0x2000, 0x30f0, 0x1040] {
            let hinted = m.read_hinted::<4>(&mut h.load, addr);
            let plain = m.read::<4>(addr);
            assert_eq!(hinted, plain, "load at {addr:#x}");
        }
        // Faults are identical too: unmapped, permission, off-end.
        for addr in [0x9000u64, 0x30fe, 0x20fd] {
            assert_eq!(
                m.read_hinted::<4>(&mut h.load, addr).unwrap_err(),
                m.read::<4>(addr).unwrap_err(),
                "load fault at {addr:#x}"
            );
        }
        assert_eq!(
            m.write_hinted(&mut h.store, 0x3000, &[1]).unwrap_err(),
            m.write(0x3000, &[1]).unwrap_err()
        );
        // Hinted stores land and hinted fetches read the stored bytes back.
        m.write_hinted(&mut h.store, 0x2010, &[7, 8]).unwrap();
        assert_eq!(m.read::<2>(0x2010).unwrap(), [7, 8]);
        assert_eq!(
            m.fetch_u16_hinted(&mut h.fetch, 0x1002).unwrap(),
            m.fetch_u16(0x1002).unwrap()
        );
        assert_eq!(
            m.fetch_u16_hinted(&mut h.fetch, 0x2000).unwrap_err(),
            m.fetch_u16(0x2000).unwrap_err()
        );
    }

    #[test]
    fn hinted_store_to_wx_region_still_bumps_generations() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100, Perms::RWX, ".wx");
        m.map(0x2000, 0x100, Perms::RW, ".data");
        let mut h = AccessHints::default();
        // Warm the hint on the W+X region's index via a plain-data store
        // first — the hint must never be *used* for the W+X region.
        m.write_hinted(&mut h.store, 0x2000, &[1]).unwrap();
        let g0 = m.code_generation();
        let fp0 = m.code_fingerprint(0x1000).unwrap();
        m.write_hinted(&mut h.store, 0x1000, &[0xaa]).unwrap();
        assert!(
            m.code_generation() > g0,
            "SMC bookkeeping must not be skipped"
        );
        assert_ne!(m.code_fingerprint(0x1000).unwrap(), fp0);
        // And repeated stores keep bumping (the hint never pins W+X).
        let g1 = m.code_generation();
        m.write_hinted(&mut h.store, 0x1001, &[0xbb]).unwrap();
        assert!(m.code_generation() > g1);
    }

    #[test]
    fn generations_are_workspace_unique_across_instances() {
        // Two independent memories mapping different code at the same
        // address must hand out different fingerprints: a decode cache
        // shared across them (differential runs, view switches through
        // fresh Memory instances) must never validate a stale block.
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.map_bytes(0x1000, vec![1, 2, 3, 4], Perms::RX, ".text");
        b.map_bytes(0x1000, vec![5, 6, 7, 8], Perms::RX, ".text");
        assert_ne!(
            a.code_fingerprint(0x1000).unwrap(),
            b.code_fingerprint(0x1000).unwrap()
        );
    }

    #[test]
    fn load_binary_maps_stack() {
        use chimera_isa::ExtSet;
        use chimera_obj::{Section, TEXT_BASE};
        let bin = Binary {
            sections: vec![
                Section {
                    name: ".text".into(),
                    addr: TEXT_BASE,
                    data: vec![0x13, 0, 0, 0],
                    perms: Perms::RX,
                },
                Section {
                    name: ".data".into(),
                    addr: 0x2_0000,
                    data: vec![0; 0x1000],
                    perms: Perms::RW,
                },
            ],
            symbols: vec![],
            entry: TEXT_BASE,
            gp: 0x2_0800,
            profile: ExtSet::RV64GC,
        };
        let mut m = Memory::load(&bin);
        // Stack is writable.
        m.write_u64(STACK_TOP - 8, 42).unwrap();
        assert_eq!(m.read_u64(STACK_TOP - 8).unwrap(), 42);
        // Data is not executable: the SMILE precondition.
        assert!(m.fetch_u16(bin.gp).is_err());
        // The default stack is the small one; resident bytes stay bounded.
        assert_eq!(
            m.mapped_bytes(),
            4 + 0x1000 + DEFAULT_STACK_SIZE,
            "default load commits the 256 KiB stack, not 8 MiB"
        );
    }

    fn small_binary() -> Binary {
        use chimera_isa::ExtSet;
        use chimera_obj::{Section, TEXT_BASE};
        Binary {
            sections: vec![
                Section {
                    name: ".text".into(),
                    addr: TEXT_BASE,
                    data: vec![0x13, 0, 0, 0, 0x13, 0, 0, 0],
                    perms: Perms::RX,
                },
                Section {
                    name: ".data".into(),
                    addr: 0x2_0000,
                    data: vec![7; 0x100],
                    perms: Perms::RW,
                },
            ],
            symbols: vec![],
            entry: TEXT_BASE,
            gp: 0x2_0080,
            profile: ExtSet::RV64GC,
        }
    }

    #[test]
    fn instantiate_shares_then_writes_privatize() {
        let bin = small_binary();
        let master = Arc::new(MasterImage::new(&bin, 0x1000));
        let mut m = Memory::instantiate_from(&master);
        // Clean instantiation owns nothing: all regions are shared views.
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.mapped_bytes(), master.mapped_bytes());
        assert!(m.regions().iter().all(Region::is_shared));
        // Reads (even fetches and peeks) never privatize.
        assert_eq!(m.read::<4>(0x2_0000).unwrap(), [7; 4]);
        m.fetch_u16(bin.entry).unwrap();
        m.peek(STACK_TOP - 8, 8).unwrap();
        assert_eq!(m.resident_bytes(), 0);
        // A write privatizes exactly the touched region.
        m.write_u64(STACK_TOP - 8, 42).unwrap();
        assert_eq!(m.resident_bytes(), 0x1000);
        assert_eq!(m.read_u64(STACK_TOP - 8).unwrap(), 42);
        // The master's bytes are untouched: a sibling instantiation still
        // reads zeros.
        let mut sib = Memory::instantiate_from(&master);
        assert_eq!(sib.read_u64(STACK_TOP - 8).unwrap(), 0);
    }

    #[test]
    fn recycle_restores_only_dirtied_spans() {
        let bin = small_binary();
        let master = Arc::new(MasterImage::new(&bin, 0x1000));
        let mut m = Memory::instantiate_from(&master);
        m.write_u64(STACK_TOP - 8, 42).unwrap();
        m.write(0x2_0010, &[9; 8]).unwrap();
        let restored = m.recycle().expect("layout unchanged, recyclable");
        // Exactly the two written spans were restored, nothing else.
        assert_eq!(restored, 16);
        assert_eq!(m.read_u64(STACK_TOP - 8).unwrap(), 0);
        assert_eq!(m.read::<8>(0x2_0010).unwrap(), [7; 8]);
        // Privatized allocations stay warm for the next tenant.
        assert_eq!(m.resident_bytes(), 0x1000 + 0x100);
        // A second recycle with no writes restores nothing.
        assert_eq!(m.recycle(), Some(0));
    }

    #[test]
    fn recycle_draws_fresh_generations_for_poked_code() {
        let bin = small_binary();
        let master = Arc::new(MasterImage::new(&bin, 0x1000));
        let mut m = Memory::instantiate_from(&master);
        let fp0 = m.code_fingerprint(bin.entry).unwrap();
        let g0 = m.code_generation();
        m.poke_code(bin.entry, &[0xaa, 0xbb]).unwrap();
        let fp1 = m.code_fingerprint(bin.entry).unwrap();
        assert_ne!(fp0, fp1);
        m.recycle().unwrap();
        // Bytes are back to the master's, but under a generation no cache
        // has ever validated a block against.
        assert_eq!(m.fetch_u16(bin.entry).unwrap(), 0x0013);
        let fp2 = m.code_fingerprint(bin.entry).unwrap();
        assert_ne!(fp2, fp0);
        assert_ne!(fp2, fp1);
        assert!(m.code_generation() > g0);
    }

    #[test]
    fn recycle_refuses_layout_divergence() {
        let bin = small_binary();
        let master = Arc::new(MasterImage::new(&bin, 0x1000));
        // Unmapping a region makes the slot non-recyclable.
        let mut m = Memory::instantiate_from(&master);
        assert!(m.unmap(".data"));
        assert_eq!(m.recycle(), None);
        // So does mapping an extra one.
        let mut m = Memory::instantiate_from(&master);
        m.map(0x9_0000, 0x100, Perms::RW, ".extra");
        assert_eq!(m.recycle(), None);
        // And a plain loaded memory was never pooled at all.
        let mut m = Memory::load(&bin);
        assert_eq!(m.recycle(), None);
    }

    #[test]
    fn instantiated_memory_observes_like_eager_load() {
        // Same program bytes through both construction paths: every
        // accessor agrees, including faults.
        let bin = small_binary();
        let master = Arc::new(MasterImage::new(&bin, 0x1000));
        let mut pooled = Memory::instantiate_from(&master);
        let mut eager = Memory::load_with_stack(&bin, 0x1000);
        for addr in [bin.entry, 0x2_0000, 0x2_00ff, STACK_TOP - 8] {
            assert_eq!(pooled.peek(addr, 1), eager.peek(addr, 1), "{addr:#x}");
        }
        assert_eq!(
            pooled.read::<4>(0x9000).unwrap_err(),
            eager.read::<4>(0x9000).unwrap_err()
        );
        assert_eq!(
            pooled.write(bin.entry, &[1]).unwrap_err(),
            eager.write(bin.entry, &[1]).unwrap_err()
        );
        assert_eq!(pooled.mapped_bytes(), eager.mapped_bytes());
    }
}
