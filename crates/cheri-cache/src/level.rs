//! One cache level: its geometry/timing specification ([`LevelSpec`]) and
//! the tag/LRU state machine ([`Level`]) the hierarchy drives.

use crate::hierarchy::CacheConfigError;

/// Geometry and timing of one cache level.
///
/// `bytes_per_cycle` is the bandwidth of the edge this level *serves*:
/// for L1 that is the CPU load/store port (each access charges
/// `latency_cycles + ceil(bytes / bytes_per_cycle)`), for L2 it is the
/// L1↔L2 edge over which L1 lines fill and write back.
///
/// `mshrs` and `store_buffer` configure the transaction model for the
/// *misses of this level*: `mshrs` is how many of this level's outstanding
/// misses may overlap (1 = the legacy fully-serialized model), and
/// `store_buffer` is how many of this level's dirty write-backs may drain
/// off the critical path (0 = write-backs charge synchronously, the
/// legacy model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelSpec {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Fixed cycles per transfer served by this level.
    pub latency_cycles: u64,
    /// Bandwidth of this level's service port, in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Miss status holding registers: outstanding misses of this level
    /// that may overlap. 1 serializes every miss (the pre-transaction
    /// model, bit-identical); N lets a burst of independent misses cost
    /// `latency + N·transfer` instead of `N·(latency + transfer)`.
    pub mshrs: u64,
    /// Write-back buffer entries: dirty write-backs of this level that
    /// drain off the critical path. 0 charges every write-back
    /// synchronously (the pre-transaction model, bit-identical). Must not
    /// exceed `mshrs`.
    pub store_buffer: u64,
}

impl LevelSpec {
    /// Checks the level in isolation: non-zero fields, power-of-two line,
    /// a power-of-two number of whole sets, and a transaction model the
    /// hardware could build (at least one MSHR, and no more store-buffer
    /// entries than MSHRs to track their drains).
    ///
    /// # Errors
    ///
    /// The first [`CacheConfigError`] found.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.size_bytes == 0 {
            return Err(CacheConfigError::ZeroField("size_bytes"));
        }
        if self.line_bytes == 0 {
            return Err(CacheConfigError::ZeroField("line_bytes"));
        }
        if self.ways == 0 {
            return Err(CacheConfigError::ZeroField("ways"));
        }
        if self.bytes_per_cycle == 0 {
            return Err(CacheConfigError::ZeroField("bytes_per_cycle"));
        }
        if self.mshrs == 0 {
            return Err(CacheConfigError::ZeroField("mshrs"));
        }
        if self.store_buffer > self.mshrs {
            return Err(CacheConfigError::StoreBufferExceedsMshrs {
                store_buffer: self.store_buffer,
                mshrs: self.mshrs,
            });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::LineNotPowerOfTwo(self.line_bytes));
        }
        let bad = CacheConfigError::BadGeometry {
            size_bytes: self.size_bytes,
            line_bytes: self.line_bytes,
            ways: self.ways,
        };
        if self.size_bytes % self.line_bytes != 0 {
            return Err(bad);
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines % self.ways != 0 || !(lines / self.ways).is_power_of_two() {
            return Err(bad);
        }
        Ok(())
    }

    /// Number of sets implied by the geometry. Meaningful only after
    /// [`LevelSpec::validate`] has passed.
    pub fn sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes) / self.ways
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Line {
    tag: u64,
    valid: bool,
    /// Dirty mask, one bit per L1-line-sized sector. For L1 (and for an
    /// L2 whose line equals the L1 line) this is a single bit.
    dirty: u64,
    stamp: u64,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: 0,
    stamp: 0,
};

/// The line displaced by a fill.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Victim {
    pub(crate) line_addr: u64,
    /// Per-sector dirty mask; 0 means clean.
    pub(crate) dirty: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct Level {
    spec: LevelSpec,
    /// `nsets × ways` fixed line slots: `lines[set * ways .. +ways]`.
    lines: Box<[Line]>,
    clock: u64,
    /// Shift/mask index math; validation guarantees power-of-two line
    /// size and set count.
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    /// Dirty granularity: log2 of the sector size (the hierarchy's L1
    /// line) and the sectors-per-line mask.
    sector_shift: u32,
    sector_mask: u64,
}

pub(crate) enum Lookup {
    Hit,
    /// Miss; the fill may have displaced a victim line.
    Miss(Option<Victim>),
}

impl Level {
    /// Builds the level; `sector_bytes` (the hierarchy's L1 line size)
    /// sets the dirty-tracking granularity.
    pub(crate) fn new(spec: LevelSpec, sector_bytes: u64) -> Level {
        let nsets = spec.sets();
        Level {
            spec,
            lines: vec![EMPTY_LINE; (nsets * spec.ways) as usize].into_boxed_slice(),
            clock: 0,
            line_shift: spec.line_bytes.trailing_zeros(),
            set_mask: nsets - 1,
            set_shift: nsets.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            sector_mask: spec.line_bytes / sector_bytes - 1,
        }
    }

    /// Splits `line_addr` into (set index, tag).
    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let idx = line_addr >> self.line_shift;
        ((idx & self.set_mask) as usize, idx >> self.set_shift)
    }

    /// The dirty-mask bit for the sector containing `addr`.
    pub(crate) fn sector_bit(&self, addr: u64) -> u64 {
        1 << ((addr >> self.sector_shift) & self.sector_mask)
    }

    /// Whether the line containing `line_addr` is resident, without
    /// touching LRU state (the prefetcher's probe).
    pub(crate) fn probe(&self, line_addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let ways = self.spec.ways as usize;
        self.lines[set_idx * ways..(set_idx + 1) * ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// The hit half of [`Level::access`]: if the line containing
    /// `line_addr` is resident, refreshes and (on a write) dirties it
    /// exactly as `access` would and returns `true`; otherwise changes
    /// nothing, so the caller can fall back to `access`.
    #[inline]
    pub(crate) fn hit(&mut self, line_addr: u64, write: bool) -> bool {
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let wmask = if write { self.sector_bit(line_addr) } else { 0 };
        let ways = self.spec.ways as usize;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        // Search every way without an early exit: which way holds the line
        // changes from access to access, so a per-way branch mispredicts.
        let mut way = usize::MAX;
        for (i, l) in set.iter().enumerate() {
            if l.valid & (l.tag == tag) {
                way = i;
            }
        }
        let Some(l) = set.get_mut(way) else {
            return false;
        };
        self.clock += 1;
        l.stamp = self.clock;
        l.dirty |= wmask;
        true
    }

    /// Looks up the line containing `line_addr`, filling on miss (into a
    /// free way if one exists, else over the least-recently-used line).
    /// A write dirties the sector containing `line_addr`.
    pub(crate) fn access(&mut self, line_addr: u64, write: bool) -> Lookup {
        self.clock += 1;
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let wmask = if write { self.sector_bit(line_addr) } else { 0 };
        let ways = self.spec.ways as usize;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        let mut free = None;
        let mut lru = 0;
        let mut lru_stamp = u64::MAX;
        for (i, l) in set.iter_mut().enumerate() {
            if l.valid {
                if l.tag == tag {
                    l.stamp = self.clock;
                    l.dirty |= wmask;
                    return Lookup::Hit;
                }
                if l.stamp < lru_stamp {
                    lru_stamp = l.stamp;
                    lru = i;
                }
            } else if free.is_none() {
                free = Some(i);
            }
        }
        let slot = free.unwrap_or(lru);
        let victim = set[slot].valid.then(|| Victim {
            // tag = idx / sets and set = idx % sets, so the victim's line
            // address reconstructs exactly.
            line_addr: ((set[slot].tag << self.set_shift) | set_idx as u64) << self.line_shift,
            dirty: set[slot].dirty,
        });
        set[slot] = Line {
            tag,
            valid: true,
            dirty: wmask,
            stamp: self.clock,
        };
        Lookup::Miss(victim)
    }

    /// Marks the sector containing `addr` dirty in its resident line and
    /// refreshes it (a write-back install), without allocating. Returns
    /// whether the line was present.
    pub(crate) fn touch_dirty(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let bit = self.sector_bit(addr);
        let ways = self.spec.ways as usize;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        for l in set.iter_mut() {
            if l.valid && l.tag == tag {
                l.dirty |= bit;
                l.stamp = self.clock;
                return true;
            }
        }
        false
    }

    /// Removes the line containing `line_addr` if resident, returning its
    /// dirty mask (inclusion back-invalidation).
    pub(crate) fn invalidate(&mut self, line_addr: u64) -> Option<u64> {
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let ways = self.spec.ways as usize;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        for l in set.iter_mut() {
            if l.valid && l.tag == tag {
                let dirty = l.dirty;
                *l = EMPTY_LINE;
                return Some(dirty);
            }
        }
        None
    }

    pub(crate) fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for l in self.lines.iter_mut() {
            dirty += u64::from(l.valid && l.dirty != 0);
            *l = EMPTY_LINE;
        }
        dirty
    }
}
