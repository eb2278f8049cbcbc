//! Set-associative cache with true-LRU replacement.
//!
//! Caches model presence and timing only; data bytes live in the
//! [`BackingStore`](crate::BackingStore). This matches how the attack works:
//! what leaks is *which lines are resident*, not their contents.
//!
//! Storage is a single contiguous line array (`sets × ways`, way-major
//! within a set) with one validity bitmask per set, so the per-access path
//! is a masked index plus a short scan of a cache-resident slice — no
//! nested `Vec<Vec<Option<_>>>` pointer chasing on the simulator's hottest
//! loop. Dirty bits live in a bitmap indexed by the same flat slot, which
//! keeps a line at 16 bytes: the line arrays are most of what a forked
//! machine copies (the 4 MiB L3's is 1 MiB).

use core::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Access latency in cycles for a hit at this level.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a configuration and validates its geometry.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or the geometry is inconsistent
    /// (capacity not divisible into `ways × line_bytes` sets).
    pub fn new(size_bytes: u64, ways: u64, line_bytes: u64, hit_latency: u64) -> CacheConfig {
        let cfg = CacheConfig { size_bytes, ways, line_bytes, hit_latency };
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.num_sets() >= 1, "cache must have at least one set");
        assert!(
            cfg.num_sets().is_power_of_two(),
            "set count must be a power of two (size={size_bytes}, ways={ways})"
        );
        assert!((1..=64).contains(&ways), "associativity must be in 1..=64");
        cfg
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// One way of one set. Meaningful only when the set's validity bit is set;
/// its dirty bit lives in the cache's dirty bitmap.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    last_used: u64,
}

/// Result of inserting a line: what was evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// The set had a free way; nothing was displaced.
    None,
    /// A clean line was displaced.
    Clean(u64),
    /// A dirty line was displaced (counts as a writeback).
    Dirty(u64),
}

/// One level of set-associative cache with true-LRU replacement.
///
/// All methods take *line addresses* (byte address divided by the line
/// size); use [`Cache::line_of`] to convert.
///
/// ```
/// use specrun_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64, 2));
/// let line = c.line_of(0x1040);
/// assert!(!c.access(line, 0));
/// c.fill(line, 1, false);
/// assert!(c.access(line, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets × ways` lines, way-major within a set.
    lines: Box<[Line]>,
    /// One validity bitmask per set (bit `w` = way `w` holds a line).
    valid: Box<[u64]>,
    /// One dirty bit per slot of `lines` (bit `i % 64` of word `i / 64`),
    /// meaningful only under the matching validity bit.
    dirty: Box<[u64]>,
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    stamp: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.num_sets();
        let ways = config.ways as usize;
        Cache {
            lines: vec![Line::default(); (sets as usize) * ways].into_boxed_slice(),
            valid: vec![0u64; sets as usize].into_boxed_slice(),
            dirty: vec![0u64; (sets as usize * ways).div_ceil(64)].into_boxed_slice(),
            ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            stamp: 0,
            config,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Converts a byte address to a line address for this cache's geometry.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes
    }

    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u64) {
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    /// Sets or clears the dirty bit of a slot.
    #[inline]
    fn set_dirty(&mut self, slot: usize, dirty: bool) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if dirty {
            self.dirty[word] |= bit;
        } else {
            self.dirty[word] &= !bit;
        }
    }

    #[inline]
    fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    #[inline]
    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Index of the way holding `tag` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.lines[base + way].tag == tag {
                return Some(way);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Whether the line is resident, without touching LRU state.
    pub fn probe(&self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.find(set, tag).is_some()
    }

    /// Looks up the line, updating LRU state on hit. Returns whether it hit.
    pub fn access(&mut self, line: u64, _now: u64) -> bool {
        self.access_slot(line).is_some()
    }

    /// [`Cache::access`], additionally returning the hit line's *slot* — a
    /// flat index into the line array that stays valid while the line stays
    /// resident (i.e. until any fill, invalidate or clear on this cache).
    /// Callers memoize it to re-touch a just-hit line without repeating the
    /// tag search; see [`Cache::touch_slot`].
    pub fn access_slot(&mut self, line: u64) -> Option<usize> {
        let stamp = self.bump();
        let (set, tag) = self.set_and_tag(line);
        let way = self.find(set, tag)?;
        let slot = set * self.ways + way;
        self.lines[slot].last_used = stamp;
        Some(slot)
    }

    /// Re-touches a slot previously returned by [`Cache::access_slot`] for
    /// a line known to still be resident there. Exactly equivalent to
    /// another `access` hit of that line: one LRU stamp is consumed and the
    /// line becomes most-recently used.
    pub fn touch_slot(&mut self, slot: usize) {
        let stamp = self.bump();
        self.lines[slot].last_used = stamp;
    }

    /// Marks a resident slot dirty (store hit on a memoized line);
    /// equivalent to [`Cache::mark_dirty`] on its line.
    pub fn mark_dirty_slot(&mut self, slot: usize) {
        self.set_dirty(slot, true);
    }

    /// Marks the line dirty if resident (store hit). Returns whether it hit.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        if let Some(way) = self.find(set, tag) {
            self.set_dirty(set * self.ways + way, true);
            true
        } else {
            false
        }
    }

    /// Installs the line (no-op if already resident), evicting the LRU way
    /// of a full set.
    pub fn fill(&mut self, line: u64, _now: u64, dirty: bool) -> Evicted {
        let stamp = self.bump();
        let (set, tag) = self.set_and_tag(line);
        let base = set * self.ways;
        // Already resident: refresh.
        if let Some(way) = self.find(set, tag) {
            self.lines[base + way].last_used = stamp;
            if dirty {
                self.set_dirty(base + way, true);
            }
            return Evicted::None;
        }
        // Free way available (lowest-index first, as before).
        let occupancy = self.valid[set];
        let free = (!occupancy).trailing_zeros() as usize;
        if free < self.ways {
            self.lines[base + free] = Line { tag, last_used: stamp };
            self.valid[set] |= 1u64 << free;
            self.set_dirty(base + free, dirty);
            return Evicted::None;
        }
        // Evict true-LRU.
        let mut victim_way = 0;
        let mut victim_stamp = u64::MAX;
        for way in 0..self.ways {
            let used = self.lines[base + way].last_used;
            if used < victim_stamp {
                victim_stamp = used;
                victim_way = way;
            }
        }
        let victim =
            core::mem::replace(&mut self.lines[base + victim_way], Line { tag, last_used: stamp });
        let victim_dirty = self.is_dirty(base + victim_way);
        self.set_dirty(base + victim_way, dirty);
        let victim_line = (victim.tag << self.set_shift) | set as u64;
        if victim_dirty {
            Evicted::Dirty(victim_line)
        } else {
            Evicted::Clean(victim_line)
        }
    }

    /// Removes the line if resident; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        if let Some(way) = self.find(set, tag) {
            self.valid[set] &= !(1u64 << way);
            true
        } else {
            false
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.valid.fill(0);
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB {}-way {}B-line cache ({} cycles, {} resident)",
            self.config.size_bytes / 1024,
            self.config.ways,
            self.config.line_bytes,
            self.config.hit_latency,
            self.resident_lines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B
        Cache::new(CacheConfig::new(512, 2, 64, 2))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
        assert_eq!(c.line_of(0x100), 4);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(10, 0));
        assert_eq!(c.fill(10, 1, false), Evicted::None);
        assert!(c.access(10, 2));
        assert!(c.probe(10));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        c.access(0, 2); // 0 is now MRU; 4 is LRU
        assert_eq!(c.fill(8, 3, false), Evicted::Clean(4));
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(0, 0, false);
        c.mark_dirty(0);
        c.fill(4, 1, false);
        c.access(4, 2);
        assert_eq!(c.fill(8, 3, false), Evicted::Dirty(0));
    }

    #[test]
    fn refill_refreshes_lru_not_duplicate() {
        let mut c = small();
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        c.fill(0, 2, false); // refresh, not duplicate
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(c.fill(8, 3, false), Evicted::Clean(4));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(7, 0, false);
        assert!(c.invalidate(7));
        assert!(!c.probe(7));
        assert!(!c.invalidate(7));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        assert!(c.probe(0)); // must not promote line 0
        assert_eq!(c.fill(8, 2, false), Evicted::Clean(0));
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.fill(1, 0, false);
        c.fill(2, 0, false);
        c.clear();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn invalidated_way_is_reused() {
        let mut c = small();
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        c.invalidate(0);
        assert_eq!(c.fill(8, 2, false), Evicted::None, "freed way must be reused");
        assert!(c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn invalidated_dirty_way_refilled_clean_evicts_clean() {
        let mut c = small();
        c.fill(0, 0, true);
        c.invalidate(0);
        // Line 4 reuses the freed (formerly dirty) way, clean.
        assert_eq!(c.fill(4, 1, false), Evicted::None);
        c.fill(8, 2, false);
        c.access(8, 3);
        assert_eq!(c.fill(12, 4, false), Evicted::Clean(4), "a stale dirty bit must not survive");
    }

    #[test]
    fn lines_are_sixteen_bytes() {
        assert_eq!(core::mem::size_of::<Line>(), 16);
    }

    #[test]
    fn high_tags_round_trip() {
        let mut c = small();
        let line = (1u64 << 40) | 3; // large tag, set 3
        c.fill(line, 0, false);
        assert!(c.probe(line));
        c.mark_dirty(line);
        // Conflict-evict it and check the victim line address is exact.
        let other1 = (1u64 << 41) | 3;
        let other2 = (1u64 << 42) | 3;
        c.fill(other1, 1, false);
        assert_eq!(c.fill(other2, 2, false), Evicted::Dirty(line));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheConfig::new(500, 2, 64, 2);
    }
}
