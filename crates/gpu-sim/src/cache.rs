//! A set-associative cache with LRU replacement.
//!
//! Used for both the per-SM L1 data cache and the per-cluster L2 slice. The
//! cache tracks tags only — the simulator cares about hit/miss timing and
//! traffic counts, not data values.

use serde::{Deserialize, Serialize};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless line size and ways are non-zero, both the line size and
    /// the set count are powers of two, and the capacity is an exact multiple
    /// of `line_bytes * ways`.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> CacheConfig {
        assert!(line_bytes > 0 && line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways > 0, "associativity must be non-zero");
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines > 0 && lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of line_bytes * ways"
        );
        let sets = lines / ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        CacheConfig { capacity_bytes, line_bytes, ways }
    }

    /// Titan-X-class per-SM L1 data cache: 24 KiB, 128 B lines, 6-way (32
    /// sets).
    pub fn titan_x_l1() -> CacheConfig {
        CacheConfig::new(24 * 1024, 128, 6)
    }

    /// Titan-X-class per-cluster L2 slice: 128 KiB, 128 B lines, 16-way.
    pub fn titan_x_l2_slice() -> CacheConfig {
        CacheConfig::new(128 * 1024, 128, 16)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / self.line_bytes / self.ways as u64
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and (for allocating accesses) has been filled,
    /// evicting a valid line if `evicted` is true.
    Miss {
        /// Whether a valid line was displaced by the fill.
        evicted: bool,
    },
}

impl CacheOutcome {
    /// Returns `true` on a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Line {
    tag: u64,
    valid: bool,
    /// Monotone use stamp for LRU.
    stamp: u64,
}

/// A tag-only set-associative LRU cache.
///
/// # Examples
///
/// ```
/// use gpu_sim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
/// assert!(!c.access(0, true).is_hit());  // cold miss, allocated
/// assert!(c.access(0, true).is_hit());   // now a hit
/// assert!(c.access(63, true).is_hit());  // same line
/// assert!(!c.access(64, true).is_hit()); // next line
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    set_mask: u64,
    line_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let lines = vec![Line { tag: 0, valid: false, stamp: 0 }; (sets as usize) * config.ways];
        Cache {
            config,
            lines,
            clock: 0,
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses byte address `addr`. When `allocate` is true a miss fills
    /// the line (read or write-allocate policy); when false the cache is
    /// only probed (write-through no-allocate stores).
    pub fn access(&mut self, addr: u64, allocate: bool) -> CacheOutcome {
        self.clock += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let base = set * self.config.ways;
        let set_lines = &mut self.lines[base..base + self.config.ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = self.clock;
            return CacheOutcome::Hit;
        }
        if !allocate {
            return CacheOutcome::Miss { evicted: false };
        }
        // Fill the invalid way if any, else evict the LRU way.
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("sets are never empty");
        let evicted = victim.valid;
        *victim = Line { tag, valid: true, stamp: self.clock };
        CacheOutcome::Miss { evicted }
    }

    /// Invalidates every line (e.g. at a kernel boundary).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, true).is_hit());
        assert!(c.access(0x100, true).is_hit());
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = tiny();
        c.access(0x40, true);
        assert!(c.access(0x7f, true).is_hit());
        assert!(!c.access(0x80, true).is_hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 in a 2-way set: 0x000, 0x100, 0x200.
        c.access(0x000, true);
        c.access(0x100, true);
        // Touch 0x000 so 0x100 is the LRU.
        assert!(c.access(0x000, true).is_hit());
        let out = c.access(0x200, true);
        assert_eq!(out, CacheOutcome::Miss { evicted: true });
        assert!(c.access(0x000, true).is_hit(), "recently used line survived");
        assert!(!c.access(0x100, true).is_hit(), "LRU line was evicted");
    }

    #[test]
    fn no_allocate_probe_leaves_cache_unchanged() {
        let mut c = tiny();
        assert!(!c.access(0x300, false).is_hit());
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(0x300, true).is_hit());
        assert!(c.access(0x300, false).is_hit());
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 64, true);
        }
        assert!(c.valid_lines() > 0);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(0, true).is_hit());
    }

    #[test]
    fn titan_presets_are_valid() {
        let l1 = CacheConfig::titan_x_l1();
        assert_eq!(l1.capacity_bytes, 24 * 1024);
        assert_eq!(l1.sets(), 32);
        let l2 = CacheConfig::titan_x_l2_slice();
        assert_eq!(l2.sets(), 64);
        // Constructible.
        let _ = Cache::new(l1);
        let _ = Cache::new(l2);
    }

    #[test]
    fn cold_capacity_fill_counts() {
        let mut c = tiny();
        // Fill the entire cache: 8 distinct lines, no evictions.
        for i in 0..8u64 {
            let out = c.access(i * 64, true);
            assert_eq!(out, CacheOutcome::Miss { evicted: false });
        }
        assert_eq!(c.valid_lines(), 8);
        // One more distinct line must evict.
        assert_eq!(c.access(8 * 64, true), CacheOutcome::Miss { evicted: true });
    }
}
