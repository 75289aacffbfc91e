//! Set-associative caches and the Table II memory hierarchy.

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Paper Table II: 8 kB 4-way private L1 D-cache.
    #[must_use]
    pub fn l1d() -> Self {
        CacheConfig { size_bytes: 8 * 1024, ways: 4, line_bytes: 32, hit_cycles: 1 }
    }

    /// Paper Table II: 4 kB 4-way private I-cache.
    #[must_use]
    pub fn l1i() -> Self {
        CacheConfig { size_bytes: 4 * 1024, ways: 4, line_bytes: 32, hit_cycles: 1 }
    }

    /// Paper Table II: 64 kB 4-way shared L2.
    #[must_use]
    pub fn l2() -> Self {
        CacheConfig { size_bytes: 64 * 1024, ways: 4, line_bytes: 32, hit_cycles: 8 }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are in words (matching the ISA); tags are computed over the
/// line-aligned word address. The cache tracks only presence (this is a
/// timing model; data lives in the pipeline's memory image).
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    config: CacheConfig,
    /// log2 of the words per line: `word_addr >> line_shift` is the line.
    line_shift: u32,
    /// log2 of the set count: `line >> set_shift` is the tag.
    set_shift: u32,
    /// `line & set_mask` is the set.
    set_mask: u32,
    /// `tags[set * ways + way]`: tag + valid, LRU-ordered per set
    /// (index 0 = most recently used).
    tags: Vec<Option<u32>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics unless the words per line and the set count are powers of
    /// two, so that an access splits its address with shifts and a mask.
    /// Table II's three caches satisfy this.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let words_per_line = (config.line_bytes / 4).max(1);
        let sets = config.sets();
        assert!(
            words_per_line.is_power_of_two() && sets.is_power_of_two(),
            "cache geometry needs power-of-two words per line and sets, got {words_per_line} and {sets}"
        );
        Cache {
            line_shift: words_per_line.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: (sets - 1) as u32,
            tags: vec![None; sets * config.ways],
            config,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses a word address; returns `true` on hit. On miss the line is
    /// filled (allocate-on-miss for both loads and stores).
    pub fn access(&mut self, word_addr: u32) -> bool {
        let line = word_addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = self.config.ways;
        let base = set * ways;
        let slots = &mut self.tags[base..base + ways];

        if let Some(pos) = slots.iter().position(|t| *t == Some(tag)) {
            // Move to MRU (already there on a repeat hit).
            if pos > 0 {
                slots[..=pos].rotate_right(1);
            }
            self.hits += 1;
            true
        } else {
            // Evict LRU (last), insert at MRU.
            slots.rotate_right(1);
            slots[0] = Some(tag);
            self.misses += 1;
            false
        }
    }

    /// Hit count since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 when never accessed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-pipeline view of the memory hierarchy: private L1I/L1D, a
/// handle to the shared L2, and the DRAM latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryHierarchy {
    /// L1 D-cache config.
    pub l1d: CacheConfig,
    /// L1 I-cache config.
    pub l1i: CacheConfig,
    /// Shared L2 config.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles (Table II: 4-channel
    /// DDR4-2400; ≈60 ns at 1 GHz).
    pub memory_cycles: u64,
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        MemoryHierarchy {
            l1d: CacheConfig::l1d(),
            l1i: CacheConfig::l1i(),
            l2: CacheConfig::l2(),
            memory_cycles: 60,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference true-LRU cache: one recency list of whole line numbers
    /// per set (most recent first), indexed with `/` and `%`.
    struct NaiveLru {
        words_per_line: u32,
        ways: usize,
        sets: Vec<Vec<u32>>,
    }

    impl NaiveLru {
        fn new(cfg: CacheConfig) -> Self {
            NaiveLru {
                words_per_line: (cfg.line_bytes / 4).max(1) as u32,
                ways: cfg.ways,
                sets: vec![Vec::new(); cfg.sets()],
            }
        }

        fn access(&mut self, word_addr: u32) -> bool {
            let line = word_addr / self.words_per_line;
            let nsets = self.sets.len();
            let set = &mut self.sets[line as usize % nsets];
            let hit = match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => {
                    set.truncate(self.ways - 1);
                    false
                }
            };
            set.insert(0, line);
            hit
        }
    }

    /// Table II's three caches and every geometry the tests below use.
    fn geometries() -> [CacheConfig; 5] {
        [
            CacheConfig::l1d(),
            CacheConfig::l1i(),
            CacheConfig::l2(),
            CacheConfig { size_bytes: 16, ways: 2, line_bytes: 4, hit_cycles: 1 },
            CacheConfig { size_bytes: 64, ways: 2, line_bytes: 4, hit_cycles: 1 },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn access_agrees_with_naive_true_lru(
            geometry in 0..geometries().len(),
            // Narrow ranges hit and conflict within sets; the full range
            // exercises the top tag bits.
            addrs in proptest::collection::vec(
                prop_oneof![0u32..64, 0u32..4096, 0u32..65_536, any::<u32>()],
                1..1500,
            ),
        ) {
            let cfg = geometries()[geometry];
            let mut cache = Cache::new(cfg);
            let mut model = NaiveLru::new(cfg);
            for (i, &a) in addrs.iter().enumerate() {
                prop_assert_eq!(cache.access(a), model.access(a), "access {} of {:#x}", i, a);
            }
            let hits = addrs.len() as u64 - cache.misses();
            prop_assert_eq!(cache.hits(), hits);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_set_count_panics() {
        // 96 bytes / 4-byte lines / 2 ways = 12 sets.
        let _ = Cache::new(CacheConfig { size_bytes: 96, ways: 2, line_bytes: 4, hit_cycles: 1 });
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert!(!c.access(100));
        assert!(c.access(100));
        assert!(c.access(101), "same 32-byte line");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-set toy cache: 2 ways, 1-word lines, 2 sets.
        let cfg = CacheConfig { size_bytes: 16, ways: 2, line_bytes: 4, hit_cycles: 1 };
        assert_eq!(cfg.sets(), 2);
        let mut c = Cache::new(cfg);
        // Set 0 gets addresses 0, 2, 4 (tags 0,1,2).
        c.access(0);
        c.access(2);
        assert!(c.access(0), "0 still resident");
        c.access(4); // evicts 2 (LRU), not 0
        assert!(c.access(0), "0 was MRU, survives");
        assert!(!c.access(2), "2 was evicted");
    }

    #[test]
    fn sets_capacity_conservation() {
        let cfg = CacheConfig::l1d();
        assert_eq!(cfg.sets() * cfg.ways * cfg.line_bytes, cfg.size_bytes);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig { size_bytes: 64, ways: 2, line_bytes: 4, hit_cycles: 1 };
        let mut c = Cache::new(cfg);
        // Stream over 64 distinct words twice: capacity is 16 words.
        for _ in 0..2 {
            for a in 0..64u32 {
                c.access(a * 7); // stride to spread across sets
            }
        }
        assert!(c.hit_rate() < 0.2, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn hit_rate_defaults_to_one() {
        let c = Cache::new(CacheConfig::l2());
        assert_eq!(c.hit_rate(), 1.0);
    }
}
