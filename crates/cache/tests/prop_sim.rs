//! Property tests: the optimized cache simulator must agree exactly with
//! naive reference LRU implementations on random traces — one level, and a
//! whole multi-level hierarchy with write-backs, fed event by event and
//! from random kernels' run groups — and basic conservation laws must
//! hold.

mod common;

use proptest::prelude::*;

use common::{build_program, kernel_spec};
use polyufc_cache::{CacheHierarchy, CacheLevelConfig, CacheSim, SimStats};
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::interp::{interpret_program, AccessEvent, TraceSink};
use polyufc_ir::types::{ArrayId, ElemType};

/// A naive, obviously-correct single-level LRU set-associative cache.
struct RefCache {
    n_sets: u64,
    assoc: usize,
    sets: Vec<Vec<u64>>, // MRU first
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(n_sets: u64, assoc: usize) -> Self {
        RefCache {
            n_sets,
            assoc,
            sets: vec![Vec::new(); n_sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, line: u64) {
        let s = (line % self.n_sets) as usize;
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            set.insert(0, line);
            self.hits += 1;
        } else {
            self.misses += 1;
            if set.len() == self.assoc {
                set.pop();
            }
            set.insert(0, line);
        }
    }
}

/// A naive, obviously-correct write-allocate, write-back hierarchy: one
/// MRU-first `(line, dirty)` list per set per level, L1 first. It shares
/// no code with [`CacheSim`]'s walk, so a bug in that walk cannot hide
/// behind a comparison of the simulator with itself.
struct RefHierarchy {
    /// Per level: `n_sets` and `assoc`.
    shape: Vec<(u64, usize)>,
    /// Per level, per set: `(line, dirty)`, most recently used first.
    sets: Vec<Vec<Vec<(u64, bool)>>>,
    stats: SimStats,
}

impl RefHierarchy {
    fn new(h: &CacheHierarchy) -> Self {
        let shape: Vec<_> = h
            .levels
            .iter()
            .map(|l| (l.n_sets(), l.assoc as usize))
            .collect();
        RefHierarchy {
            sets: shape
                .iter()
                .map(|&(n, _)| vec![Vec::new(); n as usize])
                .collect(),
            stats: SimStats {
                hits: vec![0; shape.len()],
                misses: vec![0; shape.len()],
                ..SimStats::default()
            },
            shape,
        }
    }

    fn set(&mut self, level: usize, line: u64) -> &mut Vec<(u64, bool)> {
        let s = (line % self.shape[level].0) as usize;
        &mut self.sets[level][s]
    }

    /// Moves `line` to the front of its set at `level`, ORing in `dirty`;
    /// `false` if the line is absent.
    fn refresh(&mut self, level: usize, line: u64, dirty: bool) -> bool {
        let set = self.set(level, line);
        let Some(pos) = set.iter().position(|&(l, _)| l == line) else {
            return false;
        };
        let (_, was_dirty) = set.remove(pos);
        set.insert(0, (line, was_dirty || dirty));
        true
    }

    /// Inserts an absent line at the front, returning the LRU entry it
    /// displaced from a full set.
    fn fill(&mut self, level: usize, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let assoc = self.shape[level].1;
        let set = self.set(level, line);
        let evicted = if set.len() == assoc { set.pop() } else { None };
        set.insert(0, (line, dirty));
        evicted
    }

    fn access(&mut self, line: u64, bytes: u32, write: bool) {
        self.stats.accesses += 1;
        self.stats.bytes_requested += u64::from(bytes);
        let levels = self.shape.len();
        let mut missed = 0;
        while missed < levels && !self.refresh(missed, line, write && missed == 0) {
            self.stats.misses[missed] += 1;
            missed += 1;
        }
        if missed < levels {
            self.stats.hits[missed] += 1;
        } else {
            self.stats.dram_line_fills += 1;
        }
        for level in (0..missed).rev() {
            if let Some((victim, true)) = self.fill(level, line, write && level == 0) {
                self.write_back(level + 1, victim);
            }
        }
    }

    /// A dirty victim of `level - 1`: absorbed where present, otherwise
    /// allocated dirty (displacing further dirty victims downwards), and
    /// counted once it leaves the last level.
    fn write_back(&mut self, level: usize, line: u64) {
        if level == self.shape.len() {
            self.stats.dram_writebacks += 1;
        } else if !self.refresh(level, line, true) {
            if let Some((victim, true)) = self.fill(level, line, true) {
                self.write_back(level + 1, victim);
            }
        }
    }
}

/// Feeds [`RefHierarchy`] the interpreter's events, laid out as
/// [`CacheSim`] lays out the program's arrays.
struct RefSink {
    reference: RefHierarchy,
    base_addrs: Vec<u64>,
}

impl TraceSink for RefSink {
    fn access(&mut self, ev: AccessEvent) {
        let addr = self.base_addrs[ev.array.0] + ev.offset * u64::from(ev.bytes);
        self.reference.access(addr / 64, ev.bytes, ev.is_write);
    }

    fn flops(&mut self, n: u64) {
        self.reference.stats.flops += n;
    }
}

/// A random 2–3-level hierarchy: per level a set count (often not a power
/// of two) and an associativity, sorted so capacities nest.
fn hierarchy() -> impl Strategy<Value = CacheHierarchy> {
    (2usize..4, proptest::collection::vec((1u64..8, 1u32..5), 3)).prop_map(|(depth, mut shapes)| {
        shapes.truncate(depth);
        shapes.sort_by_key(|&(sets, assoc)| sets * assoc as u64);
        CacheHierarchy::new(
            shapes
                .into_iter()
                .enumerate()
                .map(|(i, (sets, assoc))| CacheLevelConfig {
                    size_bytes: sets * assoc as u64 * 64,
                    line_bytes: 64,
                    assoc,
                    shared: i + 1 == depth,
                })
                .collect(),
        )
    })
}

fn one_level(n_sets: u64, assoc: u32) -> CacheHierarchy {
    CacheHierarchy::new(vec![CacheLevelConfig {
        size_bytes: n_sets * assoc as u64 * 64,
        line_bytes: 64,
        assoc,
        shared: false,
    }])
}

fn program(elems: usize) -> AffineProgram {
    let mut p = AffineProgram::new("prop");
    p.add_array("A", vec![elems], ElemType::F64);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulator_matches_reference_lru(
        trace in proptest::collection::vec((0u64..512, any::<bool>()), 1..400),
        n_sets in prop_oneof![Just(1u64), Just(2), Just(4), Just(8)],
        assoc in 1u32..5,
    ) {
        let p = program(512);
        let mut sim = CacheSim::new(&one_level(n_sets, assoc), &p);
        let mut reference = RefCache::new(n_sets, assoc as usize);
        for &(offset, write) in &trace {
            sim.access(AccessEvent { array: ArrayId(0), offset, bytes: 8, is_write: write });
            reference.access(offset * 8 / 64);
        }
        prop_assert_eq!(sim.stats.hits[0], reference.hits);
        prop_assert_eq!(sim.stats.misses[0], reference.misses);
    }

    #[test]
    fn conservation_laws(
        trace in proptest::collection::vec((0u64..4096, any::<bool>()), 1..300),
    ) {
        let p = program(4096);
        let h = CacheHierarchy::new(vec![
            CacheLevelConfig { size_bytes: 8 * 64, line_bytes: 64, assoc: 2, shared: false },
            CacheLevelConfig { size_bytes: 64 * 64, line_bytes: 64, assoc: 8, shared: true },
        ]);
        let mut sim = CacheSim::new(&h, &p);
        for &(offset, write) in &trace {
            sim.access(AccessEvent { array: ArrayId(0), offset, bytes: 8, is_write: write });
        }
        let st = &sim.stats;
        // Every access either hits or misses L1.
        prop_assert_eq!(st.hits[0] + st.misses[0], st.accesses);
        // L2 sees exactly the L1 misses.
        prop_assert_eq!(st.hits[1] + st.misses[1], st.misses[0]);
        // DRAM fills = L2 misses; write-backs never exceed fills.
        prop_assert_eq!(st.dram_line_fills, st.misses[1]);
        prop_assert!(st.dram_writebacks <= st.dram_line_fills);
        // Misses are at least the distinct lines touched... at L2 they are
        // at least the compulsory count.
        let distinct: std::collections::BTreeSet<u64> =
            trace.iter().map(|&(o, _)| o * 8 / 64).collect();
        prop_assert!(st.misses[1] as usize >= distinct.len());
    }

    #[test]
    fn capacity_monotone_in_size(
        trace in proptest::collection::vec(0u64..2048, 50..250),
    ) {
        // A bigger fully-indexed cache never misses more (same assoc &
        // sets scale, LRU inclusion property per set).
        let p = program(2048);
        let mut small = CacheSim::new(&one_level(4, 4), &p);
        let mut big = CacheSim::new(&one_level(4, 16), &p);
        for &o in &trace {
            let ev = AccessEvent { array: ArrayId(0), offset: o, bytes: 8, is_write: false };
            small.access(ev);
            big.access(ev);
        }
        prop_assert!(big.stats.misses[0] <= small.stats.misses[0]);
    }
}

proptest! {
    // Default config, so `PROPTEST_CASES` deepens this property.

    #[test]
    fn hierarchy_matches_reference_with_writebacks(
        trace in proptest::collection::vec((0u64..1024, any::<bool>()), 1..600),
        h in hierarchy(),
    ) {
        let p = program(1024);
        let mut sim = CacheSim::new(&h, &p);
        let mut reference = RefHierarchy::new(&h);
        for &(offset, write) in &trace {
            sim.access(AccessEvent { array: ArrayId(0), offset, bytes: 8, is_write: write });
            reference.access(offset * 8 / 64, 8, write);
        }
        prop_assert_eq!(&sim.stats, &reference.stats, "hierarchy {:?}", h.levels);
    }

    #[test]
    fn kernel_run_groups_match_reference_with_writebacks(
        spec in kernel_spec(),
        h in hierarchy(),
    ) {
        let p = build_program(&spec);
        let mut sim = CacheSim::new(&h, &p);
        let base_addrs = (0..p.arrays.len()).map(|a| sim.base_addr(ArrayId(a))).collect();
        interpret_program(&p, &mut sim);
        let mut sink = RefSink { reference: RefHierarchy::new(&h), base_addrs };
        interpret_program(&p, &mut sink);
        prop_assert_eq!(&sim.stats, &sink.reference.stats, "hierarchy {:?} spec {:?}", h.levels, &spec);
    }
}
