//! The *frozen* pre-coalescing reference simulator.
//!
//! This is the simulator exactly as it stood before the run-length/
//! line-coalesced rewrite of [`crate::sim`]: per-event probing, MRU-first
//! sets reordered with `copy_within`, hardware `%` set indexing — and the
//! historical write-back bug, preserved on purpose: a dirty victim
//! evicted from a private level whose next-level copy was already
//! displaced is silently dropped.
//!
//! It exists as a test oracle and must not be "improved":
//!
//! * the differential property suite pins the production simulator's
//!   stamp-LRU and fastmod core against it on single-level hierarchies;
//! * the write-back regression test demonstrates the lost-write-back bug
//!   on it, proving the test would fail on the old logic.
//!
//! It consumes traces through the default per-event [`TraceSink::run`]
//! expansion, so it sees the exact event stream the old interpreter
//! produced.

use polyufc_ir::affine::AffineProgram;
use polyufc_ir::interp::{AccessEvent, TraceSink};

use crate::config::CacheHierarchy;
use crate::sim::SimStats;

struct Level {
    n_sets: u64,
    assoc: usize,
    /// Flat `n_sets × assoc` entries, MRU first within each set;
    /// `(tag, dirty)` with `EMPTY` marking unused ways.
    entries: Vec<(u64, bool)>,
}

const EMPTY: u64 = u64::MAX;

impl Level {
    fn new(n_sets: u64, assoc: usize) -> Self {
        Level {
            n_sets,
            assoc,
            entries: vec![(EMPTY, false); n_sets as usize * assoc],
        }
    }

    /// Returns `true` on hit; updates LRU order and dirtiness.
    #[inline]
    fn access(&mut self, line: u64, write: bool) -> bool {
        let s = (line % self.n_sets) as usize * self.assoc;
        let set = &mut self.entries[s..s + self.assoc];
        if let Some(pos) = set.iter().position(|&(t, _)| t == line) {
            let (_, d) = set[pos];
            set.copy_within(0..pos, 1);
            set[0] = (line, d || write);
            true
        } else {
            false
        }
    }

    /// Inserts a line (after a miss); returns the evicted `(line, dirty)`
    /// if a valid way was displaced.
    #[inline]
    fn insert(&mut self, line: u64, write: bool) -> Option<(u64, bool)> {
        let s = (line % self.n_sets) as usize * self.assoc;
        let set = &mut self.entries[s..s + self.assoc];
        let victim = set[self.assoc - 1];
        set.copy_within(0..self.assoc - 1, 1);
        set[0] = (line, write);
        (victim.0 != EMPTY).then_some(victim)
    }
}

/// The frozen pre-optimization simulator (see the module docs). Fed
/// per-event through the default [`TraceSink::run`] expansion.
pub struct RefSim {
    levels: Vec<Level>,
    line_bytes: u64,
    base_addrs: Vec<u64>,
    /// Statistics accumulated so far.
    pub stats: SimStats,
}

impl std::fmt::Debug for RefSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefSim")
            .field("levels", &self.levels.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RefSim {
    /// Builds the reference simulator with the same array layout rules as
    /// [`crate::CacheSim`].
    pub fn new(hierarchy: &CacheHierarchy, program: &AffineProgram) -> Self {
        let line = hierarchy.line_bytes();
        let mut base_addrs = Vec::with_capacity(program.arrays.len());
        let mut next = 0u64;
        for a in &program.arrays {
            base_addrs.push(next);
            let sz = a.size_bytes() as u64;
            next += sz.div_ceil(line) * line;
        }
        let levels = hierarchy
            .levels
            .iter()
            .map(|l| Level::new(l.n_sets(), l.assoc as usize))
            .collect::<Vec<_>>();
        let n = levels.len();
        RefSim {
            levels,
            line_bytes: line,
            base_addrs,
            stats: SimStats {
                hits: vec![0; n],
                misses: vec![0; n],
                ..SimStats::default()
            },
        }
    }

    fn touch(&mut self, line: u64, write: bool) {
        let n = self.levels.len();
        for i in 0..n {
            if self.levels[i].access(line, write && i == 0) {
                self.stats.hits[i] += 1;
                // Fill the line into the faster levels it missed in.
                for j in (0..i).rev() {
                    if let Some((ev, d)) = self.levels[j].insert(line, write && j == 0) {
                        // A dirty eviction from a private level is absorbed
                        // by the next level (write-back). NOTE (frozen
                        // bug): if the next level no longer holds the
                        // line, the write-back is silently lost.
                        if d && j + 1 < n {
                            self.levels[j + 1].access(ev, true);
                        }
                    }
                }
                return;
            }
            self.stats.misses[i] += 1;
        }
        // Missed everywhere: fetch from DRAM, fill all levels.
        self.stats.dram_line_fills += 1;
        for j in (0..n).rev() {
            if let Some((ev, d)) = self.levels[j].insert(line, write && j == 0) {
                if d {
                    if j + 1 < n {
                        self.levels[j + 1].access(ev, true);
                    } else {
                        self.stats.dram_writebacks += 1;
                    }
                }
            }
        }
    }
}

impl TraceSink for RefSim {
    fn access(&mut self, ev: AccessEvent) {
        let addr = self.base_addrs[ev.array.0] + ev.offset * ev.bytes as u64;
        let line = addr / self.line_bytes;
        self.stats.accesses += 1;
        self.stats.bytes_requested += ev.bytes as u64;
        self.touch(line, ev.is_write);
    }

    fn flops(&mut self, n: u64) {
        self.stats.flops += n;
    }
}
