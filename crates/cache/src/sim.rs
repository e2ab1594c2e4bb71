//! An exact trace-driven, multi-level, set-associative LRU cache
//! simulator (write-allocate, write-back). This is the reference the
//! static model is validated against, and the memory system of the
//! machine simulator.
//!
//! The simulator consumes the interpreter's run-length trace directly
//! (see `polyufc_ir::interp::RunGroup`): per innermost-loop instance it
//! walks each access stream's cache-*line* crossings instead of probing
//! the hierarchy once per element. Invariants 1–3 make the coalesced
//! walk produce *bit-identical* [`SimStats`] to per-event simulation,
//! invariant 4 makes the one-pass victim search exact, and invariant 5
//! lets whole groups be skipped:
//!
//! 1. **Order preservation** — within one step every stream is touched in
//!    program order, and streams are advanced step-major, so the sequence
//!    of line touches equals the per-event trace's.
//! 2. **Stable-stream fast hits** — evicting a line some stream was
//!    refreshed on requires at least `assoc(L1)` *touches of its L1 set*
//!    afterwards: the line starts as its set's most-recent way, each
//!    touch (hit-refresh or insert) promotes at most one way above it,
//!    and LRU victimizes the minimum. The simulator keeps one touch
//!    counter per L1 set; while a stream's set has seen fewer than
//!    `assoc` touches since the stream's last refresh, a repeat access to
//!    the same line is a *guaranteed* L1 hit: the counters and the
//!    recency update are applied without probing the set; a writing
//!    stream's line is already dirty from the touch that loaded it. (This
//!    subsumes the narrow-group case — `k ≤ assoc` streams can never
//!    accumulate `assoc` touches between a stream's consecutive steps —
//!    and extends the regime to wide stencil groups, where a stream's
//!    set is shared with only a few neighbours.)
//! 3. **Stretch extrapolation** — while *no* stream crosses a line
//!    boundary, no inserts happen at all, so consecutive steps are
//!    identical all-L1-hit steps; the hit counter is bumped
//!    arithmetically and a single recency refresh in touch order stands
//!    for the stretch (LRU only ever compares relative stamp order,
//!    which is preserved, and a compressed refresh still bumps each
//!    touched set's counter once per way it promotes — the invariant
//!    guarantee 2 relies on).
//! 4. **Victims stay valid** — a probe that misses returns its set's LRU
//!    way, found in the same scan, and the fill writes that way. Between
//!    a level's probe and its fill only slower levels change (their fills
//!    and the write-backs those evict), so the victim is still the LRU.
//! 5. **Warping over repeated all-hit groups** — a group is skipped, and
//!    counted as `runs × steps` L1 hits, when its predecessor on this
//!    simulator had no L1 miss (or was itself skipped) and matches it:
//!    the same step count and, run by run in order, the same array,
//!    stride, width and write flag, with lines that agree at every step
//!    (the same first address, or the same first line and a stride that
//!    is a multiple of the line, zero included). Then both groups touch
//!    one line sequence `T`. The predecessor missed nowhere, so it
//!    inserted nothing and evicted nothing: every line of `T` is
//!    resident after it, ordered in its set above every other line by
//!    its last touch in `T`, and every line `T` writes is already dirty.
//!    Replaying `T` on that state hits throughout and rebuilds exactly
//!    that order and those masks, and lower levels are never reached. So
//!    the skipped group leaves every level as it found it and ticks no
//!    clock (LRU compares stamps only within a set, and L1 touch counters
//!    only against snapshots taken in the same group). By induction a
//!    skipped group licenses its successor as its predecessor did. A
//!    per-event [`TraceSink::access`] voids the licence.
//!
//! The differential property suite feeds the same trace event by event
//! through [`TraceSink::access`] and asserts both routes agree exactly.
//!
//! Replacement state is one 8-byte `(u32 tag, u32 stamp)` record per way
//! — a hit is one tag scan plus one stamp store, and the victim is the
//! minimum-stamp way — plus one dirty bit mask per set. Stamps come from
//! a per-level clock and are compared only within a set, so before a
//! clock can wrap every set's stamps are re-ranked in place (order kept,
//! empty ways stay 0) and the clock restarts above them. [`CacheSim::new`]
//! keeps every line below `u32::MAX`, the empty tag. Set indexing is
//! strength-reduced to a bitmask for power-of-two set counts or a
//! precomputed-reciprocal remainder (Lemire fastmod) otherwise.

use polyufc_ir::affine::AffineProgram;
use polyufc_ir::interp::{AccessEvent, AccessRun, RunGroup, TraceSink};
use polyufc_ir::types::ArrayId;

use crate::config::CacheHierarchy;

/// Aggregate counters of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Per-level hits.
    pub hits: Vec<u64>,
    /// Per-level misses.
    pub misses: Vec<u64>,
    /// Lines fetched from DRAM (LLC misses).
    pub dram_line_fills: u64,
    /// Dirty lines written back to DRAM.
    pub dram_writebacks: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total flops.
    pub flops: u64,
    /// Total bytes requested by the program (not unique).
    pub bytes_requested: u64,
}

/// Strength-reduced `line → set` mapping: a mask when the set count is a
/// power of two, a precomputed-reciprocal remainder (Lemire fastmod)
/// otherwise. Exact for 32-bit operands, which covers every realistic
/// line number (2^32 lines = 256 GiB of 64-byte lines).
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    Pow2 { mask: u64 },
    Fastmod { d: u64, m: u64 },
}

impl SetIndex {
    fn new(n_sets: u64) -> Self {
        assert!(n_sets > 0, "cache level needs at least one set");
        if n_sets.is_power_of_two() {
            SetIndex::Pow2 { mask: n_sets - 1 }
        } else {
            assert!(n_sets < (1 << 32), "fastmod requires a 32-bit set count");
            SetIndex::Fastmod {
                d: n_sets,
                m: u64::MAX / n_sets + 1,
            }
        }
    }

    #[inline]
    fn of(self, line: u64) -> u64 {
        match self {
            SetIndex::Pow2 { mask } => line & mask,
            SetIndex::Fastmod { d, m } => {
                debug_assert!(line < (1 << 32), "fastmod operand overflow");
                ((m.wrapping_mul(line) as u128 * d as u128) >> 64) as u64
            }
        }
    }
}

const NO_TAG: u32 = u32::MAX;

/// One way of a set: the line tag and its recency stamp, interleaved so a
/// probe's tag scan and the subsequent stamp refresh touch the *same*
/// host cache lines (a large level's hot state is one contiguous
/// `assoc × 8` byte region per set, not two slices a megabyte apart —
/// splitting them measured ~50% slower on column-walk traces).
#[derive(Clone, Copy)]
struct Way {
    /// Line tag (`NO_TAG` = empty); [`CacheSim::new`] bounds every line
    /// below it.
    tag: u32,
    /// Recency stamp; `0` marks an empty way, live ways carry increasing
    /// stamps from the level's clock, so the LRU victim is simply the
    /// minimum-stamp way of a set.
    stamp: u32,
}

/// One cache level: flat `n_sets × assoc` way records plus one dirty bit
/// mask per set (bit `i` = way `i`; kept out of the hot scan loops).
struct Level {
    assoc: usize,
    set_index: SetIndex,
    ways: Vec<Way>,
    dirty: Vec<u32>,
    /// Recency clock; incremented on every touch. Only the *relative*
    /// order of stamps within a set is ever consulted, which is what lets
    /// the coalesced path compress a stretch of identical steps into one
    /// refresh, and [`Level::renormalise`] restart the clock before it
    /// wraps ([`CacheSim::reserve`]).
    clock: u32,
}

impl Level {
    fn new(n_sets: u64, assoc: usize) -> Self {
        assert!(assoc <= 32, "dirty masks hold at most 32 ways");
        let empty = Way {
            tag: NO_TAG,
            stamp: 0,
        };
        Level {
            assoc,
            set_index: SetIndex::new(n_sets),
            ways: vec![empty; n_sets as usize * assoc],
            dirty: vec![0; n_sets as usize],
            clock: 0,
        }
    }

    /// Replaces every set's live stamps by their ranks `1..=k` within the
    /// set (empty ways stay 0) and restarts the clock above them: the
    /// order LRU compares is unchanged.
    #[cold]
    #[inline(never)]
    fn renormalise(&mut self) {
        let mut stamps = [0u32; 32];
        let old = &mut stamps[..self.assoc];
        for set in self.ways.chunks_exact_mut(self.assoc) {
            old.iter_mut()
                .zip(set.iter())
                .for_each(|(o, w)| *o = w.stamp);
            for way in set.iter_mut().filter(|w| w.stamp != 0) {
                way.stamp = old.iter().filter(|&&s| s != 0 && s <= way.stamp).count() as u32;
            }
        }
        self.clock = self.assoc as u32;
    }

    /// Marks way `w` most recent.
    #[inline]
    fn refresh(&mut self, w: usize) {
        self.clock += 1;
        self.ways[w].stamp = self.clock;
    }

    /// Demand probe. A hit refreshes recency, ORs in dirtiness and returns
    /// `Ok(way)`; a miss returns `Err(victim)`, the set's LRU way found in
    /// the same scan (empty ways, stamp 0, lose every comparison and fill
    /// first). Way indices are absolute.
    #[inline]
    fn probe(&mut self, line: u64, write: bool) -> Result<usize, usize> {
        let tag = line as u32;
        let set = self.set_index.of(line) as usize;
        let base = set * self.assoc;
        let ways = &self.ways[base..base + self.assoc];
        // Narrow (L1/L2-like) sets scan branch-free — the whole set is one
        // host line and the compiler unrolls the loop flat. Wide (LLC-like)
        // sets early-exit instead: a hit stops short of the full sweep.
        let wide = self.assoc > 8;
        let (mut hit, mut victim, mut min) = (usize::MAX, 0, u32::MAX);
        for (i, way) in ways.iter().enumerate() {
            if way.tag == tag {
                hit = i;
                if wide {
                    break;
                }
            }
            if way.stamp < min {
                (victim, min) = (i, way.stamp);
            }
        }
        if hit == usize::MAX {
            return Err(base + victim);
        }
        self.refresh(base + hit);
        if write {
            self.dirty[set] |= 1 << hit;
        }
        Ok(base + hit)
    }

    /// Fills `line` into `victim`, the way a missing [`Level::probe`] of
    /// it returned, and returns the displaced `(line, dirty)` if the way
    /// was valid.
    #[inline]
    fn fill(&mut self, victim: usize, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let set = self.set_index.of(line) as usize;
        let i = victim - set * self.assoc;
        let old = self.ways[victim];
        let evicted = (old.stamp != 0).then(|| (old.tag.into(), self.dirty[set] >> i & 1 != 0));
        self.ways[victim].tag = line as u32;
        self.refresh(victim);
        self.dirty[set] = self.dirty[set] & !(1 << i) | u32::from(dirty) << i;
        evicted
    }
}

/// Per-stream cursor while consuming one run group.
#[derive(Clone, Copy)]
struct RunState {
    /// Byte stride per innermost step.
    sb: i64,
    /// Byte address at step `tpos`.
    addr: u64,
    /// The step `addr` corresponds to.
    tpos: u64,
    /// Current cache line.
    line: u64,
    /// First step at which the stream leaves `line` (`u64::MAX` never).
    next_cross: u64,
    /// Steps from one line crossing to the next once the stream has
    /// crossed, when constant (`0` otherwise): a stride of at least a line
    /// crosses every step, and one dividing the line keeps its in-line
    /// offset modulo the stride, so it crosses every `line / |stride|`.
    period: u64,
    /// L1 way holding `line` after its last touch; valid until eviction,
    /// which the fast-hit guarantee rules out while `snapshot` is fresh.
    way: usize,
    /// L1 set of `line` (recomputed on every crossing).
    l1set: usize,
    /// Value of the L1 set's touch counter right after this stream's last
    /// touch or refresh. The line is guaranteed resident while the counter
    /// has advanced by less than `assoc(L1)` (module invariant 2).
    snapshot: u64,
    is_write: bool,
}

/// The simulator. Implements [`TraceSink`] so it can be fed directly from
/// the affine interpreter.
pub struct CacheSim {
    levels: Vec<Level>,
    line_shift: u32,
    base_addrs: Vec<u64>,
    /// Per-L1-set touch counter: bumped once per L1 way promotion (hit
    /// refresh or insert). Only *differences* against [`RunState`]
    /// snapshots are consulted, to bound evictions (module invariant 2).
    l1_set_clock: Vec<u64>,
    /// Stream cursors of the last walked group, kept after the walk for
    /// the warp's comparison with the next group.
    scratch: Vec<RunState>,
    /// Step count of the last walked group while it licenses a warp (it
    /// had no L1 miss; module invariant 5), `0` once a group misses in L1
    /// or an event is fed.
    last_steps: u64,
    /// Groups skipped by the warp.
    warped: u64,
    /// Clock ticks every level can still take without wrapping: a lower
    /// bound, spent per touch and per step by [`CacheSim::reserve`].
    headroom: u64,
    /// Statistics accumulated so far.
    pub stats: SimStats,
}

impl std::fmt::Debug for CacheSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSim")
            .field("levels", &self.levels.len())
            .field("stats", &self.stats)
            .field("warped_groups", &self.warped)
            .finish()
    }
}

impl CacheSim {
    /// Builds a simulator for a program: arrays are laid out contiguously,
    /// each padded to a line boundary (matching typical allocator
    /// behavior).
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy's line size is not a power of two, if a
    /// level has more than 32 ways, or if the program's last line is not
    /// below `u32::MAX` (way records hold 32-bit tags, and non-power-of-two
    /// set indexing is exact only for 32-bit lines).
    pub fn new(hierarchy: &CacheHierarchy, program: &AffineProgram) -> Self {
        let line = hierarchy.line_bytes();
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let mut base_addrs = Vec::with_capacity(program.arrays.len());
        let mut next = 0u64;
        for a in &program.arrays {
            base_addrs.push(next);
            let sz = a.size_bytes() as u64;
            next += sz.div_ceil(line) * line;
        }
        assert!(
            next / line <= u64::from(NO_TAG),
            "program spans {} lines; 32-bit tags hold at most 2^32 - 1",
            next / line
        );
        let levels = hierarchy
            .levels
            .iter()
            .map(|l| Level::new(l.n_sets(), l.assoc as usize))
            .collect::<Vec<_>>();
        let n = levels.len();
        let l1_sets = hierarchy.levels[0].n_sets() as usize;
        CacheSim {
            levels,
            line_shift: line.trailing_zeros(),
            base_addrs,
            l1_set_clock: vec![0; l1_sets],
            scratch: Vec::new(),
            last_steps: 0,
            warped: 0,
            headroom: u32::MAX.into(),
            stats: SimStats {
                hits: vec![0; n],
                misses: vec![0; n],
                ..SimStats::default()
            },
        }
    }

    /// The base address assigned to an array.
    pub fn base_addr(&self, array: ArrayId) -> u64 {
        self.base_addrs[array.0]
    }

    /// Accounts for up to `ticks` clock ticks on every level,
    /// renormalising all levels first if one could wrap. A touch ticks a
    /// level at most `levels` times: its own probe or fill, plus one per
    /// write-back cascade started above it.
    #[inline]
    fn reserve(&mut self, ticks: u64) {
        if self.headroom < ticks {
            self.levels.iter_mut().for_each(Level::renormalise);
            // Each clock now equals its level's associativity, at most 32.
            self.headroom = (u32::MAX - 32).into();
        }
        self.headroom -= ticks;
    }

    /// One demand access to a line: probes the hierarchy top-down, fills
    /// missed levels, and returns the L1 way now holding the line.
    ///
    /// Every touch promotes exactly one L1 way — the hit way's refresh or
    /// the fill — so the set's touch counter is bumped once here.
    #[inline]
    fn touch(&mut self, line: u64, write: bool) -> usize {
        let set0 = self.levels[0].set_index.of(line) as usize;
        self.l1_set_clock[set0] += 1;
        match self.levels[0].probe(line, write) {
            Ok(w) => {
                self.stats.hits[0] += 1;
                w
            }
            Err(victim) => self.miss(0, victim, line, write),
        }
    }

    /// `level` missed `line`, and its probe chose `victim`: fetches the
    /// line from the levels below, then fills it into `victim` (module
    /// invariant 4) and returns that way. Missed levels fill slowest
    /// first.
    fn miss(&mut self, level: usize, victim: usize, line: u64, write: bool) -> usize {
        self.stats.misses[level] += 1;
        match self.levels.get_mut(level + 1).map(|l| l.probe(line, false)) {
            None => self.stats.dram_line_fills += 1,
            Some(Ok(_)) => self.stats.hits[level + 1] += 1,
            Some(Err(below)) => {
                self.miss(level + 1, below, line, false);
            }
        }
        if let Some((evicted, true)) = self.levels[level].fill(victim, line, write) {
            self.write_back(level + 1, evicted);
        }
        victim
    }

    /// Propagates a dirty line evicted out of level `from - 1`. If the
    /// next level holds the line, it absorbs the write-back (marked dirty,
    /// recency refreshed); if not — inclusion was broken by an earlier
    /// silent eviction — the line is *allocated* there dirty
    /// (allocate-on-write-back), cascading further dirty victims until one
    /// is absorbed or reaches DRAM. Dirty data is never dropped.
    fn write_back(&mut self, from: usize, line: u64) {
        let mut lvl = from;
        let mut line = line;
        while lvl < self.levels.len() {
            let Err(victim) = self.levels[lvl].probe(line, true) else {
                return;
            };
            match self.levels[lvl].fill(victim, line, true) {
                Some((evicted, true)) => {
                    line = evicted;
                    lvl += 1;
                }
                _ => return,
            }
        }
        self.stats.dram_writebacks += 1;
    }

    /// Whether run `r` touches the same line at every step as stream `s`
    /// of the last walked group: the same byte stride and write flag, and
    /// the same first address, or the same first line and a stride that
    /// is a multiple of the line (zero included).
    fn same_lines(&self, r: &AccessRun, s: &RunState) -> bool {
        let addr = (self.base_addrs[r.array.0] as i64 + r.base * r.bytes as i64) as u64;
        let sb = r.stride * r.bytes as i64;
        // The walk moved `s.addr` on by `s.tpos` steps.
        let first = (s.addr as i64 - s.sb * s.tpos as i64) as u64;
        let same_line = addr >> self.line_shift == first >> self.line_shift;
        (sb, r.is_write) == (s.sb, s.is_write)
            && (addr == first || sb.trailing_zeros() >= self.line_shift && same_line)
    }

    /// The coalesced consumption of one run group (see the module docs for
    /// the exactness invariants).
    fn consume_group(&mut self, g: RunGroup<'_>) {
        // Aggregate counters are linear in the trip count.
        for s in g.stmts {
            self.stats.flops += s.flops * g.steps;
        }
        let k = g.runs.len();
        self.stats.accesses += k as u64 * g.steps;
        for r in g.runs {
            self.stats.bytes_requested += r.bytes as u64 * g.steps;
        }
        if k == 0 || g.steps == 0 {
            return;
        }
        // A repeat of an all-hit group is all hits (module invariant 5).
        if g.steps == self.last_steps
            && k == self.scratch.len()
            && g.runs
                .iter()
                .zip(&self.scratch)
                .all(|(r, s)| self.same_lines(r, s))
        {
            self.stats.hits[0] += k as u64 * g.steps;
            self.warped += 1;
            return;
        }

        let line_mask = (1u64 << self.line_shift) - 1;
        let mut rs = std::mem::take(&mut self.scratch);
        rs.clear();
        for r in g.runs {
            let addr = (self.base_addrs[r.array.0] as i64 + r.base * r.bytes as i64) as u64;
            let line = addr >> self.line_shift;
            let sb = r.stride * r.bytes as i64;
            let stride = sb.unsigned_abs();
            rs.push(RunState {
                sb,
                addr,
                tpos: 0,
                line,
                next_cross: 0,
                period: if stride > line_mask {
                    1
                } else if stride.is_power_of_two() {
                    (line_mask + 1) >> stride.trailing_zeros()
                } else {
                    0
                },
                way: 0,
                l1set: self.levels[0].set_index.of(line) as usize,
                snapshot: 0,
                is_write: r.is_write,
            });
        }
        let misses0 = self.stats.misses[0];
        // A step ticks a level at most `k` times for guaranteed hits or a
        // stretch refresh, plus what its touches tick.
        let step_ticks = (k * (self.levels.len() + 1)) as u64;
        self.reserve(step_ticks);
        // Step 0: full probes seed each stream's L1 way and next crossing.
        for s in rs.iter_mut() {
            s.way = self.touch(s.line, s.is_write);
            s.snapshot = self.l1_set_clock[s.l1set];
            s.next_cross = next_cross(s.addr, s.sb, 0, line_mask);
        }
        let assoc0 = self.levels[0].assoc as u64;
        // With a stream that crosses on every step, no stretch can form —
        // the min-scan would be pure per-step overhead.
        let stretchable = !rs.iter().any(|s| s.sb.unsigned_abs() > line_mask);
        // Guaranteed-hit counts accumulate in a register and land on the
        // stats once per group.
        let mut hits0 = 0u64;
        let mut t = 1u64;
        while t < g.steps {
            self.reserve(step_ticks);
            // A stretch needs every stream's residency guarantee to hold at
            // entry: inserts from crossings late in the previous step can
            // have pushed an early stream's set past the eviction bound.
            if stretchable {
                // While no stream crosses a line boundary, every step is an
                // identical all-L1-hit step. One pass finds the first
                // crossing, or gives up (`nc = t`) on a stale guarantee.
                let mut nc = g.steps;
                for s in rs.iter() {
                    if self.l1_set_clock[s.l1set] - s.snapshot >= assoc0 {
                        nc = t;
                        break;
                    }
                    nc = nc.min(s.next_cross);
                }
                if nc > t {
                    hits0 += k as u64 * (nc - t);
                    for s in rs.iter_mut() {
                        self.levels[0].refresh(s.way);
                        let c = self.l1_set_clock[s.l1set] + 1;
                        self.l1_set_clock[s.l1set] = c;
                        s.snapshot = c;
                    }
                    t = nc;
                    if t >= g.steps {
                        break;
                    }
                }
            }
            for s in rs.iter_mut() {
                if s.next_cross == t {
                    s.addr = (s.addr as i64 + s.sb * (t - s.tpos) as i64) as u64;
                    s.tpos = t;
                    s.line = s.addr >> self.line_shift;
                    s.next_cross = match s.period {
                        0 => next_cross(s.addr, s.sb, t, line_mask),
                        p => t + p,
                    };
                    s.way = self.touch(s.line, s.is_write);
                    s.l1set = self.levels[0].set_index.of(s.line) as usize;
                    s.snapshot = self.l1_set_clock[s.l1set];
                } else if self.l1_set_clock[s.l1set] - s.snapshot < assoc0 {
                    // Same line as the previous step, and fewer than
                    // `assoc` touches of its set since the last refresh:
                    // guaranteed L1 hit (module invariant 2).
                    hits0 += 1;
                    self.levels[0].refresh(s.way);
                    let c = self.l1_set_clock[s.l1set] + 1;
                    self.l1_set_clock[s.l1set] = c;
                    s.snapshot = c;
                } else {
                    s.way = self.touch(s.line, s.is_write);
                    s.snapshot = self.l1_set_clock[s.l1set];
                }
            }
            t += 1;
        }
        self.stats.hits[0] += hits0;
        self.scratch = rs;
        self.last_steps = if self.stats.misses[0] == misses0 {
            g.steps
        } else {
            0
        };
    }
}

/// First step after `t` at which a stream with byte stride `sb`, currently
/// at byte address `addr`, maps to a different line (`u64::MAX` if never).
#[inline]
fn next_cross(addr: u64, sb: i64, t: u64, line_mask: u64) -> u64 {
    if sb == 0 {
        return u64::MAX;
    }
    // A stride of at least a full line crosses on every step — the common
    // column-major-walk case, and the division below would always be 1.
    if sb.unsigned_abs() > line_mask {
        return t.saturating_add(1);
    }
    let into = addr & line_mask;
    if sb > 0 {
        t.saturating_add((line_mask + 1 - into).div_ceil(sb as u64))
    } else {
        t.saturating_add(into / sb.unsigned_abs() + 1)
    }
}

impl TraceSink for CacheSim {
    fn access(&mut self, ev: AccessEvent) {
        let addr = self.base_addrs[ev.array.0] + ev.offset * ev.bytes as u64;
        let line = addr >> self.line_shift;
        self.stats.accesses += 1;
        self.stats.bytes_requested += ev.bytes as u64;
        self.reserve(self.levels.len() as u64);
        self.touch(line, ev.is_write);
        self.last_steps = 0;
    }

    fn flops(&mut self, n: u64) {
        self.stats.flops += n;
    }

    fn run(&mut self, g: RunGroup<'_>) {
        self.consume_group(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;
    use polyufc_ir::affine::AffineKernel;
    use polyufc_ir::types::ElemType;

    fn tiny_hierarchy(l1_lines: u64, assoc: u32) -> CacheHierarchy {
        CacheHierarchy::new(vec![CacheLevelConfig {
            size_bytes: l1_lines * 64,
            line_bytes: 64,
            assoc,
            shared: false,
        }])
    }

    fn program_one_array(elems: usize) -> AffineProgram {
        let mut p = AffineProgram::new("t");
        p.add_array("A", vec![elems], ElemType::F64);
        p
    }

    fn ev(offset: u64, write: bool) -> AccessEvent {
        AccessEvent {
            array: ArrayId(0),
            offset,
            bytes: 8,
            is_write: write,
        }
    }

    #[test]
    fn cold_misses_once_per_line() {
        let p = program_one_array(64);
        let mut sim = CacheSim::new(&tiny_hierarchy(16, 4), &p);
        // 64 f64 = 8 lines; touch each element: 8 misses, 56 hits.
        for o in 0..64 {
            sim.access(ev(o, false));
        }
        assert_eq!(sim.stats.misses[0], 8);
        assert_eq!(sim.stats.hits[0], 56);
        assert_eq!(sim.stats.dram_line_fills, 8);
    }

    #[test]
    fn capacity_misses_on_repeat_sweep() {
        // Cache of 4 lines, working set 8 lines, two sweeps: all miss (LRU).
        let p = program_one_array(64);
        let mut sim = CacheSim::new(&tiny_hierarchy(4, 4), &p);
        for _ in 0..2 {
            for o in (0..64).step_by(8) {
                sim.access(ev(o, false));
            }
        }
        assert_eq!(sim.stats.misses[0], 16);
        assert_eq!(sim.stats.hits[0], 0);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let p = program_one_array(64);
        let mut sim = CacheSim::new(&tiny_hierarchy(4, 4), &p);
        // Touch line 0 repeatedly between other lines; it must stay.
        sim.access(ev(0, false));
        for o in [8u64, 16, 24] {
            sim.access(ev(o, false));
            sim.access(ev(0, false));
        }
        // line 0: 1 miss then hits.
        assert_eq!(sim.stats.misses[0], 4);
        assert_eq!(sim.stats.hits[0], 3);
    }

    #[test]
    fn conflict_misses_with_low_assoc() {
        // 4 sets, 1-way (direct-mapped), 4-line cache. Alternate two lines
        // mapping to the same set: all misses.
        let p = program_one_array(1024);
        let mut sim = CacheSim::new(&tiny_hierarchy(4, 1), &p);
        for _ in 0..4 {
            sim.access(ev(0, false)); // line 0, set 0
            sim.access(ev(32, false)); // line 4, set 0
        }
        assert_eq!(sim.stats.hits[0], 0);
        assert_eq!(sim.stats.misses[0], 8);
        // Fully associative would hit after the first round.
        let mut sim2 = CacheSim::new(&tiny_hierarchy(4, 4), &p);
        for _ in 0..4 {
            sim2.access(ev(0, false));
            sim2.access(ev(32, false));
        }
        assert_eq!(sim2.stats.misses[0], 2);
        assert_eq!(sim2.stats.hits[0], 6);
    }

    #[test]
    fn writebacks_counted() {
        let p = program_one_array(1024);
        let mut sim = CacheSim::new(&tiny_hierarchy(2, 2), &p);
        // Write 2 lines (fills set), then touch 2 more lines to evict both.
        sim.access(ev(0, true));
        sim.access(ev(8, true));
        sim.access(ev(16, false));
        sim.access(ev(24, false));
        assert_eq!(sim.stats.dram_writebacks, 2);
        assert_eq!(sim.stats.dram_line_fills, 4);
    }

    #[test]
    fn multi_level_hierarchy_fills() {
        let h = CacheHierarchy::new(vec![
            CacheLevelConfig {
                size_bytes: 2 * 64,
                line_bytes: 64,
                assoc: 2,
                shared: false,
            },
            CacheLevelConfig {
                size_bytes: 16 * 64,
                line_bytes: 64,
                assoc: 4,
                shared: true,
            },
        ]);
        let p = program_one_array(1024);
        let mut sim = CacheSim::new(&h, &p);
        // Stream 8 lines: all miss both levels.
        for o in (0..64).step_by(8) {
            sim.access(ev(o, false));
        }
        assert_eq!(sim.stats.misses[0], 8);
        assert_eq!(sim.stats.misses[1], 8);
        // Second sweep: L1 (2 lines) misses, L2 (16 lines) hits.
        for o in (0..64).step_by(8) {
            sim.access(ev(o, false));
        }
        assert_eq!(sim.stats.misses[0], 16);
        assert_eq!(sim.stats.hits[1], 8);
        assert_eq!(sim.stats.dram_line_fills, 8);
    }

    #[test]
    fn arrays_padded_to_lines() {
        let mut p = AffineProgram::new("two");
        p.add_array("A", vec![3], ElemType::F64); // 24 bytes -> pad to 64
        p.add_array("B", vec![8], ElemType::F64);
        let sim = CacheSim::new(&tiny_hierarchy(16, 4), &p);
        assert_eq!(sim.base_addr(ArrayId(0)), 0);
        assert_eq!(sim.base_addr(ArrayId(1)), 64);
    }

    #[test]
    fn fastmod_matches_hardware_modulo() {
        // BDW's LLC has 12288 sets (non-power-of-two) — the strength
        // reduction must agree with `%` on every operand shape.
        for d in [1u64, 3, 5, 12288, 48 * 1024 / (64 * 12), 12287, 65535] {
            let idx = SetIndex::new(d);
            for line in (0..1u64 << 22).step_by(977) {
                assert_eq!(idx.of(line), line % d, "d={d} line={line}");
            }
            for line in [0u64, 1, d, d + 1, 2 * d, u32::MAX as u64] {
                assert_eq!(idx.of(line), line % d, "d={d} line={line}");
            }
        }
    }

    #[test]
    fn dirty_victim_writeback_is_not_lost() {
        // Regression for the lost-write-back bug: a dirty line evicted
        // from L1 after the L2/LLC copy was silently displaced used to
        // vanish — neither absorbed nor counted toward DRAM write-backs.
        //
        // L1: 1 set × 2 ways. L2: 2 sets × 2 ways (4 lines).
        let h = CacheHierarchy::new(vec![
            CacheLevelConfig {
                size_bytes: 2 * 64,
                line_bytes: 64,
                assoc: 2,
                shared: false,
            },
            CacheLevelConfig {
                size_bytes: 4 * 64,
                line_bytes: 64,
                assoc: 2,
                shared: true,
            },
        ]);
        let p = program_one_array(2048);
        let mut sim = CacheSim::new(&h, &p);
        // Write line 0: it is now dirty in L1 and present (clean) in L2
        // set 0.
        sim.access(ev(0, true));
        // Thrash L2 set 0 with lines 2 and 4 (even lines land in L2 set 0;
        // L1's single set holds only 2 ways, so these also churn L1).
        // Line 0 stays dirty in L1? No — with 2-way L1 it gets evicted;
        // keep it hot in L1 by re-reading it between the thrashers.
        sim.access(ev(16, false)); // line 2 -> L2 set 0
        sim.access(ev(0, false)); // keep line 0 most-recent in L1
        sim.access(ev(32, false)); // line 4 -> L2 set 0, evicts line 0 from L2
        sim.access(ev(0, false)); // line 0 still resident + dirty in L1
                                  // L2 set 0 now holds lines 2 and 4; line 0 exists only in L1
                                  // (dirty). Evict it from L1 with two fresh lines.
        sim.access(ev(48, false)); // line 6
        sim.access(ev(64, false)); // line 8 -> line 0 evicted dirty from L1
                                   // The dirty victim was absent from L2: allocate-on-write-back
                                   // re-installs it there (possibly cascading). Flush everything by
                                   // thrashing both L2 sets; the dirty line must eventually reach
                                   // DRAM exactly once.
        for o in (0..2048).step_by(8) {
            sim.access(ev(o, false));
        }
        assert_eq!(
            sim.stats.dram_writebacks, 1,
            "the dirty victim must reach DRAM exactly once"
        );
        // The frozen pre-fix reference (`crate::refsim::RefSim`) loses it;
        // see `tests/writeback_regression.rs` for the explicit contrast.
    }

    #[test]
    fn lines_up_to_the_32_bit_bound_are_accepted() {
        // 2^32 - 1 lines of 64 bytes: the last line is u32::MAX - 1. Only
        // base addresses are computed, so nothing this large is allocated.
        let mut p = AffineProgram::new("huge");
        p.add_array("A", vec![(1 << 35) - 8], ElemType::F64);
        CacheSim::new(&tiny_hierarchy(16, 4), &p);
    }

    #[test]
    #[should_panic(expected = "32-bit tags")]
    fn a_line_at_the_32_bit_bound_panics() {
        // A declared 2^38-byte array ends on line u32::MAX, which a 32-bit
        // tag cannot tell from an empty way (and fastmod would mis-index).
        let mut p = AffineProgram::new("huge");
        p.add_array("A", vec![1 << 35], ElemType::F64);
        CacheSim::new(&tiny_hierarchy(16, 4), &p);
    }

    #[test]
    fn renormalise_ranks_stamps_within_each_set() {
        let mut l = Level::new(2, 4);
        for (w, stamp) in l.ways.iter_mut().zip([0, 500, 7, 90_000, 3, 0, 1, 2]) {
            w.stamp = stamp;
        }
        l.clock = 90_000;
        l.renormalise();
        let stamps: Vec<u32> = l.ways.iter().map(|w| w.stamp).collect();
        assert_eq!(stamps, [0, 2, 1, 3, 3, 0, 1, 2]);
        assert_eq!(l.clock, 4);
    }

    /// Pushes every level's clock to within a few ticks of wrapping before
    /// each run group (or each access, per event), so renormalisation
    /// fires over and over, mid-group included.
    struct Aged<'a>(&'a mut CacheSim, u32);

    impl Aged<'_> {
        fn age(&mut self) {
            for l in &mut self.0.levels {
                l.clock = l.clock.max(u32::MAX - 40);
            }
            let headroom = self.0.levels.iter().map(|l| u32::MAX - l.clock).min();
            self.0.headroom = headroom.unwrap_or(0).into();
        }

        /// Runs `f` on the aged simulator, counting renormalisations.
        fn aged(&mut self, f: impl FnOnce(&mut CacheSim)) {
            self.age();
            let before = self.0.levels[0].clock;
            f(self.0);
            self.1 += u32::from(self.0.levels[0].clock < before);
        }
    }

    impl TraceSink for Aged<'_> {
        fn access(&mut self, ev: AccessEvent) {
            self.aged(|sim| sim.access(ev));
        }

        fn flops(&mut self, n: u64) {
            self.0.flops(n);
        }

        fn run(&mut self, g: RunGroup<'_>) {
            self.aged(|sim| sim.run(g));
        }
    }

    /// [`Aged`] without `run`, so the default expansion feeds it per event.
    struct AgedEvents<'a>(Aged<'a>);

    impl TraceSink for AgedEvents<'_> {
        fn access(&mut self, ev: AccessEvent) {
            self.0.access(ev);
        }

        fn flops(&mut self, n: u64) {
            self.0.flops(n);
        }
    }

    /// Forwards only `access`/`flops`, so the default expansion feeds the
    /// simulator per event.
    struct Events<'a>(&'a mut CacheSim);

    impl TraceSink for Events<'_> {
        fn access(&mut self, ev: AccessEvent) {
            self.0.access(ev);
        }

        fn flops(&mut self, n: u64) {
            self.0.flops(n);
        }
    }

    /// `x2[i] += A[j][i] * y2[j]` over the `n × n` matrix `a`, in `t × t`
    /// tiles with the column walk innermost — mvt's second kernel as Pluto
    /// tiles it. Consecutive groups of a tile differ only in `i`, so while
    /// `i` stays within one line of `A` and `x2` they touch the same lines.
    fn tiled_column_walk(p: &mut AffineProgram, a: ArrayId, n: i64, t: i64) -> AffineKernel {
        use polyufc_ir::affine::{Access, Loop, Statement};
        use polyufc_presburger::LinExpr;
        let x2 = p.add_array("x2", vec![n as usize], ElemType::F64);
        let y2 = p.add_array("y2", vec![n as usize], ElemType::F64);
        let i = LinExpr::var(0) * t + LinExpr::var(2);
        let j = LinExpr::var(1) * t + LinExpr::var(3);
        AffineKernel {
            name: "mvt_x2".into(),
            loops: vec![
                Loop::range(n / t),
                Loop::range(n / t),
                Loop::range(t),
                Loop::range(t),
            ],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(x2, vec![i.clone()]),
                    Access::read(a, vec![j.clone(), i.clone()]),
                    Access::read(y2, vec![j]),
                    Access::write(x2, vec![i]),
                ],
                flops: 2,
            }],
        }
    }

    #[test]
    fn repeated_all_hit_groups_warp() {
        // 40 x 40 f64 (5 lines a row) in 8 x 8 tiles: a tile's column walk
        // touches 8 lines of A in 8 distinct sets of an 8-set L1.
        let mut p = AffineProgram::new("mvt");
        let a = p.add_array("A", vec![40, 40], ElemType::F64);
        let k = tiled_column_walk(&mut p, a, 40, 8);
        p.kernels.push(k);
        let two_level = CacheHierarchy::new(vec![
            CacheLevelConfig {
                size_bytes: 64 * 64,
                line_bytes: 64,
                assoc: 8,
                shared: false,
            },
            CacheLevelConfig {
                size_bytes: 96 * 64,
                line_bytes: 64,
                assoc: 4,
                shared: true,
            },
        ]);
        for h in [tiny_hierarchy(64, 8), two_level] {
            let mut sim = CacheSim::new(&h, &p);
            polyufc_ir::interp::interpret_program(&p, &mut sim);
            // Per tile, the first of its 8 groups misses on A, the second
            // walks all-hit and licenses the warp, and the other six warp.
            assert_eq!(sim.warped, 25 * 6);
            let mut events = CacheSim::new(&h, &p);
            polyufc_ir::interp::interpret_program(&p, &mut Events(&mut events));
            assert_eq!(events.warped, 0);
            assert_eq!(sim.stats, events.stats);
            if h.levels.len() == 1 {
                let mut reference = crate::refsim::RefSim::new(&h, &p);
                polyufc_ir::interp::interpret_program(&p, &mut reference);
                assert_eq!(sim.stats, reference.stats);
            }
        }
    }

    #[test]
    fn clocks_near_wrap_give_a_fresh_simulators_stats() {
        use polyufc_ir::affine::{Access, AffineKernel, Loop, Statement};
        use polyufc_presburger::LinExpr;
        // B[j][i] += A[i][j] over 40 x 40: a row walk, a column walk and a
        // write stream, through 3 levels with a non-power-of-two L2; then a
        // tiled column walk whose warps interleave with renormalisations.
        let mut p = AffineProgram::new("transpose");
        let a = p.add_array("A", vec![40, 40], ElemType::F64);
        let b = p.add_array("B", vec![40, 40], ElemType::F64);
        let (i, j) = (LinExpr::var(0), LinExpr::var(1));
        p.kernels.push(AffineKernel {
            name: "t".into(),
            loops: vec![Loop::range(40), Loop::range(40)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![i.clone(), j.clone()]),
                    Access::read(b, vec![j.clone(), i.clone()]),
                    Access::write(b, vec![j, i]),
                ],
                flops: 1,
            }],
        });
        let k = tiled_column_walk(&mut p, a, 40, 8);
        p.kernels.push(k);
        let lvl = |lines: u64, assoc: u32| CacheLevelConfig {
            size_bytes: lines * 64,
            line_bytes: 64,
            assoc,
            shared: false,
        };
        let h = CacheHierarchy::new(vec![lvl(16, 4), lvl(96, 4), lvl(256, 8)]);
        let mut fresh = CacheSim::new(&h, &p);
        polyufc_ir::interp::interpret_program(&p, &mut fresh);
        assert!(fresh.stats.dram_writebacks > 0 && fresh.stats.hits[1] > 0);

        let mut sim = CacheSim::new(&h, &p);
        let mut aged = Aged(&mut sim, 0);
        polyufc_ir::interp::interpret_program(&p, &mut aged);
        assert!(aged.1 >= 40, "renormalised only {} times", aged.1);
        assert!(sim.warped > 0 && sim.warped == fresh.warped);
        assert_eq!(sim.stats, fresh.stats);

        let mut sim = CacheSim::new(&h, &p);
        let mut aged = AgedEvents(Aged(&mut sim, 0));
        polyufc_ir::interp::interpret_program(&p, &mut aged);
        assert!(aged.0 .1 > 100, "renormalised only {} times", aged.0 .1);
        assert_eq!(sim.stats, fresh.stats);
    }

    #[test]
    fn end_to_end_with_interpreter() {
        use polyufc_ir::affine::{Access, AffineKernel, Loop, Statement};
        use polyufc_presburger::LinExpr;
        // Sum A[0..128]: 16 lines; one cold miss per line.
        let mut p = AffineProgram::new("sum");
        let a = p.add_array("A", vec![128], ElemType::F64);
        p.kernels.push(AffineKernel {
            name: "sum".into(),
            loops: vec![Loop::range(128)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(a, vec![LinExpr::var(0)])],
                flops: 1,
            }],
        });
        let mut sim = CacheSim::new(&tiny_hierarchy(64, 8), &p);
        polyufc_ir::interp::interpret_program(&p, &mut sim);
        assert_eq!(sim.stats.misses[0], 16);
        assert_eq!(sim.stats.hits[0], 112);
        assert_eq!(sim.stats.flops, 128);
    }
}
