//! An exact trace-driven, multi-level, set-associative LRU cache
//! simulator (write-allocate, write-back). This is the reference the
//! static model is validated against, and the memory system of the
//! machine simulator.
//!
//! The simulator consumes the interpreter's run-length trace directly
//! (see `polyufc_ir::interp::RunGroup`): per innermost-loop instance it
//! visits only the steps where some access stream crosses a cache *line*
//! (or must re-touch a line an L1 fill evicted) instead of probing the
//! hierarchy once per element. Invariants 1–2 make this event walk produce
//! *bit-identical* [`SimStats`] to per-event simulation, invariant 3 makes
//! the one-pass victim search exact, and invariant 4 lets whole groups be
//! skipped:
//!
//! 1. **Order preservation** — within one step every stream is touched in
//!    program order, and streams are advanced step-major, so the sequence
//!    of line touches equals the per-event trace's.
//! 2. **Deferred L1 stamps** — every access ticks the L1 clock exactly
//!    once, so access `q` of step `t` in a group of `k` streams carries the
//!    per-event stamp `base + t·k + q + 1` (`base` = the L1 clock at the
//!    walk's start). A stream that stays on a line it touched *holds* that
//!    way, and its later accesses to it are L1 hits whose stamps are
//!    computed, not stored: the walk visits a step only where some stream
//!    is due (it crosses a line, or its line was evicted), and a held way's
//!    stored stamp may lag its true one, which is the maximum of the stored
//!    stamp and its holders' last computed ones. The maximum is written
//!    back when a holder leaves the line, at the end of a walk, and when an
//!    L1 miss's probe picks a held way as victim. Exactness: lines change
//!    only through L1 fills, and a way no stream holds carries its exact
//!    stamp (its last touch was probed, or written back when its last
//!    holder left). A lagging stamp only understates recency, and LRU
//!    victimises the minimum, so an unheld victim's stamp is at most every
//!    stored and hence every true stamp of its set: it is the exact victim
//!    (stamps of live ways are distinct; empty ways are never held). A held
//!    victim makes the walk write back the held stamps of that set and
//!    probe again, on exact stamps. Its holders are then evicted, which the
//!    walk knows at once: each re-touches its line at its next access, this
//!    step if it comes later in the step, the next step otherwise. A walk
//!    reserves its clock ticks up front and ends with every stamp exact, so
//!    a group too long for one reservation is walked in chunks, each
//!    starting with every stream due.
//! 3. **Victims stay valid** — a probe that misses returns its set's LRU
//!    way, found in the same scan, and the fill writes that way. Between
//!    a level's probe and its fill only slower levels change (their fills
//!    and the write-backs those evict), so the victim is still the LRU.
//! 4. **Warping over repeated all-hit groups** — a group is skipped, and
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
//!    clock (LRU compares stamps only within a set, and a walk's computed
//!    stamps are relative to the clock at its start). By induction a
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
    /// Recency clock; incremented on every touch (L1's is set by the group
    /// walk, which computes the stamps of the hits it does not visit;
    /// module invariant 2). Only the *relative* order of stamps within a
    /// set is ever consulted, which is what lets [`Level::renormalise`]
    /// restart the clock before it wraps ([`CacheSim::reserve`]).
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

/// [`RunState::way`] of a stream that holds no L1 way.
const NO_WAY: usize = usize::MAX;

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
    /// Next step at which the stream touches the hierarchy: its next
    /// crossing, or the re-touch of a line an L1 fill evicted.
    next: u64,
    /// L1 way of `line` while the stream holds it, hitting it with
    /// deferred stamps until `next` (module invariant 2); `NO_WAY` when it
    /// holds none (it is due at the next step, or its line was evicted).
    way: usize,
    is_write: bool,
}

/// The simulator. Implements [`TraceSink`] so it can be fed directly from
/// the affine interpreter.
pub struct CacheSim {
    levels: Vec<Level>,
    line_shift: u32,
    base_addrs: Vec<u64>,
    /// Per L1 way, how many streams of the group being walked hold it
    /// (module invariant 2); all zero between walks.
    holders: Vec<u32>,
    /// Stream cursors of the last walked group, kept after the walk for
    /// the warp's comparison with the next group.
    scratch: Vec<RunState>,
    /// Step count of the last walked group while it licenses a warp (it
    /// had no L1 miss; module invariant 4), `0` once a group misses in L1
    /// or an event is fed.
    last_steps: u64,
    /// Groups skipped by the warp.
    warped: u64,
    /// Clock ticks every level can still take without wrapping: a lower
    /// bound, spent per access and per walk by [`CacheSim::reserve`].
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
        CacheSim {
            holders: vec![0; levels[0].ways.len()],
            levels,
            line_shift: line.trailing_zeros(),
            base_addrs,
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

    /// Accounts for the clock ticks of up to `steps` steps of `per_step`
    /// ticks on every level, and returns how many steps it accounted for:
    /// at least one, renormalising all levels first if not even one fits.
    /// An access ticks a level at most `levels` times: its own probe or
    /// fill, plus one per write-back cascade started above it.
    #[inline]
    fn reserve(&mut self, per_step: u64, steps: u64) -> u64 {
        if self.headroom < per_step {
            self.levels.iter_mut().for_each(Level::renormalise);
            // Each clock now equals its level's associativity, at most 32.
            self.headroom = (u32::MAX - 32).into();
        }
        let n = steps.min(self.headroom / per_step);
        self.headroom -= n * per_step;
        n
    }

    /// `level` missed `line`, and its probe chose `victim`: fetches the
    /// line from the levels below, then fills it into `victim` (module
    /// invariant 3) and returns that way. Missed levels fill slowest
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
        // A repeat of an all-hit group is all hits (module invariant 4).
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
            let sb = r.stride * r.bytes as i64;
            let stride = sb.unsigned_abs();
            rs.push(RunState {
                sb,
                addr,
                tpos: 0,
                line: addr >> self.line_shift,
                next_cross: next_cross(addr, sb, 0, line_mask),
                period: if stride > line_mask {
                    1
                } else if stride.is_power_of_two() {
                    (line_mask + 1) >> stride.trailing_zeros()
                } else {
                    0
                },
                next: 0,
                way: NO_WAY,
                is_write: r.is_write,
            });
        }
        let misses0 = self.stats.misses[0];
        let per_step = (k * self.levels.len()) as u64;
        let mut t = 0;
        while t < g.steps {
            let end = t + self.reserve(per_step, g.steps - t);
            self.walk(&mut rs, t, end);
            t = end;
        }
        // Every access the walk did not count as an L1 miss hit.
        let misses = self.stats.misses[0] - misses0;
        self.stats.hits[0] += k as u64 * g.steps - misses;
        self.scratch = rs;
        self.last_steps = if misses == 0 { g.steps } else { 0 };
    }

    /// Walks steps `t0..t1` of a group with stream cursors `rs`, every
    /// stream due at `t0`, visiting only steps where a stream is due
    /// (module invariant 2). Counts L1 misses but not L1 hits; the clock
    /// ticks must be reserved. Ends with every stamp exact and no way held.
    fn walk(&mut self, rs: &mut [RunState], t0: u64, t1: u64) {
        let (k, clock0) = (rs.len() as u64, u64::from(self.levels[0].clock));
        let line_mask = (1u64 << self.line_shift) - 1;
        rs.iter_mut().for_each(|s| s.next = t0);
        let mut t = t0;
        while t < t1 {
            let mut due = u64::MAX;
            for q in 0..rs.len() {
                let s = &mut rs[q];
                if s.next == t {
                    // The L1 clock just before access `q` of step `t`.
                    let now = clock0 + (t - t0) * k + q as u64;
                    if t == s.next_cross {
                        if s.way != NO_WAY {
                            // Leaving the line: its last hit was a step ago.
                            let w = &mut self.levels[0].ways[s.way];
                            w.stamp = w.stamp.max((now + 1 - k) as u32);
                            self.holders[s.way] -= 1;
                        }
                        s.addr = (s.addr as i64 + s.sb * (t - s.tpos) as i64) as u64;
                        s.tpos = t;
                        s.line = s.addr >> self.line_shift;
                        s.next_cross = match s.period {
                            0 => next_cross(s.addr, s.sb, t, line_mask),
                            p => t + p,
                        };
                    }
                    let (line, write) = (s.line, s.is_write);
                    self.levels[0].clock = now as u32;
                    let way = match self.levels[0].probe(line, write) {
                        Ok(w) => w,
                        Err(mut v) => {
                            if self.holders[v] != 0 {
                                // The victim's stamp may lag: settle the
                                // set and pick again, on exact stamps.
                                self.settle(rs, now, q, Some(v / self.levels[0].assoc));
                                v = self.levels[0].probe(line, write).unwrap_err();
                                if self.holders[v] != 0 {
                                    self.holders[v] = 0;
                                    for (p, e) in rs.iter_mut().enumerate() {
                                        if e.way == v {
                                            e.way = NO_WAY;
                                            e.next = e.next.min(t + u64::from(p < q));
                                        }
                                    }
                                    due = due.min(t + 1);
                                }
                            }
                            self.miss(0, v, line, write)
                        }
                    };
                    let s = &mut rs[q];
                    s.next = s.next_cross;
                    // A stream due at the next step has no hits to defer.
                    s.way = if s.next > t + 1 {
                        self.holders[way] += 1;
                        way
                    } else {
                        NO_WAY
                    };
                }
                due = due.min(rs[q].next);
            }
            debug_assert!(due > t, "a stream fell behind the walk");
            t = due;
        }
        let end = clock0 + (t1 - t0) * k;
        self.settle(rs, end, 0, None);
        for s in rs.iter_mut().filter(|s| s.way != NO_WAY) {
            self.holders[s.way] = 0;
            s.way = NO_WAY;
        }
        self.levels[0].clock = end as u32;
    }

    /// Writes back the deferred stamps of the streams holding an L1 way (in
    /// L1 set `set`, if given), as seen just before stream `qn`'s access at
    /// L1 clock `now`: a holder before `qn` last hit in this step, one at
    /// or after it in the step before.
    fn settle(&mut self, rs: &[RunState], now: u64, qn: usize, set: Option<usize>) {
        let (k, l1) = (rs.len(), &mut self.levels[0]);
        for (q, s) in rs.iter().enumerate() {
            if s.way != NO_WAY && set.is_none_or(|set| s.way / l1.assoc == set) {
                let back = if q < qn { qn - q } else { qn + k - q };
                let w = &mut l1.ways[s.way];
                w.stamp = w.stamp.max((now + 1 - back as u64) as u32);
            }
        }
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
        self.reserve(self.levels.len() as u64, 1);
        match self.levels[0].probe(line, ev.is_write) {
            Ok(_) => self.stats.hits[0] += 1,
            Err(victim) => _ = self.miss(0, victim, line, ev.is_write),
        }
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
    /// fires over and over, between the chunks of a group's walk included.
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

    /// Stats of `p` on `h`, fed by run groups, after asserting that they
    /// equal per-event feeding's and, on one level, `RefSim`'s.
    fn checked_stats(h: &CacheHierarchy, p: &AffineProgram) -> SimStats {
        let mut sim = CacheSim::new(h, p);
        polyufc_ir::interp::interpret_program(p, &mut sim);
        let mut events = CacheSim::new(h, p);
        polyufc_ir::interp::interpret_program(p, &mut Events(&mut events));
        assert_eq!(sim.stats, events.stats);
        if h.levels.len() == 1 {
            let mut reference = crate::refsim::RefSim::new(h, p);
            polyufc_ir::interp::interpret_program(p, &mut reference);
            assert_eq!(sim.stats, reference.stats);
        }
        sim.stats
    }

    /// `C[i][j] += B[k][j]` over 16 x 16 f64 (two lines a row) with `k`
    /// innermost: a stride-0 read/write pair and a column walk. `C`'s and
    /// `B`'s bases are 32 lines apart, so in a 2-set L1 every line the
    /// kernel touches for one `j` falls in one set, as `C[i][j]` and a
    /// 32-row column tile of `B` do in BDW's L1 at n = 512.
    fn accumulator_beside_column_walk() -> AffineProgram {
        use polyufc_ir::affine::{Access, Loop, Statement};
        use polyufc_presburger::LinExpr;
        let mut p = AffineProgram::new("gemm");
        let c = p.add_array("C", vec![16, 16], ElemType::F64);
        let b = p.add_array("B", vec![16, 16], ElemType::F64);
        let (i, j, k) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        p.kernels.push(AffineKernel {
            name: "gemm".into(),
            loops: vec![Loop::range(4), Loop::range(16), Loop::range(16)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(c, vec![i.clone(), j.clone()]),
                    Access::read(b, vec![k, j.clone()]),
                    Access::write(c, vec![i, j]),
                ],
                flops: 1,
            }],
        });
        p
    }

    #[test]
    fn a_held_way_is_settled_before_it_can_be_a_stale_victim() {
        // 16 lines of B cycle through the 3 ways C leaves them, so B misses
        // every step while C hits. C's stored stamp lags from its group's
        // first step on, so after three misses the probe's minimum is C's
        // way: the walk must settle it and evict the oldest B line instead.
        let p = accumulator_beside_column_walk();
        let two_level = CacheHierarchy::new(vec![
            CacheLevelConfig {
                size_bytes: 8 * 64,
                line_bytes: 64,
                assoc: 4,
                shared: false,
            },
            CacheLevelConfig {
                size_bytes: 24 * 64,
                line_bytes: 64,
                assoc: 2,
                shared: true,
            },
        ]);
        for h in [tiny_hierarchy(8, 4), two_level] {
            let stats = checked_stats(&h, &p);
            // Every B access misses; C misses once per line per `i`.
            assert_eq!(stats.misses[0], 4 * 16 * 16 + 4 * 2);
        }
    }

    #[test]
    fn held_lines_evicted_within_a_step_are_retouched() {
        use polyufc_ir::affine::{Access, Loop, Statement};
        use polyufc_presburger::LinExpr;
        // A 2-set, 2-way L1. X = A[1008] is held in set 0; Z = A[16k + 256]
        // moves to a new set-0 line every step and Y = A[8k] to a new line
        // every step, in set 0 every other step. So X survives one step
        // and is evicted by Z the next: by a later stream in program order
        // X, Y, Z (X re-touches at the next step), and by an earlier one in
        // order Y, Z, X (X re-touches in the same step).
        let mut p = AffineProgram::new("evict");
        let a = p.add_array("A", vec![1024], ElemType::F64);
        let k = LinExpr::var(1);
        let x = Access::read(a, vec![LinExpr::constant(1008)]);
        let y = Access::read(a, vec![k.clone() * 8]);
        let z = Access::write(a, vec![k * 16 + LinExpr::constant(256)]);
        for accesses in [vec![x.clone(), y.clone(), z.clone()], vec![y, z, x]] {
            p.kernels.push(AffineKernel {
                name: "k".into(),
                loops: vec![Loop::range(3), Loop::range(32)],
                statements: vec![Statement {
                    name: "S".into(),
                    accesses,
                    flops: 1,
                }],
            });
        }
        let stats = checked_stats(&tiny_hierarchy(4, 2), &p);
        assert!(stats.hits[0] > 0 && stats.dram_writebacks > 0);
    }

    #[test]
    fn a_group_longer_than_one_reservation_is_walked_in_chunks() {
        // Aged to 40 ticks of headroom, each 16-step group of 3 streams on
        // one level (48 ticks) is walked as 13 steps, a renormalisation,
        // and 3 steps, with C held and B's lines in flight across the cut.
        let p = accumulator_beside_column_walk();
        let h = tiny_hierarchy(8, 4);
        let mut sim = CacheSim::new(&h, &p);
        let mut aged = Aged(&mut sim, 0);
        polyufc_ir::interp::interpret_program(&p, &mut aged);
        assert_eq!(aged.1, 4 * 16, "one renormalisation per group");
        assert_eq!(sim.stats, checked_stats(&h, &p));
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
