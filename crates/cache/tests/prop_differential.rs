//! Differential property tests for the coalesced trace simulator: on
//! random affine kernels — strides of 0, negative and line-multiple
//! coefficients, several statements, neighbour streams that cross lines
//! at different phases, run groups that repeat their predecessor, outer
//! strides of 0, under a line and of a line or more, triangular inner
//! bounds, low associativities, multi-level hierarchies with
//! non-power-of-two set counts — the event walk over whole blocks must
//! produce *exactly* the same [`SimStats`] as the walk fed one run group
//! at a time and as the per-event path, counter for counter. A second
//! property pins the stamp-LRU + fastmod core against the frozen
//! pre-optimization simulator on single-level hierarchies (where the
//! historical write-back bug cannot manifest).

mod common;

use proptest::prelude::*;

use common::{build_program, kernel_spec};
use polyufc_cache::{CacheHierarchy, CacheLevelConfig, CacheSim, RefSim, SimStats};
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::interp::{interpret_program, AccessEvent, RunGroup, TraceSink};

/// Hierarchies chosen to exercise every path of the event walk:
/// direct-mapped and 2-way sets (held lines evicted within a step, by
/// earlier and by later streams), non-power-of-two set counts (fastmod),
/// and three levels (write-back cascades).
fn hierarchies() -> Vec<CacheHierarchy> {
    let lvl = |lines: u64, assoc: u32, shared| CacheLevelConfig {
        size_bytes: lines * 64,
        line_bytes: 64,
        assoc,
        shared,
    };
    vec![
        CacheHierarchy::new(vec![lvl(4, 1, false)]),
        CacheHierarchy::new(vec![lvl(6, 2, false)]), // 3 sets: fastmod
        CacheHierarchy::new(vec![lvl(2, 2, false), lvl(12, 2, true)]), // 6 sets
        CacheHierarchy::new(vec![lvl(2, 1, false), lvl(8, 2, false), lvl(24, 4, true)]),
        // High associativity, tiny set counts: held ways share their set
        // with every other stream, so a miss's probe often picks a held
        // way whose deferred stamp lags, and the walk must settle it.
        CacheHierarchy::new(vec![lvl(8, 8, false), lvl(32, 8, true)]), // 1 set L1
        CacheHierarchy::new(vec![lvl(16, 8, false)]),                  // 2 sets
    ]
}

/// Forwards only `access`/`flops`, so [`TraceSink::run`]'s default
/// expansion feeds the wrapped simulator event by event.
struct PerEvent<'a>(&'a mut CacheSim);

impl TraceSink for PerEvent<'_> {
    fn access(&mut self, ev: AccessEvent) {
        self.0.access(ev);
    }

    fn flops(&mut self, n: u64) {
        self.0.flops(n);
    }
}

/// Forwards `run` but not `block`, so [`TraceSink::block`]'s default
/// expansion feeds the wrapped simulator one run group at a time.
struct PerGroup<'a>(&'a mut CacheSim);

impl TraceSink for PerGroup<'_> {
    fn access(&mut self, ev: AccessEvent) {
        self.0.access(ev);
    }

    fn flops(&mut self, n: u64) {
        self.0.flops(n);
    }

    fn run(&mut self, g: RunGroup<'_>) {
        self.0.run(g);
    }
}

/// How the trace reaches the simulator.
#[derive(Debug, Clone, Copy)]
enum Route {
    Blocks,
    Groups,
    Events,
}

fn run_stats(h: &CacheHierarchy, p: &AffineProgram, route: Route) -> SimStats {
    let mut sim = CacheSim::new(h, p);
    match route {
        Route::Blocks => interpret_program(p, &mut sim),
        Route::Groups => interpret_program(p, &mut PerGroup(&mut sim)),
        Route::Events => interpret_program(p, &mut PerEvent(&mut sim)),
    }
    sim.stats
}

/// Groups the simulator skipped by its warp over repeated all-hit
/// groups, as its `Debug` output reports them.
fn warped_groups(sim: &CacheSim) -> u64 {
    let debug = format!("{sim:?}");
    let (_, count) = debug.split_once("warped_groups: ").expect("reported");
    count.trim_end_matches(" }").parse().expect("a count")
}

#[test]
fn generated_kernels_warp() {
    let mut rng = proptest::test_runner::TestRng::new(0x5eed);
    let (mut runs, mut warping) = (0, 0);
    for _ in 0..256 {
        let p = build_program(&kernel_spec().sample(&mut rng));
        for h in hierarchies() {
            let mut sim = CacheSim::new(&h, &p);
            interpret_program(&p, &mut sim);
            runs += 1;
            warping += usize::from(warped_groups(&sim) > 0);
        }
    }
    // 228 of 1,536 (230 before the generator's accumulators, triangular
    // bounds and trailing one-iteration loops, 300 before its neighbour
    // offsets and long innermost loops); a generator that stops repeating
    // groups would leave the warp untested.
    assert!(warping * 8 >= runs, "only {warping} of {runs} runs warp");
}

proptest! {
    // Default config, so `PROPTEST_CASES` deepens both properties.

    #[test]
    fn coalesced_equals_per_event(spec in kernel_spec()) {
        let p = build_program(&spec);
        for h in hierarchies() {
            let fast = run_stats(&h, &p, Route::Blocks);
            for route in [Route::Groups, Route::Events] {
                let slow = run_stats(&h, &p, route);
                prop_assert_eq!(&fast, &slow, "{:?}: hierarchy {:?} spec {:?}", route, h.levels, &spec);
            }
        }
    }

    #[test]
    fn stamp_lru_matches_frozen_reference_single_level(spec in kernel_spec()) {
        // On a single level the frozen simulator's write-back handling is
        // sound, so all counters must agree — this pins the stamp-LRU
        // replacement and the fastmod set indexing against the original
        // MRU-ordering + `%` implementation.
        let p = build_program(&spec);
        let lvl = |lines: u64, assoc: u32| CacheHierarchy::new(vec![CacheLevelConfig {
            size_bytes: lines * 64,
            line_bytes: 64,
            assoc,
            shared: false,
        }]);
        for h in [lvl(4, 1), lvl(6, 2), lvl(12, 4), lvl(40, 8)] {
            let mut sim = CacheSim::new(&h, &p);
            interpret_program(&p, &mut sim);
            let mut reference = RefSim::new(&h, &p);
            interpret_program(&p, &mut reference);
            prop_assert_eq!(&sim.stats, &reference.stats, "hierarchy {:?}", h.levels);
        }
    }
}
