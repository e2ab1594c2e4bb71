//! Differential property tests for the coalesced trace simulator: on
//! random affine kernels — strides of 0, negative coefficients, several
//! statements, low associativities, multi-level hierarchies with
//! non-power-of-two set counts — the run-length/line-coalesced path must
//! produce *exactly* the same [`SimStats`] as the per-event path, counter
//! for counter. A second property pins the stamp-LRU + fastmod core
//! against the frozen pre-optimization simulator on single-level
//! hierarchies (where the historical write-back bug cannot manifest).

use proptest::prelude::*;

use polyufc_cache::{CacheHierarchy, CacheLevelConfig, CacheSim, RefSim, SimStats};
use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
use polyufc_ir::interp::{interpret_program, AccessEvent, TraceSink};
use polyufc_ir::types::ElemType;
use polyufc_presburger::LinExpr;

const ARRAY_ELEMS: usize = 4096;

/// Builds an in-bounds index expression from per-iterator coefficients:
/// the constant is shifted so the minimum offset over the (rectangular)
/// domain is zero.
fn in_bounds_expr(coeffs: &[i64], extents: &[i64]) -> LinExpr {
    let mut e = LinExpr::constant(0);
    let mut min = 0i64;
    for (v, (&c, &ext)) in coeffs.iter().zip(extents).enumerate() {
        if c != 0 {
            e = e + LinExpr::var(v) * c;
        }
        min += (c * (ext - 1)).min(0);
    }
    e + LinExpr::constant(-min)
}

/// One access: per-iterator index coefficients and whether it writes.
type AccessSpec = (Vec<i64>, bool);

#[derive(Debug, Clone)]
struct KernelSpec {
    extents: Vec<i64>,
    /// Per statement: flops and its accesses.
    stmts: Vec<(u64, Vec<AccessSpec>)>,
}

const MAX_DEPTH: usize = 3;

fn kernel_spec() -> impl Strategy<Value = KernelSpec> {
    // The vendored proptest has no `prop_flat_map`: draw everything at the
    // maximum depth and truncate to the drawn depth in `prop_map`.
    let coeff = prop_oneof![
        Just(0i64),
        Just(1),
        Just(-1),
        Just(2),
        Just(-2),
        Just(3),
        Just(9),
        Just(-9),
    ];
    let accesses = proptest::collection::vec(
        (proptest::collection::vec(coeff, MAX_DEPTH), any::<bool>()),
        1..5,
    );
    let stmts = proptest::collection::vec((0u64..4, accesses), 1..3);
    (
        2usize..=MAX_DEPTH,
        proptest::collection::vec(1i64..10, MAX_DEPTH),
        stmts,
    )
        .prop_map(|(depth, mut extents, mut stmts)| {
            extents.truncate(depth);
            for (_, accesses) in &mut stmts {
                for (coeffs, _) in accesses {
                    coeffs.truncate(depth);
                }
            }
            KernelSpec { extents, stmts }
        })
}

fn build_program(spec: &KernelSpec) -> AffineProgram {
    let mut p = AffineProgram::new("diff");
    let a = p.add_array("A", vec![ARRAY_ELEMS], ElemType::F64);
    let b = p.add_array("B", vec![ARRAY_ELEMS], ElemType::F32);
    let statements = spec
        .stmts
        .iter()
        .enumerate()
        .map(|(si, (flops, accesses))| Statement {
            name: format!("S{si}"),
            accesses: accesses
                .iter()
                .enumerate()
                .map(|(ai, (coeffs, is_write))| {
                    let arr = if (si + ai) % 2 == 0 { a } else { b };
                    let idx = in_bounds_expr(coeffs, &spec.extents);
                    if *is_write {
                        Access::write(arr, vec![idx])
                    } else {
                        Access::read(arr, vec![idx])
                    }
                })
                .collect(),
            flops: *flops,
        })
        .collect();
    p.kernels.push(AffineKernel {
        name: "k".into(),
        loops: spec.extents.iter().map(|&e| Loop::range(e)).collect(),
        statements,
    });
    p
}

/// Hierarchies chosen to exercise every simulator regime: direct-mapped
/// (fast-hit fallback since group size > assoc), non-power-of-two set
/// counts (fastmod), and three levels (write-back cascades).
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
        // High associativity, tiny set counts: every group runs the
        // fast-hit regime with constant set collisions, stressing the
        // deferred-stamp materialization.
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

fn run_stats(h: &CacheHierarchy, p: &AffineProgram, per_event: bool) -> SimStats {
    let mut sim = CacheSim::new(h, p);
    if per_event {
        interpret_program(p, &mut PerEvent(&mut sim));
    } else {
        interpret_program(p, &mut sim);
    }
    sim.stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalesced_equals_per_event(spec in kernel_spec()) {
        let p = build_program(&spec);
        for h in hierarchies() {
            let fast = run_stats(&h, &p, false);
            let slow = run_stats(&h, &p, true);
            prop_assert_eq!(&fast, &slow, "hierarchy {:?} spec {:?}", h.levels, &spec);
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
