//! Process-wide memoization of measured kernel counters.
//!
//! [`crate::measure_kernel`] is a pure function: the counters it returns
//! are fully determined by the platform's cache hierarchy and the
//! kernel's structure plus the memory layout of the arrays it touches
//! (measurement noise is applied later, at run time, never to counters).
//! Harness runs measure many (kernel × platform) points, and structurally
//! identical points recur — repeated operators in lowered ML graphs,
//! repeated measurements of the same kernel across a binary's phases and
//! across the test suite. The `MeasureCache` is the direct analogue of
//! the Presburger `CountCache`: a bounded, process-wide map from an exact
//! structural fingerprint to the simulated [`KernelCounters`].
//!
//! # Keying
//!
//! The key is a byte-exact fingerprint (no hashing collisions: the full
//! byte string is the map key) covering everything the trace simulation
//! reads:
//!
//! * the platform name and every hierarchy level's geometry
//!   (size, line, associativity, sharing);
//! * per loop: the lower/upper bound expressions and the parallel flag;
//! * per statement: flops, and per access: the referenced array's *base
//!   address* (under the simulator's deterministic layout), element
//!   width, row-major strides, the index expressions, and the
//!   read/write direction.
//!
//! Kernel and statement *names* are deliberately excluded — they do not
//! influence the trace — and the kernel name is restored on a hit so the
//! returned counters are indistinguishable from a fresh measurement.
//! Base addresses must be part of the key: two structurally identical
//! kernels whose arrays land at different offsets map lines to different
//! cache sets and can legitimately produce different conflict-miss
//! counts.
//!
//! # Bounding
//!
//! Like the `CountCache`, the map is generational: when it reaches
//! capacity the next insert clears it (one `evictions` tick) rather than
//! tracking per-entry recency — hit rates are high within a harness run
//! and the entries are cheap to recompute relative to bookkeeping an LRU.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_presburger::LinExpr;

use crate::exec::KernelCounters;
use crate::fault::FaultPlan;
use crate::platform::Platform;

/// A snapshot of the process-wide cache's counters, for bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasureCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Generational clears performed on overflow.
    pub evictions: u64,
}

impl MeasureCacheStats {
    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Entries are a few hundred bytes (key + counters); 4096 of them bound
/// the cache to a couple of MB while covering every point a harness
/// binary measures.
const DEFAULT_CAPACITY: usize = 4096;

struct MeasureCache {
    map: HashMap<Vec<u8>, KernelCounters>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl MeasureCache {
    fn with_capacity(capacity: usize) -> Self {
        MeasureCache {
            map: HashMap::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn lookup(&mut self, key: &[u8], name: &str) -> Option<KernelCounters> {
        if let Some(hit) = self.map.get(key) {
            let mut counters = hit.clone();
            counters.name = name.to_string();
            self.hits += 1;
            Some(counters)
        } else {
            self.misses += 1;
            None
        }
    }

    /// The stored copy is name-less so a later hit under a renamed kernel
    /// cannot leak the original name.
    fn insert(&mut self, key: Vec<u8>, counters: &KernelCounters) {
        let mut stored = counters.clone();
        stored.name = String::new();
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            self.map.clear();
            self.evictions += 1;
        }
        self.map.insert(key, stored);
    }

    fn stats(&self) -> MeasureCacheStats {
        MeasureCacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.map.len(),
            evictions: self.evictions,
        }
    }
}

fn cache() -> &'static Mutex<MeasureCache> {
    static CACHE: OnceLock<Mutex<MeasureCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(MeasureCache::with_capacity(DEFAULT_CAPACITY)))
}

/// Snapshot of the process-wide measure cache (for bench reports).
pub fn measure_cache_stats() -> MeasureCacheStats {
    cache().lock().unwrap().stats()
}

/// Clears the process-wide measure cache and its counters (test isolation).
pub fn measure_cache_reset() {
    let mut c = cache().lock().unwrap();
    c.map.clear();
    c.hits = 0;
    c.misses = 0;
    c.evictions = 0;
}

/// Looks up the counters for a fingerprint; restores `name` on a hit.
pub(crate) fn lookup(key: &[u8], name: &str) -> Option<KernelCounters> {
    cache().lock().unwrap().lookup(key, name)
}

/// Inserts freshly simulated counters under a fingerprint.
pub(crate) fn insert(key: Vec<u8>, counters: &KernelCounters) {
    cache().lock().unwrap().insert(key, counters);
}

/// Byte-exact structural fingerprint of one (platform, kernel) point
/// under a pristine fault plan — the same key [`crate::measure_kernel`]
/// memoizes under. Public so content-addressed caches above the machine
/// layer (the serve daemon's artifact cache) can key on exactly the
/// structural identity the measurement layer already computes. Kernel
/// and statement *names* are excluded (see the module docs); callers
/// whose artifacts embed names must append them to the key themselves.
pub fn kernel_fingerprint(
    platform: &Platform,
    program: &AffineProgram,
    kernel: &AffineKernel,
) -> Vec<u8> {
    fingerprint(platform, program, kernel, &FaultPlan::pristine())
}

/// Concatenated, length-prefixed [`kernel_fingerprint`] of every kernel
/// in the program: the structural identity of a whole compilation input
/// on one platform. Two programs share a fingerprint iff every kernel
/// traces identically on that platform's hierarchy.
pub fn program_fingerprint(platform: &Platform, program: &AffineProgram) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 * program.kernels.len().max(1));
    out.extend_from_slice(&(program.kernels.len() as u64).to_le_bytes());
    for k in &program.kernels {
        let fp = kernel_fingerprint(platform, program, k);
        out.extend_from_slice(&(fp.len() as u64).to_le_bytes());
        out.extend_from_slice(&fp);
    }
    out
}

/// Builds the byte-exact fingerprint of one (platform, kernel, fault
/// plan) point (see the module docs for what it must cover).
///
/// The fault plan is part of the point: a non-pristine plan perturbs the
/// returned counters, so letting faulted and clean measurements share a
/// key would poison the clean namespace (serve noisy counters to clean
/// runs) or launder faults away (serve clean counters to faulted runs).
/// Pristine plans contribute a fixed `pristine` marker, keeping the clean
/// namespace stable across plan instances.
pub(crate) fn fingerprint(
    platform: &Platform,
    program: &AffineProgram,
    kernel: &AffineKernel,
    plan: &FaultPlan,
) -> Vec<u8> {
    let mut k = Fp(Vec::with_capacity(256));

    // Fault-plan namespace first: cheap to compare, and a changed plan
    // can never alias a clean key no matter what follows.
    let fp = plan.fingerprint();
    k.usize(fp.len());
    k.0.extend_from_slice(&fp);

    // Platform: name + hierarchy geometry.
    k.str(&platform.name);
    k.usize(platform.hierarchy.levels.len());
    for l in &platform.hierarchy.levels {
        k.u64(l.size_bytes);
        k.u64(l.line_bytes);
        k.u64(l.assoc as u64);
        k.u64(l.shared as u64);
    }

    // Array layout, replicating the simulator's deterministic placement:
    // arrays in declaration order, each padded to a whole number of lines.
    // Only geometry enters the key; array names do not affect the trace.
    let line = platform.hierarchy.line_bytes();
    let mut next = 0u64;
    let mut base_addrs = Vec::with_capacity(program.arrays.len());
    for a in &program.arrays {
        base_addrs.push(next);
        next += (a.size_bytes() as u64).div_ceil(line) * line;
    }

    // Loop nest: bounds and parallel flags.
    k.usize(kernel.loops.len());
    for l in &kernel.loops {
        k.u64(l.parallel as u64);
        k.exprs(&l.lb.exprs);
        k.exprs(&l.ub.exprs);
    }

    // Statements: flops and accesses (array geometry inlined per access,
    // so unreferenced arrays never perturb the key).
    k.usize(kernel.statements.len());
    for s in &kernel.statements {
        k.u64(s.flops);
        k.usize(s.accesses.len());
        for a in &s.accesses {
            let decl = &program.arrays[a.array.0];
            k.u64(base_addrs[a.array.0]);
            k.usize(decl.elem.size_bytes());
            let strides = decl.strides();
            k.usize(strides.len());
            for st in strides {
                k.usize(st);
            }
            k.u64(a.is_write as u64);
            k.exprs(&a.indices);
        }
    }
    k.0
}

/// Little-endian, length-prefixed serializer — self-delimiting, so no two
/// distinct field sequences can share a byte string.
struct Fp(Vec<u8>);

impl Fp {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }

    fn expr(&mut self, e: &LinExpr) {
        self.i64(e.constant_term());
        let terms: Vec<(usize, i64)> = e.terms().collect();
        self.usize(terms.len());
        for (var, coeff) in terms {
            self.usize(var);
            self.i64(coeff);
        }
    }

    fn exprs(&mut self, es: &[LinExpr]) {
        self.usize(es.len());
        for e in es {
            self.expr(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{measure_kernel, ExecutionEngine};
    use polyufc_ir::affine::{Access, Loop, Statement};
    use polyufc_ir::types::ElemType;

    fn small_program(flops: u64) -> AffineProgram {
        let mut p = AffineProgram::new("t");
        let a = p.add_array("A", vec![64, 64], ElemType::F64);
        p.kernels.push(AffineKernel {
            name: "k".into(),
            loops: vec![Loop::range(64), Loop::range(64)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0), LinExpr::var(1)]),
                    Access::write(a, vec![LinExpr::var(0), LinExpr::var(1)]),
                ],
                flops,
            }],
        });
        p
    }

    // The global cache is shared with every concurrently running test that
    // calls `measure_kernel`, so hit/miss accounting is exercised on local
    // `MeasureCache` instances; only name restoration and value equality
    // (concurrency-safe properties) go through the production path.

    #[test]
    fn local_cache_hits_and_restores_names() {
        let plat = Platform::broadwell();
        let p = small_program(2);
        let k = &p.kernels[0];
        let counters = measure_kernel(&plat, &p, k);

        let mut c = MeasureCache::with_capacity(16);
        let key = fingerprint(&plat, &p, k, &FaultPlan::pristine());
        assert!(c.lookup(&key, "k").is_none());
        c.insert(key.clone(), &counters);
        let hit = c.lookup(&key, "renamed").expect("second lookup hits");
        assert_eq!(hit.name, "renamed");
        assert_eq!(hit.flops, counters.flops);
        assert_eq!(hit.hits, counters.hits);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().len, 1);
        // The stored entry is name-less: renames cannot leak names.
        assert_eq!(c.map.get(&key).unwrap().name, "");
    }

    #[test]
    fn fingerprint_ignores_names_but_sees_structure() {
        let plat = Platform::broadwell();
        let p = small_program(2);
        let base = fingerprint(&plat, &p, &p.kernels[0], &FaultPlan::pristine());

        // Kernel/statement names are not part of the point.
        let mut renamed = p.kernels[0].clone();
        renamed.name = "other".into();
        renamed.statements[0].name = "T".into();
        assert_eq!(
            fingerprint(&plat, &p, &renamed, &FaultPlan::pristine()),
            base
        );

        // Flops are.
        let p3 = small_program(3);
        assert_ne!(
            fingerprint(&plat, &p3, &p3.kernels[0], &FaultPlan::pristine()),
            base
        );

        // A parallel flag is.
        let mut par = p.kernels[0].clone();
        par.loops[0].parallel = true;
        assert_ne!(fingerprint(&plat, &p, &par, &FaultPlan::pristine()), base);

        // The platform is.
        let rpl = Platform::raptor_lake();
        assert_ne!(
            fingerprint(&rpl, &p, &p.kernels[0], &FaultPlan::pristine()),
            base
        );
    }

    #[test]
    fn fingerprint_sees_layout_not_spectators() {
        let plat = Platform::broadwell();
        let p1 = small_program(2);
        let base = fingerprint(&plat, &p1, &p1.kernels[0], &FaultPlan::pristine());

        // An extra array declared *after* every referenced one leaves all
        // referenced base addresses unchanged: same point.
        let mut p2 = small_program(2);
        p2.add_array("Unused", vec![4096], ElemType::F32);
        assert_eq!(
            fingerprint(&plat, &p2, &p2.kernels[0], &FaultPlan::pristine()),
            base
        );

        // A preceding array shifts `A`'s base address — a genuinely
        // different memory layout, hence a different point.
        let mut p3 = AffineProgram::new("t");
        p3.add_array("Pad", vec![1024], ElemType::F64);
        let a = p3.add_array("A", vec![64, 64], ElemType::F64);
        p3.kernels.push(AffineKernel {
            name: "k".into(),
            loops: vec![Loop::range(64), Loop::range(64)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0), LinExpr::var(1)]),
                    Access::write(a, vec![LinExpr::var(0), LinExpr::var(1)]),
                ],
                flops: 2,
            }],
        });
        assert_ne!(
            fingerprint(&plat, &p3, &p3.kernels[0], &FaultPlan::pristine()),
            base
        );
    }

    #[test]
    fn program_fingerprint_is_structural() {
        let plat = Platform::broadwell();
        let p = small_program(2);
        let base = program_fingerprint(&plat, &p);

        // A renamed program is the same structural point...
        let mut renamed = p.clone();
        renamed.name = "other".into();
        renamed.kernels[0].name = "renamed".into();
        assert_eq!(program_fingerprint(&plat, &renamed), base);

        // ...different flops or a different platform are not.
        let p3 = small_program(3);
        assert_ne!(program_fingerprint(&plat, &p3), base);
        assert_ne!(program_fingerprint(&Platform::raptor_lake(), &p), base);
    }

    #[test]
    fn generational_clear_on_overflow() {
        let plat = Platform::broadwell();
        let mut c = MeasureCache::with_capacity(2);
        for flops in 1..=3u64 {
            let p = small_program(flops);
            let k = &p.kernels[0];
            let key = fingerprint(&plat, &p, k, &FaultPlan::pristine());
            if c.lookup(&key, &k.name).is_none() {
                c.insert(key, &measure_kernel(&plat, &p, k));
            }
        }
        let st = c.stats();
        assert_eq!(st.evictions, 1, "third insert clears the full map");
        assert_eq!(st.len, 1);
        assert_eq!(st.misses, 3);
    }

    #[test]
    fn fault_plans_have_their_own_cache_namespace() {
        // Regression for the pre-fault-layer key scheme, which had no
        // plan component: a faulted measurement would be served the clean
        // cached counters (laundering the faults away), and a faulted
        // miss would store perturbed counters under the clean key
        // (poisoning every later clean run). Both directions are caught
        // by the asserts below when the plan is dropped from the key.
        let plat = Platform::broadwell();
        let p = small_program(2);
        let k = &p.kernels[0];
        let plan = FaultPlan {
            seed: 42,
            counter_noise: 0.2,
            ..FaultPlan::pristine()
        };
        assert_ne!(
            fingerprint(&plat, &p, k, &plan),
            fingerprint(&plat, &p, k, &FaultPlan::pristine()),
            "the fault plan must be part of the cache key"
        );

        // Production path (global cache): clean, faulted, clean again.
        let clean = measure_kernel(&plat, &p, k);
        let faulted = ExecutionEngine::new(plat.clone())
            .with_fault_plan(plan)
            .measure_program(&p)
            .remove(0);
        assert_ne!(
            (clean.hits.clone(), clean.dram_fills),
            (faulted.hits.clone(), faulted.dram_fills),
            "a cache hit on the clean entry would launder the faults away"
        );
        let clean_again = measure_kernel(&plat, &p, k);
        assert_eq!(
            clean, clean_again,
            "the faulted insert must not poison the clean namespace"
        );
    }

    #[test]
    fn measure_kernel_hits_are_value_identical() {
        // Production path: repeated measurement of the same point must be
        // indistinguishable from a fresh simulation, including the name of
        // a structurally identical renamed kernel.
        let plat = Platform::broadwell();
        let p = small_program(7);
        let first = measure_kernel(&plat, &p, &p.kernels[0]);
        let again = measure_kernel(&plat, &p, &p.kernels[0]);
        assert_eq!(first, again);

        let mut renamed = p.kernels[0].clone();
        renamed.name = "renamed".into();
        let third = measure_kernel(&plat, &p, &renamed);
        assert_eq!(third.name, "renamed");
        let mut expect = first.clone();
        expect.name = "renamed".into();
        assert_eq!(third, expect);
    }
}
