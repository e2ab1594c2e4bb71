//! PolyUFC-CM: the scalable static cache model.
//!
//! For every reference of an affine kernel the model computes, per loop
//! level ℓ, the number of **distinct cache lines** the reference touches
//! inside one execution of the loop body at ℓ (the *footprint*). The
//! outermost level whose combined footprint fits the cache determines
//! where reuse is realized:
//!
//! * **fully-associative mode** — a footprint fits iff its total line
//!   count is at most the level's capacity in lines;
//! * **set-associative mode** (the paper's contribution) — lines are
//!   spread over the cache sets they map to (contiguous footprints cover
//!   `min(lines, n_sets)` sets; strided footprints only
//!   `n_sets / gcd(stride, n_sets)`), and the footprint fits iff each
//!   set's share is at most the associativity. This is what exposes the
//!   conflict misses of power-of-two leading dimensions (Fig. 8).
//!
//! Misses of a reference are then `|outer iterations the data depends
//! on| × |body footprint|`, with spatial reuse across the immediately
//! enclosing loop collapsed at line granularity, and are never less than
//! the compulsory (distinct-line) count. Dependence of data on outer
//! loops includes *bound* dependence (tile loops), so Pluto-tiled kernels
//! are modeled faithfully.
//!
//! Counting uses the Presburger layer on the (concrete-size) iteration
//! domains; nested-consistent representative iterators stand in for fixed
//! outer dimensions, mirroring the paper's duplicate-elimination
//! approximation that trades exactness for compile time (Sec. VIII).

use std::collections::BTreeMap;
use std::fmt;

use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_presburger::{CountCache, CountLimit, LinExpr};

use crate::config::{AssocMode, CacheHierarchy};

/// Error type of the static model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The Presburger layer failed (budget, unbounded, ...).
    Presburger(String),
    /// The kernel is malformed for analysis.
    Malformed(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Presburger(e) => write!(f, "presburger failure: {e}"),
            ModelError::Malformed(e) => write!(f, "malformed kernel: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<polyufc_presburger::Error> for ModelError {
    fn from(e: polyufc_presburger::Error) -> Self {
        ModelError::Presburger(e.to_string())
    }
}

/// Per-cache-level results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Accesses reaching this level.
    pub accesses: f64,
    /// Hits at this level.
    pub hits: f64,
    /// Misses at this level (cold + capacity/conflict).
    pub misses: f64,
    /// The loop level at which the footprint first fits this cache
    /// (0 = whole kernel fits; depth = nothing fits).
    pub fit_level: usize,
}

/// The full result of analyzing one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCacheStats {
    /// One entry per cache level (L1 first).
    pub levels: Vec<LevelStats>,
    /// Compulsory misses (distinct lines over all arrays).
    pub cold_lines: f64,
    /// Bytes moved between LLC and DRAM: `Miss_LLC · ℓ` (paper Sec. IV-C).
    pub q_dram_bytes: f64,
    /// Total flops `Ω`.
    pub flops: f64,
    /// Total accesses issued by the kernel.
    pub total_accesses: f64,
}

impl KernelCacheStats {
    /// Operational intensity `I = Ω / Q_DRAM` in flops per byte (Eqn. 1).
    pub fn operational_intensity(&self) -> f64 {
        if self.q_dram_bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.q_dram_bytes
        }
    }

    /// Applies the paper's loop-parallel sharing heuristic: sequential
    /// miss counts divided by the number of threads (Sec. IV-B). Returns a
    /// scaled copy.
    pub fn with_thread_sharing(&self, threads: u32) -> KernelCacheStats {
        let t = threads.max(1) as f64;
        let mut out = self.clone();
        for l in &mut out.levels {
            l.misses /= t;
            l.hits = (l.accesses - l.misses).max(0.0);
        }
        out.cold_lines /= t;
        out.q_dram_bytes /= t;
        out
    }
}

/// One deduplicated reference (array + affine element offset).
#[derive(Debug, Clone)]
struct Ref {
    /// Element-offset coefficients per iterator.
    coeffs: Vec<i64>,
    /// Element size in bytes.
    elem_bytes: i64,
    /// Array index (for cold-miss grouping).
    array: usize,
    /// How many statement accesses map to this reference (multiplicity for
    /// access counting; footprint/misses are counted once).
    multiplicity: u64,
    /// Size of the underlying array in bytes — a hard cap on any footprint
    /// estimate (dense-width approximations on skewed/triangular accesses
    /// can otherwise overshoot).
    array_bytes: f64,
    /// Iterators the data depends on: nonzero coefficient, or transitively
    /// via loop bounds of a dependent iterator.
    relevant: Vec<usize>,
}

/// The static cache model.
///
/// ```
/// use polyufc_cache::{AssocMode, CacheHierarchy, CacheLevelConfig, CacheModel};
/// use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
/// use polyufc_ir::types::ElemType;
/// use polyufc_presburger::LinExpr;
///
/// let mut p = AffineProgram::new("sum");
/// let a = p.add_array("A", vec![4096], ElemType::F64);
/// p.kernels.push(AffineKernel {
///     name: "sum".into(),
///     loops: vec![Loop::range(4096)],
///     statements: vec![Statement {
///         name: "S".into(),
///         accesses: vec![Access::read(a, vec![LinExpr::var(0)])],
///         flops: 1,
///     }],
/// });
/// let h = CacheHierarchy::new(vec![CacheLevelConfig {
///     size_bytes: 32 << 10, line_bytes: 64, assoc: 8, shared: false,
/// }]);
/// let model = CacheModel::new(h, AssocMode::SetAssociative);
/// let stats = model.analyze_kernel(&p, &p.kernels[0])?;
/// // A streaming read misses once per line: 4096 · 8 / 64 = 512.
/// assert_eq!(stats.levels[0].misses, 512.0);
/// assert_eq!(stats.q_dram_bytes, 512.0 * 64.0);
/// # Ok::<(), polyufc_cache::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheModel {
    /// The hierarchy to model.
    pub hierarchy: CacheHierarchy,
    /// Associativity treatment.
    pub mode: AssocMode,
}

impl CacheModel {
    /// Creates a model.
    pub fn new(hierarchy: CacheHierarchy, mode: AssocMode) -> Self {
        CacheModel { hierarchy, mode }
    }

    /// Analyzes one kernel of a program.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the kernel is malformed or a Presburger
    /// query fails.
    pub fn analyze_kernel(
        &self,
        program: &AffineProgram,
        kernel: &AffineKernel,
    ) -> Result<KernelCacheStats, ModelError> {
        self.analyze_kernel_cached(program, kernel, &mut CountCache::new())
    }

    /// [`CacheModel::analyze_kernel`] with an explicit Presburger counting
    /// cache.
    ///
    /// The per-level/per-reference analysis below issues the same counting
    /// query many times (`count_prefix_trips`/`count_outer` across
    /// references and cache levels); memoizing on the canonical constraint
    /// system answers the repeats directly. The caller may share one cache
    /// across kernels of a program — iteration domains recur between
    /// kernels of the same nest — and read hit/miss totals afterwards.
    ///
    /// # Errors
    ///
    /// Same contract as [`CacheModel::analyze_kernel`].
    pub fn analyze_kernel_cached(
        &self,
        program: &AffineProgram,
        kernel: &AffineKernel,
        count_cache: &mut CountCache,
    ) -> Result<KernelCacheStats, ModelError> {
        let depth = kernel.depth();
        if depth == 0 {
            return Err(ModelError::Malformed(format!(
                "kernel `{}` has no loops",
                kernel.name
            )));
        }
        let domain = kernel.domain();
        let dom_basic = domain
            .basics()
            .first()
            .ok_or_else(|| ModelError::Malformed("empty iteration domain".into()))?
            .clone();
        let iv = dom_basic
            .var_intervals()?
            .ok_or_else(|| ModelError::Malformed("empty iteration domain".into()))?;
        let mut bounds = Vec::with_capacity(depth);
        for v in iv.iter().take(depth) {
            match v {
                (Some(lo), Some(hi)) => bounds.push((*lo, *hi)),
                _ => return Err(ModelError::Malformed("unbounded iteration domain".into())),
            }
        }
        // Nested-consistent representative iterators: each midpoint is
        // computed with the *outer representatives already fixed*, so
        // triangular ranges keep their expected extents (the global
        // interval midpoints would make e.g. `k in [n-1-i', j)` collapse
        // to an empty range at the global mids).
        let mut mids: Vec<i64> = vec![0; depth];
        for d in 0..depth {
            let l = &kernel.loops[d];
            let lo =
                l.lb.exprs
                    .iter()
                    .map(|e| eval_with(e, &mids))
                    .max()
                    .unwrap_or(bounds[d].0);
            let hi =
                l.ub.exprs
                    .iter()
                    .map(|e| eval_with(e, &mids))
                    .min()
                    .unwrap_or(bounds[d].1 + 1)
                    - 1;
            mids[d] = if hi >= lo {
                (lo + hi) / 2
            } else {
                lo.min(bounds[d].1)
            };
        }

        let refs = collect_refs(program, kernel, depth)?;
        let domain_size = domain.count_cached(count_cache)? as f64;
        let per_point_accesses: f64 = kernel
            .statements
            .iter()
            .map(|s| s.accesses.len() as f64)
            .sum();
        let total_accesses = domain_size * per_point_accesses;
        // Same formula as `AffineKernel::total_flops`, reusing the domain
        // count from above instead of re-issuing the query.
        let per_point_flops: f64 = kernel.statements.iter().map(|s| s.flops as f64).sum();
        let flops = domain_size * per_point_flops;

        // A footprint depends only on (reference, loop level), and the
        // loops below ask for the same one once per cache level and again
        // for the body and cold terms: compute each on first use.
        let line_bytes = self.hierarchy.line_bytes();
        let mut scratch = Scratch::default();
        let mut footprints: Vec<Option<DistinctLines>> = vec![None; refs.len() * (depth + 1)];
        let mut footprint = |ri: usize, level: usize, count_cache: &mut CountCache| {
            let slot = &mut footprints[ri * (depth + 1) + level];
            Ok::<_, ModelError>(match *slot {
                Some(dl) => dl,
                None => {
                    let r = &refs[ri];
                    *slot.insert(distinct_lines(
                        r,
                        kernel,
                        &bounds,
                        &mids,
                        level,
                        line_bytes,
                        count_cache,
                        &mut scratch,
                    )?)
                }
            })
        };

        // Compulsory misses: distinct lines per array (capped at the
        // array's own line count).
        let line = line_bytes as f64;
        let mut prefix_dims = Vec::new();
        let mut cold_by_array: BTreeMap<usize, f64> = BTreeMap::new();
        for (ri, r) in refs.iter().enumerate() {
            let dl = footprint(ri, 0, count_cache)?;
            let e = cold_by_array.entry(r.array).or_insert(0.0);
            // References to the same array usually overlap heavily (shifted
            // stencil taps, read+write pairs after dedup): take the max,
            // capped below at each ref's own lines.
            *e = e.max(dl.lines);
        }
        let mut cold_lines = 0.0;
        for (arr, lines) in &cold_by_array {
            let cap = (program.arrays[*arr].size_bytes() as f64 / line).ceil();
            cold_lines += lines.min(cap);
        }

        // Per-level analysis.
        let mut levels = Vec::with_capacity(self.hierarchy.n_levels());
        let mut prev_misses = total_accesses;
        for lc in &self.hierarchy.levels {
            // Footprints per loop level; pick the outermost that fits.
            let mut fit_level = depth; // nothing fits by default
            for l in 0..=depth {
                let mut per_set_load = 0.0;
                let mut total_lines = 0.0;
                for ri in 0..refs.len() {
                    let dl = footprint(ri, l, count_cache)?;
                    total_lines += dl.lines;
                    let sets = dl.set_coverage(lc.n_sets());
                    per_set_load += dl.lines / sets.max(1.0);
                }
                let fits = match self.mode {
                    AssocMode::FullyAssociative => total_lines <= lc.n_lines() as f64,
                    AssocMode::SetAssociative => per_set_load <= lc.assoc as f64,
                };
                if fits {
                    fit_level = l;
                    break;
                }
            }

            // Misses per reference. Reuse across loop `fit_level-1` is
            // realized (its body footprint fits); reuse across any loop
            // above that is lost because the intervening footprint exceeds
            // capacity — the data is re-fetched on every iteration of
            // those loops, whether or not the reference depends on them.
            let mut misses = 0.0;
            for (ri, r) in refs.iter().enumerate() {
                let body = footprint(ri, fit_level, count_cache)?;
                let cold_r = footprint(ri, 0, count_cache)?.lines;
                let m = if fit_level == 0 {
                    cold_r
                } else {
                    let d_star = fit_level - 1;
                    let mut outer_count = if r.relevant.contains(&d_star) {
                        // The data changes across d_star too: count its
                        // trips, collapsing the shared lines between
                        // consecutive iterations. Two regimes:
                        //  - dense footprints shift by `coef` elements over
                        //    a span of `span_elems` and re-fetch only the
                        //    newly exposed fraction (skewed stencil tiles
                        //    overlap almost entirely);
                        //  - strided/sub-line footprints share lines at
                        //    cache-line granularity (`ℓ / (coef·e)`).
                        let mut c =
                            count_prefix_trips(kernel, fit_level, count_cache, &mut prefix_dims)?
                                as f64;
                        let coef = r.coeffs[d_star].abs();
                        if coef > 0 {
                            let lb = line_bytes as i64;
                            let elems_per_line = (lb / r.elem_bytes).max(1) as f64;
                            if body.dense {
                                let w_eff = body.span_elems.max(elems_per_line);
                                let factor = (w_eff / coef as f64).max(1.0);
                                c /= factor;
                            } else if coef * r.elem_bytes < lb {
                                c /= (lb / (coef * r.elem_bytes).max(1)) as f64;
                            }
                        }
                        c
                    } else {
                        count_prefix_trips(kernel, d_star, count_cache, &mut prefix_dims)? as f64
                    };
                    outer_count = outer_count.max(1.0);
                    (outer_count * body.lines).max(cold_r)
                };
                misses += m;
            }
            misses = misses.max(cold_lines).min(prev_misses);
            levels.push(LevelStats {
                accesses: prev_misses,
                hits: prev_misses - misses,
                misses,
                fit_level,
            });
            prev_misses = misses;
        }
        // L1's "accesses" are the kernel's accesses, not the previous
        // level's misses; fix the first entry.
        if let Some(first) = levels.first_mut() {
            first.accesses = total_accesses;
            first.hits = total_accesses - first.misses;
        }

        let q_dram_bytes = levels.last().map(|l| l.misses).unwrap_or(0.0) * line;
        Ok(KernelCacheStats {
            levels,
            cold_lines,
            q_dram_bytes,
            flops,
            total_accesses,
        })
    }

    /// Analyzes every kernel of a program, returning `(kernel name, stats)`
    /// pairs.
    ///
    /// # Errors
    ///
    /// Fails on the first kernel that cannot be analyzed.
    pub fn analyze_program(
        &self,
        program: &AffineProgram,
    ) -> Result<Vec<(String, KernelCacheStats)>, ModelError> {
        program
            .kernels
            .iter()
            .map(|k| Ok((k.name.clone(), self.analyze_kernel(program, k)?)))
            .collect()
    }
}

/// Collects deduplicated references of a kernel.
fn collect_refs(
    program: &AffineProgram,
    kernel: &AffineKernel,
    depth: usize,
) -> Result<Vec<Ref>, ModelError> {
    // References are grouped by (array, coefficient vector): accesses that
    // differ only in the constant offset (stencil taps, shifted reads)
    // touch essentially the same lines and must not have their footprints
    // double-counted.
    let mut refs: Vec<Ref> = Vec::new();
    let (mut coeffs, mut relevant) = (Vec::new(), Vec::new());
    for s in &kernel.statements {
        for a in &s.accesses {
            // `analyze_kernel` is public API and may see programs that
            // never went through `AffineProgram::validate`; a dangling
            // array id or out-of-depth iterator must surface as a typed
            // error, not an index panic.
            let decl = program.arrays.get(a.array.0).ok_or_else(|| {
                ModelError::Malformed(format!(
                    "statement `{}` references unknown array {}",
                    s.name, a.array
                ))
            })?;
            if a.indices.len() != decl.dims.len() {
                return Err(ModelError::Malformed(format!(
                    "access arity mismatch on `{}`",
                    decl.name
                )));
            }
            coeffs.clear();
            coeffs.resize(depth, 0);
            for (j, e) in a.indices.iter().enumerate() {
                // `ArrayDecl::strides()[j]`, without its allocation.
                let st: usize = decl.dims[j + 1..].iter().rev().product();
                for (v, c) in e.terms() {
                    if v >= depth {
                        return Err(ModelError::Malformed(format!(
                            "access to `{}` references iterator {v} beyond depth {depth}",
                            decl.name
                        )));
                    }
                    coeffs[v] += c * st as i64;
                }
            }
            if let Some(r) = refs
                .iter_mut()
                .find(|r| r.array == a.array.0 && r.coeffs == coeffs)
            {
                r.multiplicity += 1;
                continue;
            }
            // Relevant iterators: nonzero coefficient, plus transitive
            // bound dependence.
            relevant.clear();
            relevant.extend(coeffs.iter().map(|&c| c != 0));
            loop {
                let mut changed = false;
                for d in 0..depth {
                    if !relevant[d] {
                        continue;
                    }
                    for e in kernel.loops[d]
                        .lb
                        .exprs
                        .iter()
                        .chain(&kernel.loops[d].ub.exprs)
                    {
                        for (v, _) in e.terms() {
                            if !relevant[v] {
                                relevant[v] = true;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            refs.push(Ref {
                coeffs: coeffs.clone(),
                elem_bytes: decl.elem.size_bytes() as i64,
                array: a.array.0,
                multiplicity: 1,
                array_bytes: decl.size_bytes() as f64,
                relevant: (0..depth).filter(|&d| relevant[d]).collect(),
            });
        }
    }
    refs.sort_by(|a, b| (a.array, &a.coeffs).cmp(&(b.array, &b.coeffs)));
    Ok(refs)
}

/// Buffers reused by every footprint of one
/// [`CacheModel::analyze_kernel_cached`] call (per reference × loop level),
/// so those queries allocate no index lists of their own.
#[derive(Debug, Default)]
struct Scratch {
    free: Vec<usize>,
    order: Vec<usize>,
    aux: Vec<usize>,
    dims: Vec<usize>,
    in_closure: Vec<bool>,
    ext: Vec<i64>,
    rep: Vec<i64>,
}

/// Distinct-line estimate of a reference within one execution of the loop
/// body at `level` (iterators `< level` fixed at representative midpoints).
#[derive(Debug, Clone, Copy)]
struct DistinctLines {
    /// Estimated distinct lines.
    lines: f64,
    /// Distinct elements covered (the footprint's span for dense bodies).
    span_elems: f64,
    /// Whether the footprint is dense-ish (a unit-stride or suffix-dense
    /// dimension exists), which makes shift-overlap reasoning valid.
    dense: bool,
    /// Length of each contiguous run, in lines (>= 1).
    run_lines: u64,
    /// Line stride between runs, when the footprint is a strided family
    /// of runs (`None` = effectively contiguous).
    stride_lines: Option<u64>,
}

impl DistinctLines {
    /// How many cache sets the footprint covers. Contiguous footprints
    /// spread over `min(lines, n_sets)` sets; strided families of runs
    /// only reach `run · n_sets / gcd(stride, n_sets)` — the power-of-two
    /// aliasing that makes the set-associative model diverge from the
    /// fully-associative one (Fig. 8).
    fn set_coverage(&self, n_sets: u64) -> f64 {
        if self.lines <= 1.0 {
            return self.lines.max(1.0);
        }
        match self.stride_lines {
            None => self.lines.min(n_sets as f64),
            Some(s) => {
                let g = gcd_u64(s % n_sets.max(1), n_sets).max(1);
                let positions = (n_sets / g).max(1);
                self.lines
                    .min((positions.saturating_mul(self.run_lines.max(1))) as f64)
                    .min(n_sets as f64)
            }
        }
    }
}

fn gcd_u64(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Core footprint routine; see module docs.
///
/// The footprint of one body execution at `level` must account for free
/// *bound parents*: a point loop's value range depends on its tile loop,
/// so when the tile loop is free (inside the body) the point iterator
/// effectively sweeps its whole union range. Coefficient dims therefore
/// use union extents, and the dominating-prefix count includes the free
/// bound parents (which are functions of the point iterators for tiled
/// bounds, so including them does not change the count).
#[allow(clippy::too_many_arguments)]
fn distinct_lines(
    r: &Ref,
    kernel: &AffineKernel,
    bounds: &[(i64, i64)],
    mids: &[i64],
    level: usize,
    line_bytes: u64,
    count_cache: &mut CountCache,
    scratch: &mut Scratch,
) -> Result<DistinctLines, ModelError> {
    let depth = kernel.depth();
    let Scratch {
        free,
        order,
        aux,
        dims,
        in_closure,
        ext,
        rep,
    } = scratch;
    // Free iterators (>= level) with nonzero coefficient.
    free.clear();
    free.extend((level..depth).filter(|&d| r.coeffs[d] != 0));
    if free.is_empty() {
        return Ok(DistinctLines {
            lines: 1.0,
            span_elems: 1.0,
            dense: false,
            run_lines: 1,
            stride_lines: None,
        });
    }
    // Effective (union) extents under the restriction.
    restricted_extents(kernel, bounds, mids, level, ext, rep);

    // Free bound parents (transitively) of the coefficient dims.
    in_closure.clear();
    in_closure.resize(depth, false);
    for &d in free.iter() {
        in_closure[d] = true;
    }
    loop {
        let mut changed = false;
        for d in level..depth {
            if !in_closure[d] {
                continue;
            }
            for e in kernel.loops[d]
                .lb
                .exprs
                .iter()
                .chain(&kernel.loops[d].ub.exprs)
            {
                for (v, _) in e.terms() {
                    if v >= level && !in_closure[v] {
                        in_closure[v] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    aux.clear();
    aux.extend((level..depth).filter(|&d| in_closure[d] && !free.contains(&d)));

    // Order free dims by |coeff| descending; find the dominating prefix.
    order.clear();
    order.extend_from_slice(free);
    order.sort_by_key(|&d| std::cmp::Reverse(r.coeffs[d].abs()));
    let mut prefix_len = 0;
    for i in 0..order.len() {
        let rest_width: i64 = order[i + 1..]
            .iter()
            .map(|&d| r.coeffs[d].abs() * (ext[d] - 1).max(0))
            .sum();
        if r.coeffs[order[i]].abs() > rest_width {
            prefix_len = i + 1;
        } else {
            break;
        }
    }
    let (prefix, suffix) = order.split_at(prefix_len);

    // Distinct values of the prefix dims: polyhedral count of their
    // (restricted) sub-domain, including free bound parents so tile/point
    // coupling constraints stay meaningful — exact for triangular and
    // tiled bounds.
    let prefix_count = if prefix.is_empty() {
        1.0
    } else {
        dims.clear();
        dims.extend_from_slice(prefix);
        dims.extend_from_slice(aux);
        dims.sort_unstable();
        count_outer(kernel, mids, dims, count_cache)? as f64
    };
    // Dense width of the suffix, over union extents.
    let suffix_width: i64 = suffix
        .iter()
        .map(|&d| r.coeffs[d].abs() * (ext[d] - 1).max(0))
        .sum::<i64>()
        + 1;
    let distinct_elems = prefix_count * suffix_width as f64;

    let min_stride = free.iter().map(|&d| r.coeffs[d].abs()).min().unwrap_or(0);
    let lb = line_bytes as i64;
    // Line count from the run structure: the smallest-stride dimension
    // forms contiguous runs of `ext · stride` elements; runs shorter than
    // a line still occupy a whole line each (e.g. a 2-wide convolution
    // window with a large channel stride touches a fresh line per
    // channel), while long runs amortize `ℓ/e` elements per line.
    let by_stride = free;
    by_stride.sort_by_key(|&d| r.coeffs[d].abs());
    let d0 = by_stride[0];
    let c0 = r.coeffs[d0].abs();
    let lines = if c0 * r.elem_bytes >= lb {
        // Every element on its own line.
        distinct_elems
    } else {
        let run_elems = ext[d0].max(1) as f64;
        let run_span_bytes = run_elems * (c0 * r.elem_bytes) as f64;
        let run_lines = (run_span_bytes / lb as f64).ceil().max(1.0);
        (distinct_elems / run_elems).ceil().max(1.0) * run_lines
    };
    // A footprint can never exceed the array itself (the cap that keeps
    // skew/triangle dense-width approximations honest).
    let lines = lines.min((r.array_bytes / line_bytes as f64).ceil().max(1.0));
    let dense = !suffix.is_empty() || min_stride == 1;

    // Run/stride structure for set-coverage: the smallest-stride free dim
    // forms contiguous (or near-contiguous) runs; the next stride up
    // separates the runs.
    let (run_lines, stride_lines) = if c0 * r.elem_bytes < lb {
        // Dense-ish runs along the smallest-stride dim.
        let run_elems = ext[d0].max(1) * c0;
        let run = ((run_elems * r.elem_bytes) as f64 / lb as f64)
            .ceil()
            .max(1.0) as u64;
        let stride = by_stride.get(1).and_then(|&d1| {
            let span = r.coeffs[d1].abs() * r.elem_bytes;
            if span >= lb && span % lb == 0 {
                Some((span / lb) as u64)
            } else {
                None
            }
        });
        (run, stride)
    } else {
        // Every element its own line; the smallest stride separates them.
        let span = c0 * r.elem_bytes;
        let stride = if span % lb == 0 {
            Some((span / lb) as u64)
        } else {
            None
        };
        (1u64, stride)
    };
    // A stride no larger than the run means the runs tile contiguously.
    let stride_lines = stride_lines.filter(|&s| s > run_lines);

    Ok(DistinctLines {
        lines,
        span_elems: distinct_elems,
        dense,
        run_lines,
        stride_lines,
    })
}

/// Effective extent of each iterator when iterators `< level` are fixed at
/// midpoints. An iterator whose bounds reference a *free* (>= level)
/// iterator (a tile loop inside the body) gets its **union** extent — the
/// interval-propagated global range restricted only by the fixed outers —
/// because the body sweeps the parent. Writes `ext`; `rep` is scratch.
fn restricted_extents(
    kernel: &AffineKernel,
    bounds: &[(i64, i64)],
    mids: &[i64],
    level: usize,
    ext: &mut Vec<i64>,
    rep: &mut Vec<i64>,
) {
    let depth = kernel.depth();
    ext.clear();
    ext.resize(depth, 0);
    rep.clear();
    rep.extend_from_slice(mids);
    for e in ext.iter_mut().take(level) {
        *e = 1;
    }
    for d in level..depth {
        let l = &kernel.loops[d];
        let refs_free =
            l.lb.exprs
                .iter()
                .chain(&l.ub.exprs)
                .any(|e| e.terms().any(|(v, _)| v >= level));
        if refs_free {
            // Union over the free parents: global propagated interval.
            ext[d] = (bounds[d].1 - bounds[d].0 + 1).max(0);
            rep[d] = (bounds[d].0 + bounds[d].1) / 2;
            continue;
        }
        let lo =
            l.lb.exprs
                .iter()
                .map(|e| eval_with(e, rep))
                .max()
                .unwrap_or(bounds[d].0);
        let hi =
            l.ub.exprs
                .iter()
                .map(|e| eval_with(e, rep))
                .min()
                .unwrap_or(bounds[d].1 + 1)
                - 1;
        ext[d] = (hi - lo + 1).max(0);
        rep[d] = (lo + hi) / 2;
    }
}

fn eval_with(e: &LinExpr, rep: &[i64]) -> i64 {
    let mut acc = e.constant_term();
    for (v, c) in e.terms() {
        acc += c * rep.get(v).copied().unwrap_or(0);
    }
    acc
}

/// Trip count of the outer loops `0..prefix` (exact: prefix-loop bounds
/// reference only earlier prefix iterators).
fn count_prefix_trips(
    kernel: &AffineKernel,
    prefix: usize,
    count_cache: &mut CountCache,
    dims: &mut Vec<usize>,
) -> Result<i128, ModelError> {
    if prefix == 0 {
        return Ok(1);
    }
    dims.clear();
    dims.extend(0..prefix);
    // Prefix bounds mention only earlier prefix iterators: no midpoints.
    count_outer(kernel, &[], dims, count_cache)
}

/// Counts the number of distinct value combinations of the given iterator
/// dims (sorted ascending), with all other iterators' occurrences in
/// bounds replaced by midpoints. The bound rows are written straight into
/// the count cache's question over the compact dims.
fn count_outer(
    kernel: &AffineKernel,
    mids: &[i64],
    dims: &[usize],
    count_cache: &mut CountCache,
) -> Result<i128, ModelError> {
    debug_assert!(dims.windows(2).all(|w| w[0] < w[1]));
    let mut q = count_cache.question(dims.len());
    for (ci, &d) in dims.iter().enumerate() {
        let l = &kernel.loops[d];
        for e in &l.lb.exprs {
            // i_d >= e  =>  i_d - e >= 0.
            let row = q.ge0();
            row[ci] = 1;
            add_remapped(row, e, -1, dims, mids);
        }
        for e in &l.ub.exprs {
            // i_d < e  =>  e - i_d - 1 >= 0.
            let row = q.ge0();
            row[ci] = -1;
            row[dims.len()] = -1;
            add_remapped(row, e, 1, dims, mids);
        }
    }
    Ok(q.count(CountLimit::default())?)
}

/// Adds `sign · e` to a question row (`[compact coeffs…, constant]`): an
/// iterator in `dims` lands on its compact column, any other contributes
/// its midpoint to the constant.
fn add_remapped(row: &mut [i64], e: &LinExpr, sign: i64, dims: &[usize], mids: &[i64]) {
    let k = dims.len();
    row[k] += sign * e.constant_term();
    for (v, c) in e.terms() {
        match dims.binary_search(&v) {
            Ok(ci) => row[ci] += sign * c,
            Err(_) => row[k] += sign * c * mids.get(v).copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;
    use polyufc_ir::affine::{Access, Loop, Statement};
    use polyufc_ir::types::ElemType;

    fn hierarchy(l1_kib: u64, llc_kib: u64) -> CacheHierarchy {
        CacheHierarchy::new(vec![
            CacheLevelConfig {
                size_bytes: l1_kib << 10,
                line_bytes: 64,
                assoc: 8,
                shared: false,
            },
            CacheLevelConfig {
                size_bytes: llc_kib << 10,
                line_bytes: 64,
                assoc: 16,
                shared: true,
            },
        ])
    }

    fn matmul(n: usize) -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("mm");
        let a = p.add_array("A", vec![n, n], ElemType::F64);
        let b = p.add_array("B", vec![n, n], ElemType::F64);
        let c = p.add_array("C", vec![n, n], ElemType::F64);
        let (vi, vj, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        let k = AffineKernel {
            name: "mm".into(),
            loops: vec![Loop::range(n as i64); 3],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone(), vk.clone()]),
                    Access::read(b, vec![vk, vj.clone()]),
                    Access::read(c, vec![vi.clone(), vj.clone()]),
                    Access::write(c, vec![vi, vj]),
                ],
                flops: 2,
            }],
        };
        p.kernels.push(k.clone());
        (p, k)
    }

    #[test]
    fn matmul_small_fits_llc_cold_only() {
        // 3 arrays of 64x64 f64 = 96 KiB total; LLC 1 MiB: everything fits.
        let (p, k) = matmul(64);
        let m = CacheModel::new(hierarchy(32, 1024), AssocMode::FullyAssociative);
        let st = m.analyze_kernel(&p, &k).unwrap();
        let llc = st.levels.last().unwrap();
        let cold = 3.0 * (64.0 * 64.0 * 8.0 / 64.0);
        assert!(
            (llc.misses - cold).abs() < cold * 0.05,
            "misses {} vs cold {}",
            llc.misses,
            cold
        );
        // OI of cold-only matmul = 2n³ / (3n²·8) = n/12 ≈ 5.3 for n = 64.
        let oi = st.operational_intensity();
        assert!((4.0..7.0).contains(&oi), "OI {oi}");
    }

    #[test]
    fn matmul_large_misses_exceed_cold() {
        // 512x512: each array 2 MiB, LLC 1 MiB -> B streamed repeatedly.
        let (p, k) = matmul(512);
        let m = CacheModel::new(hierarchy(32, 1024), AssocMode::FullyAssociative);
        let st = m.analyze_kernel(&p, &k).unwrap();
        let llc = st.levels.last().unwrap();
        assert!(llc.misses > st.cold_lines * 2.0);
    }

    #[test]
    fn model_tracks_simulator_on_matmul() {
        use crate::sim::CacheSim;
        let (p, k) = matmul(96);
        let h = hierarchy(16, 256);
        for mode in [AssocMode::FullyAssociative, AssocMode::SetAssociative] {
            let m = CacheModel::new(h.clone(), mode);
            let st = m.analyze_kernel(&p, &k).unwrap();
            let mut sim = CacheSim::new(&h, &p);
            polyufc_ir::interp::interpret_program(&p, &mut sim);
            let sim_llc = sim.stats.misses[1] as f64;
            let mod_llc = st.levels[1].misses;
            let ratio = mod_llc / sim_llc;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "mode {mode:?}: model {mod_llc} vs sim {sim_llc} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn thread_sharing_scales_misses() {
        let (p, k) = matmul(64);
        let m = CacheModel::new(hierarchy(32, 1024), AssocMode::SetAssociative);
        let st = m.analyze_kernel(&p, &k).unwrap();
        let st4 = st.with_thread_sharing(4);
        assert!((st4.q_dram_bytes - st.q_dram_bytes / 4.0).abs() < 1e-6);
        assert!((st4.levels[0].misses - st.levels[0].misses / 4.0).abs() < 1e-6);
    }

    #[test]
    fn streaming_kernel_is_bandwidth_heavy() {
        // y[i] += A[i][j] * x[j]: matvec 1024x1024, arrays > LLC.
        let mut p = AffineProgram::new("mv");
        let a = p.add_array("A", vec![1024, 1024], ElemType::F64);
        let x = p.add_array("x", vec![1024], ElemType::F64);
        let y = p.add_array("y", vec![1024], ElemType::F64);
        let (vi, vj) = (LinExpr::var(0), LinExpr::var(1));
        let k = AffineKernel {
            name: "mv".into(),
            loops: vec![Loop::range(1024), Loop::range(1024)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone(), vj.clone()]),
                    Access::read(x, vec![vj]),
                    Access::read(y, vec![vi.clone()]),
                    Access::write(y, vec![vi]),
                ],
                flops: 2,
            }],
        };
        p.kernels.push(k.clone());
        let m = CacheModel::new(hierarchy(32, 2048), AssocMode::SetAssociative);
        let st = m.analyze_kernel(&p, &k).unwrap();
        // A is streamed once (cold ≈ 1024*1024*8/64 = 131072 lines).
        let llc = st.levels.last().unwrap();
        assert!(llc.misses >= 131072.0 * 0.9);
        // OI ≈ 2 flops per 8 bytes = 0.25.
        let oi = st.operational_intensity();
        assert!((0.1..1.0).contains(&oi), "OI {oi}");
    }

    #[test]
    fn set_assoc_sees_conflicts_full_does_not() {
        // Column sweep of a 2048x2048 matrix with power-of-two stride:
        // for j { for k { read B[k][j] } } — column footprint 2048 lines,
        // line stride 256. Fully associative: fits a 16 MiB LLC easily.
        // Set-associative with 4096 sets: only 4096/gcd(256,4096)=16 sets
        // covered -> 128 lines/set >> 16 ways: conflicts.
        let mut p = AffineProgram::new("col");
        let b = p.add_array("B", vec![2048, 2048], ElemType::F64);
        let (vj, vk) = (LinExpr::var(0), LinExpr::var(1));
        let k = AffineKernel {
            name: "col".into(),
            loops: vec![Loop::range(2048), Loop::range(2048)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(b, vec![vk, vj])],
                flops: 1,
            }],
        };
        p.kernels.push(k.clone());
        let h = CacheHierarchy::new(vec![CacheLevelConfig {
            size_bytes: 4 << 20,
            line_bytes: 64,
            assoc: 16,
            shared: true,
        }]);
        let full = CacheModel::new(h.clone(), AssocMode::FullyAssociative)
            .analyze_kernel(&p, &k)
            .unwrap();
        let sa = CacheModel::new(h, AssocMode::SetAssociative)
            .analyze_kernel(&p, &k)
            .unwrap();
        assert!(
            sa.levels[0].misses > full.levels[0].misses * 2.0,
            "set-assoc {} vs full {}",
            sa.levels[0].misses,
            full.levels[0].misses
        );
    }

    #[test]
    fn tiled_matmul_keeps_tile_reuse() {
        use polyufc_pluto::PlutoOptimizer;
        let (p, _) = matmul(128);
        let (opt, _) = PlutoOptimizer.optimize(&p);
        let h = hierarchy(32, 512);
        let model = CacheModel::new(h.clone(), AssocMode::FullyAssociative);
        let tiled_stats = model.analyze_kernel(&opt, &opt.kernels[0]).unwrap();
        let untiled_stats = model.analyze_kernel(&p, &p.kernels[0]).unwrap();
        // Tiling must not increase modeled LLC misses.
        assert!(
            tiled_stats.levels[1].misses <= untiled_stats.levels[1].misses * 1.1,
            "tiled {} vs untiled {}",
            tiled_stats.levels[1].misses,
            untiled_stats.levels[1].misses
        );
    }
}
