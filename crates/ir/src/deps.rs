//! Polyhedral dependence analysis, once per kernel: the distance (delta)
//! sets of every conflicting access pair, each filed by its carrying loop
//! level. Pluto and the verifier's race pass read one [`DepSummary`]; the
//! verify gate builds it and hands it to Pluto.

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;

use polyufc_presburger::{BasicMap, BasicSet, LinExpr, Set, Space};

use crate::affine::{Access, AffineKernel};

/// One distinct delta set of a kernel.
#[derive(Debug, Clone)]
pub struct Dependence {
    /// The carrying loop level: piece `level` of the lexicographic order
    /// forces `δ_<level = 0` and `δ_level >= 1` (the identity piece, level
    /// `depth`, forces `δ = 0`).
    pub level: usize,
    /// The distance vectors `i' - i`.
    pub delta: Set,
    /// `(statement, access)` of the source and of the sink access of the
    /// first pair, in statement-then-access order, that gave this set.
    pub pair: [(usize, usize); 2],
}

/// The dependences of one kernel, with the queries Pluto and the race pass
/// ask.
///
/// A loop is parallel iff no dependence is carried at its level, and only
/// dependences carried at an outer level can make `δ_l` negative — the
/// queries below ask the solver nothing else.
#[derive(Debug, Clone)]
pub struct DepSummary {
    depth: usize,
    /// The distinct delta sets of the dependent access pairs. Every query
    /// below is ∃/∀/max over this list, so pairs that repeat analysed
    /// conflict equations (stencil taps, repeated reads) add nothing and
    /// are skipped; a set keeps its relation's rows, so sets of distinct
    /// equations or levels are distinct.
    pub dependences: Vec<Dependence>,
    /// Whether some set's emptiness check ran out of solver budget; the
    /// set was then kept at its carrying level, so every answer stays
    /// conservative ("dependence present").
    pub budget_exceeded: bool,
    /// [`DepSummary::first_negative_at`] per level, filled on first use:
    /// the permutability test before and after skewing, the skew search
    /// and the tiling gate all ask.
    negative_at: Vec<OnceCell<Result<Option<usize>, ()>>>,
    /// Per level, an index below which every set not carried at level 0 is
    /// known to have `δ_level >= 0` (recorded by the skew search). A skew
    /// leaves those sets unchanged, so the proof carries over.
    unsheared_ok: Vec<Cell<usize>>,
}

/// `{ i -> i' : i, i' ∈ D, E_src(i) = E_sink(i') }`: the iteration pairs
/// at which two accesses of a kernel touch the same element, over the
/// kernel's iteration domain `domain`.
pub fn access_relation(domain: &BasicSet, src: &Access, sink: &Access) -> BasicMap {
    let depth = domain.space().n_dim();
    let mut rel = BasicMap::universe(Space::map(0, depth, depth));
    for e in conflict_eqs(depth, src, sink) {
        rel.basic_set_mut().add_eq(e);
    }
    rel.intersect_domain(domain)
        .and_then(|r| r.intersect_range(domain))
        .expect("relation and domain both have the kernel's depth")
}

/// `E_sink(i') - E_src(i)` per array dimension, over `[i, i']`.
fn conflict_eqs(depth: usize, src: &Access, sink: &Access) -> Vec<LinExpr> {
    let eq = |(e1, e2): (&LinExpr, &LinExpr)| e2.shift_vars(0, depth) - e1.clone();
    src.indices.iter().zip(&sink.indices).map(eq).collect()
}

/// Builds the dependence summary of a kernel: for every pair of accesses to
/// the same array with at least one write, the set of iteration-space
/// distance vectors `i' - i` over pairs `i ≺ i'` (or `i ⪯ i'` when the
/// source statement precedes the destination statement textually) touching
/// the same element.
/// Each lexicographic piece is decided on the pair relation; only a piece
/// with points pays for its delta set (one more variable per dimension).
pub fn analyze_kernel(kernel: &AffineKernel) -> DepSummary {
    let depth = kernel.depth();
    let mut summary = DepSummary {
        depth,
        dependences: Vec::new(),
        budget_exceeded: false,
        negative_at: vec![OnceCell::new(); depth],
        unsheared_ok: vec![Cell::new(0); depth],
    };
    if depth == 0 {
        return summary;
    }
    let domain = kernel.domain();
    let dom_basic = &domain.basics()[0];
    // Piece j carries at level j; the identity piece (index `depth`) joins
    // only when the source statement textually precedes the sink.
    let lex = polyufc_presburger::lex_lt_map(0, depth);
    let identity = BasicMap::identity(0, depth);

    let accesses: Vec<(usize, usize)> = kernel
        .statements
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.accesses.len()).map(move |ai| (si, ai)))
        .collect();

    // A pair's relation is a function of its conflict equations alone (the
    // domain is the kernel's), so a pair repeating analysed ones — e.g. the
    // same index functions on another array, or `A[i-1]`/`A[i]` after
    // `A[i]`/`A[i+1]` — owes at most the identity piece, if that has not
    // joined yet; each key maps to whether it has.
    let mut analysed = HashMap::new();
    for &(si, ai) in &accesses {
        for &(sj, aj) in &accesses {
            let a1 = &kernel.statements[si].accesses[ai];
            let a2 = &kernel.statements[sj].accesses[aj];
            if a1.array != a2.array || (!a1.is_write && !a2.is_write) {
                continue;
            }
            let eqs = conflict_eqs(depth, a1, a2);
            let joins = si < sj;
            let first = match analysed.get(&eqs) {
                None => 0,
                Some(false) if joins => depth,
                Some(_) => continue,
            };
            analysed.insert(eqs, joins);
            let rel = access_relation(dom_basic, a1, a2);
            let pieces = lex.basics().iter().chain(joins.then_some(&identity));
            for (level, piece) in pieces.enumerate().skip(first) {
                let pair_rel = rel.intersect(piece).expect("same space");
                let empty = pair_rel.as_basic_set().is_empty();
                if let Ok(true) = empty {
                    continue;
                }
                summary.budget_exceeded |= empty.is_err();
                summary.dependences.push(Dependence {
                    level,
                    delta: Set::from_basic(pair_rel.deltas()),
                    pair: [(si, ai), (sj, aj)],
                });
            }
        }
    }
    summary
}

/// Whether `s` has no point with `δ_level <= -1 - k`. Each disjunct gets
/// the probe row appended and is decided as it stands, with no
/// re-simplification.
fn empty_below(s: &Set, level: usize, k: i64) -> polyufc_presburger::Result<bool> {
    #[cfg(test)]
    tests::PROBES.with(|p| p.set(p.get() + 1));
    let e = -LinExpr::var(level) - LinExpr::constant(k + 1);
    for b in s.basics() {
        if !b.with_ge0(e.clone()).is_empty()? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl DepSummary {
    /// Whether a delta with `δ_level <= -1` exists in any dependence
    /// (conservatively `true` on solver failure).
    pub fn can_be_negative_at(&self, level: usize) -> bool {
        self.first_negative_at(level) != Ok(None)
    }

    /// The index of the first dependence carried above `level` with a
    /// point at `δ_level <= -1` (`Ok(None)`: none; `Err(())`: a probe
    /// failed), probed once per level.
    fn first_negative_at(&self, level: usize) -> Result<Option<usize>, ()> {
        *self.negative_at[level].get_or_init(|| {
            let ok = &self.unsheared_ok[level];
            let outer = self.dependences.iter().enumerate();
            for (i, d) in outer.filter(|(_, d)| d.level < level) {
                if (d.level == 0 || i >= ok.get())
                    && !empty_below(&d.delta, level, 0).map_err(|_| ())?
                {
                    return Ok(Some(i));
                }
            }
            Ok(None)
        })
    }

    /// Whether the full band `0..depth` is fully permutable: every delta is
    /// component-wise non-negative.
    pub fn fully_permutable(&self) -> bool {
        (0..self.depth).all(|d| !self.can_be_negative_at(d))
    }

    /// Whether loop `level` is parallel: no dependence has
    /// `δ_0 = .. = δ_{level-1} = 0` and `δ_level != 0`, i.e. none is
    /// carried at `level`.
    pub fn loop_parallel(&self, level: usize) -> bool {
        self.dependences.iter().all(|d| d.level != level)
    }

    /// The most negative value `δ_level` can take, probed down to `-limit`
    /// (`Some(0)` if it cannot be negative). Returns `None` if undecidable
    /// or below the probe limit — callers should then give up on skewing.
    /// Only sets carried at an outer level are probed; every other set has
    /// `δ_level >= 0`.
    pub fn min_delta_at(&self, level: usize, limit: i64) -> Option<i64> {
        // The sets before the first negative one cannot go negative, and
        // that one's k = 0 probe is answered.
        let Some(first) = self.first_negative_at(level).ok()? else {
            return Some(0);
        };
        // While every set a skew leaves unchanged has probed non-negative,
        // record how far that is known for summaries skewed from this one.
        let ok = &self.unsheared_ok[level];
        let mut worst = 0i64;
        let mut proving = true;
        let outer = self.dependences.iter().enumerate().skip(first);
        for (i, d) in outer.filter(|(_, d)| d.level < level) {
            if proving && d.level > 0 {
                ok.set(ok.get().max(i));
            }
            let mut k = 0i64;
            while (i, k) == (first, 0) || !empty_below(&d.delta, level, k).ok()? {
                k += 1;
                if k > limit {
                    return None;
                }
            }
            proving &= d.level == 0 || k == 0;
            worst = worst.max(k);
        }
        if proving {
            ok.set(self.dependences.len());
        }
        Some(-worst)
    }

    /// The summary of `skew_loop(kernel, 0, inner, factor)`, without
    /// re-analysis. The skew is strictly lex-monotone — level 0 decides
    /// first, and otherwise distances are unchanged — so every dependence
    /// keeps its access pair and its carrying level: a set carried at
    /// level 0 maps by `δ_inner ↦ δ_inner + factor·δ_0`, every other set
    /// has `δ_0 = 0` and stays as it is. Only level `inner`'s answers move,
    /// and its search skips the unchanged sets this summary already proved
    /// non-negative there.
    pub fn skewed(&self, inner: usize, factor: i64) -> DepSummary {
        let shear = LinExpr::var(inner) - LinExpr::var(0) * factor;
        let dependences = self
            .dependences
            .iter()
            .map(|d| Dependence {
                delta: match d.level {
                    0 => Set::from_basic(d.delta.basics()[0].substitute_var(inner, &shear)),
                    _ => d.delta.clone(),
                },
                ..*d
            })
            .collect();
        let mut negative_at = self.negative_at.clone();
        negative_at[inner] = OnceCell::new();
        DepSummary {
            depth: self.depth,
            dependences,
            budget_exceeded: self.budget_exceeded,
            negative_at,
            unsheared_ok: self.unsheared_ok.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Access, AffineKernel, AffineProgram, Bound, Loop, Statement};
    use crate::types::ElemType;

    thread_local! {
        /// `empty_below` probes issued on this thread.
        pub(super) static PROBES: Cell<usize> = const { Cell::new(0) };
    }

    fn matmul_kernel() -> AffineKernel {
        let mut p = AffineProgram::new("mm");
        let a = p.add_array("A", vec![8, 8], ElemType::F64);
        let b = p.add_array("B", vec![8, 8], ElemType::F64);
        let c = p.add_array("C", vec![8, 8], ElemType::F64);
        let (vi, vj, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        AffineKernel {
            name: "mm".into(),
            loops: vec![Loop::range(8), Loop::range(8), Loop::range(8)],
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
        }
    }

    /// jacobi-1d-style: `for t { for i { A[i] = f(A[i-1], A[i], A[i+1]) } }`
    /// (in-place to create the classic (1,-1) dependence).
    fn stencil_kernel() -> AffineKernel {
        let mut p = AffineProgram::new("st");
        let a = p.add_array("A", vec![16], ElemType::F64);
        let vi = LinExpr::var(1);
        AffineKernel {
            name: "st".into(),
            loops: vec![
                Loop::range(4),
                Loop::new(
                    crate::affine::Bound::constant(1),
                    crate::affine::Bound::constant(15),
                ),
            ],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone() - LinExpr::constant(1)]),
                    Access::read(a, vec![vi.clone()]),
                    Access::read(a, vec![vi.clone() + LinExpr::constant(1)]),
                    Access::write(a, vec![vi]),
                ],
                flops: 3,
            }],
        }
    }

    #[test]
    fn matmul_permutable_and_parallel() {
        let d = analyze_kernel(&matmul_kernel());
        // The C[i][j] reduction on k, first found between its read and write.
        assert_eq!(d.dependences.len(), 1);
        assert_eq!(d.dependences[0].pair, [(0, 2), (0, 3)]);
        assert!(d.fully_permutable());
        assert!(d.loop_parallel(0));
        assert!(d.loop_parallel(1));
        assert!(!d.loop_parallel(2)); // reduction loop
    }

    #[test]
    fn stencil_not_permutable_needs_skew() {
        let d = analyze_kernel(&stencil_kernel());
        assert!(!d.fully_permutable());
        assert!(d.can_be_negative_at(1));
        assert!(!d.loop_parallel(0));
        assert!(!d.loop_parallel(1));
        assert_eq!(d.min_delta_at(1, 4), Some(-1));
    }

    #[test]
    fn independent_copy_is_dependence_free() {
        let mut p = AffineProgram::new("cp");
        let a = p.add_array("A", vec![8], ElemType::F64);
        let b = p.add_array("B", vec![8], ElemType::F64);
        let k = AffineKernel {
            name: "cp".into(),
            loops: vec![Loop::range(8)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0)]),
                    Access::write(b, vec![LinExpr::var(0)]),
                ],
                flops: 0,
            }],
        };
        let d = analyze_kernel(&k);
        assert!(d.dependences.is_empty());
        assert!(d.loop_parallel(0));
        assert!(d.fully_permutable());
    }

    /// seidel-2d-style: `for t { for i { for j { A[i][j] = f(A[i±1][j±1],
    /// A[i±1][j], A[i][j±1], A[i][j]) } } }` in place (no `A[i-1][j+1]`
    /// tap), so dependences are carried at every level and both inner
    /// levels need a skew.
    fn seidel_kernel() -> AffineKernel {
        let mut p = AffineProgram::new("sd");
        let a = p.add_array("A", vec![12, 12], ElemType::F64);
        let (vi, vj) = (LinExpr::var(1), LinExpr::var(2));
        let inner = || Loop::new(Bound::constant(1), Bound::constant(11));
        let at = |di: i64, dj: i64| {
            vec![
                vi.clone() + LinExpr::constant(di),
                vj.clone() + LinExpr::constant(dj),
            ]
        };
        AffineKernel {
            name: "sd".into(),
            loops: vec![Loop::range(4), inner(), inner()],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, at(-1, -1)),
                    Access::read(a, at(-1, 0)),
                    Access::read(a, at(0, -1)),
                    Access::read(a, at(0, 0)),
                    Access::read(a, at(0, 1)),
                    Access::read(a, at(1, 0)),
                    Access::read(a, at(1, 1)),
                    Access::write(a, at(0, 0)),
                ],
                flops: 7,
            }],
        }
    }

    #[test]
    fn skewed_summary_reprobes_only_sheared_sets() {
        // Pluto's flow: the permutability test, a skew search per inner
        // level, then the tiling gate's permutability test on the result.
        let mut d = analyze_kernel(&seidel_kernel());
        assert!(!d.fully_permutable());
        let mut skews = Vec::new();
        for inner in 1..3 {
            if let Some(min_d @ ..=-1) = d.min_delta_at(inner, 8) {
                d = d.skewed(inner, -min_d);
                skews.push((inner, -min_d));
            }
        }
        assert_eq!(skews, [(1, 1), (2, 1)]);
        let carried = |l: usize| d.dependences.iter().filter(|x| x.level == l).count();
        assert_eq!((carried(0), carried(1)), (7, 2));
        // The gate re-probes the level-0 sets at both skewed levels, each
        // once at k = 0; the level-1 sets, unchanged by either skew, were
        // proved non-negative at level 2 by the second skew search.
        let before = PROBES.with(Cell::get);
        assert!(d.fully_permutable());
        assert_eq!(PROBES.with(Cell::get) - before, 2 * carried(0));
    }
}
