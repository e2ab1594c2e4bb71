//! Polyhedral dependence analysis: dependence relations between accesses
//! of a kernel, their distance (delta) sets, and the permutability /
//! parallelism queries that drive tiling and parallelization.

use std::cell::OnceCell;
use std::collections::HashSet;

use polyufc_ir::affine::AffineKernel;
use polyufc_presburger::{BasicMap, LinExpr, Set, Space};

/// The delta (dependence distance) sets of one kernel, with convenience
/// queries.
///
/// Each set is stored with the loop level that carries it: the piece `j`
/// of the lexicographic order it was cut from forces `δ_<j = 0` and
/// `δ_j >= 1` on every point (the identity piece, level `depth`, forces
/// `δ = 0`). So a loop is parallel iff no set is carried at its level,
/// and only sets carried at an outer level can make `δ_l` negative — the
/// queries below ask the solver nothing else.
#[derive(Debug, Clone)]
pub struct DepSummary {
    depth: usize,
    /// The distinct delta sets of the dependent access pairs, each with
    /// its carrying level. Every query below is ∃/∀/max over this list, so
    /// pairs that repeat a set already recorded (stencil taps, repeated
    /// reads) add nothing and are not stored twice.
    pub deltas: Vec<(usize, Set)>,
    /// Whether some set's emptiness check ran out of solver budget; the
    /// set was then kept at its carrying level, so every answer stays
    /// conservative ("dependence present").
    pub budget_exceeded: bool,
    /// [`DepSummary::can_be_negative_at`] per level, filled on first use:
    /// the permutability test before and after skewing and the tiling
    /// gate all ask.
    negative_at: Vec<OnceCell<bool>>,
}

/// Builds the dependence summary of a kernel: for every pair of accesses to
/// the same array with at least one write, the set of iteration-space
/// distance vectors `i' - i` over pairs `i ≺ i'` (or `i ⪯ i'` when the
/// source statement precedes the destination statement textually) touching
/// the same element.
pub fn analyze_kernel(kernel: &AffineKernel) -> DepSummary {
    let depth = kernel.depth();
    let mut summary = DepSummary {
        depth,
        deltas: Vec::new(),
        budget_exceeded: false,
        negative_at: vec![OnceCell::new(); depth],
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

    // The relation of a pair is a function of the array, the two index
    // vectors and whether the identity piece is included; an ordered pair
    // that repeats an analysed one would rebuild the same delta sets.
    let mut analysed = HashSet::new();
    for &(si, ai) in &accesses {
        for &(sj, aj) in &accesses {
            let a1 = &kernel.statements[si].accesses[ai];
            let a2 = &kernel.statements[sj].accesses[aj];
            if a1.array != a2.array || (!a1.is_write && !a2.is_write) {
                continue;
            }
            if !analysed.insert((a1.array, &a1.indices, &a2.indices, si < sj)) {
                continue;
            }
            // Equal-element relation { i -> i' : A1(i) == A2(i') }.
            let mut rel = BasicMap::universe(Space::map(0, depth, depth));
            for (e1, e2) in a1.indices.iter().zip(&a2.indices) {
                // e1 over in-dims (vars 0..depth), e2 shifted to out-dims.
                let e2s = e2.shift_vars(0, depth);
                rel.basic_set_mut().add_eq(e2s - e1.clone());
            }
            let rel = rel
                .intersect_domain(dom_basic)
                .and_then(|r| r.intersect_range(dom_basic))
                .expect("relation and domain both have the kernel's depth");
            let pieces = lex.basics().iter().chain((si < sj).then_some(&identity));
            for (level, piece) in pieces.enumerate() {
                let delta = rel.intersect(piece).expect("same space").deltas();
                if summary.deltas.iter().any(|(_, s)| s.basics()[0] == delta) {
                    continue;
                }
                let empty = delta.is_empty();
                summary.budget_exceeded |= empty.is_err();
                if !matches!(empty, Ok(true)) {
                    summary.deltas.push((level, Set::from_basic(delta)));
                }
            }
        }
    }
    summary
}

/// Whether `s` has no point with `e >= 0`. Each disjunct gets the probe
/// row appended and is decided as it stands, with no re-simplification.
fn empty_where(s: &Set, e: LinExpr) -> polyufc_presburger::Result<bool> {
    for b in s.basics() {
        let mut probe = b.clone();
        probe.add_ge0(e.clone());
        if !probe.is_empty()? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl DepSummary {
    /// Nesting depth of the analyzed kernel.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the kernel carries no dependences at all.
    pub fn is_dependence_free(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Whether a delta with `δ_level <= -1` exists in any dependence
    /// (conservatively `true` on solver failure): the first probe of
    /// [`DepSummary::min_delta_at`].
    pub fn can_be_negative_at(&self, level: usize) -> bool {
        *self.negative_at[level].get_or_init(|| self.min_delta_at(level, 0) != Some(0))
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
        self.deltas.iter().all(|&(carried, _)| carried != level)
    }

    /// The most negative value `δ_level` can take, probed down to `-limit`
    /// (`Some(0)` if it cannot be negative). Returns `None` if undecidable
    /// or below the probe limit — callers should then give up on skewing.
    /// Only sets carried at an outer level are probed; every other set has
    /// `δ_level >= 0`.
    pub fn min_delta_at(&self, level: usize, limit: i64) -> Option<i64> {
        let mut worst = 0i64;
        for (_, s) in self.deltas.iter().filter(|&&(carried, _)| carried < level) {
            let mut k = 0i64;
            while !empty_where(s, -LinExpr::var(level) - LinExpr::constant(k + 1)).ok()? {
                k += 1;
                if k > limit {
                    return None;
                }
            }
            worst = worst.max(k);
        }
        Some(-worst)
    }

    /// The summary of `skew_loop(kernel, 0, inner, factor)`, without
    /// re-analysis. The skew is strictly lex-monotone — level 0 decides
    /// first, and otherwise distances are unchanged — so every dependence
    /// keeps its access pair and its carrying level: a set carried at
    /// level 0 maps by `δ_inner ↦ δ_inner + factor·δ_0`, every other set
    /// has `δ_0 = 0` and stays as it is. Only level `inner`'s answers move.
    pub fn skewed(&self, inner: usize, factor: i64) -> DepSummary {
        let shear = LinExpr::var(inner) - LinExpr::var(0) * factor;
        let deltas = self
            .deltas
            .iter()
            .map(|(carried, s)| {
                let s = match carried {
                    0 => Set::from_basic(s.basics()[0].substitute_var(inner, &shear)),
                    _ => s.clone(),
                };
                (*carried, s)
            })
            .collect();
        let mut negative_at = self.negative_at.clone();
        negative_at[inner] = OnceCell::new();
        DepSummary {
            depth: self.depth,
            deltas,
            budget_exceeded: self.budget_exceeded,
            negative_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
    use polyufc_ir::types::ElemType;

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
                    polyufc_ir::affine::Bound::constant(1),
                    polyufc_ir::affine::Bound::constant(15),
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

    /// jacobi-2d-style: `for t, i, j { s0: B[i][j] = f(A ·5); s1: A[i][j] =
    /// f(B ·5) }` — the two arrays' taps yield the same delta sets.
    fn five_point_kernel() -> AffineKernel {
        let mut p = AffineProgram::new("j2d");
        let a = p.add_array("A", vec![66, 66], ElemType::F64);
        let b = p.add_array("B", vec![66, 66], ElemType::F64);
        let (vi, vj) = (LinExpr::var(1), LinExpr::var(2));
        let sweep = |name: &str, src, dst| {
            let mut accesses: Vec<Access> = [(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)]
                .iter()
                .map(|&(di, dj)| {
                    let tap = vec![
                        vi.clone() + LinExpr::constant(di),
                        vj.clone() + LinExpr::constant(dj),
                    ];
                    Access::read(src, tap)
                })
                .collect();
            accesses.push(Access::write(dst, vec![vi.clone(), vj.clone()]));
            Statement {
                name: name.into(),
                accesses,
                flops: 5,
            }
        };
        let interior = || {
            Loop::new(
                polyufc_ir::affine::Bound::constant(1),
                polyufc_ir::affine::Bound::constant(65),
            )
        };
        AffineKernel {
            name: "j2d".into(),
            loops: vec![Loop::range(8), interior(), interior()],
            statements: vec![sweep("s0", a, b), sweep("s1", b, a)],
        }
    }

    #[test]
    fn repeated_dependences_are_recorded_once() {
        use crate::optimizer::{KernelDecision, PlutoOptimizer};
        let k = five_point_kernel();
        let d = analyze_kernel(&k);
        for (i, (_, s)) in d.deltas.iter().enumerate() {
            for (_, other) in &d.deltas[i + 1..] {
                assert_ne!(s.basics(), other.basics());
            }
        }
        // Dropping the repeats changes no answer: the decision is the one
        // taken with every pair's delta set kept.
        let (_, dec) = PlutoOptimizer.optimize_kernel(&k);
        assert_eq!(
            dec,
            KernelDecision {
                name: "j2d".into(),
                skewed: vec![(1, 1), (2, 1)],
                tiled: true,
                parallel_loops: vec![],
                analysis_conservative: false,
            }
        );
    }

    #[test]
    fn matmul_permutable_and_parallel() {
        let d = analyze_kernel(&matmul_kernel());
        assert!(!d.is_dependence_free()); // C[i][j] reduction on k
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
        assert!(d.is_dependence_free());
        assert!(d.loop_parallel(0));
        assert!(d.fully_permutable());
    }
}
