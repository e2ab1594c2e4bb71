//! Closed-form symbolic counting by Fourier–Motzkin bound derivation and
//! Faulhaber summation — the size-independent first-choice strategy of the
//! barvinok substitute.
//!
//! The recursive enumerator in [`crate::count`] branches the narrowest
//! variable of a coupled component over its full interval, so a triangular
//! PolyBench domain at `N = 512` costs ~512 recursive solves and paper-scale
//! sizes (`N >= 4000`) exhaust the solver budget. This module instead
//! eliminates one variable at a time *symbolically*:
//!
//! 1. collect the variable's affine lower/upper bounds from the component's
//!    constraints (unit coefficient, or any coefficient against a constant
//!    rest, which rounds to an exact integer bound);
//! 2. if several lower (or upper) bounds compete, split the outer region on
//!    which bound dominates — each branch keeps a single `max`/`min`
//!    candidate, so the piecewise structure is made explicit;
//! 3. with a single bound pair `L <= v <= U`, the running count polynomial
//!    `P` is summed in closed form: `Σ_{v=L}^{U} v^k = S_k(U) - S_k(L-1)`
//!    with `S_k` the Faulhaber (Bernoulli) power-sum polynomial, composed
//!    with the affine bounds — a polynomial in the remaining variables;
//! 4. the region keeps the constraint `U - L >= 0`, so emptiness shows up
//!    as a violated constant constraint once every variable is eliminated.
//!
//! Triangle, trapezoid, banded, stride (div) and tile-tail shapes — the
//! domains affine loop nests actually produce — collapse to `O(poly(dims))`
//! work independent of the problem size. Shapes outside the fragment
//! (non-unit coefficients against non-constant rests, unbounded variables,
//! excessive region splits, coefficient overflow) return `None` and the
//! caller falls back to the verified enumerator.
//!
//! All arithmetic is exact: rationals over `i128` with checked operations;
//! any overflow aborts the symbolic attempt rather than corrupting a count.

use std::sync::OnceLock;

use crate::basic::{ceil_div, floor_div, Budget, System};
use crate::inline::InlineVec;
use crate::{BasicSet, Constraint, ConstraintKind, LinExpr};

/// Work cap for one symbolic attempt, in elementary polynomial/region
/// operations. Failing shapes bail out quickly to the enumerator.
const MAX_WORK: u64 = 200_000;
/// Cap on region splits (branches of step 2).
const MAX_REGIONS: u64 = 4_096;
/// Cap on the monomial count of any intermediate polynomial.
const MAX_TERMS: usize = 4_096;
/// Cap on the degree of a summed variable (bounds the Faulhaber order).
const MAX_DEGREE: u32 = 16;

// ---------------------------------------------------------------------------
// Exact rationals over i128
// ---------------------------------------------------------------------------

/// A reduced rational with positive denominator. All operations are
/// checked; `None` means i128 overflow (the attempt is abandoned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    num: i128,
    den: i128,
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    const ZERO: Rat = Rat { num: 0, den: 1 };

    fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    fn new(num: i128, den: i128) -> Option<Rat> {
        if den == 0 {
            return None;
        }
        let (num, den) = if den < 0 {
            (num.checked_neg()?, den.checked_neg()?)
        } else {
            (num, den)
        };
        let g = gcd_i128(num, den).max(1);
        Some(Rat {
            num: num / g,
            den: den / g,
        })
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    fn add(self, o: Rat) -> Option<Rat> {
        let num = self
            .num
            .checked_mul(o.den)?
            .checked_add(o.num.checked_mul(self.den)?)?;
        Rat::new(num, self.den.checked_mul(o.den)?)
    }

    fn mul(self, o: Rat) -> Option<Rat> {
        Rat::new(self.num.checked_mul(o.num)?, self.den.checked_mul(o.den)?)
    }

    fn as_int(self) -> Option<i128> {
        (self.den == 1).then_some(self.num)
    }
}

// ---------------------------------------------------------------------------
// Multivariate polynomials with rational coefficients
// ---------------------------------------------------------------------------

/// A monomial: sorted `(variable, exponent > 0)` pairs, in place up to
/// four variables.
type Monomial = InlineVec<(usize, u32), 4>;

/// A multivariate polynomial over the solver variables, stored as its terms
/// sorted by monomial with zero coefficients dropped (so equality and term
/// counts are meaningful). The order is the one a monomial-keyed
/// `BTreeMap` iterates in, so every operation meets its terms — and any
/// checked overflow — in that order.
#[derive(Debug, Clone, Default)]
struct Poly {
    terms: Vec<(Monomial, Rat)>,
}

impl Poly {
    fn constant(r: Rat) -> Poly {
        let mut p = Poly::default();
        if !r.is_zero() {
            p.terms.push((Monomial::default(), r));
        }
        p
    }

    fn one() -> Poly {
        Poly::constant(Rat::int(1))
    }

    /// Lifts an affine expression into a polynomial.
    fn from_affine(e: &LinExpr) -> Poly {
        let mut p = Poly {
            terms: Vec::with_capacity(1 + e.len()),
        };
        let k = Rat::int(e.constant_term() as i128);
        if !k.is_zero() {
            p.terms.push((Monomial::default(), k));
        }
        for (v, c) in e.terms() {
            let mut m = Monomial::default();
            m.push((v, 1));
            p.terms.push((m, Rat::int(c as i128)));
        }
        p
    }

    fn add_term(&mut self, m: Monomial, r: Rat) -> Option<()> {
        if r.is_zero() {
            return Some(());
        }
        match self.terms.binary_search_by(|(k, _)| k[..].cmp(&m)) {
            Err(i) => self.terms.insert(i, (m, r)),
            Ok(i) => {
                let s = self.terms[i].1.add(r)?;
                if s.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = s;
                }
            }
        }
        Some(())
    }

    /// `self += r · o`, in place, term by term in `o`'s order.
    fn add_scaled(&mut self, o: &Poly, r: Rat) -> Option<()> {
        for (m, c) in &o.terms {
            self.add_term(m.clone(), c.mul(r)?)?;
        }
        Some(())
    }

    fn mul(&self, o: &Poly, work: &mut Work) -> Option<Poly> {
        let mut out = Poly::default();
        for (ma, ra) in &self.terms {
            for (mb, rb) in &o.terms {
                work.tick(1)?;
                out.add_term(mul_monomials(ma, mb)?, ra.mul(*rb)?)?;
            }
        }
        (out.terms.len() <= MAX_TERMS).then_some(out)
    }

    /// Splits by the power of `v`: returns `(k, Q_k)` pairs, ascending in
    /// `k`, such that `self = Σ_k Q_k · v^k` and no `Q_k` mentions `v`.
    fn split_var(&self, v: usize) -> Vec<(u32, Poly)> {
        let mut by_pow: Vec<(u32, Poly)> = Vec::new();
        for (m, r) in &self.terms {
            let k = m
                .iter()
                .find(|&&(var, _)| var == v)
                .map(|&(_, e)| e)
                .unwrap_or(0);
            let mut rest = Monomial::default();
            m.iter().filter(|p| p.0 != v).for_each(|&p| rest.push(p));
            let at = match by_pow.binary_search_by_key(&k, |(p, _)| *p) {
                Ok(i) => i,
                Err(i) => {
                    by_pow.insert(i, (k, Poly::default()));
                    i
                }
            };
            // Distinct source monomials with the same power of `v` have
            // distinct residual monomials (the split is a bijection), so
            // each `Q_k` only needs sorting, never merging.
            by_pow[at].1.terms.push((rest, *r));
        }
        for (_, q) in &mut by_pow {
            q.terms.sort_unstable_by(|a, b| a.0[..].cmp(&b.0));
        }
        by_pow
    }

    /// Substitutes variable `v` with an affine expression.
    fn subst_affine(&self, v: usize, e: &LinExpr, work: &mut Work) -> Option<Poly> {
        let repl = Poly::from_affine(e);
        let mut out = Poly::default();
        for (k, q) in self.split_var(v) {
            let p = repl.pow(k, work)?;
            out.add_scaled(&q.mul(&p, work)?, Rat::int(1))?;
        }
        Some(out)
    }

    fn pow(&self, k: u32, work: &mut Work) -> Option<Poly> {
        let mut out = Poly::one();
        for _ in 0..k {
            out = out.mul(self, work)?;
        }
        Some(out)
    }

    /// The value of a constant polynomial (fails on any remaining
    /// variable or a non-integer constant).
    fn as_const_int(&self) -> Option<i128> {
        match self.terms.as_slice() {
            [] => Some(0),
            [(m, r)] => {
                m.is_empty().then_some(())?;
                r.as_int()
            }
            _ => None,
        }
    }
}

fn mul_monomials(a: &Monomial, b: &Monomial) -> Option<Monomial> {
    let mut out = a.clone();
    for &(v, e) in b.iter() {
        match out.iter_mut().find(|(var, _)| *var == v) {
            Some((_, oe)) => *oe = oe.checked_add(e)?,
            None => out.push((v, e)),
        }
    }
    out.sort_unstable_by_key(|&(v, _)| v);
    (out.iter().map(|&(_, e)| e).sum::<u32>() <= MAX_DEGREE + 1).then_some(out)
}

// ---------------------------------------------------------------------------
// Faulhaber power sums
// ---------------------------------------------------------------------------

/// Bernoulli numbers `B⁺_0..=B⁺_m` for `m <= MAX_DEGREE` (the `B_1 = +1/2`
/// convention used by the Faulhaber formula), computed once.
fn bernoulli_plus(m: usize) -> Option<&'static [Rat]> {
    static TABLE: OnceLock<Option<Vec<Rat>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| bernoulli_table(MAX_DEGREE as usize));
    table.as_deref().map(|b| &b[..=m])
}

/// `B⁺_0..=B⁺_m` by the standard recurrence.
fn bernoulli_table(m: usize) -> Option<Vec<Rat>> {
    let mut b: Vec<Rat> = Vec::with_capacity(m + 1);
    b.push(Rat::int(1));
    for n in 1..=m {
        // B_n = -1/(n+1) · Σ_{j<n} C(n+1, j) B_j  (B⁻ convention)
        let mut acc = Rat::ZERO;
        for (j, bj) in b.iter().enumerate() {
            acc = acc.add(Rat::int(binom(n as u32 + 1, j as u32)?).mul(*bj)?)?;
        }
        b.push(acc.mul(Rat::new(-1, n as i128 + 1)?)?);
    }
    if m >= 1 {
        b[1] = Rat::new(1, 2)?; // flip to B⁺
    }
    Some(b)
}

fn binom(n: u32, k: u32) -> Option<i128> {
    let mut out: i128 = 1;
    for i in 0..k.min(n - k) {
        out = out.checked_mul((n - i) as i128)? / (i as i128 + 1);
    }
    Some(out)
}

/// The Faulhaber polynomial `S_k(x) = Σ_{t=1}^{x} t^k`, composed with the
/// polynomial `x`. Valid as a polynomial identity for every integer
/// argument (also negative), so `Σ_{t=L}^{U} t^k = S_k(U) - S_k(L-1)`
/// whenever `L <= U`.
fn power_sum(k: u32, x: &Poly, work: &mut Work) -> Option<Poly> {
    if k > MAX_DEGREE {
        return None;
    }
    let bern = bernoulli_plus(k as usize)?;
    // Powers x^1 ..= x^(k+1).
    let mut pows: Vec<Poly> = Vec::with_capacity(k as usize + 2);
    pows.push(Poly::one());
    for i in 1..=(k + 1) {
        let next = pows[i as usize - 1].mul(x, work)?;
        pows.push(next);
    }
    // S_k(x) = 1/(k+1) · Σ_{j=0}^{k} C(k+1, j) B⁺_j x^{k+1-j}
    let mut acc = Poly::default();
    for (j, bj) in bern.iter().enumerate() {
        let coef = Rat::int(binom(k + 1, j as u32)?).mul(*bj)?;
        acc.add_scaled(&pows[(k + 1) as usize - j], coef)?;
    }
    let r = Rat::new(1, k as i128 + 1)?;
    for (_, c) in &mut acc.terms {
        *c = c.mul(r)?;
    }
    Some(acc)
}

// ---------------------------------------------------------------------------
// The region recursion
// ---------------------------------------------------------------------------

/// Work/region budget of one symbolic attempt.
#[derive(Debug)]
struct Work {
    steps: u64,
    regions: u64,
}

impl Work {
    fn new() -> Work {
        Work {
            steps: 0,
            regions: 0,
        }
    }

    fn tick(&mut self, n: u64) -> Option<()> {
        self.steps += n;
        (self.steps <= MAX_WORK).then_some(())
    }

    fn region(&mut self) -> Option<()> {
        self.regions += 1;
        (self.regions <= MAX_REGIONS).then_some(())
    }
}

/// Attempts a closed-form count of the solutions of `sys` over `vars`
/// (every constraint must only mention variables in `vars`), additionally
/// reporting how many regions were fanned out across the worker pool
/// (0 when the shape never split wide enough to parallelize). `None` means
/// the shape is outside the symbolic fragment — fall back to enumeration.
pub(crate) fn try_count_with_stats(sys: &System, vars: &[usize]) -> Option<(i128, u64)> {
    let n_rows = sys.n_rows();
    let in_fragment = (0..n_rows).all(|i| {
        sys.coeffs(i)
            .iter()
            .enumerate()
            .all(|(v, &c)| c == 0 || vars.contains(&v))
    });
    if !in_fragment {
        return None;
    }
    let root = Region {
        n: sys.n,
        cons: sys.to_constraints(),
        vars: vars.to_vec(),
        poly: Poly::one(),
    };
    let (n, splits, _) = count_regions(root)?;
    (n >= 0).then_some((n, splits))
}

/// [`try_count_with_stats`] without the parallel-split counter.
pub(crate) fn try_count(sys: &System, vars: &[usize]) -> Option<i128> {
    try_count_with_stats(sys, vars).map(|(n, _)| n)
}

/// Symbolic count of a basic set with determined divs, when the shape is
/// inside the closed-form fragment. This is the public entry used by the
/// differential test suite and diagnostics; the counting pipeline invokes
/// the same machinery per connected component via [`crate::Set::count`].
pub fn symbolic_count(set: &BasicSet) -> Option<i128> {
    if !set.all_divs_determined() {
        return None;
    }
    let sys = set.system();
    let vars: Vec<usize> = (0..sys.n).collect();
    try_count(&sys, &vars)
}

/// Normalizes a constraint by the gcd of its coefficients (exact for
/// integer points: equalities must divide evenly, inequalities floor).
/// Returns `None` for a proven-empty region.
fn normalize(c: &Constraint) -> Option<Constraint> {
    let g = c.expr.coeff_gcd();
    if g <= 1 {
        return Some(c.clone());
    }
    let k = c.expr.constant_term();
    let mut expr = LinExpr::zero();
    for (v, coef) in c.expr.terms() {
        expr.set_coeff(v, coef / g);
    }
    match c.kind {
        ConstraintKind::Eq => {
            if k % g != 0 {
                return None;
            }
            expr.set_constant(k / g);
        }
        ConstraintKind::GeZero => expr.set_constant(floor_div(k, g)),
    }
    Some(Constraint { expr, kind: c.kind })
}

/// How a variable can be eliminated from the current region.
enum Elimination {
    /// `v = expr` via a unit-coefficient (or constant-rest) equality.
    Substitute(LinExpr),
    /// Inequality bounds `max(lowers) <= v <= min(uppers)`.
    Bounds {
        lowers: Vec<LinExpr>,
        uppers: Vec<LinExpr>,
    },
    /// The region is empty (an indivisible constant-rest equality).
    Empty,
}

/// Classifies how `v` can be eliminated, or `None` if some constraint
/// containing `v` is outside the fragment.
fn classify(cons: &[Constraint], v: usize) -> Option<Elimination> {
    let mut lowers: Vec<LinExpr> = Vec::new();
    let mut uppers: Vec<LinExpr> = Vec::new();
    let mut subst: Option<LinExpr> = None;
    for c in cons {
        let a = c.expr.coeff(v);
        if a == 0 {
            continue;
        }
        let mut rest = c.expr.clone();
        rest.set_coeff(v, 0);
        let rest_const = rest.is_constant();
        match c.kind {
            ConstraintKind::Eq => {
                if a == 1 {
                    subst.get_or_insert(-rest);
                } else if a == -1 {
                    subst.get_or_insert(rest);
                } else if rest_const {
                    let k = rest.constant_term();
                    if k % a != 0 {
                        return Some(Elimination::Empty);
                    }
                    subst.get_or_insert(LinExpr::constant(-k / a));
                } else {
                    return None;
                }
            }
            ConstraintKind::GeZero => {
                if a == 1 {
                    lowers.push(-rest); // v >= -rest
                } else if a == -1 {
                    uppers.push(rest); // v <= rest
                } else if rest_const {
                    let k = rest.constant_term();
                    if a > 1 {
                        lowers.push(LinExpr::constant(ceil_div(-k, a)));
                    } else {
                        uppers.push(LinExpr::constant(floor_div(k, -a)));
                    }
                } else {
                    return None;
                }
            }
        }
    }
    if let Some(e) = subst {
        return Some(Elimination::Substitute(e));
    }
    lowers.sort_unstable_by(cmp_expr);
    lowers.dedup();
    uppers.sort_unstable_by(cmp_expr);
    uppers.dedup();
    if lowers.is_empty() || uppers.is_empty() {
        return None; // unbounded
    }
    Some(Elimination::Bounds { lowers, uppers })
}

/// Deterministic expression order for bound dedup (coefficients, then
/// constant).
fn cmp_expr(a: &LinExpr, b: &LinExpr) -> std::cmp::Ordering {
    let ta: Vec<(usize, i64)> = a.terms().collect();
    let tb: Vec<(usize, i64)> = b.terms().collect();
    ta.cmp(&tb)
        .then_with(|| a.constant_term().cmp(&b.constant_term()))
}

/// One independent piece of the piecewise count: a constraint region over
/// the root system's `n` variables, the variables still to eliminate, and
/// the running count polynomial. Regions are self-contained, which is what
/// lets split branches be evaluated on different worker threads.
#[derive(Debug, Clone)]
struct Region {
    n: usize,
    cons: Vec<Constraint>,
    vars: Vec<usize>,
    poly: Poly,
}

impl Region {
    /// Whether interval propagation proves the region has no integer
    /// point, so its exact contribution is 0 and it need not be evaluated.
    fn refuted(&self) -> bool {
        matches!(
            System::new(self.n, &self.cons).propagate(&mut Budget::default()),
            Ok(None)
        )
    }
}

/// Result of advancing one region until it finishes or splits.
enum StepOutcome {
    /// The region's exact contribution to the total.
    Done(i128),
    /// The region split on a dominating-bound case distinction; both
    /// branches must be evaluated and summed.
    Split(Region, Region),
}

/// Advances a region until it resolves to a count or splits in two.
/// Substitutions and single-bound-pair summations loop in place (the
/// tail-recursive cases of the old recursion); each loop iteration pays
/// the same tick/region budget a recursive call used to.
fn region_step(mut r: Region, work: &mut Work) -> Option<StepOutcome> {
    loop {
        work.tick(1 + r.cons.len() as u64)?;
        work.region()?;

        // Constant constraints decide emptiness; the rest is gcd-normalized.
        let mut live: Vec<Constraint> = Vec::with_capacity(r.cons.len());
        for c in &r.cons {
            if c.expr.is_constant() {
                let k = c.expr.constant_term();
                let ok = match c.kind {
                    ConstraintKind::Eq => k == 0,
                    ConstraintKind::GeZero => k >= 0,
                };
                if !ok {
                    return Some(StepOutcome::Done(0));
                }
                continue;
            }
            match normalize(c) {
                Some(n) => live.push(n),
                None => return Some(StepOutcome::Done(0)),
            }
        }

        if r.vars.is_empty() {
            // All constraints were constant and satisfied.
            return r.poly.as_const_int().map(StepOutcome::Done);
        }

        // Pick the eliminable variable needing the fewest region splits;
        // prefer higher indices (innermost dims / divs) on ties so the
        // traversal mirrors loop order deterministically.
        let mut best: Option<(u64, usize, Elimination)> = None;
        for &v in r.vars.iter().rev() {
            let Some(e) = classify(&live, v) else {
                continue;
            };
            let cost = match &e {
                Elimination::Substitute(_) | Elimination::Empty => 0,
                Elimination::Bounds { lowers, uppers } => (lowers.len() + uppers.len() - 2) as u64,
            };
            if best.as_ref().is_none_or(|b| cost < b.0) {
                let done = cost == 0;
                best = Some((cost, v, e));
                if done {
                    break;
                }
            }
        }
        let (_, v, elim) = best?;
        let rest_vars: Vec<usize> = r.vars.iter().copied().filter(|&x| x != v).collect();

        match elim {
            Elimination::Empty => return Some(StepOutcome::Done(0)),
            Elimination::Substitute(repl) => {
                let next: Vec<Constraint> = live
                    .iter()
                    .map(|c| Constraint {
                        expr: c.expr.substitute(v, &repl),
                        kind: c.kind,
                    })
                    .collect();
                let p = r.poly.subst_affine(v, &repl, work)?;
                r = Region {
                    n: r.n,
                    cons: next,
                    vars: rest_vars,
                    poly: p,
                };
            }
            Elimination::Bounds { lowers, uppers } => {
                let others: Vec<Constraint> = live
                    .iter()
                    .filter(|c| c.expr.coeff(v) == 0)
                    .cloned()
                    .collect();
                if lowers.len() > 1 || uppers.len() > 1 {
                    // Split the outer region on which bound dominates; each
                    // branch drops one competitor.
                    let (a, b, flip) = if lowers.len() > 1 {
                        (&lowers[0], &lowers[1], false)
                    } else {
                        (&uppers[0], &uppers[1], true)
                    };
                    let rebuild = |drop: &LinExpr, extra: LinExpr| -> Vec<Constraint> {
                        let mut out = others.clone();
                        for l in &lowers {
                            if !(std::ptr::eq(l, drop)) {
                                out.push(Constraint::ge0(
                                    LinExpr::var(v) - l.clone(), // v >= l
                                ));
                            }
                        }
                        for u in &uppers {
                            if !(std::ptr::eq(u, drop)) {
                                out.push(Constraint::ge0(u.clone() - LinExpr::var(v)));
                            }
                        }
                        out.push(Constraint::ge0(extra));
                        out
                    };
                    // For lower bounds: branch A keeps `a` (a >= b), branch B
                    // keeps `b` (b >= a+1). For upper bounds the comparison
                    // flips (keep the smaller one).
                    let (cons_a, cons_b) = if !flip {
                        (
                            rebuild(b, a.clone() - b.clone()),
                            rebuild(a, b.clone() - a.clone() - LinExpr::constant(1)),
                        )
                    } else {
                        (
                            rebuild(b, b.clone() - a.clone()),
                            rebuild(a, a.clone() - b.clone() - LinExpr::constant(1)),
                        )
                    };
                    let mut vars_with_v = rest_vars.clone();
                    vars_with_v.push(v);
                    vars_with_v.sort_unstable();
                    return Some(StepOutcome::Split(
                        Region {
                            n: r.n,
                            cons: cons_a,
                            vars: vars_with_v.clone(),
                            poly: r.poly.clone(),
                        },
                        Region {
                            n: r.n,
                            cons: cons_b,
                            vars: vars_with_v,
                            poly: r.poly,
                        },
                    ));
                }
                // Single bound pair: sum `poly` over `v` in `[L, U]` and keep
                // the nonemptiness constraint on the outer region.
                let (lo, up) = (&lowers[0], &uppers[0]);
                let mut next = others;
                next.push(Constraint::ge0(up.clone() - lo.clone()));
                let summed = sum_over(&r.poly, v, lo, up, work)?;
                r = Region {
                    n: r.n,
                    cons: next,
                    vars: rest_vars,
                    poly: summed,
                };
            }
        }
    }
}

/// Fully evaluates one region (and every region it splits into) with an
/// explicit stack, depth-first in the same branch order as the old
/// recursion (branch A before branch B). A branch propagation refutes is
/// dropped at the split.
fn drain_one(root: Region, work: &mut Work) -> Option<i128> {
    let mut total: i128 = 0;
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        match region_step(r, work)? {
            StepOutcome::Done(n) => total = total.checked_add(n)?,
            StepOutcome::Split(a, b) => stack.extend([b, a].into_iter().filter(|r| !r.refuted())),
        }
    }
    Some(total)
}

/// Minimum pending-region count before the stack fans out across the
/// worker pool. Below this, splits are drained sequentially — most shapes
/// split once or not at all, and threads cost more than they save.
const PAR_MIN_REGIONS: usize = 4;

/// Minimum sequential work (in [`Work`] ticks) before fan-out is allowed.
/// Scoped-thread spawn costs tens of microseconds; a shape that resolves
/// in fewer ticks than this finishes sequentially faster than the pool
/// can even start, so only shapes that have already proven heavy ship
/// their pending regions to the workers.
const PAR_MIN_STEPS: u64 = 20_000;

/// Evaluates the root region, fanning pending split branches out over the
/// `polyufc-par` pool once enough independent regions have accumulated
/// and the shape has consumed enough sequential work to amortize thread
/// spawn. Every region's contribution is exact (checked i128 arithmetic)
/// and addition is commutative, so the total is schedule-independent; the
/// returned split count is the number of regions shipped to the pool, and
/// the returned [`Work`] is what the sequential drain spent.
fn count_regions(root: Region) -> Option<(i128, u64, Work)> {
    count_regions_with(root, PAR_MIN_REGIONS, PAR_MIN_STEPS)
}

/// [`count_regions`] with explicit fan-out thresholds, so tests can force
/// the parallel path on small shapes without waiting for a heavy one.
fn count_regions_with(
    root: Region,
    min_regions: usize,
    min_steps: u64,
) -> Option<(i128, u64, Work)> {
    let mut work = Work::new();
    let mut total: i128 = 0;
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        match region_step(r, &mut work)? {
            StepOutcome::Done(n) => total = total.checked_add(n)?,
            StepOutcome::Split(a, b) => {
                stack.extend([b, a].into_iter().filter(|r| !r.refuted()));
                if stack.len() >= min_regions && work.steps >= min_steps {
                    let regions = std::mem::take(&mut stack);
                    let splits = regions.len() as u64;
                    let results = polyufc_par::par_map(&regions, |region| {
                        let mut w = Work::new();
                        drain_one(region.clone(), &mut w)
                    });
                    for res in results {
                        total = total.checked_add(res?)?;
                    }
                    return Some((total, splits, work));
                }
            }
        }
    }
    Some((total, 0, work))
}

/// `Σ_{v=L}^{U} poly` in closed form (assumes the region enforces
/// `U >= L`).
fn sum_over(poly: &Poly, v: usize, lo: &LinExpr, up: &LinExpr, work: &mut Work) -> Option<Poly> {
    let up_p = Poly::from_affine(up);
    let lom1 = Poly::from_affine(&(lo.clone() - LinExpr::constant(1)));
    let mut acc = Poly::default();
    for (k, q) in poly.split_var(v) {
        let mut diff = power_sum(k, &up_p, work)?;
        diff.add_scaled(&power_sum(k, &lom1, work)?, Rat::int(-1))?;
        acc.add_scaled(&q.mul(&diff, work)?, Rat::int(1))?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Space;

    fn sym(b: &BasicSet) -> Option<i128> {
        symbolic_count(b)
    }

    fn root(sys: &System) -> Region {
        Region {
            n: sys.n,
            cons: sys.to_constraints(),
            vars: (0..sys.n).collect(),
            poly: Poly::one(),
        }
    }

    /// The region driver with fan-out disabled: a strictly sequential drain.
    fn sequential(sys: &System) -> Option<i128> {
        count_regions_with(root(sys), usize::MAX, u64::MAX).map(|(n, _, _)| n)
    }

    #[test]
    fn refuted_branches_are_dropped_at_the_split() {
        // The skewed, tiled heat-3d domain as the counter hands it to this
        // layer: tile iterators eliminated as floors, leaving `t` and the
        // three skewed space dims, each with two competing lower and two
        // competing upper bounds. Most split branches have no integer point.
        let mut sys = crate::count::tests::skewed_tiled_heat3d().system();
        let iv = sys.propagate(&mut Budget::default()).unwrap().unwrap();
        let mut active: Vec<usize> = (0..sys.n).collect();
        assert!(sys.eliminate_floor_vars(&mut active, &iv));
        let region = Region {
            vars: active,
            ..root(&sys)
        };
        let (n, _, work) = count_regions_with(region, usize::MAX, u64::MAX).unwrap();
        assert_eq!(n, 18_823_840);
        // Without the refutation check the drain steps through 887
        // regions, nearly all of them leaves that sum to 0; with it, 13.
        assert!(work.regions <= 20, "{} regions", work.regions);
    }

    #[test]
    fn rationals_reduce() {
        let r = Rat::new(6, -4).unwrap();
        assert_eq!(r, Rat { num: -3, den: 2 });
        assert_eq!(Rat::new(4, 2).unwrap().as_int(), Some(2));
        assert_eq!(r.as_int(), None);
    }

    #[test]
    fn faulhaber_matches_brute_force() {
        // Σ t^k over [L, U] via S_k(U) - S_k(L-1), checked against a loop —
        // including negative ranges.
        let mut work = Work::new();
        for k in 0..=6u32 {
            for (l, u) in [(0i128, 10i128), (-7, 5), (3, 3), (-4, -2), (1, 20)] {
                let x = Poly::from_affine(&LinExpr::var(0));
                let s = power_sum(k, &x, &mut work).unwrap();
                let at = |n: i128| {
                    s.terms
                        .iter()
                        .map(|(m, r)| {
                            let pow = m.first().map(|&(_, e)| e).unwrap_or(0);
                            r.mul(Rat::int(n.pow(pow))).unwrap()
                        })
                        .fold(Rat::ZERO, |a, b| a.add(b).unwrap())
                };
                let closed = at(u).add(at(l - 1).mul(Rat::int(-1)).unwrap()).unwrap();
                let brute: i128 = (l..=u).map(|t| t.pow(k)).sum();
                assert_eq!(closed.as_int(), Some(brute), "k={k} [{l},{u}]");
            }
        }
    }

    #[test]
    fn counts_box() {
        let mut b = BasicSet::universe(Space::set(0, 3));
        b.add_range(0, 0, 9);
        b.add_range(1, -3, 4);
        b.add_range(2, 5, 5);
        assert_eq!(sym(&b), Some(10 * 8));
    }

    #[test]
    fn counts_triangle_size_independent() {
        for n in [8i64, 512, 4000, 1_000_000] {
            let mut b = BasicSet::universe(Space::set(0, 2));
            b.add_range(0, 0, n - 1);
            b.add_ge0(LinExpr::var(1));
            b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
            let expect = (n as i128) * (n as i128 + 1) / 2;
            assert_eq!(sym(&b), Some(expect), "n={n}");
        }
    }

    #[test]
    fn counts_3d_simplex() {
        // { [i,j,k] : 0 <= k <= j <= i < n } = C(n+2, 3)
        let n = 100i64;
        let mut b = BasicSet::universe(Space::set(0, 3));
        b.add_range(0, 0, n - 1);
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
        b.add_ge0(LinExpr::var(1) - LinExpr::var(2));
        b.add_ge0(LinExpr::var(2));
        let n = n as i128;
        assert_eq!(sym(&b), Some(n * (n + 1) * (n + 2) / 6));
    }

    #[test]
    fn counts_band() {
        // { [i,j] : 0 <= i < 100, i-2 <= j <= i+2, 0 <= j < 100 }
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 99);
        b.add_range(1, 0, 99);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0) + LinExpr::constant(2));
        b.add_ge0(LinExpr::var(0) + LinExpr::constant(2) - LinExpr::var(1));
        let brute: i128 = (0..100i64)
            .map(|i| {
                (0..100i64)
                    .filter(|&j| (i - 2..=i + 2).contains(&j))
                    .count() as i128
            })
            .sum();
        assert_eq!(sym(&b), Some(brute));
    }

    #[test]
    fn counts_tiled_domain_with_tail() {
        // { [t,i] : 0 <= i < 100, 32t <= i < 32t+32, 0 <= t <= 3 }
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(1, 0, 99);
        b.add_range(0, 0, 3);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0) * 32);
        b.add_ge0(LinExpr::var(0) * 32 + LinExpr::constant(31) - LinExpr::var(1));
        assert_eq!(sym(&b), Some(100));
    }

    #[test]
    fn counts_strided_set() {
        // { [i] : 0 <= i < 100, i mod 4 == 0 } via a determined div.
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 99);
        let q = b.add_div(LinExpr::var(0), 4);
        b.add_eq(LinExpr::var(0) - LinExpr::var(q) * 4);
        assert_eq!(sym(&b), Some(25));
    }

    #[test]
    fn empty_region_is_zero() {
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 5);
        b.add_ge0(LinExpr::var(0) - LinExpr::constant(10));
        assert_eq!(sym(&b), Some(0));
    }

    #[test]
    fn unbounded_is_out_of_fragment() {
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_ge0(LinExpr::var(0));
        assert_eq!(sym(&b), None);
    }

    #[test]
    fn non_unit_coupling_is_out_of_fragment() {
        // 3i - 2j == 0 over a box couples with non-unit coefficients both
        // ways; the fragment refuses rather than guessing.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 99);
        b.add_range(1, 0, 99);
        b.add_ge0(LinExpr::var(0) * 3 - LinExpr::var(1) * 2);
        assert_eq!(sym(&b), None);
    }

    #[test]
    fn sequential_and_parallel_drivers_agree() {
        // Trapezoid with competing bounds splits regions; the stack driver
        // (with parallel fan-out) and the same driver with fan-out
        // disabled must agree exactly.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 49);
        b.add_range(1, 0, 99);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0));
        b.add_ge0(LinExpr::constant(99) - LinExpr::var(0) - LinExpr::var(1));
        let sys = b.system();
        let vars: Vec<usize> = (0..sys.n).collect();
        let (n, _) = try_count_with_stats(&sys, &vars).unwrap();
        assert_eq!(Some(n), sequential(&sys));
    }

    #[test]
    fn forced_fanout_agrees_with_sequential() {
        // Force the pool fan-out on a small trapezoid by zeroing both
        // thresholds: the parallel drain and the sequential drain must
        // produce the identical count, and splits must be reported.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 49);
        b.add_range(1, 0, 99);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0));
        b.add_ge0(LinExpr::constant(99) - LinExpr::var(0) - LinExpr::var(1));
        let sys = b.system();
        let (n, splits, _) = count_regions_with(root(&sys), 2, 0).unwrap();
        assert!(splits >= 2, "fan-out must trigger with zeroed thresholds");
        assert_eq!(Some(n), sequential(&sys));
    }

    #[test]
    fn multi_split_shape_counts_exactly() {
        // Several competing bounds on both dims force repeated splits, deep
        // enough to exercise the fan-out path.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 29);
        b.add_range(1, 0, 29);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0) + LinExpr::constant(10)); // j >= i-10
        b.add_ge0(LinExpr::var(1) + LinExpr::var(0) - LinExpr::constant(8)); // i+j >= 8
        b.add_ge0(LinExpr::constant(50) - LinExpr::var(0) - LinExpr::var(1)); // i+j <= 50
        let brute: i128 = (0..30i64)
            .flat_map(|i| (0..30i64).map(move |j| (i, j)))
            .filter(|&(i, j)| j >= i - 10 && i + j >= 8 && i + j <= 50)
            .count() as i128;
        assert_eq!(sym(&b), Some(brute));
        assert_eq!(sequential(&b.system()), Some(brute));
    }

    #[test]
    fn trapezoid_matches_enumeration() {
        // { [i,j] : 0 <= i < 50, i <= j < 100 - i } — a trapezoid whose
        // upper/lower bounds compete with the box bounds.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 49);
        b.add_range(1, 0, 99);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0));
        b.add_ge0(LinExpr::constant(99) - LinExpr::var(0) - LinExpr::var(1));
        let brute: i128 = (0..50i64)
            .map(|i| (0..100i64).filter(|&j| j >= i && i + j <= 99).count() as i128)
            .sum();
        assert_eq!(sym(&b), Some(brute));
    }
}
