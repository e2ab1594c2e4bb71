//! Frozen reference implementation of the Presburger solver core.
//!
//! This module is a verbatim copy of the per-constraint `Vec<i64>` solver
//! and counting path as they existed before the flat arena-row rewrite of
//! [`crate::basic`]. It exists as the oracle of the differential proptest
//! suite, which calls it directly and pins the rewritten flat core against
//! it for `is_empty`, `sample`, `contains`, and counting on random shapes,
//! so any behavioural drift in the rewrite is caught immediately. Nothing
//! in the library routes a query here.
//!
//! Do not "improve" this code: its value is that it does not change.

use std::collections::HashMap;

use crate::basic::{Budget, Interval};
use crate::error::{Error, Result};
use crate::linexpr::LinExpr;
use crate::{polysum, BasicSet, Constraint, ConstraintKind, CountLimit};

/// Integer division rounding toward negative infinity.
fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    a.div_euclid(b)
}

/// Integer division rounding toward positive infinity.
fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    -(-a).div_euclid(b)
}

/// The pre-rewrite constraint system: one heap-allocated [`Constraint`]
/// (and its `Vec<i64>` of coefficients) per row.
#[derive(Debug, Clone)]
pub(crate) struct RefSystem {
    pub n: usize,
    pub constraints: Vec<Constraint>,
}

impl RefSystem {
    pub fn new(n: usize, constraints: Vec<Constraint>) -> Self {
        RefSystem { n, constraints }
    }

    /// Substitutes away equality-defined variables (Gaussian elimination on
    /// unit-coefficient equalities).
    pub fn gauss_eliminate(&mut self, active: &mut Vec<usize>) {
        loop {
            let mut target: Option<(usize, LinExpr)> = None;
            'scan: for c in &self.constraints {
                if c.kind != ConstraintKind::Eq {
                    continue;
                }
                for (v, coef) in c.expr.terms() {
                    if (coef == 1 || coef == -1) && active.contains(&v) {
                        // v = -(expr - coef*v)/coef
                        let mut rest = c.expr.clone();
                        rest.set_coeff(v, 0);
                        let replacement = if coef == 1 { -rest } else { rest };
                        target = Some((v, replacement));
                        break 'scan;
                    }
                }
            }
            let Some((v, replacement)) = target else {
                break;
            };
            for c in &mut self.constraints {
                c.expr = c.expr.substitute(v, &replacement);
            }
            self.constraints.retain(|c| {
                !(c.expr.is_constant()
                    && match c.kind {
                        ConstraintKind::Eq => c.expr.constant_term() == 0,
                        ConstraintKind::GeZero => c.expr.constant_term() >= 0,
                    })
            });
            active.retain(|&x| x != v);
        }
    }

    /// Detects contradictions between pairs of inequalities with exactly
    /// negated variable parts. Returns `false` on contradiction.
    pub fn negated_pair_consistent(&self) -> bool {
        // Normalized var-part -> max constant seen with that part.
        let mut best: HashMap<Vec<(usize, i64)>, i64> = HashMap::new();
        let mut exprs: Vec<LinExpr> = Vec::new();
        for c in &self.constraints {
            match c.kind {
                ConstraintKind::GeZero => exprs.push(c.expr.clone()),
                ConstraintKind::Eq => {
                    exprs.push(c.expr.clone());
                    exprs.push(c.expr.clone() * -1);
                }
            }
        }
        for e in exprs {
            if e.is_constant() {
                if e.constant_term() < 0 {
                    return false;
                }
                continue;
            }
            let part: Vec<(usize, i64)> = e.terms().collect();
            let neg: Vec<(usize, i64)> = part.iter().map(|&(v, c)| (v, -c)).collect();
            if let Some(&kneg) = best.get(&neg) {
                // part·x + k >= 0 and -part·x + kneg >= 0 => k + kneg >= 0.
                if e.constant_term() + kneg < 0 {
                    return false;
                }
            }
            let entry = best.entry(part).or_insert(i64::MIN);
            *entry = (*entry).max(e.constant_term());
        }
        true
    }

    /// Decides feasibility without producing a sample.
    pub fn is_feasible(&self, budget: &mut Budget) -> Result<bool> {
        let mut sys = self.clone();
        let mut active: Vec<usize> = (0..self.n).collect();
        sys.gauss_eliminate(&mut active);
        if !sys.negated_pair_consistent() {
            return Ok(false);
        }
        sys.feasible_rec(&active, budget)
    }

    fn feasible_rec(&self, active: &[usize], budget: &mut Budget) -> Result<bool> {
        budget.tick(1)?;
        let Some(iv) = self.propagate(budget)? else {
            return Ok(false);
        };
        if !self.negated_pair_consistent() {
            return Ok(false);
        }
        // Residual constraints after fixing singletons.
        let mut sys = self.clone();
        let mut remaining: Vec<usize> = Vec::new();
        for &v in active {
            if let Some(x) = iv[v].singleton() {
                sys.substitute(v, x);
            } else {
                remaining.push(v);
            }
        }
        for c in &sys.constraints {
            if c.expr.is_constant() {
                let k = c.expr.constant_term();
                let ok = match c.kind {
                    ConstraintKind::Eq => k == 0,
                    ConstraintKind::GeZero => k >= 0,
                };
                if !ok {
                    return Ok(false);
                }
            }
        }
        // Drop variables that no longer appear in any constraint.
        remaining.retain(|&v| sys.constraints.iter().any(|c| c.expr.coeff(v) != 0));
        if remaining.is_empty() {
            return Ok(true);
        }
        let mut sub_active = remaining.clone();
        sys.gauss_eliminate(&mut sub_active);
        if !sys.negated_pair_consistent() {
            return Ok(false);
        }
        sub_active.retain(|&v| sys.constraints.iter().any(|c| c.expr.coeff(v) != 0));
        if sub_active.is_empty() {
            // Only constant constraints can remain; re-check them.
            return Ok(sys.constraints.iter().all(|c| {
                !c.expr.is_constant()
                    || match c.kind {
                        ConstraintKind::Eq => c.expr.constant_term() == 0,
                        ConstraintKind::GeZero => c.expr.constant_term() >= 0,
                    }
            }));
        }
        let Some(iv2) = sys.propagate(budget)? else {
            return Ok(false);
        };
        // Branch on the narrowest-interval variable.
        let mut best: Option<(usize, i64)> = None;
        for &v in &sub_active {
            if let Some(w) = iv2[v].width() {
                if best.is_none_or(|(_, bw)| w < bw) {
                    best = Some((v, w));
                }
            }
        }
        let Some((var, _)) = best else {
            return Err(Error::Unbounded { var: sub_active[0] });
        };
        let (lo, hi) = (iv2[var].lo.unwrap(), iv2[var].hi.unwrap());
        let rest: Vec<usize> = sub_active.iter().copied().filter(|&v| v != var).collect();
        for x in lo..=hi {
            budget.tick(1)?;
            let mut s = sys.clone();
            s.substitute(var, x);
            if s.feasible_rec(&rest, budget)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Interval propagation to (bounded) fixpoint. Returns `None` if a
    /// contradiction is detected.
    pub fn propagate(&self, budget: &mut Budget) -> Result<Option<Vec<Interval>>> {
        let mut iv = vec![Interval::full(); self.n];
        // Round-robin until fixpoint or iteration cap.
        let max_rounds = 4 + 2 * self.n.max(4);
        for _ in 0..max_rounds {
            budget.tick(self.constraints.len() as u64)?;
            let mut changed = false;
            for c in &self.constraints {
                match c.kind {
                    ConstraintKind::GeZero => {
                        if !tighten_ge0(&c.expr, &mut iv, &mut changed) {
                            return Ok(None);
                        }
                    }
                    ConstraintKind::Eq => {
                        if !tighten_ge0(&c.expr, &mut iv, &mut changed) {
                            return Ok(None);
                        }
                        let neg = c.expr.clone() * -1;
                        if !tighten_ge0(&neg, &mut iv, &mut changed) {
                            return Ok(None);
                        }
                    }
                }
            }
            if iv.iter().any(Interval::is_empty) {
                return Ok(None);
            }
            if !changed {
                break;
            }
        }
        Ok(Some(iv))
    }

    /// Substitutes variable `idx` with a constant.
    pub fn substitute(&mut self, idx: usize, value: i64) {
        for c in &mut self.constraints {
            c.expr = c.expr.substitute_const(idx, value);
        }
    }

    /// Checks whether a full assignment satisfies all constraints.
    pub fn check(&self, values: &[i64]) -> bool {
        self.constraints.iter().all(|c| c.holds(values))
    }

    /// Finds one integer solution or proves emptiness.
    #[allow(clippy::type_complexity)]
    pub fn sample(&self, budget: &mut Budget) -> Result<Option<Vec<i64>>> {
        let mut values = vec![None; self.n];
        if self.sample_rec(&mut values, budget)? {
            Ok(Some(values.into_iter().map(|v| v.unwrap_or(0)).collect()))
        } else {
            Ok(None)
        }
    }

    fn sample_rec(&self, values: &mut Vec<Option<i64>>, budget: &mut Budget) -> Result<bool> {
        budget.tick(1)?;
        // Build the residual system with known values substituted.
        let mut sys = self.clone();
        for (i, v) in values.iter().enumerate() {
            if let Some(v) = *v {
                sys.substitute(i, v);
            }
        }
        let Some(iv) = sys.propagate(budget)? else {
            return Ok(false);
        };
        // Assign all singletons.
        let mut fixed = Vec::new();
        for i in 0..self.n {
            if values[i].is_none() {
                if let Some(v) = iv[i].singleton() {
                    values[i] = Some(v);
                    fixed.push(i);
                }
            }
        }
        // Find the unassigned variable with the smallest finite range.
        let mut best: Option<(usize, i64)> = None;
        let mut unbounded_free = None;
        for i in 0..self.n {
            if values[i].is_some() {
                continue;
            }
            match iv[i].width() {
                Some(w) => {
                    if best.is_none_or(|(_, bw)| w < bw) {
                        best = Some((i, w));
                    }
                }
                None => unbounded_free = Some(i),
            }
        }
        match best {
            None => {
                let mut trial = values.clone();
                if let Some(u) = unbounded_free {
                    // Try anchoring each half-bounded variable at its finite
                    // endpoint; fully free variables get 0.
                    for (i, v) in trial.iter_mut().enumerate() {
                        if v.is_none() {
                            *v = Some(iv[i].lo.or(iv[i].hi).unwrap_or(0));
                        }
                    }
                    let full: Vec<i64> = trial.iter().map(|v| v.unwrap()).collect();
                    if self.check(&full) {
                        *values = trial;
                        return Ok(true);
                    }
                    // Residual constraints still mention a free variable and
                    // the anchor failed: we cannot decide without an
                    // unbounded search.
                    let mut sys2 = self.clone();
                    for (i, v) in values.iter().enumerate() {
                        if let Some(v) = *v {
                            sys2.substitute(i, v);
                        }
                    }
                    let residual_mentions_free = sys2
                        .constraints
                        .iter()
                        .any(|c| c.expr.terms().any(|(i, _)| values[i].is_none()));
                    if residual_mentions_free {
                        return Err(Error::Unbounded { var: u });
                    }
                }
                let full: Vec<i64> = values.iter().map(|v| v.unwrap_or(0)).collect();
                if self.check(&full) {
                    for (i, v) in values.iter_mut().enumerate() {
                        if v.is_none() {
                            *v = Some(full[i]);
                        }
                    }
                    Ok(true)
                } else {
                    for i in fixed {
                        values[i] = None;
                    }
                    Ok(false)
                }
            }
            Some((var, _)) => {
                let (lo, hi) = (iv[var].lo.unwrap(), iv[var].hi.unwrap());
                for v in lo..=hi {
                    budget.tick(1)?;
                    values[var] = Some(v);
                    if self.sample_rec(values, budget)? {
                        return Ok(true);
                    }
                }
                values[var] = None;
                for i in fixed {
                    values[i] = None;
                }
                Ok(false)
            }
        }
    }
}

/// Tightens intervals using `expr >= 0`. Returns false on contradiction.
/// This is the original O(t²) saturating-`i64` tightener.
fn tighten_ge0(expr: &LinExpr, iv: &mut [Interval], changed: &mut bool) -> bool {
    // max over box of expr; None = +infinity.
    let mut smax: Option<i64> = Some(expr.constant_term());
    for (i, c) in expr.terms() {
        let contrib = if c > 0 {
            iv[i].hi.map(|h| c.saturating_mul(h))
        } else {
            iv[i].lo.map(|l| c.saturating_mul(l))
        };
        match (smax, contrib) {
            (Some(s), Some(x)) => smax = Some(s.saturating_add(x)),
            _ => smax = None,
        }
    }
    if let Some(s) = smax {
        if s < 0 {
            return false;
        }
    }
    // Tighten each variable: a_j * v_j >= -(expr - a_j v_j) over the box.
    for (j, a) in expr.terms() {
        // rest_max = max over box of (expr - a_j * v_j)
        let mut rest_max: Option<i64> = Some(expr.constant_term());
        for (i, c) in expr.terms() {
            if i == j {
                continue;
            }
            let contrib = if c > 0 {
                iv[i].hi.map(|h| c.saturating_mul(h))
            } else {
                iv[i].lo.map(|l| c.saturating_mul(l))
            };
            match (rest_max, contrib) {
                (Some(s), Some(x)) => rest_max = Some(s.saturating_add(x)),
                _ => rest_max = None,
            }
        }
        let Some(rm) = rest_max else { continue };
        if a > 0 {
            // v_j >= ceil(-rm / a)
            let bound = ceil_div(-rm, a);
            if iv[j].lo.is_none_or(|l| bound > l) {
                iv[j].lo = Some(bound);
                *changed = true;
            }
        } else {
            // v_j <= floor(-rm / a)  (a negative: flips)
            let bound = floor_div(rm, -a);
            if iv[j].hi.is_none_or(|h| bound < h) {
                iv[j].hi = Some(bound);
                *changed = true;
            }
        }
        if iv[j].is_empty() {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Frozen counting path
// ---------------------------------------------------------------------------

struct RefCtx {
    budget: Budget,
    allow_symbolic: bool,
}

/// Counts the integer solutions of a Vec-based system where every variable
/// is free — the frozen pre-rewrite counting recursion.
pub(crate) fn count_constraints(
    n: usize,
    constraints: Vec<Constraint>,
    limit: CountLimit,
    allow_symbolic: bool,
) -> Result<i128> {
    let mut ctx = RefCtx {
        budget: Budget::with_limit(limit.0),
        allow_symbolic,
    };
    let sys = RefSystem::new(n, constraints);
    let active: Vec<usize> = (0..n).collect();
    count_rec(sys, &active, &mut ctx)
}

fn count_rec(mut sys: RefSystem, active: &[usize], ctx: &mut RefCtx) -> Result<i128> {
    ctx.budget.tick(1)?;
    let Some(iv) = sys.propagate(&mut ctx.budget)? else {
        return Ok(0);
    };

    // Fix singleton variables.
    let mut remaining: Vec<usize> = Vec::with_capacity(active.len());
    for &v in active {
        if let Some(x) = iv[v].singleton() {
            sys.substitute(v, x);
        } else {
            remaining.push(v);
        }
    }
    // Constant constraints left after substitution may be contradictions.
    for c in &sys.constraints {
        if c.expr.is_constant() {
            let k = c.expr.constant_term();
            let ok = match c.kind {
                ConstraintKind::Eq => k == 0,
                ConstraintKind::GeZero => k >= 0,
            };
            if !ok {
                return Ok(0);
            }
        }
    }
    if remaining.is_empty() {
        return Ok(1);
    }
    sys.gauss_eliminate(&mut remaining);
    if !sys.negated_pair_consistent() {
        return Ok(0);
    }
    if remaining.is_empty() {
        return Ok(1);
    }
    let Some(iv) = sys.propagate(&mut ctx.budget)? else {
        return Ok(0);
    };

    let components = connected_components(&sys, &remaining);
    let mut total: i128 = 1;
    for comp in components {
        let c = count_component(&sys, &comp, &iv, ctx)?;
        total = total.checked_mul(c).ok_or(Error::Overflow)?;
        if total == 0 {
            return Ok(0);
        }
    }
    Ok(total)
}

fn count_component(
    sys: &RefSystem,
    comp: &[usize],
    iv: &[Interval],
    ctx: &mut RefCtx,
) -> Result<i128> {
    if comp.len() == 1 {
        let v = comp[0];
        let (lo, hi) = match (iv[v].lo, iv[v].hi) {
            (Some(l), Some(h)) => (l, h),
            _ => return Err(Error::Unbounded { var: v }),
        };
        if hi < lo {
            return Ok(0);
        }
        return Ok((hi - lo + 1) as i128);
    }
    let mut in_comp = vec![false; sys.n];
    for &v in comp {
        in_comp[v] = true;
    }
    let constraints: Vec<Constraint> = sys
        .constraints
        .iter()
        .filter(|c| {
            c.expr
                .terms()
                .any(|(i, _)| in_comp.get(i).copied().unwrap_or(false))
        })
        .cloned()
        .collect();
    let sub = RefSystem::new(sys.n, constraints);

    // First choice: the (sequential) closed-form symbolic layer.
    if ctx.allow_symbolic {
        if let Some(c) = polysum::try_count_sequential(&sub.constraints, comp) {
            ctx.budget.tick(comp.len() as u64)?;
            return Ok(c);
        }
    }

    // Branch on the variable with the smallest finite width.
    let mut best: Option<(usize, i64)> = None;
    for &v in comp {
        if let Some(w) = iv[v].width() {
            if best.is_none_or(|(_, bw)| w < bw) {
                best = Some((v, w));
            }
        }
    }
    let Some((var, _)) = best else {
        return Err(Error::Unbounded { var: comp[0] });
    };
    let (lo, hi) = (iv[var].lo.unwrap(), iv[var].hi.unwrap());
    let rest: Vec<usize> = comp.iter().copied().filter(|&v| v != var).collect();
    let mut total: i128 = 0;
    'branch: for x in lo..=hi {
        ctx.budget.tick(1)?;
        let mut constraints = Vec::with_capacity(sub.constraints.len());
        for c in &sub.constraints {
            let expr = c.expr.substitute_const(var, x);
            if expr.is_constant() {
                let k = expr.constant_term();
                let ok = match c.kind {
                    ConstraintKind::Eq => k == 0,
                    ConstraintKind::GeZero => k >= 0,
                };
                if ok {
                    continue;
                }
                continue 'branch;
            }
            constraints.push(Constraint { expr, kind: c.kind });
        }
        let s = RefSystem::new(sys.n, constraints);
        total = total
            .checked_add(count_rec(s, &rest, ctx)?)
            .ok_or(Error::Overflow)?;
    }
    Ok(total)
}

fn connected_components(sys: &RefSystem, vars: &[usize]) -> Vec<Vec<usize>> {
    let mut parent: HashMap<usize, usize> = vars.iter().map(|&v| (v, v)).collect();

    fn find(parent: &mut HashMap<usize, usize>, x: usize) -> usize {
        let p = parent[&x];
        if p == x {
            x
        } else {
            let r = find(parent, p);
            parent.insert(x, r);
            r
        }
    }

    for c in &sys.constraints {
        let mut prev: Option<usize> = None;
        for (i, _) in c.expr.terms() {
            if !parent.contains_key(&i) {
                continue; // fixed or foreign variable
            }
            if let Some(p) = prev {
                let (ra, rb) = (find(&mut parent, p), find(&mut parent, i));
                if ra != rb {
                    parent.insert(ra, rb);
                }
            }
            prev = Some(i);
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for &v in vars {
        let r = find(&mut parent, v);
        groups.entry(r).or_default().push(v);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by_key(|g| g[0]);
    out
}

// ---------------------------------------------------------------------------
// Public reference entry points
// ---------------------------------------------------------------------------

/// Reference emptiness: the frozen Vec-based solver's verdict on whether
/// `set` contains no integer points.
///
/// # Errors
///
/// Returns an error if the search budget is exceeded or a variable is
/// unbounded — the same failure modes as [`BasicSet::is_empty`].
pub fn is_empty(set: &BasicSet) -> Result<bool> {
    let sys = RefSystem::new(set.n_total(), set.constraints().to_vec());
    Ok(!sys.is_feasible(&mut Budget::default())?)
}

/// Reference sampling: the frozen Vec-based solver's search for one integer
/// point of `set` (full assignment over `params ++ dims ++ divs`).
///
/// # Errors
///
/// Returns an error if the search budget is exceeded or a variable is
/// unbounded with constraints that prevent a decision.
#[allow(clippy::type_complexity)]
pub fn sample(set: &BasicSet) -> Result<Option<Vec<i64>>> {
    let sys = RefSystem::new(set.n_total(), set.constraints().to_vec());
    sys.sample(&mut Budget::default())
}

/// Reference counting: the frozen pre-rewrite counting recursion (with the
/// sequential symbolic layer) applied to one basic set.
///
/// # Errors
///
/// Returns [`Error::UndeterminedDivs`] if a div lacks a definition, and
/// propagates budget/unboundedness errors.
pub fn count(set: &BasicSet, limit: CountLimit) -> Result<i128> {
    if !set.all_divs_determined() {
        return Err(Error::UndeterminedDivs {
            operation: "reference::count",
        });
    }
    count_constraints(set.n_total(), set.constraints().to_vec(), limit, true)
}
