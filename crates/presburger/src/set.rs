//! Finite unions of basic sets.

use std::fmt;

use crate::basic::{BasicSet, Div};
use crate::count::{count_system, count_system_cached, CountCache, CountLimit};
use crate::enumerate::enumerate_points;
use crate::error::{Error, Result};
use crate::linexpr::LinExpr;
use crate::space::Space;
use crate::{Constraint, ConstraintKind};

/// A finite union of [`BasicSet`] disjuncts over a common space.
///
/// The disjuncts are kept **pairwise disjoint**: [`Set::union`] subtracts
/// the current set from the incoming one, so [`Set::count`] can simply sum
/// per-disjunct counts. Use [`Set::union_disjoint`] when disjointness is
/// known by construction (it is cheaper and does not require determined
/// divs).
#[derive(Debug, Clone)]
pub struct Set {
    space: Space,
    basics: Vec<BasicSet>,
}

impl Set {
    /// The empty set of a space.
    pub fn empty(space: Space) -> Self {
        Set {
            space,
            basics: Vec::new(),
        }
    }

    /// The universe set of a space.
    pub fn universe(space: Space) -> Self {
        Set {
            space: space.clone(),
            basics: vec![BasicSet::universe(space)],
        }
    }

    /// Wraps a single basic set.
    pub fn from_basic(basic: BasicSet) -> Self {
        Set {
            space: basic.space().clone(),
            basics: vec![basic],
        }
    }

    /// Parses a conjunction of textual constraints into a single-disjunct
    /// set. Textual syntax: dims are named `i, j, k, l, m`
    /// (alias `d0..`), params `n, p, q` (alias `p0..`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed input.
    pub fn from_constraint_strs(space: Space, constraints: &[&str]) -> Result<Set> {
        let mut b = BasicSet::universe(space);
        for s in constraints {
            let c = crate::parse::parse_constraint(s, b.space())?;
            b.add_constraint(c);
        }
        Ok(Set::from_basic(b))
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The disjuncts.
    pub fn basics(&self) -> &[BasicSet] {
        &self.basics
    }

    /// Whether all disjuncts have determined divs (negation is sound).
    pub fn all_divs_determined(&self) -> bool {
        self.basics.iter().all(BasicSet::all_divs_determined)
    }

    fn check_space(&self, other: &Set) -> Result<()> {
        if self.space != other.space {
            return Err(Error::SpaceMismatch {
                expected: self.space.to_string(),
                found: other.space.to_string(),
            });
        }
        Ok(())
    }

    /// Intersection (pairwise on disjuncts; disjointness is preserved).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the spaces differ.
    pub fn intersect(&self, other: &Set) -> Result<Set> {
        self.check_space(other)?;
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let mut c = a.intersect(b)?;
                if c.simplify() {
                    basics.push(c);
                }
            }
        }
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Union preserving the disjointness invariant: the incoming disjuncts
    /// are first reduced by subtracting `self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UndeterminedDivs`] if `self` contains undetermined
    /// existentials (subtraction would be unsound); use
    /// [`Set::union_disjoint`] if disjointness is known.
    pub fn union(&self, other: &Set) -> Result<Set> {
        self.check_space(other)?;
        let fresh = other.subtract(self)?;
        let mut basics = self.basics.clone();
        basics.extend(fresh.basics);
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Union without a disjointness check. Counting will double-count any
    /// overlap; only use when the operands are disjoint by construction.
    pub fn union_disjoint(&self, other: &Set) -> Result<Set> {
        self.check_space(other)?;
        let mut basics = self.basics.clone();
        basics.extend(other.basics.iter().cloned());
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Set difference `self \ other`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UndeterminedDivs`] if `other` has undetermined divs
    /// (its constraints cannot be negated), or [`Error::SpaceMismatch`].
    pub fn subtract(&self, other: &Set) -> Result<Set> {
        self.check_space(other)?;
        let mut pieces = self.basics.clone();
        for b in &other.basics {
            let mut next = Vec::new();
            for a in &pieces {
                next.extend(subtract_basic(a, b)?);
            }
            pieces = next;
        }
        // Drop trivially/provably empty pieces to keep sizes in check.
        let mut kept = Vec::new();
        for mut p in pieces {
            if !p.simplify() {
                continue;
            }
            match p.is_empty() {
                Ok(true) => {}
                _ => kept.push(p),
            }
        }
        Ok(Set {
            space: self.space.clone(),
            basics: kept,
        })
    }

    /// Whether the set is empty.
    ///
    /// # Errors
    ///
    /// Propagates solver budget/unboundedness errors.
    pub fn is_empty(&self) -> Result<bool> {
        for b in &self.basics {
            if !b.is_empty()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Membership test for a point of `n_param + n_dim` coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UndeterminedDivs`] if any disjunct needs a search.
    pub fn contains(&self, point: &[i64]) -> Result<bool> {
        for b in &self.basics {
            if b.contains(point)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Counts the integer points with the default [`CountLimit`].
    ///
    /// # Errors
    ///
    /// Propagates counting errors; falls back to deduplicating enumeration
    /// for disjuncts with undetermined divs.
    pub fn count(&self) -> Result<i128> {
        self.count_with_limit(CountLimit::default())
    }

    /// Counts the integer points with an explicit work limit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SearchBudgetExceeded`] when the limit is hit.
    pub fn count_with_limit(&self, limit: CountLimit) -> Result<i128> {
        let mut total: i128 = 0;
        for b in &self.basics {
            let c = if b.all_divs_determined() {
                count_system(&b.system(), limit)?
            } else {
                enumerate_points(b, limit.0)?.len() as i128
            };
            total = total.checked_add(c).ok_or(Error::Overflow)?;
        }
        Ok(total)
    }

    /// Counts the integer points with the default limit, memoizing
    /// per-disjunct solver queries in `cache`.
    ///
    /// Disjuncts that fall back to enumeration (undetermined divs) are not
    /// cached; everything else is keyed on the canonicalized constraint
    /// system, so repeated queries — e.g. the same iteration-domain prefix
    /// counted for several array references — are answered from the cache.
    ///
    /// # Errors
    ///
    /// Same contract as [`Set::count`].
    pub fn count_cached(&self, cache: &mut CountCache) -> Result<i128> {
        let limit = CountLimit::default();
        let mut total: i128 = 0;
        for b in &self.basics {
            let c = if b.all_divs_determined() {
                count_system_cached(&b.system(), limit, cache)?
            } else {
                enumerate_points(b, limit.0)?.len() as i128
            };
            total = total.checked_add(c).ok_or(Error::Overflow)?;
        }
        Ok(total)
    }

    /// Counts the integer points through a batched [`crate::Context`],
    /// sharing its memoizing count cache across queries.
    ///
    /// # Errors
    ///
    /// Same contract as [`Set::count`].
    pub fn count_in(&self, ctx: &mut crate::Context) -> Result<i128> {
        ctx.count_set(self)
    }

    /// Enumerates up to `max_points` points (dims only), merged and
    /// deduplicated across disjuncts, in lexicographic order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SearchBudgetExceeded`] if the cap is exceeded.
    pub fn enumerate(&self, max_points: u64) -> Result<Vec<Vec<i64>>> {
        let mut all = std::collections::BTreeSet::new();
        for b in &self.basics {
            for p in enumerate_points(b, max_points)? {
                all.insert(p);
            }
            if all.len() as u64 > max_points {
                return Err(Error::SearchBudgetExceeded { budget: max_points });
            }
        }
        Ok(all.into_iter().collect())
    }

    /// Whether `self ⊆ other` (requires `other` to have determined divs).
    ///
    /// # Errors
    ///
    /// See [`Set::subtract`].
    pub fn is_subset(&self, other: &Set) -> Result<bool> {
        self.subtract(other)?.is_empty()
    }

    /// Removes provably empty disjuncts.
    pub fn coalesce(&self) -> Set {
        let mut out = Set::empty(self.space.clone());
        for b in &self.basics {
            let mut b = b.clone();
            if !b.simplify() {
                continue;
            }
            if let Ok(true) = b.is_empty() {
                continue;
            }
            out.basics.push(b);
        }
        out
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.basics.is_empty() {
            return write!(f, "{{ }}");
        }
        let parts: Vec<String> = self.basics.iter().map(|b| b.display()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

/// Computes `a \ b` as a list of disjoint pieces.
///
/// Requires `b` to have only determined divs: since each div is a function
/// of the other variables, negating `b`'s non-definition constraints while
/// keeping the definitions pinned is sound.
pub(crate) fn subtract_basic(a: &BasicSet, b: &BasicSet) -> Result<Vec<BasicSet>> {
    if !b.all_divs_determined() {
        return Err(Error::UndeterminedDivs {
            operation: "subtract",
        });
    }
    // Base: `a` extended with b's divs (renumbered) and their definitions.
    let shift_at = a.space().n_var();
    let div_shift = a.divs().len();
    let mut base = a.clone();
    let mut def_exprs: Vec<LinExpr> = Vec::new();
    for d in b.divs() {
        let (num, den) = d.def.as_ref().expect("checked determined");
        let num = num.shift_vars(shift_at, div_shift);
        let q = base.n_total();
        base.push_div_raw(Div {
            def: Some((num.clone(), *den)),
        });
        let rem = num - LinExpr::var(q) * *den;
        base.add_ge0(rem.clone());
        base.add_ge0(LinExpr::constant(*den - 1) - rem.clone());
        def_exprs.push(rem.clone());
        def_exprs.push(LinExpr::constant(*den - 1) - rem);
    }
    // Sequential negation over b's constraints (equalities split in two).
    let mut shifted: Vec<Constraint> = Vec::new();
    for c in b.constraints() {
        let e = c.expr.shift_vars(shift_at, div_shift);
        match c.kind {
            ConstraintKind::GeZero => shifted.push(Constraint::ge0(e)),
            ConstraintKind::Eq => {
                shifted.push(Constraint::ge0(e.clone()));
                shifted.push(Constraint::ge0(-e));
            }
        }
    }
    // Skip constraints that are exactly div definitions (they are pinned in
    // the base; negating them would produce empty pieces anyway, we just
    // save the work).
    let is_def = |e: &LinExpr| def_exprs.iter().any(|d| d == e);

    let mut pieces = Vec::new();
    let mut prefix = base;
    for c in &shifted {
        if is_def(&c.expr) {
            prefix.add_ge0(c.expr.clone());
            continue;
        }
        // Piece: prefix ∧ ¬(e >= 0)  i.e.  -e - 1 >= 0.
        let mut piece = prefix.clone();
        piece.add_ge0(-(c.expr.clone()) - LinExpr::constant(1));
        pieces.push(piece);
        prefix.add_ge0(c.expr.clone());
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(space: Space, var: usize, lo: i64, hi: i64) -> Set {
        let mut b = BasicSet::universe(space);
        b.add_range(var, lo, hi);
        Set::from_basic(b)
    }

    #[test]
    fn union_is_disjoint() {
        let sp = Space::set(0, 1);
        let a = interval(sp.clone(), 0, 0, 9);
        let b = interval(sp.clone(), 0, 5, 14);
        let u = a.union(&b).unwrap();
        assert_eq!(u.count().unwrap(), 15);
    }

    #[test]
    fn subtract_interval() {
        let sp = Space::set(0, 1);
        let a = interval(sp.clone(), 0, 0, 9);
        let b = interval(sp.clone(), 0, 3, 5);
        let d = a.subtract(&b).unwrap();
        assert_eq!(d.count().unwrap(), 7);
        assert!(d.contains(&[2]).unwrap());
        assert!(!d.contains(&[4]).unwrap());
        assert!(d.contains(&[6]).unwrap());
    }

    #[test]
    fn subtract_with_divs() {
        // a = [0,15], b = multiples of 4 in [0,15]; a \ b has 12 points.
        let sp = Space::set(0, 1);
        let a = interval(sp.clone(), 0, 0, 15);
        let mut bb = BasicSet::universe(sp.clone());
        bb.add_range(0, 0, 15);
        let q = bb.add_div(LinExpr::var(0), 4);
        bb.add_eq(LinExpr::var(0) - LinExpr::var(q) * 4);
        let b = Set::from_basic(bb);
        let d = a.subtract(&b).unwrap();
        assert_eq!(d.count().unwrap(), 12);
        assert!(!d.contains(&[8]).unwrap());
        assert!(d.contains(&[9]).unwrap());
    }

    #[test]
    fn intersect_counts() {
        let sp = Space::set(0, 2);
        let mut a = BasicSet::universe(sp.clone());
        a.add_range(0, 0, 9);
        a.add_range(1, 0, 9);
        let mut b = BasicSet::universe(sp.clone());
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1)); // i >= j
        let c = Set::from_basic(a).intersect(&Set::from_basic(b)).unwrap();
        assert_eq!(c.count().unwrap(), 55);
    }

    #[test]
    fn parse_example() {
        let sp = Space::set(0, 2);
        let s = Set::from_constraint_strs(sp, &["i >= 0", "7 - i >= 0", "j >= 0", "i - j >= 0"])
            .unwrap();
        assert_eq!(s.count().unwrap(), 36);
    }

    #[test]
    fn empty_set_behaviour() {
        let sp = Space::set(0, 1);
        let e = Set::empty(sp.clone());
        assert!(e.is_empty().unwrap());
        assert_eq!(e.count().unwrap(), 0);
        let a = interval(sp, 0, 0, 3);
        assert_eq!(a.union(&e).unwrap().count().unwrap(), 4);
        assert_eq!(e.union(&a).unwrap().count().unwrap(), 4);
    }

    #[test]
    fn fixed_param_pins_size() {
        // [n] -> { [i] : 0 <= i < n }
        let sp = Space::set(1, 1);
        let mut b = BasicSet::universe(sp);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1) - LinExpr::constant(1));
        b.fix_var(0, 12);
        assert_eq!(Set::from_basic(b).count().unwrap(), 12);
    }

    #[test]
    fn subset_across_decompositions() {
        let sp = Space::set(0, 1);
        let small = interval(sp.clone(), 0, 2, 5);
        let big = interval(sp.clone(), 0, 0, 9);
        assert!(small.is_subset(&big).unwrap());
        assert!(!big.is_subset(&small).unwrap());
        // Mutual inclusion across different disjunct decompositions.
        let left = interval(sp.clone(), 0, 0, 4);
        let right = interval(sp.clone(), 0, 5, 9);
        let split = left.union_disjoint(&right).unwrap();
        assert!(split.is_subset(&big).unwrap());
        assert!(big.is_subset(&split).unwrap());
    }

    #[test]
    fn project_then_count_via_enumeration() {
        let sp = Space::set(0, 2);
        let mut b = BasicSet::universe(sp);
        b.add_range(0, 0, 4);
        b.add_range(1, 0, 6);
        let s = Set::from_basic(b.project_dims_out(0, 1));
        assert_eq!(s.count().unwrap(), 7);
    }
}
