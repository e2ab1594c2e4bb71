//! Finite unions of basic sets.

use std::fmt;

use crate::basic::BasicSet;
use crate::count::{count_basic_cached, count_system, CountCache, CountLimit};
use crate::enumerate::enumerate_points;
use crate::error::{Error, Result};
use crate::space::Space;

/// A finite union of [`BasicSet`] disjuncts over a common space.
///
/// The disjuncts must be **pairwise disjoint**, so [`Set::count`] can
/// simply sum per-disjunct counts. [`Set::union_disjoint`] trusts the
/// caller to guarantee it.
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

    /// Wraps a single basic set.
    pub fn from_basic(basic: BasicSet) -> Self {
        Set {
            space: basic.space().clone(),
            basics: vec![basic],
        }
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The disjuncts.
    pub fn basics(&self) -> &[BasicSet] {
        &self.basics
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
                count_basic_cached(b, limit, cache)?
            } else {
                enumerate_points(b, limit.0)?.len() as i128
            };
            total = total.checked_add(c).ok_or(Error::Overflow)?;
        }
        Ok(total)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasicMap, LinExpr};

    fn interval(space: Space, var: usize, lo: i64, hi: i64) -> Set {
        let mut b = BasicSet::universe(space);
        b.add_range(var, lo, hi);
        Set::from_basic(b)
    }

    #[test]
    fn intersect_counts() {
        let sp = Space::set(0, 2);
        let mut a = BasicSet::universe(sp.clone());
        a.add_range(0, 0, 9);
        a.add_range(1, 0, 9);
        let mut b = BasicSet::universe(sp.clone());
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1)); // i >= j
        let c = Set::from_basic(a.intersect(&b).unwrap());
        assert_eq!(c.count().unwrap(), 55);
    }

    #[test]
    fn empty_set_behaviour() {
        let sp = Space::set(0, 1);
        let e = Set::empty(sp.clone());
        assert!(e.is_empty().unwrap());
        assert_eq!(e.count().unwrap(), 0);
        let a = interval(sp, 0, 0, 3);
        assert_eq!(a.union_disjoint(&e).unwrap().count().unwrap(), 4);
        assert_eq!(e.union_disjoint(&a).unwrap().count().unwrap(), 4);
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
    fn undetermined_divs_count_via_enumeration() {
        // The deltas of { [i] -> [j] : 0 <= i <= 4, 0 <= j <= 6 } keep i and
        // j as undetermined existentials: { d : -4 <= d <= 6 }.
        let mut m = BasicMap::universe(Space::map(0, 1, 1));
        m.basic_set_mut().add_range(0, 0, 4);
        m.basic_set_mut().add_range(1, 0, 6);
        let d = m.deltas();
        assert!(!d.all_divs_determined());
        assert_eq!(Set::from_basic(d).count().unwrap(), 11);
    }
}
