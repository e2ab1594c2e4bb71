//! Batched query context: one arena-backed solver [`System`] reused across
//! many emptiness and sampling queries, amortizing allocation and setup.
//!
//! The analysis passes issue hundreds of emptiness checks per kernel (one
//! per ordered access pair, per out-of-shape half-space, per domain). Each
//! standalone [`BasicSet::is_empty`] builds its own solver system; a
//! [`Context`] instead bulk-resets one slab (O(1), capacity retained) per
//! query and tallies batch sizes and peak arena bytes for the compile
//! report.

use crate::basic::{Budget, System};
use crate::error::{Error, Result};
use crate::{BasicSet, Set};

/// Outcome of one emptiness query inside a batch. Unlike
/// `Result<bool>`, a failed query does not poison its whole batch — the
/// caller decides per relation.
#[derive(Debug)]
pub enum Emptiness {
    /// The set provably contains no integer point.
    Empty,
    /// The set provably contains at least one integer point.
    NonEmpty,
    /// The solver could not decide (budget exhausted, unbounded variable).
    Unknown(Error),
}

impl Emptiness {
    /// Whether the outcome is [`Emptiness::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, Emptiness::Empty)
    }
}

/// Reusable solver state for batched emptiness and sampling queries: a
/// scratch [`System`] whose arena persists across queries, and query
/// counters. Counting does not go through a context; callers that memoize
/// counts own a [`crate::CountCache`].
#[derive(Debug)]
pub struct Context {
    sys: System,
    budget: Budget,
    checks: u64,
    batches: u64,
    peak_arena_bytes: usize,
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

impl Context {
    /// A fresh context with an empty arena.
    pub fn new() -> Self {
        Context {
            sys: System::empty(0),
            budget: Budget::default(),
            checks: 0,
            batches: 0,
            peak_arena_bytes: 0,
        }
    }

    /// Decides emptiness of one basic set through the shared arena.
    pub fn check(&mut self, set: &BasicSet) -> Emptiness {
        self.checks += 1;
        self.sys.reset_from(set);
        self.peak_arena_bytes = self.peak_arena_bytes.max(self.sys.arena_bytes());
        self.budget.reset();
        match self.sys.is_feasible(&mut self.budget) {
            Ok(true) => Emptiness::NonEmpty,
            Ok(false) => Emptiness::Empty,
            Err(e) => Emptiness::Unknown(e),
        }
    }

    /// Samples one integer point from a basic set through the shared
    /// arena — the batched witness-extraction primitive (dependence
    /// analysis samples a concrete violating pair from every non-empty
    /// relation it just checked).
    ///
    /// # Errors
    ///
    /// Same contract as [`BasicSet::sample`].
    pub fn sample(&mut self, set: &BasicSet) -> Result<Option<Vec<i64>>> {
        self.sys.reset_from(set);
        self.peak_arena_bytes = self.peak_arena_bytes.max(self.sys.arena_bytes());
        self.budget.reset();
        self.sys.sample(&mut self.budget)
    }

    /// Decides emptiness of every set in one batch, reusing the arena
    /// across all of them. Results are in input order; a failed query
    /// yields [`Emptiness::Unknown`] for that slot only.
    pub fn check_all<'a, I>(&mut self, sets: I) -> Vec<Emptiness>
    where
        I: IntoIterator<Item = &'a BasicSet>,
    {
        self.batches += 1;
        sets.into_iter().map(|s| self.check(s)).collect()
    }

    /// Emptiness of a (union) set: empty iff every disjunct is. The
    /// disjuncts form one batch.
    pub fn check_set(&mut self, set: &Set) -> Emptiness {
        let mut out = Emptiness::Empty;
        for e in self.check_all(set.basics()) {
            match e {
                Emptiness::Empty => {}
                Emptiness::NonEmpty => return Emptiness::NonEmpty,
                Emptiness::Unknown(err) => out = Emptiness::Unknown(err),
            }
        }
        out
    }

    /// Number of emptiness batches issued so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Number of individual emptiness checks issued so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// High-water mark of the shared arena's capacity, in bytes.
    pub fn peak_arena_bytes(&self) -> usize {
        self.peak_arena_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Space};

    fn boxed(lo: i64, hi: i64) -> BasicSet {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, lo, hi);
        b.add_range(1, lo, hi);
        b
    }

    #[test]
    fn batch_matches_individual_queries() {
        let mut empty = boxed(0, 7);
        empty.add_ge0(LinExpr::var(0) - LinExpr::constant(100));
        let sets = vec![boxed(0, 7), empty, boxed(3, 3)];
        let mut ctx = Context::new();
        let out = ctx.check_all(&sets);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0], Emptiness::NonEmpty));
        assert!(matches!(out[1], Emptiness::Empty));
        assert!(matches!(out[2], Emptiness::NonEmpty));
        assert_eq!(ctx.batches(), 1);
        assert_eq!(ctx.checks(), 3);
        assert!(ctx.peak_arena_bytes() > 0);
        for (s, e) in sets.iter().zip(&out) {
            assert_eq!(s.is_empty().unwrap(), e.is_empty());
        }
    }
}
