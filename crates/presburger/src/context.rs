//! Batched query context: emptiness and sampling queries answered under one
//! work budget, with the tallies the compile report prints.
//!
//! The analysis passes issue hundreds of emptiness checks per kernel (one
//! per ordered access pair, per out-of-shape half-space, per domain). A
//! [`Context`] builds each query's solver system with `BasicSet::system`,
//! whose rows are held in place (no allocation unless they pass 160
//! words), rearms its budget, and tallies checks, batches and the peak
//! bytes of row storage.

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

/// State for batched emptiness and sampling queries: the work budget each
/// query rearms, and query counters. Counting does not go through a
/// context; callers that memoize counts own a [`crate::CountCache`].
#[derive(Debug, Default)]
pub struct Context {
    budget: Budget,
    checks: u64,
    batches: u64,
    peak_arena_bytes: usize,
}

impl Context {
    /// A fresh context with zeroed counters.
    pub fn new() -> Self {
        Context::default()
    }

    /// The solver system of one query, with the budget rearmed for it and
    /// its row storage counted toward [`Context::peak_arena_bytes`].
    fn system(&mut self, set: &BasicSet) -> System {
        let sys = set.system();
        self.peak_arena_bytes = self.peak_arena_bytes.max(sys.arena_bytes());
        self.budget.reset();
        sys
    }

    /// Decides emptiness of one basic set.
    pub fn check(&mut self, set: &BasicSet) -> Emptiness {
        self.checks += 1;
        match self.system(set).is_feasible(&mut self.budget) {
            Ok(true) => Emptiness::NonEmpty,
            Ok(false) => Emptiness::Empty,
            Err(e) => Emptiness::Unknown(e),
        }
    }

    /// Samples one integer point from a basic set — the batched
    /// witness-extraction primitive (dependence analysis samples a
    /// concrete violating pair from every non-empty relation it just
    /// checked).
    ///
    /// # Errors
    ///
    /// Same contract as [`BasicSet::sample`].
    pub fn sample(&mut self, set: &BasicSet) -> Result<Option<Vec<i64>>> {
        self.system(set).sample(&mut self.budget)
    }

    /// Decides emptiness of every set in one batch. Results are in input
    /// order; a failed query yields [`Emptiness::Unknown`] for that slot
    /// only.
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

    /// High-water mark of one query's row storage, in bytes: 1,280 while
    /// every system's rows fit in place, the heap capacity of the widest
    /// one that spilled otherwise.
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

    #[test]
    fn peak_arena_bytes_reads_the_widest_row_storage() {
        let mut ctx = Context::new();
        ctx.check(&boxed(0, 7));
        assert_eq!(ctx.peak_arena_bytes(), 1280);
        // 6 variables (stride 8) in 36 rows: 288 words spill, and a spill
        // reserves twice the 160 in-place words.
        let mut wide = BasicSet::universe(Space::set(0, 6));
        for d in 0..6 {
            for k in 0..6 {
                wide.add_ge0(LinExpr::var(d) + LinExpr::constant(k));
            }
        }
        ctx.sample(&wide).unwrap();
        assert_eq!(ctx.peak_arena_bytes(), 2 * 1280);
        ctx.check(&boxed(0, 7));
        assert_eq!(ctx.peak_arena_bytes(), 2 * 1280);
    }
}
