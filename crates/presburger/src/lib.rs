//! A small Presburger-arithmetic library: integer sets and relations bounded
//! by affine constraints, in the spirit of [isl] with [barvinok]-style
//! point counting.
//!
//! This crate is the polyhedral substrate of the PolyUFC reproduction. It
//! keeps what the compiler calls:
//!
//! * [`Space`] — the signature of a set or relation (parameters, input and
//!   output dimensions).
//! * [`LinExpr`] — affine expressions over the variables of a space.
//! * [`BasicSet`] / [`Set`] — conjunctions (resp. finite disjoint unions of
//!   conjunctions) of affine constraints, with optional existentially
//!   quantified *div* variables for integer division and modulo.
//! * [`BasicMap`] / [`Map`] — binary integer relations with the same
//!   constraint language: access maps, domain/range restriction, the
//!   difference set [`BasicMap::deltas`] Pluto's dependence analysis is
//!   built on, and pair enumeration for the exact cache model.
//! * [`lex_lt_map`], the strict lexicographic order that orients
//!   dependences.
//! * Batched emptiness and sampling ([`Context`]) on solver systems whose
//!   rows are held in place.
//! * Integer point counting ([`Set::count`], memoized in a [`CountCache`]
//!   fed rows by [`CountCache::question`] or whole sets by
//!   [`Set::count_cached`], per independent component) by closed-form
//!   symbolic summation ([`symbolic_count`]) with recursive bound
//!   decomposition, connected-component factoring, and a verified
//!   enumerating fallback ([`count_basic_enumerative`]), plus an
//!   exhaustive enumerator for validation.
//!
//! There is one solver core. Its oracles live in the test suites:
//! brute-force point membership (`tests/prop.rs`, which checks every
//! answer) and a pinned digest of a fixed sweep's emptiness verdicts,
//! sampled witnesses and counts (`tests/solver_digest.rs`, which checks
//! that the answers — down to which point is sampled — do not move).
//!
//! Unlike isl, parametric contexts are expected to be *instantiated*: the
//! PolyUFC pipeline fixes problem sizes before the heavy cache-model
//! queries, so counting returns plain integers rather than quasi-polynomials
//! (see DESIGN.md for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use polyufc_presburger::{BasicSet, LinExpr, Set, Space};
//!
//! // { [i, j] : 0 <= i < 8, 0 <= j <= i }
//! let mut b = BasicSet::universe(Space::set(0, 2));
//! b.add_range(0, 0, 7);
//! b.add_ge0(LinExpr::var(1));
//! b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
//! assert_eq!(Set::from_basic(b).count().unwrap(), 36);
//! ```
//!
//! [isl]: https://libisl.sourceforge.io/
//! [barvinok]: https://barvinok.sourceforge.io/

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod basic;
mod context;
mod count;
mod enumerate;
mod error;
mod inline;
mod lexorder;
mod linexpr;
mod map;
mod polysum;
mod set;
mod space;

pub use basic::{BasicSet, Div};
pub use context::{Context, Emptiness};
pub use count::{count_basic_enumerative, CountCache, CountLimit, CountQuestion};
pub use error::{Error, Result};
pub use lexorder::lex_lt_map;
pub use linexpr::LinExpr;
pub use map::{BasicMap, Map};
pub use polysum::symbolic_count;
pub use set::Set;
pub use space::Space;

/// A constraint over the variables of a [`Space`]: an affine expression
/// required to be `== 0` or `>= 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The affine expression constrained by [`Constraint::kind`].
    pub expr: LinExpr,
    /// Whether the expression must equal zero or be non-negative.
    pub kind: ConstraintKind,
}

/// The relation a [`Constraint`] imposes on its expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `expr == 0`.
    Eq,
    /// `expr >= 0`.
    GeZero,
}

impl Constraint {
    /// Builds an equality constraint `expr == 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Eq,
        }
    }

    /// Builds an inequality constraint `expr >= 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::GeZero,
        }
    }

    /// Evaluates the constraint on a full variable assignment.
    pub fn holds(&self, values: &[i64]) -> bool {
        let v = self.expr.eval(values);
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::GeZero => v >= 0,
        }
    }
}
