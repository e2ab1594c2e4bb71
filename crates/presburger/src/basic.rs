//! Basic sets: conjunctions of affine constraints with div variables, and
//! the integer feasibility solver shared by emptiness, sampling, counting
//! and enumeration.
//!
//! The solver [`System`] stores constraints as *flat rows*: one contiguous
//! `i64` buffer holding `stride = n + 2` words per constraint (`n`
//! coefficients, the constant, and a kind tag). The buffer holds 160 words
//! in place and spills to the heap above that, so building or cloning a
//! small system during branch-and-bound copies about 1.3 KB and allocates
//! nothing. Propagated intervals and candidate points are held in place the
//! same way, and every hot operation (substitution, Gaussian elimination,
//! interval tightening, membership checks) runs over dense slices. See
//! DESIGN.md § "Presburger core".

use std::fmt;

use crate::error::{Error, Result};
use crate::inline::InlineVec;
use crate::linexpr::LinExpr;
use crate::space::Space;
use crate::{Constraint, ConstraintKind};

/// An existentially quantified variable of a [`BasicSet`].
///
/// A div is *determined* when it carries a definition `q = floor(num /
/// denom)`: its value is then a function of the other variables, which lets
/// point containment be checked directly and counting run in closed form.
/// Divs introduced by [`crate::BasicMap::deltas`] have no definition and are
/// genuine existentials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Div {
    /// `Some((num, denom))` when the div is `floor(num / denom)`, with
    /// `denom > 0` and `num` an expression over earlier variables.
    pub def: Option<(LinExpr, i64)>,
}

impl Div {
    /// Whether the div's value is determined by the other variables.
    pub fn is_determined(&self) -> bool {
        self.def.is_some()
    }
}

/// A conjunction of affine constraints over `params ++ dims ++ divs`,
/// describing a set (or, via [`crate::BasicMap`], a relation) of integer
/// points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicSet {
    space: Space,
    divs: Vec<Div>,
    constraints: Vec<Constraint>,
}

impl BasicSet {
    /// The universe set of a space (no constraints).
    pub fn universe(space: Space) -> Self {
        BasicSet {
            space,
            divs: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The div variables.
    pub fn divs(&self) -> &[Div] {
        &self.divs
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Total number of variables including divs.
    pub fn n_total(&self) -> usize {
        self.space.n_var() + self.divs.len()
    }

    /// Whether every div is determined (a function of the other variables).
    pub fn all_divs_determined(&self) -> bool {
        self.divs.iter().all(Div::is_determined)
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        debug_assert!(
            c.expr.len() <= self.n_total(),
            "constraint references unknown variable"
        );
        if self.constraints.capacity() == 0 {
            // Room for a lower and an upper bound per variable, the usual
            // shape, so building a set grows its list once, not 2–3 times.
            self.constraints.reserve(2 * self.n_total());
        }
        self.constraints.push(c);
    }

    /// Adds the constraint `expr == 0`.
    pub fn add_eq(&mut self, expr: LinExpr) {
        self.add_constraint(Constraint::eq(expr));
    }

    /// Adds the constraint `expr >= 0`.
    pub fn add_ge0(&mut self, expr: LinExpr) {
        self.add_constraint(Constraint::ge0(expr));
    }

    /// A copy of the set with the constraint `expr >= 0` added (a probe or
    /// half-space built from a shared domain).
    pub fn with_ge0(&self, expr: LinExpr) -> BasicSet {
        let mut out = self.with_room(1);
        out.add_ge0(expr);
        out
    }

    /// A copy whose constraint list has room for `extra` more, so adding
    /// them does not reallocate it.
    pub(crate) fn with_room(&self, extra: usize) -> BasicSet {
        let mut constraints = Vec::with_capacity(self.constraints.len() + extra);
        constraints.extend_from_slice(&self.constraints);
        BasicSet {
            space: self.space.clone(),
            divs: self.divs.clone(),
            constraints,
        }
    }

    /// Adds the constraint `lo <= var_idx <= hi` (inclusive bounds).
    pub fn add_range(&mut self, var_idx: usize, lo: i64, hi: i64) {
        self.add_ge0(LinExpr::var(var_idx) - LinExpr::constant(lo));
        self.add_ge0(LinExpr::constant(hi) - LinExpr::var(var_idx));
    }

    /// Introduces a determined div `q = floor(num / denom)` and returns its
    /// variable index in the flat layout.
    ///
    /// The defining constraints `0 <= num - denom*q <= denom - 1` are added
    /// automatically.
    ///
    /// # Panics
    ///
    /// Panics if `denom <= 0`.
    pub fn add_div(&mut self, num: LinExpr, denom: i64) -> usize {
        assert!(denom > 0, "div denominator must be positive");
        let idx = self.n_total();
        self.divs.push(Div {
            def: Some((num.clone(), denom)),
        });
        let rem = num.clone() - LinExpr::var(idx) * denom;
        self.add_ge0(rem.clone());
        self.add_ge0(LinExpr::constant(denom - 1) - rem);
        idx
    }

    /// Appends a div without adding defining constraints (used by the map
    /// operations, which add constraints explicitly).
    pub(crate) fn push_div_raw(&mut self, d: Div) {
        self.divs.push(d);
    }

    /// Fixes variable `idx` to `value` by adding an equality.
    pub fn fix_var(&mut self, idx: usize, value: i64) {
        self.add_eq(LinExpr::var(idx) - LinExpr::constant(value));
    }

    /// Replaces variable `idx` by `replacement` in every constraint and div
    /// definition: the preimage of the set under `x_idx ↦ replacement`.
    /// With `replacement = x_idx - f·x_j` (`j != idx`) that is the image
    /// under the unimodular shear `x_idx ↦ x_idx + f·x_j`.
    pub fn substitute_var(&self, idx: usize, replacement: &LinExpr) -> BasicSet {
        let mut out = self.clone();
        for c in &mut out.constraints {
            c.expr = c.expr.substitute(idx, replacement);
        }
        for d in &mut out.divs {
            if let Some((n, _)) = &mut d.def {
                *n = n.substitute(idx, replacement);
            }
        }
        out
    }

    /// Intersects with another basic set over the same space, merging div
    /// variables (the other set's divs are renumbered after ours).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the spaces differ.
    pub fn intersect(&self, other: &BasicSet) -> Result<BasicSet> {
        if self.space != other.space {
            return Err(Error::SpaceMismatch {
                expected: self.space.to_string(),
                found: other.space.to_string(),
            });
        }
        let mut out = self.with_room(other.constraints.len());
        let shift = self.divs.len();
        let at = self.space.n_var();
        for d in &other.divs {
            out.divs.push(Div {
                def: d
                    .def
                    .as_ref()
                    .map(|(n, den)| (n.shift_vars(at, shift), *den)),
            });
        }
        for c in &other.constraints {
            out.constraints.push(Constraint {
                expr: c.expr.shift_vars(at, shift),
                kind: c.kind,
            });
        }
        Ok(out)
    }

    /// Checks whether a point (dims only, parameters prepended if any)
    /// belongs to the set. The slice must contain `n_param + n_dim` values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UndeterminedDivs`] if the set has undetermined
    /// existentials (containment would require a search).
    pub fn contains(&self, point: &[i64]) -> Result<bool> {
        assert_eq!(point.len(), self.space.n_var(), "point arity mismatch");
        let mut values = point.to_vec();
        for d in &self.divs {
            match &d.def {
                Some((num, den)) => {
                    let n = num.eval(&values);
                    values.push(n.div_euclid(*den));
                }
                None => {
                    return Err(Error::UndeterminedDivs {
                        operation: "contains",
                    })
                }
            }
        }
        Ok(self.constraints.iter().all(|c| c.holds(&values)))
    }

    /// Builds the solver system for this set (all variables, including
    /// params and divs, are solver variables).
    pub(crate) fn system(&self) -> System {
        System::new(self.n_total(), &self.constraints)
    }

    /// Per-variable `(lower, upper)` bounds derived by interval
    /// propagation (`None` endpoints are unbounded). Returns `Ok(None)` if
    /// propagation already proves the set empty. Bounds are valid for
    /// every point of the set but not necessarily tight.
    ///
    /// # Errors
    ///
    /// Propagates solver budget errors.
    #[allow(clippy::type_complexity)]
    pub fn var_intervals(&self) -> Result<Option<Vec<(Option<i64>, Option<i64>)>>> {
        let iv = self.system().propagate(&mut Budget::default())?;
        Ok(iv.map(|v| v.iter().map(|i| (i.lo, i.hi)).collect()))
    }

    /// Whether the set contains no integer points.
    ///
    /// # Errors
    ///
    /// Returns an error if the search budget is exceeded or a variable is
    /// unbounded.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(!self.system().is_feasible(&mut Budget::default())?)
    }

    /// Finds an integer point in the set (full assignment over
    /// `params ++ dims ++ divs`), or `None` if the set is empty.
    ///
    /// # Errors
    ///
    /// Returns an error if the search budget is exceeded or a variable is
    /// unbounded with constraints that prevent a decision.
    pub fn sample(&self) -> Result<Option<Vec<i64>>> {
        self.system().sample(&mut Budget::default())
    }

    /// Renames this set into a different space with the same total variable
    /// counts (e.g. set <-> map reinterpretation).
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn recast(mut self, space: Space) -> BasicSet {
        assert_eq!(
            self.space.n_var(),
            space.n_var(),
            "recast requires equal variable counts"
        );
        assert_eq!(
            self.space.n_param(),
            space.n_param(),
            "recast keeps parameters"
        );
        self.space = space;
        self
    }

    /// Pretty-prints with the space's default variable names.
    pub fn display(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for c in &self.constraints {
            let e = c.expr.display_with(|i| self.space.var_name(i));
            let op = match c.kind {
                ConstraintKind::Eq => "= 0",
                ConstraintKind::GeZero => ">= 0",
            };
            parts.push(format!("{e} {op}"));
        }
        let dims: Vec<String> = (0..self.space.n_dim())
            .map(|i| self.space.var_name(self.space.in_offset() + i))
            .collect();
        format!("{{ [{}] : {} }}", dims.join(", "), parts.join(" and "))
    }
}

impl fmt::Display for BasicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

// ---------------------------------------------------------------------------
// Integer feasibility solver (flat rows, held in place)
// ---------------------------------------------------------------------------

/// Integer division rounding toward negative infinity.
pub(crate) fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    a.div_euclid(b)
}

/// Integer division rounding toward positive infinity.
pub(crate) fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    -(-a).div_euclid(b)
}

/// Work budget for branch-and-bound searches: a step counter and its
/// limit.
#[derive(Debug, Clone)]
pub(crate) struct Budget {
    pub steps: u64,
    pub limit: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::with_limit(50_000_000)
    }
}

impl Budget {
    pub fn with_limit(limit: u64) -> Self {
        Budget { steps: 0, limit }
    }

    /// Rearms the step counter for a fresh query.
    pub fn reset(&mut self) {
        self.steps = 0;
    }

    pub fn tick(&mut self, n: u64) -> Result<()> {
        self.steps += n;
        if self.steps > self.limit {
            Err(Error::SearchBudgetExceeded { budget: self.limit })
        } else {
            Ok(())
        }
    }
}

/// Variable interval with optional (unbounded) endpoints; the default is
/// unbounded on both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Interval {
    pub lo: Option<i64>,
    pub hi: Option<i64>,
}

impl Interval {
    pub fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    pub fn singleton(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l == h => Some(l),
            _ => None,
        }
    }

    pub fn width(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) => Some(h.saturating_sub(l)),
            _ => None,
        }
    }
}

/// Row words a [`System`] holds in place before spilling to the heap.
/// 160 words hold e.g. 16 rows of an 8-variable system (stride 10), which
/// covers the vast majority of analysis-pass queries; the in-place buffer
/// makes a system about 1.3 KB, of which a search frame holds one or two.
const ROW_WORDS: usize = 160;

/// Variables whose intervals and candidate values are held in place;
/// those of a wider system spill to the heap.
const VARS_IN_PLACE: usize = 16;

/// Per-variable intervals from [`System::propagate`].
pub(crate) type Intervals = InlineVec<Interval, VARS_IN_PLACE>;

/// A full assignment tried against a system.
type Point = InlineVec<i64, VARS_IN_PLACE>;

/// The candidate point of a box: each variable at its lower endpoint,
/// else its upper one, else 0.
fn corner(iv: &[Interval]) -> Point {
    iv.iter().map(|i| i.lo.or(i.hi).unwrap_or(0)).collect()
}

/// Row kind tag stored in the last word of each row: equality (`expr == 0`).
pub(crate) const KIND_EQ: i64 = 0;
/// Row kind tag: inequality (`expr >= 0`).
pub(crate) const KIND_GE: i64 = 1;

/// Whether a row's coefficient part is all zero (a constant constraint).
#[inline]
pub(crate) fn row_is_constant(row: &[i64], n: usize) -> bool {
    row[..n].iter().all(|&c| c == 0)
}

/// Whether a *constant* row is satisfied (`0 == 0` / `k >= 0`).
#[inline]
pub(crate) fn row_constant_ok(row: &[i64], n: usize) -> bool {
    if row[n + 1] == KIND_EQ {
        row[n] == 0
    } else {
        row[n] >= 0
    }
}

/// A constraint system over `n` integer variables, used by emptiness,
/// sampling, counting, and enumeration.
///
/// Rows are stored back-to-back in one buffer with `stride = n + 2`:
/// `[c_0, ..., c_{n-1}, constant, kind]`. The kind column lives inside the
/// buffer so that the whole system is one contiguous block, held in place
/// up to [`ROW_WORDS`] words: `clone` is then a copy and no allocation.
#[derive(Debug, Clone)]
pub(crate) struct System {
    pub n: usize,
    stride: usize,
    rows: InlineVec<i64, ROW_WORDS>,
}

impl System {
    /// Builds a system over `n` variables from a constraint list.
    pub fn new(n: usize, constraints: &[Constraint]) -> Self {
        let mut sys = System::empty(n);
        for c in constraints {
            sys.push_constraint(c);
        }
        sys
    }

    /// An empty system over `n` variables.
    fn empty(n: usize) -> Self {
        System {
            n,
            stride: n + 2,
            rows: InlineVec::default(),
        }
    }

    /// A system over `n` variables holding a copy of `rows`, which are
    /// laid out as this type stores them (`n + 2` words each).
    pub fn from_rows(n: usize, rows: &[i64]) -> Self {
        let mut sys = System::empty(n);
        sys.rows.extend_from_slice(rows);
        sys
    }

    /// Number of constraint rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows.len() / self.stride
    }

    /// Appends one constraint as a dense row.
    pub fn push_constraint(&mut self, c: &Constraint) {
        let base = self.rows.len();
        let n = self.n;
        self.rows.resize(base + self.stride, 0);
        let row = &mut self.rows[base..];
        for (v, coef) in c.expr.terms() {
            debug_assert!(v < n, "constraint references unknown variable");
            row[v] = coef;
        }
        row[n] = c.expr.constant_term();
        row[n + 1] = match c.kind {
            ConstraintKind::Eq => KIND_EQ,
            ConstraintKind::GeZero => KIND_GE,
        };
    }

    #[inline]
    fn row(&self, i: usize) -> &[i64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// The coefficient slice of row `i`.
    #[inline]
    pub fn coeffs(&self, i: usize) -> &[i64] {
        &self.row(i)[..self.n]
    }

    /// Whether row `i` is an equality constraint.
    #[inline]
    pub fn is_eq(&self, i: usize) -> bool {
        self.row(i)[self.n + 1] == KIND_EQ
    }

    /// Whether any row has a nonzero coefficient on `v`.
    pub fn var_appears(&self, v: usize) -> bool {
        self.rows.chunks_exact(self.stride).any(|row| row[v] != 0)
    }

    /// Keeps only the rows for which `keep` returns true, compacting them
    /// in place.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(&[i64]) -> bool) {
        let stride = self.stride;
        let slice = &mut self.rows[..];
        let len = slice.len();
        let mut w = 0;
        let mut r = 0;
        while r < len {
            if keep(&slice[r..r + stride]) {
                if w != r {
                    slice.copy_within(r..r + stride, w);
                }
                w += stride;
            }
            r += stride;
        }
        self.rows.resize(w, 0);
    }

    /// A new system holding only the rows for which `keep` returns true.
    pub fn filtered(&self, mut keep: impl FnMut(&[i64]) -> bool) -> System {
        let mut out = System::empty(self.n);
        for row in self.rows.chunks_exact(self.stride) {
            if keep(row) {
                out.push_row(row);
            }
        }
        out
    }

    /// Appends one raw row (`stride` words: coefficients, constant, kind).
    fn push_row(&mut self, row: &[i64]) {
        self.rows.extend_from_slice(row);
    }

    /// Converts the rows back into per-constraint objects (used by the
    /// symbolic layer).
    pub fn to_constraints(&self) -> Vec<Constraint> {
        let n = self.n;
        self.rows
            .chunks_exact(self.stride)
            .map(|row| {
                let mut e = LinExpr::constant(row[n]);
                for (v, &c) in row[..n].iter().enumerate() {
                    if c != 0 {
                        e.set_coeff(v, c);
                    }
                }
                if row[n + 1] == KIND_EQ {
                    Constraint::eq(e)
                } else {
                    Constraint::ge0(e)
                }
            })
            .collect()
    }

    /// Bytes the row storage holds (for peak-memory counters): the whole
    /// in-place buffer, or the heap capacity once the rows spilled.
    pub fn arena_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<i64>()
    }

    /// Substitutes away equality-defined variables (Gaussian elimination on
    /// unit-coefficient equalities). Eliminated variables are functions of
    /// the rest, so feasibility and point counts over the remaining
    /// variables are unchanged. Removes eliminated variables from `active`.
    pub fn gauss_eliminate(&mut self, active: &mut Vec<usize>) {
        let n = self.n;
        let stride = self.stride;
        loop {
            // First equality row with a ±1 coefficient on an active
            // variable (rows in order, variables ascending — the same scan
            // order as the per-constraint representation).
            let mut pivot: Option<(usize, usize, i64)> = None;
            'scan: for (i, row) in self.rows.chunks_exact(stride).enumerate() {
                if row[n + 1] != KIND_EQ {
                    continue;
                }
                for (v, &c) in row[..n].iter().enumerate() {
                    if (c == 1 || c == -1) && active.contains(&v) {
                        pivot = Some((i, v, c));
                        break 'scan;
                    }
                }
            }
            let Some((p, v, s)) = pivot else {
                break;
            };
            // Every row with a coefficient `a` on `v` gets `a*s` times the
            // pivot row subtracted (coefficients and constant): since
            // `s = ±1`, this zeroes `v` everywhere, including in the pivot
            // row itself (`a = s` gives `s - s³ = 0`).
            let pbase = p * stride;
            {
                let rows = &mut self.rows[..];
                let pivot: InlineVec<i64, { VARS_IN_PLACE + 1 }> =
                    rows[pbase..pbase + n + 1].iter().copied().collect();
                let mut rbase = 0;
                while rbase < rows.len() {
                    let a = rows[rbase + v];
                    if a != 0 {
                        let f = a * s;
                        for (t, &pv) in pivot.iter().enumerate() {
                            rows[rbase + t] -= f * pv;
                        }
                    }
                    rbase += stride;
                }
            }
            // Drop rows reduced to satisfied constants (the pivot row
            // becomes `0 == 0` and is removed here).
            self.retain_rows(|row| !(row_is_constant(row, n) && row_constant_ok(row, n)));
            active.retain(|&x| x != v);
        }
    }

    /// Eliminates active variables the system pins to a floor. With
    /// `[lo, hi]` the finite propagated interval of `t`, it qualifies when
    /// every row mentioning it is either a bound on `t` alone or one of
    /// exactly two inequalities `e + k₁ - c·t >= 0` and
    /// `-e + k₂ + c·t >= 0` with `c >= 1` and `k₁ + k₂ = c - 1` (the shape
    /// of a tile iterator or a determined div). The pair says
    /// `0 <= e + k₁ - c·t <= c - 1`, so `t = ⌊(e + k₁)/c⌋` on every
    /// solution: like an equality-defined variable in
    /// [`System::gauss_eliminate`] it is a function of the rest, and its
    /// rows are replaced by `c·lo <= e + k₁ <= c·hi + c - 1`. That is a
    /// bijection on solutions — the system implies the propagated
    /// interval, so none is lost, and a floor inside `[lo, hi]` satisfies
    /// `t`'s own bounds, so none is gained. An equality on `t`, a third
    /// coupling row, any other `k₁ + k₂`, an unbounded interval or `i64`
    /// overflow in the new constants leaves `t` alone. `iv` must be the
    /// propagated intervals of `self`; they stay sound (not necessarily
    /// tight) for the rewritten system. Returns whether anything was
    /// eliminated; eliminated variables are removed from `active`.
    pub fn eliminate_floor_vars(&mut self, active: &mut Vec<usize>, iv: &[Interval]) -> bool {
        let before = active.len();
        active.retain(|&t| match self.floor_replacement(t, iv[t]) {
            Some(rows) => {
                self.retain_rows(|row| row[t] == 0);
                for row in &rows {
                    self.push_row(row);
                }
                false
            }
            None => true,
        });
        active.len() < before
    }

    /// The two rows `e + k₁ - c·lo >= 0` and `c·hi + c - 1 - (e + k₁) >= 0`
    /// that replace every row mentioning `t`, or `None` when `t` is not in
    /// the shape [`System::eliminate_floor_vars`] accepts.
    fn floor_replacement(&self, t: usize, iv: Interval) -> Option<[Vec<i64>; 2]> {
        let (lo, hi) = (iv.lo?, iv.hi?);
        let n = self.n;
        // [upper: e + k₁ - c·t >= 0, lower: -e + k₂ + c·t >= 0]
        let mut pair: [Option<&[i64]>; 2] = [None, None];
        for row in self.rows.chunks_exact(self.stride) {
            if row[t] == 0 {
                continue;
            }
            if row[n + 1] == KIND_EQ {
                return None;
            }
            if row[..n].iter().enumerate().all(|(v, &c)| v == t || c == 0) {
                continue; // a bound on `t` alone, implied by `[lo, hi]`
            }
            let slot = &mut pair[usize::from(row[t] > 0)];
            if slot.is_some() {
                return None;
            }
            *slot = Some(row);
        }
        let (up, low) = (pair[0]?, pair[1]?);
        let c = low[t];
        if (0..n).any(|v| up[v].checked_add(low[v]) != Some(0))
            || up[n].checked_add(low[n]) != Some(c - 1)
        {
            return None;
        }
        let at_lo = up[n].checked_sub(c.checked_mul(lo)?)?;
        let at_hi = c.checked_mul(hi)?.checked_add(c - 1)?.checked_sub(up[n])?;
        // `up` and `low` already carry `e` and `-e`; only `t` and the
        // constant change.
        let (mut ge_lo, mut le_hi) = (up.to_vec(), low.to_vec());
        (ge_lo[t], ge_lo[n]) = (0, at_lo);
        (le_hi[t], le_hi[n]) = (0, at_hi);
        Some([ge_lo, le_hi])
    }

    /// Detects contradictions between pairs of inequalities with exactly
    /// negated variable parts (`e >= 0` and `-e + k >= 0` with `k` too
    /// small), which interval propagation cannot see. Returns `false` on
    /// contradiction. Also refutes violated constant rows. Negated parts
    /// agree once scaled to a positive leading coefficient, so rows are
    /// filed under a signature of that and only rows sharing one compared.
    pub fn negated_pair_consistent(&self) -> bool {
        let n = self.n;
        let mut filed: InlineVec<(u64, usize), 32> = InlineVec::default();
        for (i, row) in self.rows.chunks_exact(self.stride).enumerate() {
            let Some(&lead) = row[..n].iter().find(|&&c| c != 0) else {
                if !row_constant_ok(row, n) {
                    return false;
                }
                continue;
            };
            let sign = lead.signum();
            let signature = row[..n].iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
                (h ^ sign.wrapping_mul(c) as u64).wrapping_mul(0x0100_0000_01b3)
            });
            filed.push((signature, i));
        }
        filed.sort_unstable();
        filed.chunk_by(|a, b| a.0 == b.0).all(|run| {
            run.iter()
                .enumerate()
                .all(|(x, &(_, i))| run[x + 1..].iter().all(|&(_, j)| !self.negated_pair(i, j)))
        })
    }

    /// Whether rows `i` and `j` read `part·x + k_i >= 0` and
    /// `-part·x + k_j >= 0` with `k_i + k_j < 0` (an equality stands for
    /// both signs of its expression).
    fn negated_pair(&self, i: usize, j: usize) -> bool {
        static SIGNS: [i64; 2] = [1, -1];
        let (n, ri, rj) = (self.n, self.row(i), self.row(j));
        let signs = |r: &[i64]| &SIGNS[..1 + usize::from(r[n + 1] == KIND_EQ)];
        signs(ri).iter().any(|&si| {
            signs(rj).iter().any(|&sj| {
                (0..n).all(|t| si * ri[t] == -(sj * rj[t])) && si * ri[n] + sj * rj[n] < 0
            })
        })
    }

    /// Decides feasibility without producing a sample: eliminates
    /// equalities first, which lets the interval/negated-pair machinery
    /// refute systems with long equality chains (dependence-analysis
    /// queries) cheaply.
    pub fn is_feasible(&self, budget: &mut Budget) -> Result<bool> {
        // Fast path: one interval-propagation pass either refutes the
        // system outright (sound: propagation only ever narrows) or yields
        // a candidate box whose low corner we test directly. Most analysis
        // queries are plainly inhabited (domains, access pairs inside
        // bounds), so this answers them with a single scan and no
        // elimination, cloning, or branching. Equality rows coupling two
        // or more variables (determined divs, dependence equations) defeat
        // the raw corner almost always, so those systems skip straight to
        // the post-elimination attempt below.
        let coupled_eq = (0..self.n_rows())
            .any(|i| self.is_eq(i) && self.coeffs(i).iter().filter(|&&c| c != 0).count() >= 2);
        if !coupled_eq {
            match self.propagate(budget)? {
                None => return Ok(false),
                Some(iv) if self.check(&corner(&iv)) => return Ok(true),
                Some(_) => {}
            }
        }
        let mut sys = self.clone();
        let mut active: Vec<usize> = (0..self.n).collect();
        sys.gauss_eliminate(&mut active);
        if !sys.negated_pair_consistent() {
            return Ok(false);
        }
        // Second candidate test after elimination: equality chains (e.g.
        // determined divs) defeat the raw low-corner candidate, but once
        // their variables are substituted away the eliminated system's low
        // corner usually lands inside. Eliminated variables have no
        // remaining rows, so checking the reduced system is sound.
        match sys.propagate(budget)? {
            None => return Ok(false),
            Some(iv) if sys.check(&corner(&iv)) => return Ok(true),
            Some(_) => {}
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
        if !sys.constant_rows_ok() {
            return Ok(false);
        }
        // Drop variables that no longer appear in any constraint.
        remaining.retain(|&v| sys.var_appears(v));
        if remaining.is_empty() {
            return Ok(true);
        }
        let mut sub_active = remaining.clone();
        sys.gauss_eliminate(&mut sub_active);
        if !sys.negated_pair_consistent() {
            return Ok(false);
        }
        sub_active.retain(|&v| sys.var_appears(v));
        if sub_active.is_empty() {
            // Only constant constraints can remain; re-check them.
            return Ok(sys.constant_rows_ok());
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

    /// Whether every constant row is satisfied.
    #[inline]
    pub(crate) fn constant_rows_ok(&self) -> bool {
        let n = self.n;
        self.rows
            .chunks_exact(self.stride)
            .all(|row| !row_is_constant(row, n) || row_constant_ok(row, n))
    }

    /// Interval propagation to (bounded) fixpoint. Returns `None` if a
    /// contradiction is detected.
    pub fn propagate(&self, budget: &mut Budget) -> Result<Option<Intervals>> {
        let n = self.n;
        let stride = self.stride;
        let mut iv = Intervals::default();
        iv.resize(n, Interval::default());
        // Round-robin until fixpoint or iteration cap.
        let max_rounds = 4 + 2 * n.max(4);
        for _ in 0..max_rounds {
            budget.tick(self.n_rows() as u64)?;
            let mut changed = false;
            for row in self.rows.chunks_exact(stride) {
                if !tighten_row(&row[..n], row[n], 1, &mut iv, &mut changed) {
                    return Ok(None);
                }
                if row[n + 1] == KIND_EQ
                    && !tighten_row(&row[..n], row[n], -1, &mut iv, &mut changed)
                {
                    return Ok(None);
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

    /// Substitutes variable `idx` with a constant in place: the constant
    /// term absorbs `coeff * value` and the coefficient becomes zero.
    pub fn substitute(&mut self, idx: usize, value: i64) {
        let n = self.n;
        let stride = self.stride;
        for row in self.rows.chunks_exact_mut(stride) {
            let c = row[idx];
            if c != 0 {
                row[n] += c * value;
                row[idx] = 0;
            }
        }
    }

    /// Checks whether a full assignment satisfies all constraints.
    pub fn check(&self, values: &[i64]) -> bool {
        let n = self.n;
        self.rows.chunks_exact(self.stride).all(|row| {
            let mut v = row[n];
            for (i, &c) in row[..n].iter().enumerate() {
                if c != 0 {
                    v += c * values[i];
                }
            }
            if row[n + 1] == KIND_EQ {
                v == 0
            } else {
                v >= 0
            }
        })
    }

    /// Finds one integer solution or proves emptiness.
    #[allow(clippy::type_complexity)]
    pub fn sample(&self, budget: &mut Budget) -> Result<Option<Vec<i64>>> {
        // Fast path: when every variable's propagated interval is finite
        // and the low corner satisfies the system, the branch search below
        // is guaranteed to return exactly that corner — every feasible
        // point dominates it componentwise (intervals are sound) and the
        // search tries values in ascending order, so all trials below the
        // corner fail. Returning it directly preserves witness identity
        // while skipping the whole search.
        match self.propagate(budget)? {
            None => return Ok(None),
            Some(iv) if iv.iter().all(|i| i.lo.is_some() && i.hi.is_some()) => {
                let corner = corner(&iv);
                if self.check(&corner) {
                    return Ok(Some(corner.to_vec()));
                }
            }
            Some(_) => {}
        }
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
                if let Some(u) = unbounded_free {
                    // Try anchoring each half-bounded variable at its finite
                    // endpoint (covers common one-sided cases like `i >= 0`);
                    // fully free variables get 0.
                    let full: Point = values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v.unwrap_or_else(|| iv[i].lo.or(iv[i].hi).unwrap_or(0)))
                        .collect();
                    if self.check(&full) {
                        for (i, v) in values.iter_mut().enumerate() {
                            if v.is_none() {
                                *v = Some(full[i]);
                            }
                        }
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
                    let residual_mentions_free =
                        (0..self.n).any(|i| values[i].is_none() && sys2.var_appears(i));
                    if residual_mentions_free {
                        return Err(Error::Unbounded { var: u });
                    }
                }
                let full: Point = values.iter().map(|v| v.unwrap_or(0)).collect();
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

/// Tightens intervals using `sign * (coeffs·x + k) >= 0`, exact over
/// `i128` (saturating at the extremes) in a single O(t) pass: the finite
/// part of the box-maximum is accumulated once, and each variable's
/// residual bound is recovered by subtracting its own contribution.
/// Returns false on contradiction.
fn tighten_row(coeffs: &[i64], k: i64, sign: i64, iv: &mut [Interval], changed: &mut bool) -> bool {
    // Box-maximum of the expression: each variable contributes its upper
    // (positive coefficient) or lower (negative) endpoint. Unbounded
    // endpoints are tallied instead of summed.
    let mut finite: i128 = (sign as i128) * (k as i128);
    let mut n_unbounded = 0usize;
    let mut unbounded_var = 0usize;
    for (i, &c0) in coeffs.iter().enumerate() {
        if c0 == 0 {
            continue;
        }
        let c = (sign as i128) * (c0 as i128);
        let endpoint = if c > 0 { iv[i].hi } else { iv[i].lo };
        match endpoint {
            Some(x) => finite = finite.saturating_add(c.saturating_mul(x as i128)),
            None => {
                n_unbounded += 1;
                unbounded_var = i;
            }
        }
    }
    if n_unbounded == 0 && finite < 0 {
        return false;
    }
    // Tighten each variable: a_j * v_j >= -(rest over the box). The rest's
    // maximum is finite only when every *other* contribution is bounded.
    for (j, &c0) in coeffs.iter().enumerate() {
        if c0 == 0 {
            continue;
        }
        let a = (sign as i128) * (c0 as i128);
        let rest_max: i128 = if n_unbounded == 0 {
            let own = if a > 0 { iv[j].hi } else { iv[j].lo };
            // Bounded by construction when nothing is unbounded.
            let own = own.expect("endpoint bounded when n_unbounded == 0");
            finite.saturating_sub(a.saturating_mul(own as i128))
        } else if n_unbounded == 1 && unbounded_var == j {
            finite
        } else {
            continue;
        };
        if a > 0 {
            // v_j >= ceil(-rest_max / a)
            let bound = clamp_i64(ceil_div_i128(-rest_max, a));
            if iv[j].lo.is_none_or(|l| bound > l) {
                iv[j].lo = Some(bound);
                *changed = true;
            }
        } else {
            // v_j <= floor(rest_max / -a)
            let bound = clamp_i64(floor_div_i128(rest_max, -a));
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

#[inline]
fn clamp_i64(x: i128) -> i64 {
    x.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

#[inline]
fn floor_div_i128(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    a.div_euclid(b)
}

#[inline]
fn ceil_div_i128(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    -(-a).div_euclid(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box2(n: i64, m: i64) -> BasicSet {
        // { [i,j] : 0 <= i < n, 0 <= j < m }
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, n - 1);
        b.add_range(1, 0, m - 1);
        b
    }

    #[test]
    fn universe_and_contains() {
        let b = box2(4, 3);
        assert!(b.contains(&[0, 0]).unwrap());
        assert!(b.contains(&[3, 2]).unwrap());
        assert!(!b.contains(&[4, 0]).unwrap());
        assert!(!b.contains(&[-1, 0]).unwrap());
    }

    #[test]
    fn sample_and_emptiness() {
        let b = box2(4, 3);
        assert!(!b.is_empty().unwrap());
        let p = b.sample().unwrap().unwrap();
        assert!(b.contains(&p[..2]).unwrap());

        let mut e = box2(4, 3);
        e.add_ge0(LinExpr::var(0) - LinExpr::constant(10)); // i >= 10: empty
        assert!(e.is_empty().unwrap());
    }

    #[test]
    fn equality_constraints() {
        let mut b = box2(10, 10);
        // i + j == 7, i - j == 1  =>  i=4, j=3
        b.add_eq(LinExpr::var(0) + LinExpr::var(1) - LinExpr::constant(7));
        b.add_eq(LinExpr::var(0) - LinExpr::var(1) - LinExpr::constant(1));
        let p = b.sample().unwrap().unwrap();
        assert_eq!(&p[..2], &[4, 3]);
    }

    #[test]
    fn div_semantics() {
        // { [i] : 0 <= i < 16, q = floor(i/4), q == 2 }  =>  i in 8..12
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 15);
        let q = b.add_div(LinExpr::var(0), 4);
        b.add_eq(LinExpr::var(q) - LinExpr::constant(2));
        assert!(b.contains(&[8]).unwrap());
        assert!(b.contains(&[11]).unwrap());
        assert!(!b.contains(&[7]).unwrap());
        assert!(!b.contains(&[12]).unwrap());
        assert!(b.all_divs_determined());
    }

    #[test]
    fn modulo_via_divs() {
        // { [i] : 0 <= i < 12, i mod 3 == 1 } => 1,4,7,10
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 11);
        let q = b.add_div(LinExpr::var(0), 3);
        // i - 3q == 1
        b.add_eq(LinExpr::var(0) - LinExpr::var(q) * 3 - LinExpr::constant(1));
        let members: Vec<i64> = (0..12).filter(|&i| b.contains(&[i]).unwrap()).collect();
        assert_eq!(members, vec![1, 4, 7, 10]);
    }

    #[test]
    fn intersect_merges_divs() {
        let mut a = BasicSet::universe(Space::set(0, 1));
        a.add_range(0, 0, 15);
        let qa = a.add_div(LinExpr::var(0), 4);
        a.add_eq(LinExpr::var(qa) - LinExpr::constant(2));

        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 15);
        let qb = b.add_div(LinExpr::var(0), 2);
        // i even: i - 2*floor(i/2) == 0
        b.add_eq(LinExpr::var(0) - LinExpr::var(qb) * 2);

        let c = a.intersect(&b).unwrap();
        let members: Vec<i64> = (0..16).filter(|&i| c.contains(&[i]).unwrap()).collect();
        assert_eq!(members, vec![8, 10]);
    }

    #[test]
    fn substitute_var_shears() {
        // { [i,j] : 0<=i<3, 0<=j<2 } under j ↦ j + 2i.
        let b = box2(3, 2).substitute_var(1, &(LinExpr::var(1) - LinExpr::var(0) * 2));
        for i in -1..4 {
            for j in -1..8 {
                let want = (0..3).contains(&i) && (0..2).contains(&(j - 2 * i));
                assert_eq!(b.contains(&[i, j]).unwrap(), want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn unbounded_reported() {
        // { [i] : i >= 0 } with a genuine search need is unbounded-but-satisfiable:
        // sampling should still succeed because propagation leaves residual
        // constraints mentioning the free var... i >= 0 gives lo bound but no hi.
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_ge0(LinExpr::var(0));
        // i >= 0 alone: propagation gives lo=0, no hi; no other constraints
        // mention i after substitution... the constraint itself mentions i.
        // The solver reports Unbounded in this case, which is acceptable.
        match b.sample() {
            Ok(Some(p)) => assert!(p[0] >= 0),
            Err(Error::Unbounded { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// The points of `b` inside the box `ranges` (one `(lo, hi)` per
    /// variable, every point of `b` inside it), in lexicographic order.
    fn brute_points(b: &BasicSet, ranges: &[(i64, i64)]) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut p: Vec<i64> = ranges.iter().map(|r| r.0).collect();
        'points: loop {
            if b.contains(&p).unwrap() {
                out.push(p.clone());
            }
            for v in (0..p.len()).rev() {
                if p[v] < ranges[v].1 {
                    p[v] += 1;
                    continue 'points;
                }
                p[v] = ranges[v].0;
            }
            return out;
        }
    }

    /// `is_empty`, `sample` (through a set and a context) and the count of
    /// `b` against brute-force enumeration over `ranges`.
    fn assert_matches_brute(b: &BasicSet, ranges: &[(i64, i64)]) {
        let points = brute_points(b, ranges);
        assert_eq!(b.is_empty().unwrap(), points.is_empty());
        let n = b.space().n_var();
        let mut ctx = crate::Context::new();
        for sample in [b.sample().unwrap(), ctx.sample(b).unwrap()] {
            match sample {
                Some(p) => assert!(points.contains(&p[..n].to_vec()), "{p:?}"),
                None => assert!(points.is_empty()),
            }
        }
        assert_eq!(ctx.check(b).is_empty(), points.is_empty());
        let count = crate::Set::from_basic(b.clone()).count().unwrap();
        assert_eq!(count, points.len() as i128);
    }

    #[test]
    fn wide_system_spills_rows_to_the_heap() {
        // 6 variables (stride 8) in 36 rows: 288 words, past the 160 held
        // in place.
        let mut b = BasicSet::universe(Space::set(0, 6));
        for d in 0..6 {
            b.add_range(d, 0, 2);
            // Redundant extra constraints to force many rows.
            for k in 0..4 {
                b.add_ge0(LinExpr::var(d) + LinExpr::constant(k));
            }
        }
        b.add_ge0(
            LinExpr::constant(7) - (0..6).map(LinExpr::var).fold(LinExpr::zero(), |a, v| a + v),
        );
        b.add_eq(LinExpr::var(0) - LinExpr::var(5));
        assert!(matches!(b.system().rows, InlineVec::Heap(_)));
        let ranges = [(0, 2); 6];
        assert_matches_brute(&b, &ranges);
        b.add_ge0(LinExpr::var(1) + LinExpr::var(2) + LinExpr::var(3) - LinExpr::constant(7));
        assert!(b.is_empty().unwrap());
        assert_matches_brute(&b, &ranges);
    }

    #[test]
    fn many_variables_spill_intervals_to_the_heap() {
        // 17 variables, one past the intervals held in place: x0..x2 free
        // in [0, 2], the rest pinned, and two rows coupling them.
        let n = VARS_IN_PLACE + 1;
        let mut b = BasicSet::universe(Space::set(0, n));
        let mut ranges = vec![(0, 2); 3];
        for v in 3..n {
            let x = (v % 3) as i64;
            ranges.push((x, x));
        }
        for (v, &(lo, hi)) in ranges.iter().enumerate() {
            b.add_range(v, lo, hi);
        }
        b.add_ge0(LinExpr::var(0) + LinExpr::var(1) - LinExpr::var(n - 1));
        b.add_ge0(LinExpr::constant(3) - LinExpr::var(1) - LinExpr::var(2));
        let iv = b
            .system()
            .propagate(&mut Budget::default())
            .unwrap()
            .unwrap();
        assert!(matches!(iv, InlineVec::Heap(_)));
        assert_matches_brute(&b, &ranges);
        b.add_eq(LinExpr::var(0) + LinExpr::var(1) + LinExpr::var(2) - LinExpr::constant(7));
        assert_matches_brute(&b, &ranges);
    }

    #[test]
    fn flat_substitute_and_check() {
        let mut b = box2(10, 10);
        b.add_eq(LinExpr::var(0) - LinExpr::var(1));
        let mut sys = b.system();
        sys.substitute(0, 5);
        assert!(sys.check(&[0, 5])); // i already substituted; j must be 5
        assert!(!sys.check(&[0, 6]));
    }

    #[test]
    fn flat_gauss_removes_equalities() {
        let mut b = box2(10, 10);
        b.add_eq(LinExpr::var(0) - LinExpr::var(1) - LinExpr::constant(1));
        let mut sys = b.system();
        let mut active: Vec<usize> = vec![0, 1];
        sys.gauss_eliminate(&mut active);
        assert_eq!(active.len(), 1);
        // No equality rows left.
        assert!((0..sys.n_rows()).all(|i| !sys.is_eq(i)));
    }

    /// The all-pairs loop [`System::negated_pair_consistent`] replaced:
    /// every constant row, then every pair of non-constant rows, each
    /// equality under both signs.
    fn negated_pair_consistent_all_pairs(sys: &System) -> bool {
        let n = sys.n;
        let row = |i: usize| (sys.coeffs(i).to_vec(), sys.row(i)[n], sys.is_eq(i));
        for i in 0..sys.n_rows() {
            let (pi, ki, eqi) = row(i);
            if pi.iter().all(|&c| c == 0) {
                if if eqi { ki != 0 } else { ki < 0 } {
                    return false;
                }
                continue;
            }
            for j in i + 1..sys.n_rows() {
                let (pj, kj, eqj) = row(j);
                if pj.iter().all(|&c| c == 0) {
                    continue;
                }
                let signs = |eq: bool| if eq { vec![1, -1] } else { vec![1] };
                for si in signs(eqi) {
                    for sj in signs(eqj) {
                        if (0..n).all(|t| si * pi[t] == -(sj * pj[t])) && si * ki + sj * kj < 0 {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// A random system over 1–4 variables with up to 48 rows (past the
    /// 32 rows `negated_pair_consistent` files in place): random rows,
    /// constant rows, copies and doubles of earlier rows `e`, and exact
    /// negations `-e + s`. Every row holds at a random point, or is tight
    /// there, so nothing can be refuted — except that in half the systems
    /// one row in eight has its constant lowered by one. A constant row
    /// may then be violated, and a negation of a tight `e` (slack `s` −1,
    /// where untouched ones have 0 or +1) or a copy of a tight equality
    /// then contradicts it.
    fn random_system(seed: u64) -> System {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let mut pick = |lo: i64, hi: i64| rng.next_in_range(lo as i128, hi as i128) as i64;
        let n = pick(1, 4) as usize;
        let n_rows = pick(0, 48);
        let point: Vec<i64> = (0..n).map(|_| pick(-2, 2)).collect();
        let hostile = pick(0, 1) == 1;
        let mut rows: Vec<Constraint> = Vec::new();
        for _ in 0..n_rows {
            let kind = match pick(0, 3) {
                0 => ConstraintKind::Eq,
                _ => ConstraintKind::GeZero,
            };
            let earlier = (!rows.is_empty())
                .then(|| rows[pick(0, rows.len() as i64 - 1) as usize].expr.clone());
            let base = match (pick(0, 5), earlier) {
                (0, _) => LinExpr::zero(),
                (1, Some(e)) => e * pick(1, 2),
                (2 | 3, Some(e)) => -e,
                _ => (0..n).fold(LinExpr::zero(), |e, v| e + LinExpr::var(v) * pick(-2, 2)),
            };
            let slack = match kind {
                ConstraintKind::Eq => 0,
                ConstraintKind::GeZero => pick(0, 1),
            };
            let lowered = i64::from(hostile && pick(0, 7) == 0);
            let expr = base.clone() + LinExpr::constant(slack - base.eval(&point) - lowered);
            rows.push(Constraint { expr, kind });
        }
        System::new(n, &rows)
    }

    proptest::proptest! {
        #[test]
        fn negated_pair_consistent_matches_all_pairs(seed in proptest::prelude::any::<u64>()) {
            let sys = random_system(seed);
            proptest::prop_assert_eq!(
                sys.negated_pair_consistent(),
                negated_pair_consistent_all_pairs(&sys),
                "{:?}",
                sys.to_constraints()
            );
        }
    }

    /// The generator reaches both verdicts, in systems small enough to
    /// file in place and in systems past that.
    #[test]
    fn negated_pair_systems_cover_both_verdicts_past_the_buffer() {
        let mut seen = [[false; 2]; 2];
        for seed in 0..512 {
            let sys = random_system(seed);
            seen[usize::from(sys.n_rows() > 32)][usize::from(sys.negated_pair_consistent())] = true;
        }
        assert_eq!(seen, [[true; 2]; 2]);
    }
}
