//! Integer point counting by recursive bound decomposition with
//! connected-component factoring — the barvinok substitute.
//!
//! The counter works on the solver [`System`]: after interval propagation
//! and fixing of singleton variables, the variable-interaction graph is
//! split into connected components whose counts multiply. Single-variable
//! components are counted in closed form from their propagated interval.
//! Multi-variable components are handed to the closed-form symbolic layer
//! first ([`crate::polysum`]): Fourier–Motzkin bound derivation plus
//! Faulhaber summation collapses triangle, trapezoid, banded, and
//! tile-tail shapes to work independent of the problem size. Components
//! outside the symbolic fragment fall back to enumerating the narrowest
//! variable and recursing, so every query that terminated before still
//! terminates with the identical count.

use std::collections::HashMap;

use crate::basic::{
    ceil_div, floor_div, row_constant_ok, row_is_constant, Budget, System, KIND_EQ, KIND_GE,
};
use crate::error::{Error, Result};
use crate::{polysum, BasicSet, Constraint, ConstraintKind};

/// A work limit for counting, in solver steps.
///
/// The default (50M steps) is sized so that every query issued by the
/// PolyUFC cache model on the evaluation workloads completes; the paper's
/// own flow uses a 30-minute timeout for the same role (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountLimit(pub u64);

impl Default for CountLimit {
    fn default() -> Self {
        CountLimit(50_000_000)
    }
}

/// Per-invocation strategy tallies: how many coupled components were
/// resolved by the closed-form symbolic layer vs the enumerating fallback.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StrategyStats {
    /// Components counted in closed form by [`crate::polysum`].
    pub symbolic: u64,
    /// Components that fell back to branch-and-recurse enumeration.
    pub enumerated: u64,
    /// Regions the symbolic layer fanned out across the worker pool.
    pub parallel_splits: u64,
}

/// Shared state of one counting invocation.
struct Ctx {
    budget: Budget,
    /// When false, the symbolic layer is skipped entirely: every coupled
    /// component is enumerated, as [`count_basic_enumerative`] promises.
    allow_symbolic: bool,
    stats: StrategyStats,
}

/// Counts the integer solutions of a system where every variable is free.
pub(crate) fn count_system(sys: &System, limit: CountLimit) -> Result<i128> {
    count_system_with_stats(sys, limit, true).map(|(c, _)| c)
}

/// Counts with an explicit strategy switch, reporting per-strategy tallies
/// alongside the count.
pub(crate) fn count_system_with_stats(
    sys: &System,
    limit: CountLimit,
    allow_symbolic: bool,
) -> Result<(i128, StrategyStats)> {
    let mut ctx = Ctx {
        budget: Budget::with_limit(limit.0),
        allow_symbolic,
        stats: StrategyStats::default(),
    };
    let c = count_in(sys.clone(), &mut ctx)?;
    Ok((c, ctx.stats))
}

/// Counts the integer solutions of `sys` (every variable free) in `ctx`.
fn count_in(sys: System, ctx: &mut Ctx) -> Result<i128> {
    let active: Vec<usize> = (0..sys.n).collect();
    count_rec(sys, &active, ctx)
}

/// Counts a basic set with the symbolic closed-form layer disabled: every
/// coupled component is resolved by the recursive enumerator. This is the
/// reference oracle of the differential test suite — production counting
/// ([`crate::Set::count`]) tries [`crate::symbolic_count`]'s machinery
/// first and falls back to exactly this path.
///
/// # Errors
///
/// Returns [`Error::UndeterminedDivs`] if a div lacks a definition, and
/// propagates budget/unboundedness errors.
pub fn count_basic_enumerative(set: &BasicSet, limit: CountLimit) -> Result<i128> {
    if !set.all_divs_determined() {
        return Err(Error::UndeterminedDivs {
            operation: "count_basic_enumerative",
        });
    }
    count_system_with_stats(&set.system(), limit, false).map(|(c, _)| c)
}

/// Reused buffers of one count question.
#[derive(Debug, Clone, Default)]
struct KeyBuf {
    /// Variables of the question being written.
    n: usize,
    /// Rows as written, in [`System`] layout (`n + 2` words: coefficients,
    /// constant, kind), equalities sign-normalized.
    rows: Vec<i64>,
    order: Vec<usize>,
    key: Vec<i64>,
    label: Vec<usize>,
    /// Compact rows and key of the component being looked up.
    part_rows: Vec<i64>,
    part_key: Vec<i64>,
}

impl KeyBuf {
    /// Appends a zeroed row of `kind` and returns its words
    /// `[c_0, …, c_{n-1}, constant]`.
    fn push_row(&mut self, kind: i64) -> &mut [i64] {
        let (n, base) = (self.n, self.rows.len());
        self.rows.resize(base + n + 2, 0);
        self.rows[base + n + 1] = kind;
        &mut self.rows[base..base + n + 1]
    }

    /// Appends `c` as a row; an equality's first nonzero coefficient is
    /// made positive (both signs describe the same hyperplane).
    fn push(&mut self, c: &Constraint) {
        let is_eq = c.kind == ConstraintKind::Eq;
        let flip = is_eq && c.expr.terms().next().is_some_and(|(_, c)| c < 0);
        let sign = if flip { -1 } else { 1 };
        let n = self.n;
        let row = self.push_row(if is_eq { KIND_EQ } else { KIND_GE });
        row[n] = sign * c.expr.constant_term();
        for (v, a) in c.expr.terms() {
            row[v] = sign * a;
        }
    }
}

/// Writes the canonical key of `rows` (over `n` variables, `n + 2` words
/// each) into `key`: the variable count, the count limit, then the rows
/// sorted and deduplicated. Two questions with the same key have the same
/// solution set, so their point counts can be shared.
fn canonical_key(
    rows: &[i64],
    n: usize,
    limit: CountLimit,
    order: &mut Vec<usize>,
    key: &mut Vec<i64>,
) {
    let width = n + 2;
    let row = |r: usize| &rows[r * width..(r + 1) * width];
    order.clear();
    order.extend(0..rows.len() / width);
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|a, b| row(*a) == row(*b));
    key.clear();
    key.extend([n as i64, limit.0 as i64]);
    for &r in order.iter() {
        key.extend_from_slice(row(r));
    }
}

/// Memoization cache of count questions, written row by row through
/// [`CountCache::question`] (whole sets through
/// [`crate::Set::count_cached`]).
///
/// The PolyUFC cache model asks the *same* counting question many times
/// per kernel, and its questions are often products of independent
/// pieces (tile/point pairs, box dimensions) that recur across questions.
/// Keys are canonical rows, so a hit is exact. A question is looked up
/// whole; on a miss its variables are split into connected components.
/// Constant rows and one-variable components are decided on the spot;
/// every larger component is looked up under its own compact key and
/// counted only on a miss, from the question's one work budget, and the
/// product is stored under the whole key.
/// [`CountCache::hits`] and [`CountCache::misses`] count lookups of both
/// kinds. Only successful counts are cached.
///
/// The cache is bounded: once [`CountCache::len`] reaches the capacity
/// given to [`CountCache::with_capacity`], the next insert clears the map
/// (a generational reset — cheaper and less pathological than per-entry
/// LRU for the compile pipeline's bursty, phase-local reuse). Evicted
/// entries are tallied in [`CountCache::evictions`]. The cache also
/// aggregates the per-strategy tallies of every component it counted,
/// surfaced through [`CountCache::symbolic`] / [`CountCache::enumerated`].
#[derive(Debug, Clone)]
pub struct CountCache {
    memo: Memo,
    key_buf: KeyBuf,
    symbolic: u64,
    enumerated: u64,
    parallel_splits: u64,
}

/// The map of a [`CountCache`] with its lookup tallies and capacity guard.
#[derive(Debug, Clone, Default)]
struct Memo {
    map: HashMap<Vec<i64>, i128>,
    hits: u64,
    misses: u64,
    evictions: u64,
    capacity: usize,
}

impl Memo {
    /// Looks `key` up (a `Vec<i64>` key hashes as its slice), tallying a
    /// hit or a miss.
    fn get(&mut self, key: &[i64]) -> Option<i128> {
        let c = self.map.get(key).copied();
        self.hits += u64::from(c.is_some());
        self.misses += u64::from(c.is_none());
        c
    }

    /// Inserts `key → c`, clearing a full map first.
    fn store(&mut self, key: &[i64], c: i128) {
        if self.map.len() >= self.capacity {
            self.evictions += self.map.len() as u64;
            self.map.clear();
        }
        self.map.insert(key.to_vec(), c);
    }
}

impl Default for CountCache {
    fn default() -> Self {
        CountCache::with_capacity(CountCache::DEFAULT_CAPACITY)
    }
}

impl CountCache {
    /// Default entry bound: far above what one multi-program compile
    /// session produces (the full large suite stays in the low thousands),
    /// yet small enough to keep worst-case memory in the tens of MiB.
    pub const DEFAULT_CAPACITY: usize = 32_768;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        CountCache::default()
    }

    /// An empty cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        CountCache {
            memo: Memo {
                capacity,
                ..Memo::default()
            },
            key_buf: KeyBuf::default(),
            symbolic: 0,
            enumerated: 0,
            parallel_splits: 0,
        }
    }

    /// Starts a count question over `n` variables, written row by row
    /// into the cache's own buffer: a hit builds nothing.
    pub fn question(&mut self, n: usize) -> CountQuestion<'_> {
        self.key_buf.n = n;
        self.key_buf.rows.clear();
        CountQuestion { cache: self }
    }

    /// Lookups (whole questions and components) answered from the cache.
    pub fn hits(&self) -> u64 {
        self.memo.hits
    }

    /// Lookups (whole questions and components) that found no entry.
    pub fn misses(&self) -> u64 {
        self.memo.misses
    }

    /// Number of cached entries (whole questions and components).
    pub fn len(&self) -> usize {
        self.memo.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.memo.map.is_empty()
    }

    /// Entries discarded by the capacity guard so far.
    pub fn evictions(&self) -> u64 {
        self.memo.evictions
    }

    /// Coupled components resolved by the closed-form symbolic layer
    /// across all misses computed through this cache.
    pub fn symbolic(&self) -> u64 {
        self.symbolic
    }

    /// Coupled components that fell back to the recursive enumerator
    /// across all misses computed through this cache.
    pub fn enumerated(&self) -> u64 {
        self.enumerated
    }

    /// Symbolic regions fanned out across the worker pool across all
    /// misses computed through this cache.
    pub fn parallel_splits(&self) -> u64 {
        self.parallel_splits
    }

    /// Counts the question in the key buffer after its whole key missed:
    /// per component, or whole (the uncached path, which reports a
    /// variable in no row as unbounded) when there is one component or a
    /// variable is in no row.
    fn count_factored(&mut self, limit: CountLimit, ctx: &mut Ctx) -> Result<i128> {
        let CountCache {
            memo, key_buf: b, ..
        } = self;
        let (n, width) = (b.n, b.n + 2);
        let rows = || b.rows.chunks_exact(width);
        if rows().any(|r| row_is_constant(r, n) && !row_constant_ok(r, n)) {
            return Ok(0);
        }
        label_components(rows().map(|r| &r[..n]), |_| true, n, &mut b.label);
        let label = &b.label;
        let free = (0..n).any(|v| rows().all(|r| r[v] == 0));
        if free || (n > 1 && (1..n).all(|v| label[v] == 0)) {
            return count_in(System::from_rows(n, &b.rows), ctx);
        }
        // The count is the product over components, in order of their
        // smallest variable; a one-variable component is counted from its
        // bounds and never stored (a daemon session would keep thousands).
        let mut total: i128 = 1;
        for r in (0..n).filter(|&v| label[v] == v) {
            let cols = || (r..n).filter(move |&v| label[v] == r);
            let in_part = |row: &&[i64]| row[..n].iter().position(|&c| c != 0).map(|f| label[f]);
            let k = cols().count();
            let c = if k == 1 {
                count_single(&b.rows, n, r)?
            } else {
                b.part_rows.clear();
                for row in rows().filter(|row| in_part(row) == Some(r)) {
                    b.part_rows.extend(cols().map(|v| row[v]));
                    b.part_rows.extend_from_slice(&row[n..]);
                }
                canonical_key(&b.part_rows, k, limit, &mut b.order, &mut b.part_key);
                if let Some(c) = memo.get(&b.part_key) {
                    c
                } else {
                    let c = count_in(System::from_rows(k, &b.part_rows), ctx).map_err(|e| {
                        let Error::Unbounded { var } = e else {
                            return e;
                        };
                        Error::Unbounded {
                            var: cols().nth(var).unwrap_or(r),
                        }
                    })?;
                    memo.store(&b.part_key, c);
                    c
                }
            };
            total = total.checked_mul(c).ok_or(Error::Overflow)?;
            if total == 0 {
                return Ok(0);
            }
        }
        Ok(total)
    }
}

/// A count question being written into a [`CountCache`] (see
/// [`CountCache::question`]).
#[derive(Debug)]
pub struct CountQuestion<'a> {
    cache: &'a mut CountCache,
}

impl CountQuestion<'_> {
    /// Appends the row `c_0·x_0 + … + c_{n-1}·x_{n-1} + constant >= 0` and
    /// returns its words `[c_0, …, c_{n-1}, constant]`, zeroed, to fill in.
    pub fn ge0(&mut self) -> &mut [i64] {
        self.cache.key_buf.push_row(KIND_GE)
    }

    /// Counts the question's integer points: the whole key first (a hit
    /// counts nothing), then its components (see [`CountCache`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unbounded`] if a variable has no finite range,
    /// [`Error::SearchBudgetExceeded`] when `limit` runs out, and
    /// [`Error::Overflow`] if the count does not fit.
    pub fn count(self, limit: CountLimit) -> Result<i128> {
        let cache = self.cache;
        let b = &mut cache.key_buf;
        canonical_key(&b.rows, b.n, limit, &mut b.order, &mut b.key);
        if let Some(c) = cache.memo.get(&b.key) {
            return Ok(c);
        }
        let mut ctx = Ctx {
            budget: Budget::with_limit(limit.0),
            allow_symbolic: true,
            stats: StrategyStats::default(),
        };
        let c = cache.count_factored(limit, &mut ctx);
        cache.symbolic += ctx.stats.symbolic;
        cache.enumerated += ctx.stats.enumerated;
        cache.parallel_splits += ctx.stats.parallel_splits;
        c.inspect(|&c| cache.memo.store(&cache.key_buf.key, c))
    }
}

/// Labels each variable `active` says to label with the smallest variable
/// of its connected component over the rows' coefficient parts (others get
/// `usize::MAX`).
fn label_components<'r>(
    rows: impl Iterator<Item = &'r [i64]>,
    active: impl Fn(usize) -> bool,
    n: usize,
    label: &mut Vec<usize>,
) {
    label.clear();
    label.extend((0..n).map(|v| if active(v) { v } else { usize::MAX }));
    for coeffs in rows {
        let mut first = None;
        for v in (0..n).filter(|&v| coeffs[v] != 0) {
            match (first, label[v]) {
                (_, usize::MAX) => {}
                (None, _) => first = Some(v),
                (Some(f), _) => {
                    let (ra, rb) = (find(label, f), find(label, v));
                    label[ra.max(rb)] = ra.min(rb);
                }
            }
        }
    }
    for v in 0..n {
        if label[v] != usize::MAX {
            label[v] = find(label, v);
        }
    }
}

/// Union-find root of `v` (path halving).
fn find(parent: &mut [usize], mut v: usize) -> usize {
    while parent[v] != v {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    v
}

/// Counts the values of variable `v` allowed by the rows (`n + 2` words
/// each) when no row couples it to another variable.
fn count_single(rows: &[i64], n: usize, v: usize) -> Result<i128> {
    let (mut lo, mut hi) = (None::<i64>, None::<i64>);
    for row in rows.chunks_exact(n + 2).filter(|row| row[v] != 0) {
        // a·x + k >= 0, or == 0 for an equality.
        let (a, k) = (row[v], row[n]);
        let (l, h) = match (row[n + 1] == KIND_EQ, a > 0) {
            (true, _) if k % a != 0 => return Ok(0),
            (true, _) => (Some(-k / a), Some(-k / a)),
            (false, true) => (Some(ceil_div(-k, a)), None),
            (false, false) => (None, Some(floor_div(k, -a))),
        };
        lo = lo.max(l);
        hi = match (hi, h) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
    }
    match (lo, hi) {
        (Some(l), Some(h)) => Ok((i128::from(h) - i128::from(l) + 1).max(0)),
        _ => Err(Error::Unbounded { var: v }),
    }
}

/// Counts a basic set with determined divs through the cache.
pub(crate) fn count_basic_cached(
    set: &BasicSet,
    limit: CountLimit,
    cache: &mut CountCache,
) -> Result<i128> {
    let q = cache.question(set.n_total());
    for c in set.constraints() {
        q.cache.key_buf.push(c);
    }
    q.count(limit)
}

fn count_rec(mut sys: System, active: &[usize], ctx: &mut Ctx) -> Result<i128> {
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
    if !sys.constant_rows_ok() {
        return Ok(0);
    }
    if remaining.is_empty() {
        return Ok(1);
    }
    // Eliminate equality-defined variables (they are functions of the
    // rest, so the point count over the remaining variables is unchanged)
    // and refute negated-pair contradictions that intervals cannot see.
    sys.gauss_eliminate(&mut remaining);
    if !sys.negated_pair_consistent() {
        return Ok(0);
    }
    if remaining.is_empty() {
        return Ok(1);
    }
    let Some(mut iv) = sys.propagate(&mut ctx.budget)? else {
        return Ok(0);
    };
    // Eliminate floor-defined variables (tile iterators, determined divs):
    // also functions of the rest, and what keeps a tiled domain out of the
    // symbolic fragment. The enumerating oracle stays a pure enumerator.
    if ctx.allow_symbolic {
        ctx.budget.tick(remaining.len() as u64)?;
        if sys.eliminate_floor_vars(&mut remaining, &iv) {
            match sys.propagate(&mut ctx.budget)? {
                Some(again) => iv = again,
                None => return Ok(0),
            }
        }
    }

    // Partition remaining variables into connected components.
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
    sys: &System,
    comp: &[usize],
    iv: &[crate::basic::Interval],
    ctx: &mut Ctx,
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
    // Restrict to the component's constraints (constraints touching only
    // fixed or other-component variables are irrelevant here), filtered
    // once per recursion through a bitmap.
    let mut in_comp = vec![false; sys.n];
    for &v in comp {
        in_comp[v] = true;
    }
    let sub = sys.filtered(|row| {
        row[..sys.n]
            .iter()
            .enumerate()
            .any(|(i, &c)| c != 0 && in_comp[i])
    });

    // First choice: the closed-form symbolic layer. It either answers
    // exactly (size-independent work) or declines, in which case the
    // verified enumerating fallback below takes over.
    if ctx.allow_symbolic {
        if let Some((c, splits)) = polysum::try_count_with_stats(&sub, comp) {
            ctx.stats.symbolic += 1;
            ctx.stats.parallel_splits += splits;
            ctx.budget.tick(comp.len() as u64)?;
            return Ok(c);
        }
    }
    ctx.stats.enumerated += 1;

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
    // Each branch clones the component's flat system (usually an inline
    // memcpy), substitutes the branch value in place, decides constant
    // rows on the spot — contradictory branches cost no recursive call —
    // and compacts satisfied constants away before recursing.
    let n = sys.n;
    'branch: for x in lo..=hi {
        ctx.budget.tick(1)?;
        let mut child = sub.clone();
        child.substitute(var, x);
        if !child.constant_rows_ok() {
            continue 'branch;
        }
        child.retain_rows(|row| !row_is_constant(row, n));
        total = total
            .checked_add(count_rec(child, &rest, ctx)?)
            .ok_or(Error::Overflow)?;
    }
    Ok(total)
}

/// The connected components of `vars` in the variable-interaction graph
/// of `sys`, each sorted, in order of their smallest variable.
fn connected_components(sys: &System, vars: &[usize]) -> Vec<Vec<usize>> {
    let mut label = Vec::new();
    let rows = (0..sys.n_rows()).map(|r| sys.coeffs(r));
    label_components(rows, |v| vars.contains(&v), sys.n, &mut label);
    let mut out: Vec<Vec<usize>> = Vec::new();
    for v in (0..sys.n).filter(|&v| label[v] != usize::MAX) {
        match out.iter_mut().find(|g| g[0] == label[v]) {
            Some(g) => g.push(v),
            None => out.push(vec![v]),
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{BasicSet, LinExpr, Space};

    fn count(b: &BasicSet) -> i128 {
        count_system(&b.system(), CountLimit::default()).unwrap()
    }

    #[test]
    fn count_box() {
        let mut b = BasicSet::universe(Space::set(0, 3));
        b.add_range(0, 0, 9);
        b.add_range(1, 0, 4);
        b.add_range(2, 3, 7);
        assert_eq!(count(&b), 10 * 5 * 5);
    }

    #[test]
    fn count_triangle() {
        // { [i,j] : 0 <= i < 10, 0 <= j <= i } => 55
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 9);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
        assert_eq!(count(&b), 55);
    }

    #[test]
    fn count_empty() {
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 5);
        b.add_ge0(LinExpr::var(0) - LinExpr::constant(10));
        assert_eq!(count(&b), 0);
    }

    #[test]
    fn count_with_divs() {
        // { [i] : 0 <= i < 100, i mod 4 == 0 } => 25
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 99);
        let q = b.add_div(LinExpr::var(0), 4);
        b.add_eq(LinExpr::var(0) - LinExpr::var(q) * 4);
        assert_eq!(count(&b), 25);
    }

    #[test]
    fn count_tiled_domain() {
        // Tiled 1-D loop: { [t, i] : 0 <= i < 100, 32t <= i < 32t+32, t >= 0, t <= 3 }
        // Every i has exactly one t => 100 points.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(1, 0, 99);
        b.add_range(0, 0, 3);
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0) * 32);
        b.add_ge0(LinExpr::var(0) * 32 + LinExpr::constant(31) - LinExpr::var(1));
        assert_eq!(count(&b), 100);
    }

    #[test]
    fn components_factor_large_boxes() {
        // A 6-D box with extents 64 each: 64^6 ~ 6.9e10 — must count in
        // closed form via factoring, far under the budget.
        let mut b = BasicSet::universe(Space::set(0, 6));
        for d in 0..6 {
            b.add_range(d, 0, 63);
        }
        let c = count_system(&b.system(), CountLimit(10_000)).unwrap();
        assert_eq!(c, 64i128.pow(6));
    }

    #[test]
    fn budget_exceeded_reported() {
        // A coupled 3-D set counted with the symbolic layer disabled: the
        // enumerator genuinely needs per-point work, so a tiny budget must
        // surface as a reported error.
        let mut b = BasicSet::universe(Space::set(0, 3));
        for d in 0..3 {
            b.add_range(d, 0, 999);
        }
        b.add_ge0(LinExpr::var(0) + LinExpr::var(1) + LinExpr::var(2) - LinExpr::constant(1));
        match count_basic_enumerative(&b, CountLimit(50)) {
            Err(Error::SearchBudgetExceeded { .. }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_equality() {
        // { [i,j] : 0<=i<10, 0<=j<10, i == j } => 10
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 9);
        b.add_range(1, 0, 9);
        b.add_eq(LinExpr::var(0) - LinExpr::var(1));
        assert_eq!(count(&b), 10);
    }

    #[test]
    fn symbolic_strategy_resolves_triangle() {
        // The coupled triangle must be answered by the closed-form layer,
        // with no component falling back to enumeration.
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 9);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
        let (c, stats) = count_system_with_stats(&b.system(), CountLimit::default(), true).unwrap();
        assert_eq!(c, 55);
        assert!(stats.symbolic >= 1);
        assert_eq!(stats.enumerated, 0);
    }

    #[test]
    fn symbolic_makes_huge_triangles_cheap() {
        // { [i,j] : 0 <= i < N, 0 <= j <= i } at N = 1e6: enumeration would
        // need ~1e6 steps; the symbolic path answers within a tiny budget.
        let n = 1_000_000i64;
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, n - 1);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
        let c = count_system(&b.system(), CountLimit(10_000)).unwrap();
        assert_eq!(c, (n as i128) * (n as i128 + 1) / 2);
    }

    #[test]
    fn out_of_fragment_component_falls_back() {
        // 3i - 2j == 0 couples both variables with non-unit coefficients,
        // which the symbolic fragment refuses; the enumerator must answer
        // with the identical count (multiples of (2,3) in the box: 17).
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 32);
        b.add_range(1, 0, 99);
        b.add_eq(LinExpr::var(0) * 3 - LinExpr::var(1) * 2);
        let (c, stats) = count_system_with_stats(&b.system(), CountLimit::default(), true).unwrap();
        assert_eq!(c, 17);
        assert!(stats.enumerated >= 1);
        let (c_enum, _) =
            count_system_with_stats(&b.system(), CountLimit::default(), false).unwrap();
        assert_eq!(c_enum, c);
    }

    /// Appends Pluto's tile coupling `tile·t <= x < tile·t + tile` with the
    /// constant tile-loop range `lo <= t <= hi`.
    fn tile(b: &mut BasicSet, t: usize, x: usize, (lo, hi): (i64, i64)) {
        b.add_range(t, lo, hi);
        b.add_ge0(LinExpr::var(x) - LinExpr::var(t) * 32);
        b.add_ge0(LinExpr::var(t) * 32 + LinExpr::constant(31) - LinExpr::var(x));
    }

    /// `lu_update` at `large` after Pluto: `0 <= k < 500`, `k < i, j < 500`,
    /// every dim tiled by 32 (vars: Tk, Ti, Tj, k, i, j).
    fn tiled_lu_update() -> BasicSet {
        let mut b = BasicSet::universe(Space::set(0, 6));
        b.add_range(3, 0, 499);
        tile(&mut b, 0, 3, (0, 15));
        for (t, x) in [(1, 4), (2, 5)] {
            b.add_ge0(LinExpr::var(x) - LinExpr::var(3) - LinExpr::constant(1));
            b.add_ge0(LinExpr::constant(499) - LinExpr::var(x));
            tile(&mut b, t, x, (0, 15));
        }
        b
    }

    #[test]
    fn tiled_triangular_prism_counts_in_closed_form() {
        // Σ_{k<500} (499-k)² with no component enumerated and no region
        // fanned out: the tile iterators are floors of the point iterators.
        let sys = tiled_lu_update().system();
        let (c, stats) = count_system_with_stats(&sys, CountLimit::default(), true).unwrap();
        assert_eq!(c, 41_541_750);
        assert_eq!((stats.enumerated, stats.parallel_splits), (0, 0));
    }

    /// heat-3d at `large` after skew + tiling: `0 <= t < 20`,
    /// `t < x < t + 99` for three skewed space dims, all four tiled
    /// (vars: Tt, T1..T3, t, x1..x3) — 20·98³ points.
    pub(crate) fn skewed_tiled_heat3d() -> BasicSet {
        let mut b = BasicSet::universe(Space::set(0, 8));
        b.add_range(4, 0, 19);
        tile(&mut b, 0, 4, (0, 0));
        for d in 1..4 {
            let x = 4 + d;
            b.add_ge0(LinExpr::var(x) - LinExpr::var(4) - LinExpr::constant(1));
            b.add_ge0(LinExpr::var(4) + LinExpr::constant(98) - LinExpr::var(x));
            tile(&mut b, d, x, (0, 3));
        }
        b
    }

    #[test]
    fn skewed_tiled_stencil_counts_in_closed_form() {
        let sys = skewed_tiled_heat3d().system();
        let (c, stats) = count_system_with_stats(&sys, CountLimit::default(), true).unwrap();
        assert_eq!(c, 20 * 98 * 98 * 98);
        assert_eq!((stats.enumerated, stats.parallel_splits), (0, 0));
    }

    #[test]
    fn enumerative_oracle_does_not_eliminate_floors() {
        // The same system with the symbolic layer off: tile iterators are
        // branched over, not eliminated — the oracle stays a pure
        // enumerator — and the count agrees.
        let sys = tiled_lu_update().system();
        let (c, stats) = count_system_with_stats(&sys, CountLimit::default(), false).unwrap();
        assert_eq!(c, 41_541_750);
        assert!(stats.enumerated >= 1);
        assert_eq!(stats.symbolic, 0);
    }

    #[test]
    fn enumerative_oracle_matches_default_path() {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 19);
        b.add_range(1, 0, 19);
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1) + LinExpr::constant(3));
        assert_eq!(
            count_basic_enumerative(&b, CountLimit::default()).unwrap(),
            count(&b)
        );
    }

    #[test]
    fn count_key_names_the_solution_set() {
        use crate::Constraint;
        let (i, j) = (LinExpr::var(0), LinExpr::var(1));
        let lo = Constraint::ge0(i.clone() - LinExpr::constant(1));
        let hi = Constraint::ge0(LinExpr::constant(10) - i.clone() - j.clone());
        let diag = Constraint::eq(i.clone() - j.clone() - LinExpr::constant(2));
        let flipped = Constraint::eq(j.clone() - i.clone() + LinExpr::constant(2));
        let as_ge = Constraint::ge0(i.clone() - j.clone() - LinExpr::constant(2));
        let shifted = Constraint::eq(i - j - LinExpr::constant(3));
        let key = |n: usize, limit: u64, rows: &[&Constraint]| {
            let mut buf = KeyBuf {
                n,
                ..KeyBuf::default()
            };
            for &c in rows {
                buf.push(c);
            }
            let mut key = Vec::new();
            canonical_key(&buf.rows, n, CountLimit(limit), &mut buf.order, &mut key);
            key
        };
        let base = key(2, 100, &[&lo, &hi, &diag]);
        // Row order, a repeated row and an equality's sign do not matter.
        assert_eq!(key(2, 100, &[&hi, &diag, &lo]), base);
        assert_eq!(key(2, 100, &[&lo, &hi, &lo, &diag]), base);
        assert_eq!(key(2, 100, &[&lo, &hi, &flipped]), base);
        // The variable count, the limit, a row's kind and its constant do.
        assert_ne!(key(3, 100, &[&lo, &hi, &diag]), base);
        assert_ne!(key(2, 101, &[&lo, &hi, &diag]), base);
        assert_ne!(key(2, 100, &[&lo, &hi, &as_ge]), base);
        assert_ne!(key(2, 100, &[&lo, &hi, &shifted]), base);
    }

    #[test]
    fn cache_capacity_guard_evicts() {
        let mut cache = CountCache::with_capacity(2);
        for extent in [3i64, 4, 5] {
            let mut b = BasicSet::universe(Space::set(0, 1));
            b.add_range(0, 0, extent);
            let c = count_basic_cached(&b, CountLimit::default(), &mut cache).unwrap();
            assert_eq!(c, (extent + 1) as i128);
        }
        // Third insert hits the bound: the map is cleared (2 evictions)
        // before the new entry lands.
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 1);
        // Evicted entries recount as misses, with unchanged values.
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 3);
        let c = count_basic_cached(&b, CountLimit::default(), &mut cache).unwrap();
        assert_eq!(c, 4);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn cache_aggregates_strategy_tallies() {
        let mut cache = CountCache::new();
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 9);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
        count_basic_cached(&b, CountLimit::default(), &mut cache).unwrap();
        count_basic_cached(&b, CountLimit::default(), &mut cache).unwrap();
        assert_eq!(cache.hits(), 1);
        assert!(cache.symbolic() >= 1);
        assert_eq!(cache.enumerated(), 0);
    }
}
