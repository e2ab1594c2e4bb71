//! Integer relations (maps) built from the same constraint language as
//! sets, with composition, inversion, domain/range operations, and an
//! explicit lexicographic-minimum solver.

use std::fmt;

use crate::basic::{BasicSet, Div};
use crate::error::{Error, Result};
use crate::linexpr::LinExpr;
use crate::set::Set;
use crate::space::Space;
use crate::Constraint;

/// A single-disjunct integer relation `{ [x] -> [y] : constraints }`.
#[derive(Debug, Clone)]
pub struct BasicMap {
    inner: BasicSet,
}

impl BasicMap {
    /// The universe relation of a map space.
    ///
    /// # Panics
    ///
    /// Panics if `space` is a set space.
    pub fn universe(space: Space) -> Self {
        assert!(!space.is_set() || space.n_out() == 0, "map space expected");
        BasicMap {
            inner: BasicSet::universe(space),
        }
    }

    /// Builds the map `{ [x] -> [y] : y_j == exprs[j](params, x) }`,
    /// the common shape of array access and schedule maps.
    pub fn from_affine_exprs(n_param: usize, n_in: usize, exprs: &[LinExpr]) -> Self {
        let space = Space::map(n_param, n_in, exprs.len());
        let mut m = BasicMap::universe(space.clone());
        for (j, e) in exprs.iter().enumerate() {
            // e is over [params, in]; layout matches the map's prefix.
            let out_var = LinExpr::var(space.out_offset() + j);
            m.inner.add_eq(out_var - e.clone());
        }
        m
    }

    /// The identity map on `d` dimensions.
    pub fn identity(n_param: usize, d: usize) -> Self {
        let exprs: Vec<LinExpr> = (0..d).map(|i| LinExpr::var(n_param + i)).collect();
        BasicMap::from_affine_exprs(n_param, d, &exprs)
    }

    /// The space.
    pub fn space(&self) -> &Space {
        self.inner.space()
    }

    /// Immutable view of the underlying constraint set.
    pub fn as_basic_set(&self) -> &BasicSet {
        &self.inner
    }

    /// Mutable access for adding constraints over the flat layout
    /// `[params, in, out, divs]`.
    pub fn basic_set_mut(&mut self) -> &mut BasicSet {
        &mut self.inner
    }

    /// Wraps a basic set whose space is a map space.
    pub fn from_basic_set(inner: BasicSet) -> Self {
        BasicMap { inner }
    }

    /// Reverses the relation: `{ [y] -> [x] }`.
    pub fn reverse(&self) -> BasicMap {
        let sp = self.inner.space().clone();
        let (np, ni, no) = (sp.n_param(), sp.n_in(), sp.n_out());
        let n_total = self.inner.n_total();
        let mut perm = vec![0usize; n_total];
        for (p, item) in perm.iter_mut().enumerate().take(np) {
            *item = p;
        }
        for i in 0..ni {
            perm[np + i] = np + no + i;
        }
        for o in 0..no {
            perm[np + ni + o] = np + o;
        }
        for d in 0..self.inner.divs().len() {
            perm[np + ni + no + d] = np + ni + no + d;
        }
        let inner = self.inner.clone().permute(&perm, sp.reversed());
        BasicMap { inner }
    }

    /// Composition `other ∘ self`: first apply `self`, then `other`.
    /// `self: X -> Y`, `other: Y -> Z`, result `X -> Z`. The mid tuple
    /// becomes undetermined existentials.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if `self`'s range arity differs
    /// from `other`'s domain arity or parameter counts differ.
    pub fn apply_range(&self, other: &BasicMap) -> Result<BasicMap> {
        let sa = self.inner.space().clone();
        let sb = other.inner.space().clone();
        if sa.n_out() != sb.n_in() || sa.n_param() != sb.n_param() {
            return Err(Error::SpaceMismatch {
                expected: format!("[{}] -> [..]", sa.n_out()),
                found: format!("[{}] -> [..]", sb.n_in()),
            });
        }
        let (np, nx, ny, nz) = (sa.n_param(), sa.n_in(), sa.n_out(), sb.n_out());
        let (nda, ndb) = (self.inner.divs().len(), other.inner.divs().len());
        let space = Space::map(np, nx, nz);
        let mut out = BasicSet::universe(space.clone());
        // Result layout: [p(np), x(nx), z(nz), y(ny), da(nda), db(ndb)].
        // y-block divs (undetermined):
        for _ in 0..ny {
            out.push_div_raw(Div { def: None });
        }
        let y_base = np + nx + nz;
        let da_base = y_base + ny;
        let db_base = da_base + nda;
        // Permutation for a's vars: [p, x, y, da] -> result indices.
        let mut perm_a = vec![0usize; np + nx + ny + nda];
        for (p, item) in perm_a.iter_mut().enumerate().take(np) {
            *item = p;
        }
        for i in 0..nx {
            perm_a[np + i] = np + i;
        }
        for j in 0..ny {
            perm_a[np + nx + j] = y_base + j;
        }
        for k in 0..nda {
            perm_a[np + nx + ny + k] = da_base + k;
        }
        // Permutation for b's vars: [p, y, z, db] -> result indices.
        let mut perm_b = vec![0usize; np + ny + nz + ndb];
        for (p, item) in perm_b.iter_mut().enumerate().take(np) {
            *item = p;
        }
        for j in 0..ny {
            perm_b[np + j] = y_base + j;
        }
        for m in 0..nz {
            perm_b[np + ny + m] = np + nx + m;
        }
        for k in 0..ndb {
            perm_b[np + ny + nz + k] = db_base + k;
        }
        // Divs of a and b: keep definitions unless they reference an
        // undetermined (y-block or previously demoted) variable.
        let mut undet: Vec<usize> = (y_base..y_base + ny).collect();
        for (k, d) in self.inner.divs().iter().enumerate() {
            let new_def = d.def.as_ref().and_then(|(n, den)| {
                let n = n.permute_vars(&perm_a);
                if n.terms().any(|(i, _)| undet.contains(&i)) {
                    None
                } else {
                    Some((n, *den))
                }
            });
            if new_def.is_none() {
                undet.push(da_base + k);
            }
            out.push_div_raw(Div { def: new_def });
        }
        for (k, d) in other.inner.divs().iter().enumerate() {
            let new_def = d.def.as_ref().and_then(|(n, den)| {
                let n = n.permute_vars(&perm_b);
                if n.terms().any(|(i, _)| undet.contains(&i)) {
                    None
                } else {
                    Some((n, *den))
                }
            });
            if new_def.is_none() {
                undet.push(db_base + k);
            }
            out.push_div_raw(Div { def: new_def });
        }
        for c in self.inner.constraints() {
            out.add_constraint(Constraint {
                expr: c.expr.permute_vars(&perm_a),
                kind: c.kind,
            });
        }
        for c in other.inner.constraints() {
            out.add_constraint(Constraint {
                expr: c.expr.permute_vars(&perm_b),
                kind: c.kind,
            });
        }
        Ok(BasicMap { inner: out })
    }

    /// The domain of the relation as a set (outputs projected out).
    pub fn domain(&self) -> BasicSet {
        let sp = self.inner.space();
        let (np, ni, no) = (sp.n_param(), sp.n_in(), sp.n_out());
        let as_set = self.inner.clone().recast(Space::set(np, ni + no));
        as_set.project_dims_out(ni, no)
    }

    /// The range of the relation as a set (inputs projected out).
    pub fn range(&self) -> BasicSet {
        let sp = self.inner.space();
        let (np, ni, no) = (sp.n_param(), sp.n_in(), sp.n_out());
        let as_set = self.inner.clone().recast(Space::set(np, ni + no));
        as_set.project_dims_out(0, ni).recast(Space::set(np, no))
    }

    /// Intersects the domain with a set over the input space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] on arity mismatch.
    pub fn intersect_domain(&self, dom: &BasicSet) -> Result<BasicMap> {
        self.embed_intersect(dom, true)
    }

    /// Intersects the range with a set over the output space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] on arity mismatch.
    pub fn intersect_range(&self, rng: &BasicSet) -> Result<BasicMap> {
        self.embed_intersect(rng, false)
    }

    fn embed_intersect(&self, s: &BasicSet, on_domain: bool) -> Result<BasicMap> {
        let sp = self.inner.space().clone();
        let (np, ni, no) = (sp.n_param(), sp.n_in(), sp.n_out());
        let want = if on_domain { ni } else { no };
        if s.space().n_dim() != want || s.space().n_param() != np {
            return Err(Error::SpaceMismatch {
                expected: format!("set of {want} dims"),
                found: format!("set of {} dims", s.space().n_dim()),
            });
        }
        let mut out = self.inner.clone();
        let div_base = out.n_total();
        // Map s's vars [p, dims, divs_s] into the map layout.
        let mut perm = vec![0usize; s.n_total()];
        for (p, item) in perm.iter_mut().enumerate().take(np) {
            *item = p;
        }
        let dim_base = if on_domain { np } else { np + ni };
        for d in 0..want {
            perm[np + d] = dim_base + d;
        }
        for k in 0..s.divs().len() {
            perm[np + want + k] = div_base + k;
        }
        for d in s.divs() {
            out.push_div_raw(Div {
                def: d.def.as_ref().map(|(n, den)| (n.permute_vars(&perm), *den)),
            });
        }
        for c in s.constraints() {
            out.add_constraint(Constraint {
                expr: c.expr.permute_vars(&perm),
                kind: c.kind,
            });
        }
        Ok(BasicMap { inner: out })
    }

    /// Intersection with another relation over the same space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the spaces differ.
    pub fn intersect(&self, other: &BasicMap) -> Result<BasicMap> {
        Ok(BasicMap {
            inner: self.inner.intersect(&other.inner)?,
        })
    }

    /// A concrete `(x, y)` pair in the relation, if one exists — the
    /// witness-extraction primitive for dependence analysis: a nonempty
    /// dependence relation yields an actual conflicting iteration pair.
    ///
    /// # Errors
    ///
    /// Propagates solver budget errors.
    pub fn sample_pair(&self) -> Result<Option<(Vec<i64>, Vec<i64>)>> {
        let sp = self.inner.space();
        let (np, ni, no) = (sp.n_param(), sp.n_in(), sp.n_out());
        Ok(self
            .inner
            .sample()?
            .map(|v| (v[np..np + ni].to_vec(), v[np + ni..np + ni + no].to_vec())))
    }

    /// [`BasicMap::sample_pair`] through a batched [`crate::Context`],
    /// reusing its solver arena (the relation was typically just checked
    /// non-empty in the same batch).
    ///
    /// # Errors
    ///
    /// Propagates solver budget errors.
    pub fn sample_pair_in(&self, ctx: &mut crate::Context) -> Result<Option<(Vec<i64>, Vec<i64>)>> {
        let sp = self.inner.space();
        let (np, ni, no) = (sp.n_param(), sp.n_in(), sp.n_out());
        Ok(ctx
            .sample(self.as_basic_set())?
            .map(|v| (v[np..np + ni].to_vec(), v[np + ni..np + ni + no].to_vec())))
    }

    /// For a relation with equal input/output arity `d`, the set of
    /// differences `{ y - x : (x -> y) in self }` (exact; the original
    /// tuples become existentials).
    pub fn deltas(&self) -> BasicSet {
        let sp = self.inner.space();
        let (np, d) = (sp.n_param(), sp.n_in());
        assert_eq!(sp.n_in(), sp.n_out(), "deltas requires equal arities");
        // Target layout: [p, delta(d), x(d), y(d), divs...].
        let n_old = self.inner.n_total();
        let mut perm = vec![0usize; n_old];
        for (p, item) in perm.iter_mut().enumerate().take(np) {
            *item = p;
        }
        for i in 0..d {
            perm[np + i] = np + d + i; // x
            perm[np + d + i] = np + 2 * d + i; // y
        }
        for k in 0..self.inner.divs().len() {
            perm[np + 2 * d + k] = np + 3 * d + k;
        }
        let mut out = BasicSet::universe(Space::set(np, d));
        for i in 0..2 * d {
            let _ = i;
            out.push_div_raw(Div { def: None });
        }
        for dv in self.inner.divs() {
            // x/y became existentials: demote defs that reference them.
            let def = dv.def.as_ref().and_then(|(n, den)| {
                let n = n.permute_vars(&perm);
                if n.terms().any(|(i, _)| (np + d..np + 3 * d).contains(&i)) {
                    None
                } else {
                    Some((n, *den))
                }
            });
            out.push_div_raw(Div { def });
        }
        for c in self.inner.constraints() {
            out.add_constraint(Constraint {
                expr: c.expr.permute_vars(&perm),
                kind: c.kind,
            });
        }
        for i in 0..d {
            // delta_i == y_i - x_i
            out.add_eq(
                LinExpr::var(np + i) + LinExpr::var(np + d + i) - LinExpr::var(np + 2 * d + i),
            );
        }
        out
    }
}

impl fmt::Display for BasicMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.inner)
    }
}

/// A finite union of [`BasicMap`] disjuncts.
///
/// Like [`Set`], disjuncts are kept disjoint by [`Map::union`].
#[derive(Debug, Clone)]
pub struct Map {
    space: Space,
    basics: Vec<BasicMap>,
}

impl Map {
    /// The empty relation of a map space.
    pub fn empty(space: Space) -> Self {
        Map {
            space,
            basics: Vec::new(),
        }
    }

    /// Wraps a single basic map.
    pub fn from_basic(m: BasicMap) -> Self {
        Map {
            space: m.space().clone(),
            basics: vec![m],
        }
    }

    /// The space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The disjuncts.
    pub fn basics(&self) -> &[BasicMap] {
        &self.basics
    }

    fn to_set(&self) -> Set {
        let sp = Space::set(self.space.n_param(), self.space.n_dim());
        let mut s = Set::empty(sp.clone());
        for b in &self.basics {
            s = s
                .union_disjoint(&Set::from_basic(b.inner.clone().recast(sp.clone())))
                .expect("same space");
        }
        s
    }

    fn from_set(s: Set, space: Space) -> Map {
        let basics = s
            .basics()
            .iter()
            .map(|b| BasicMap {
                inner: b.clone().recast(space.clone()),
            })
            .collect();
        Map { space, basics }
    }

    /// Union preserving disjointness (requires determined divs in `self`).
    ///
    /// # Errors
    ///
    /// See [`Set::union`].
    pub fn union(&self, other: &Map) -> Result<Map> {
        let s = self.to_set().union(&other.to_set())?;
        Ok(Map::from_set(s, self.space.clone()))
    }

    /// Union without disjointness enforcement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the spaces differ.
    pub fn union_disjoint(&self, other: &Map) -> Result<Map> {
        if self.space != other.space {
            return Err(Error::SpaceMismatch {
                expected: self.space.to_string(),
                found: other.space.to_string(),
            });
        }
        let mut basics = self.basics.clone();
        basics.extend(other.basics.iter().cloned());
        Ok(Map {
            space: self.space.clone(),
            basics,
        })
    }

    /// Intersection.
    ///
    /// # Errors
    ///
    /// See [`Set::intersect`].
    pub fn intersect(&self, other: &Map) -> Result<Map> {
        let s = self.to_set().intersect(&other.to_set())?;
        Ok(Map::from_set(s, self.space.clone()))
    }

    /// Difference `self \ other`.
    ///
    /// # Errors
    ///
    /// See [`Set::subtract`].
    pub fn subtract(&self, other: &Map) -> Result<Map> {
        let s = self.to_set().subtract(&other.to_set())?;
        Ok(Map::from_set(s, self.space.clone()))
    }

    /// Composition `other ∘ self` over all disjunct pairs.
    ///
    /// # Errors
    ///
    /// See [`BasicMap::apply_range`].
    pub fn apply_range(&self, other: &Map) -> Result<Map> {
        let space = Space::map(self.space.n_param(), self.space.n_in(), other.space.n_out());
        let mut out = Map::empty(space);
        for a in &self.basics {
            for b in &other.basics {
                out.basics.push(a.apply_range(b)?);
            }
        }
        Ok(out)
    }

    /// Reversal of every disjunct.
    pub fn reverse(&self) -> Map {
        Map {
            space: self.space.reversed(),
            basics: self.basics.iter().map(BasicMap::reverse).collect(),
        }
    }

    /// Domain as a union set.
    pub fn domain(&self) -> Set {
        let sp = Space::set(self.space.n_param(), self.space.n_in());
        let mut s = Set::empty(sp.clone());
        for b in &self.basics {
            s = s
                .union_disjoint(&Set::from_basic(b.domain()))
                .expect("same space");
        }
        s
    }

    /// Range as a union set.
    pub fn range(&self) -> Set {
        let sp = Space::set(self.space.n_param(), self.space.n_out());
        let mut s = Set::empty(sp.clone());
        for b in &self.basics {
            s = s
                .union_disjoint(&Set::from_basic(b.range()))
                .expect("same space");
        }
        s
    }

    /// Counts the pairs in the relation (disjuncts must be disjoint).
    ///
    /// # Errors
    ///
    /// See [`Set::count`].
    pub fn count_pairs(&self) -> Result<i128> {
        self.to_set().count()
    }

    /// Counts the pairs in the relation through a batched [`crate::Context`],
    /// sharing its memoizing count cache across queries.
    ///
    /// # Errors
    ///
    /// See [`Set::count`].
    pub fn count_pairs_in(&self, ctx: &mut crate::Context) -> Result<i128> {
        ctx.count_set(&self.to_set())
    }

    /// Whether the relation is empty.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_empty(&self) -> Result<bool> {
        self.to_set().is_empty()
    }

    /// A concrete `(x, y)` pair from the first inhabited disjunct.
    ///
    /// # Errors
    ///
    /// See [`BasicMap::sample_pair`].
    pub fn sample_pair(&self) -> Result<Option<(Vec<i64>, Vec<i64>)>> {
        for b in &self.basics {
            if let Some(p) = b.sample_pair()? {
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Enumerates up to `max` pairs `(x, y)` in lexicographic order of the
    /// concatenated tuple.
    ///
    /// # Errors
    ///
    /// See [`Set::enumerate`].
    pub fn enumerate_pairs(&self, max: u64) -> Result<Vec<(Vec<i64>, Vec<i64>)>> {
        let ni = self.space.n_in();
        Ok(self
            .to_set()
            .enumerate(max)?
            .into_iter()
            .map(|p| (p[..ni].to_vec(), p[ni..].to_vec()))
            .collect())
    }

    /// Whether `self ⊆ other` as relations.
    ///
    /// # Errors
    ///
    /// See [`Set::subtract`] (requires determined divs in `other`).
    pub fn is_subset(&self, other: &Map) -> Result<bool> {
        self.to_set().is_subset(&other.to_set())
    }

    /// For each point of the (finite, enumerable) domain, the
    /// lexicographically smallest image point — the explicit analogue of
    /// isl's `lexmin`. Exact for any relation, intended for small exact
    /// analyses.
    ///
    /// # Errors
    ///
    /// Returns budget errors if the domain exceeds `max_domain` points.
    pub fn lexmin_explicit(&self, max_domain: u64) -> Result<Vec<(Vec<i64>, Vec<i64>)>> {
        let dom = self.domain();
        let points = dom.enumerate(max_domain)?;
        let np = self.space.n_param();
        let ni = self.space.n_in();
        let no = self.space.n_out();
        let mut out = Vec::with_capacity(points.len());
        for x in points {
            let mut best: Option<Vec<i64>> = None;
            for b in &self.basics {
                let mut bs = b.inner.clone();
                for (i, &v) in x.iter().enumerate() {
                    bs.fix_var(np + i, v);
                }
                if let Some(y) = lexmin_out(&bs, np + ni, no)? {
                    best = match best {
                        None => Some(y),
                        Some(cur) => Some(if y < cur { y } else { cur }),
                    };
                }
            }
            if let Some(y) = best {
                out.push((x, y));
            }
        }
        Ok(out)
    }
}

/// Sequentially minimizes the `no` variables starting at `base` within a
/// feasible basic set, returning the lexicographic minimum assignment of
/// those variables (or `None` if the set is empty).
fn lexmin_out(bs: &BasicSet, base: usize, no: usize) -> Result<Option<Vec<i64>>> {
    let mut cur = bs.clone();
    if cur.is_empty()? {
        return Ok(None);
    }
    let mut result = Vec::with_capacity(no);
    for k in 0..no {
        let var = base + k;
        // Propagated lower bound, then ascend to the first feasible value.
        let sys = cur.system();
        let mut budget = crate::basic::Budget::default();
        let Some(iv) = sys.propagate(&mut budget)? else {
            return Ok(None);
        };
        let Some(lo) = iv[var].lo else {
            return Err(Error::Unbounded { var });
        };
        let hi = iv[var].hi.ok_or(Error::Unbounded { var })?;
        let mut found = None;
        for v in lo..=hi {
            let mut probe = cur.clone();
            probe.fix_var(var, v);
            if !probe.is_empty()? {
                found = Some(v);
                cur = probe;
                break;
            }
        }
        match found {
            Some(v) => result.push(v),
            None => return Ok(None),
        }
    }
    Ok(Some(result))
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.basics.is_empty() {
            return write!(f, "{{ -> }}");
        }
        let parts: Vec<String> = self.basics.iter().map(|b| b.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `{ [i] -> [2i + 1] : 0 <= i < 10 }`
    fn affine_map() -> BasicMap {
        let mut m =
            BasicMap::from_affine_exprs(0, 1, &[LinExpr::var(0) * 2 + LinExpr::constant(1)]);
        m.basic_set_mut().add_range(0, 0, 9);
        m
    }

    /// Whether the relation holds for a concrete `(x ++ y)` tuple.
    fn holds(m: &BasicMap, pair: &[i64]) -> bool {
        m.as_basic_set().contains(pair).unwrap()
    }

    #[test]
    fn affine_map_contains() {
        let m = affine_map();
        assert!(holds(&m, &[3, 7]));
        assert!(!holds(&m, &[3, 6]));
        assert!(!holds(&m, &[10, 21]));
    }

    #[test]
    fn reverse_swaps() {
        let m = affine_map().reverse();
        assert!(holds(&m, &[7, 3]));
        assert!(!holds(&m, &[3, 7]));
    }

    #[test]
    fn composition() {
        // a: i -> 2i+1 (0<=i<10); b: j -> j+10. b∘a: i -> 2i+11.
        let a = affine_map();
        let mut b = BasicMap::from_affine_exprs(0, 1, &[LinExpr::var(0) + LinExpr::constant(10)]);
        b.basic_set_mut().add_range(0, 0, 100);
        let c = a.apply_range(&b).unwrap();
        let m = Map::from_basic(c);
        let pairs = m.enumerate_pairs(100).unwrap();
        assert_eq!(pairs.len(), 10);
        for (x, y) in pairs {
            assert_eq!(y[0], 2 * x[0] + 11);
        }
    }

    #[test]
    fn domain_and_range() {
        let m = Map::from_basic(affine_map());
        assert_eq!(m.domain().count().unwrap(), 10);
        let r = m.range();
        assert_eq!(r.count().unwrap(), 10);
        let pts = r.enumerate(100).unwrap();
        assert_eq!(pts[0], vec![1]);
        assert_eq!(pts[9], vec![19]);
    }

    #[test]
    fn count_pairs_matches() {
        let m = Map::from_basic(affine_map());
        assert_eq!(m.count_pairs().unwrap(), 10);
    }

    #[test]
    fn intersect_domain_restricts() {
        let m = affine_map();
        let mut dom = BasicSet::universe(Space::set(0, 1));
        dom.add_range(0, 2, 4);
        let r = Map::from_basic(m.intersect_domain(&dom).unwrap());
        assert_eq!(r.count_pairs().unwrap(), 3);
    }

    #[test]
    fn deltas_of_shift() {
        // { [i] -> [i+3] : 0<=i<5 } has deltas {3}.
        let mut m = BasicMap::from_affine_exprs(0, 1, &[LinExpr::var(0) + LinExpr::constant(3)]);
        m.basic_set_mut().add_range(0, 0, 4);
        let d = m.deltas();
        let s = Set::from_basic(d);
        let pts = s.enumerate(10).unwrap();
        assert_eq!(pts, vec![vec![3]]);
    }

    #[test]
    fn lexmin_explicit_picks_smallest() {
        // { [i] -> [j] : 0<=i<3, i <= j < 5 }: lexmin is j = i.
        let mut m = BasicMap::universe(Space::map(0, 1, 1));
        m.basic_set_mut().add_range(0, 0, 2);
        m.basic_set_mut().add_ge0(LinExpr::var(1) - LinExpr::var(0));
        m.basic_set_mut()
            .add_ge0(LinExpr::constant(4) - LinExpr::var(1));
        let lm = Map::from_basic(m).lexmin_explicit(100).unwrap();
        assert_eq!(lm.len(), 3);
        for (x, y) in lm {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn identity_map() {
        let id = BasicMap::identity(0, 2);
        assert!(holds(&id, &[1, 2, 1, 2]));
        assert!(!holds(&id, &[1, 2, 2, 1]));
    }

    #[test]
    fn subset_relations() {
        let mut small = BasicMap::universe(Space::map(0, 1, 1));
        small.basic_set_mut().add_range(0, 0, 3);
        small
            .basic_set_mut()
            .add_eq(LinExpr::var(0) - LinExpr::var(1));
        let mut big = BasicMap::universe(Space::map(0, 1, 1));
        big.basic_set_mut().add_range(0, 0, 3);
        big.basic_set_mut().add_range(1, 0, 3);
        let (s, b) = (Map::from_basic(small), Map::from_basic(big));
        assert!(s.is_subset(&b).unwrap());
        assert!(!b.is_subset(&s).unwrap());
        assert!(s.is_subset(&s).unwrap());
    }

    #[test]
    fn map_subtract() {
        // all pairs 0..3 x 0..3 minus identity: 12 pairs.
        let mut all = BasicMap::universe(Space::map(0, 1, 1));
        all.basic_set_mut().add_range(0, 0, 3);
        all.basic_set_mut().add_range(1, 0, 3);
        let mut id = BasicMap::universe(Space::map(0, 1, 1));
        id.basic_set_mut().add_range(0, 0, 3);
        id.basic_set_mut().add_eq(LinExpr::var(0) - LinExpr::var(1));
        let d = Map::from_basic(all).subtract(&Map::from_basic(id)).unwrap();
        assert_eq!(d.count_pairs().unwrap(), 12);
    }
}
