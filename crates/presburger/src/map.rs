//! Integer relations (maps) built from the same constraint language as
//! sets: access and dependence relations, their domain/range restrictions
//! and difference sets, and pair enumeration.

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
        let mut out = self.inner.with_room(s.constraints().len());
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

    /// A concrete `(x, y)` pair in the relation, if one exists, sampled
    /// through a batched [`crate::Context`] — the witness-extraction
    /// primitive for dependence analysis. It runs under the context's
    /// budget and counters (the relation was typically just checked
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
/// Like [`Set`], the disjuncts must be pairwise disjoint.
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
    fn intersect_domain_restricts() {
        let m = affine_map();
        let mut dom = BasicSet::universe(Space::set(0, 1));
        dom.add_range(0, 2, 4);
        let r = Map::from_basic(m.intersect_domain(&dom).unwrap());
        let pairs = r.enumerate_pairs(100).unwrap();
        assert_eq!(
            pairs,
            vec![(vec![2], vec![5]), (vec![3], vec![7]), (vec![4], vec![9])]
        );
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
    fn identity_map() {
        let id = BasicMap::identity(0, 2);
        assert!(holds(&id, &[1, 2, 1, 2]));
        assert!(!holds(&id, &[1, 2, 2, 1]));
    }
}
