//! The strict lexicographic order relation `{ [x] -> [y] : x ≺ y }`, which
//! Pluto intersects with access-pair relations to orient dependences.

use crate::linexpr::LinExpr;
use crate::map::{BasicMap, Map};
use crate::space::Space;

/// `{ [x] -> [y] : x ≺ y }` on `d`-dimensional tuples.
pub fn lex_lt_map(n_param: usize, d: usize) -> Map {
    let space = Space::map(n_param, d, d);
    let mut out = Map::empty(space.clone());
    // Piece j (0-based): x_0 == y_0, ..., x_{j-1} == y_{j-1}, x_j < y_j.
    // Pieces are disjoint by construction.
    for j in 0..d {
        let mut m = BasicMap::universe(space.clone());
        for k in 0..j {
            let xk = LinExpr::var(n_param + k);
            let yk = LinExpr::var(n_param + d + k);
            m.basic_set_mut().add_eq(yk - xk);
        }
        // y_j - x_j >= 1
        let xj = LinExpr::var(n_param + j);
        let yj = LinExpr::var(n_param + d + j);
        m.basic_set_mut().add_ge0(yj - xj - LinExpr::constant(1));
        out = out.union_disjoint(&Map::from_basic(m)).expect("same space");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicSet;
    use crate::set::Set;

    fn bounded(map: Map, lo: i64, hi: i64) -> Map {
        // Restrict both tuples to a box so pairs are enumerable.
        let d = map.space().n_in();
        let np = map.space().n_param();
        let mut dom = BasicSet::universe(Space::set(np, d));
        for i in 0..d {
            dom.add_range(np + i, lo, hi);
        }
        let mut out = Map::empty(map.space().clone());
        for b in map.basics() {
            let m = b
                .intersect_domain(&dom)
                .unwrap()
                .intersect_range(&dom)
                .unwrap();
            out = out.union_disjoint(&Map::from_basic(m)).unwrap();
        }
        out
    }

    #[test]
    fn lex_lt_1d_is_less_than() {
        let m = bounded(lex_lt_map(0, 1), 0, 3);
        let pairs = m.enumerate_pairs(100).unwrap();
        assert_eq!(pairs.len(), 6); // C(4,2)
        for (x, y) in pairs {
            assert!(x[0] < y[0]);
        }
    }

    #[test]
    fn lex_lt_2d_counts() {
        // 0..2 x 0..2 tuples: 9 points, strict pairs = 36.
        let m = bounded(lex_lt_map(0, 2), 0, 2);
        let pairs = m.enumerate_pairs(100).unwrap();
        assert_eq!(pairs.len(), 36);
        for (x, y) in pairs {
            assert!(x < y, "{x:?} should be lex-less than {y:?}");
        }
    }

    #[test]
    fn lexorder_composes_with_sets() {
        // Next-access pattern: points {0,2,5}; successor pairs under lex_lt.
        let sp = Space::set(0, 1);
        let mut pts = Set::empty(sp.clone());
        for v in [0i64, 2, 5] {
            let mut b = BasicSet::universe(sp.clone());
            b.fix_var(0, v);
            pts = pts.union_disjoint(&Set::from_basic(b)).unwrap();
        }
        let lt = lex_lt_map(0, 1);
        let mut restricted = Map::empty(lt.space().clone());
        for b in lt.basics() {
            for db in pts.basics() {
                for rb in pts.basics() {
                    let m = b.intersect_domain(db).unwrap().intersect_range(rb).unwrap();
                    restricted = restricted.union_disjoint(&Map::from_basic(m)).unwrap();
                }
            }
        }
        assert_eq!(restricted.enumerate_pairs(100).unwrap().len(), 3);
    }
}
