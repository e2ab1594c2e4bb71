//! Property-based tests: the set and relation operations the compiler
//! calls and the solver entry points must agree with brute-force point
//! semantics on random small sets and relations — boxes with random cuts,
//! triangles, bands, strided div sets and access-pair relations. Brute
//! force is the solver's correctness oracle; `solver_digest.rs` pins which
//! answers it gives.

use std::collections::BTreeSet;

use proptest::prelude::*;

use polyufc_presburger::{lex_lt_map, BasicMap, BasicSet, Context, LinExpr, Map, Set, Space};

/// A random inequality `a*i + b*j + c >= 0` over a 2-D space.
fn arb_constraint() -> impl Strategy<Value = (i64, i64, i64)> {
    (-3i64..=3, -3i64..=3, -12i64..=12)
}

/// A random 2-D basic set: a bounding box plus up to three inequalities.
fn arb_basic_set() -> impl Strategy<Value = BasicSet> {
    proptest::collection::vec(arb_constraint(), 0..4).prop_map(|cs| {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 7);
        b.add_range(1, 0, 7);
        for (a, bb, c) in cs {
            b.add_ge0(LinExpr::var(0) * a + LinExpr::var(1) * bb + LinExpr::constant(c));
        }
        b
    })
}

/// A random triangle `{ lo <= i <= hi, 0 <= j, a*i - j + c >= 0 }`; every
/// point lies in `[0, 21)^2`.
fn arb_triangle() -> impl Strategy<Value = BasicSet> {
    (0i64..=3, 4i64..=9, 1i64..=2, -2i64..=2).prop_map(|(lo, hi, a, c)| {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, lo, hi);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) * a - LinExpr::var(1) + LinExpr::constant(c));
        b
    })
}

/// A random band `{ 0 <= i, j < n, |i - j| <= w }` with `n <= 12`.
fn arb_band() -> impl Strategy<Value = BasicSet> {
    (4i64..=12, 0i64..=3).prop_map(|(n, w)| {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, n - 1);
        b.add_range(1, 0, n - 1);
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1) + LinExpr::constant(w));
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0) + LinExpr::constant(w));
        b
    })
}

/// A random strided set `{ 0 <= i < n, i mod d == r }` via a determined
/// div, with `n <= 32`.
fn arb_stride() -> impl Strategy<Value = BasicSet> {
    (8i64..=32, 2i64..=5, 0i64..=4).prop_map(|(n, d, r)| {
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, n - 1);
        let q = b.add_div(LinExpr::var(0) - LinExpr::constant(r % d), d);
        b.add_eq(LinExpr::var(0) - LinExpr::constant(r % d) - LinExpr::var(q) * d);
        b
    })
}

/// One access subscript `a*i0 + b*i1 + c` over a 2-deep nest.
fn arb_subscript() -> impl Strategy<Value = LinExpr> {
    (-1i64..=1, -1i64..=1, -2i64..=2)
        .prop_map(|(a, b, c)| LinExpr::var(0) * a + LinExpr::var(1) * b + LinExpr::constant(c))
}

/// A random equal-element relation `{ i -> i' : A[f(i)] == A[g(i')] }`
/// over a 2-deep box or triangle of extent at most 6, with 1- or 2-D
/// subscripts `f` and `g`: the relation Pluto builds for each conflicting
/// access pair. Returns the domain and both subscript vectors.
fn arb_access_pair() -> impl Strategy<Value = (BasicSet, Vec<LinExpr>, Vec<LinExpr>)> {
    let subscripts = || proptest::collection::vec(arb_subscript(), 1..=2);
    (
        any::<bool>(),
        1i64..=6,
        1i64..=6,
        subscripts(),
        subscripts(),
    )
        .prop_map(|(triangle, n, m, mut f, mut g)| {
            let mut dom = BasicSet::universe(Space::set(0, 2));
            dom.add_range(0, 0, n - 1);
            if triangle {
                dom.add_ge0(LinExpr::var(1));
                dom.add_ge0(LinExpr::var(0) - LinExpr::var(1));
            } else {
                dom.add_range(1, 0, m - 1);
            }
            let rank = f.len().min(g.len());
            f.truncate(rank);
            g.truncate(rank);
            (dom, f, g)
        })
}

/// Every point of `b` inside the box `[0, extent)^n_dim`.
fn brute_points_in(b: &BasicSet, extent: i64) -> BTreeSet<Vec<i64>> {
    let n = b.space().n_dim();
    let mut out = BTreeSet::new();
    let mut p = vec![0i64; n];
    loop {
        if b.contains(&p).unwrap() {
            out.insert(p.clone());
        }
        // Odometer step; every digit wrapping means the box is done.
        let Some(d) = (0..n).find(|&d| p[d] + 1 < extent) else {
            return out;
        };
        p[..d].fill(0);
        p[d] += 1;
    }
}

fn brute_points(b: &BasicSet) -> BTreeSet<Vec<i64>> {
    brute_points_in(b, 8)
}

/// The solver entry points production calls — counting, `is_empty`,
/// `Context::check_all`, `BasicSet::sample` and `Context::sample` —
/// against brute-force membership, for a set whose points all lie in
/// `[0, extent)^n_dim`.
fn assert_matches_brute(b: &BasicSet, extent: i64) -> Result<(), String> {
    let brute = brute_points_in(b, extent);
    let empty = brute.is_empty();
    prop_assert_eq!(
        Set::from_basic(b.clone()).count().unwrap(),
        brute.len() as i128
    );
    prop_assert_eq!(b.is_empty().unwrap(), empty);
    let mut ctx = Context::new();
    prop_assert_eq!(ctx.check_all([b])[0].is_empty(), empty);
    for sampled in [b.sample().unwrap(), ctx.sample(b).unwrap()] {
        prop_assert_eq!(sampled.is_none(), empty);
        if let Some(p) = sampled {
            prop_assert!(brute.contains(&p[..b.space().n_dim()]), "{p:?} not in {b}");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn count_matches_enumeration(b in arb_basic_set()) {
        let s = Set::from_basic(b.clone());
        let counted = s.count().unwrap();
        let brute = brute_points(&b).len() as i128;
        prop_assert_eq!(counted, brute);
        let enumerated = s.enumerate(1000).unwrap();
        prop_assert_eq!(enumerated.len() as i128, brute);
    }

    #[test]
    fn intersection_is_pointwise_and(a in arb_basic_set(), b in arb_basic_set()) {
        let inter = Set::from_basic(a.intersect(&b).unwrap());
        let expect: BTreeSet<_> =
            brute_points(&a).intersection(&brute_points(&b)).cloned().collect();
        let got: BTreeSet<_> =
            inter.enumerate(1000).unwrap().into_iter().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(inter.count().unwrap(), 0i128.max(expect_len(&a, &b)));
    }

    #[test]
    fn div_sets_count_matches_enumeration(
        modulus in 2i64..6,
        residue in 0i64..5,
        cs in proptest::collection::vec(arb_constraint(), 0..3),
    ) {
        // Random 2-D set with a modular constraint on i + j.
        let residue = residue % modulus;
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 7);
        b.add_range(1, 0, 7);
        for (a, bb, c) in cs {
            b.add_ge0(LinExpr::var(0) * a + LinExpr::var(1) * bb + LinExpr::constant(c));
        }
        let q = b.add_div(LinExpr::var(0) + LinExpr::var(1), modulus);
        b.add_eq(
            LinExpr::var(0) + LinExpr::var(1)
                - LinExpr::var(q) * modulus
                - LinExpr::constant(residue),
        );
        let s = Set::from_basic(b.clone());
        let brute = (0..8i64)
            .flat_map(|i| (0..8i64).map(move |j| (i, j)))
            .filter(|&(i, j)| b.contains(&[i, j]).unwrap())
            .count() as i128;
        prop_assert_eq!(s.count().unwrap(), brute);
        prop_assert_eq!(s.enumerate(1000).unwrap().len() as i128, brute);
    }

    #[test]
    fn cached_count_matches_uncached(a in arb_basic_set(), b in arb_basic_set()) {
        // Memoized counting must be invisible: same results as the plain
        // counter, repeat queries answered from the cache.
        let mut cache = polyufc_presburger::CountCache::new();
        let sa = Set::from_basic(a.clone());
        let sb = Set::from_basic(b.clone());
        let c1 = sa.count_cached(&mut cache).unwrap();
        let c2 = sa.count_cached(&mut cache).unwrap();
        let c3 = sb.count_cached(&mut cache).unwrap();
        prop_assert_eq!(c1, sa.count().unwrap());
        prop_assert_eq!(c1, brute_points(&a).len() as i128);
        prop_assert_eq!(c2, c1);
        prop_assert_eq!(c3, sb.count().unwrap());
        // The second identical query must be a hit, and stats must add up.
        prop_assert!(cache.hits() >= 1);
        prop_assert!(cache.misses() >= 1);
        prop_assert!(cache.len() as u64 <= cache.misses());
    }

    #[test]
    fn deltas_and_lex_pieces_match_brute((dom, f, g) in arb_access_pair()) {
        // Brute force: every (i, i') of the domain that touches one element.
        let points = brute_points_in(&dom, 6);
        let eval = |e: &[LinExpr], p: &[i64]| -> Vec<i64> { e.iter().map(|x| x.eval(p)).collect() };
        let pairs: Vec<(Vec<i64>, Vec<i64>)> = points
            .iter()
            .flat_map(|x| points.iter().map(move |y| (x.clone(), y.clone())))
            .filter(|(x, y)| eval(&f, x) == eval(&g, y))
            .collect();
        let diff = |(x, y): &(Vec<i64>, Vec<i64>)| -> Vec<i64> { vec![y[0] - x[0], y[1] - x[1]] };

        let mut rel = BasicMap::universe(Space::map(0, 2, 2));
        for (e1, e2) in f.iter().zip(&g) {
            rel.basic_set_mut().add_eq(e2.shift_vars(0, 2) - e1.clone());
        }
        let rel = rel.intersect_domain(&dom).unwrap().intersect_range(&dom).unwrap();
        let deltas = |m: &BasicMap| -> BTreeSet<Vec<i64>> {
            Set::from_basic(m.deltas()).enumerate(1000).unwrap().into_iter().collect()
        };
        prop_assert_eq!(deltas(&rel), pairs.iter().map(diff).collect::<BTreeSet<_>>());

        // The lex_lt pieces plus the identity cover `i ⪯ i'` disjointly:
        // their union enumerates exactly those pairs, no piece shares one,
        // and the per-piece deltas are exactly their differences.
        let forward: BTreeSet<_> = pairs.iter().filter(|(x, y)| x <= y).cloned().collect();
        let identity = BasicMap::identity(0, 2);
        let lex = lex_lt_map(0, 2);
        let mut union = Map::empty(Space::map(0, 2, 2));
        let (mut piece_pairs, mut piece_deltas) = (0, BTreeSet::new());
        for piece in lex.basics().iter().chain([&identity]) {
            let r = rel.intersect(piece).unwrap();
            piece_pairs += Map::from_basic(r.clone()).enumerate_pairs(10_000).unwrap().len();
            piece_deltas.extend(deltas(&r));
            union = union.union_disjoint(&Map::from_basic(r)).unwrap();
        }
        let got: BTreeSet<_> = union.enumerate_pairs(10_000).unwrap().into_iter().collect();
        prop_assert_eq!(&got, &forward);
        prop_assert_eq!(piece_pairs, forward.len());
        prop_assert_eq!(piece_deltas, forward.iter().map(diff).collect::<BTreeSet<_>>());
    }

    #[test]
    fn boxes_and_random_cuts_match_brute(b in arb_basic_set()) {
        assert_matches_brute(&b, 8)?;
    }

    #[test]
    fn triangles_match_brute(b in arb_triangle()) {
        assert_matches_brute(&b, 21)?;
    }

    #[test]
    fn bands_match_brute(b in arb_band()) {
        assert_matches_brute(&b, 12)?;
    }

    #[test]
    fn strides_match_brute(b in arb_stride()) {
        assert_matches_brute(&b, 32)?;
    }

    #[test]
    fn emptiness_agrees_with_count(a in arb_basic_set()) {
        let s = Set::from_basic(a.clone());
        prop_assert_eq!(s.is_empty().unwrap(), s.count().unwrap() == 0);
    }

}

/// Cardinality of the brute-force intersection (helper kept out of the
/// proptest block for clarity).
fn expect_len(a: &BasicSet, b: &BasicSet) -> i128 {
    brute_points(a).intersection(&brute_points(b)).count() as i128
}

#[test]
fn lex_lt_composition_semantics() {
    // Successor structure under lexicographic order on 2-D points.
    let m = lex_lt_map(0, 2);
    let mut dom = BasicSet::universe(Space::set(0, 2));
    dom.add_range(0, 0, 2);
    dom.add_range(1, 0, 2);
    let mut restricted = Map::empty(m.space().clone());
    for b in m.basics() {
        let r = b
            .intersect_domain(&dom)
            .unwrap()
            .intersect_range(&dom)
            .unwrap();
        restricted = restricted.union_disjoint(&Map::from_basic(r)).unwrap();
    }
    // 9 points, C(9,2) = 36 strictly ordered pairs.
    assert_eq!(restricted.enumerate_pairs(100).unwrap().len(), 36);
}
