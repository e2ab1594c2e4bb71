//! Property-based tests: the symbolic set algebra and the solver entry
//! points must agree with brute-force point semantics on random small sets
//! and relations — boxes with random cuts, triangles, bands and strided
//! div sets. Brute force is the solver's correctness oracle;
//! `solver_digest.rs` pins which answers it gives.

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
        let sa = Set::from_basic(a.clone());
        let sb = Set::from_basic(b.clone());
        let inter = sa.intersect(&sb).unwrap();
        let expect: BTreeSet<_> =
            brute_points(&a).intersection(&brute_points(&b)).cloned().collect();
        let got: BTreeSet<_> =
            inter.enumerate(1000).unwrap().into_iter().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(inter.count().unwrap(), 0i128.max(expect_len(&a, &b)));
    }

    #[test]
    fn subtraction_is_pointwise_difference(a in arb_basic_set(), b in arb_basic_set()) {
        let d = Set::from_basic(a.clone()).subtract(&Set::from_basic(b.clone())).unwrap();
        let expect: BTreeSet<_> =
            brute_points(&a).difference(&brute_points(&b)).cloned().collect();
        let got: BTreeSet<_> =
            d.enumerate(1000).unwrap().into_iter().collect();
        prop_assert_eq!(&got, &expect);
        // Disjoint pieces: count must equal cardinality, not overcount.
        prop_assert_eq!(d.count().unwrap(), expect.len() as i128);
    }

    #[test]
    fn union_preserves_membership_and_count(a in arb_basic_set(), b in arb_basic_set()) {
        let u = Set::from_basic(a.clone()).union(&Set::from_basic(b.clone())).unwrap();
        let expect: BTreeSet<_> =
            brute_points(&a).union(&brute_points(&b)).cloned().collect();
        prop_assert_eq!(u.count().unwrap(), expect.len() as i128);
        for p in &expect {
            prop_assert!(u.contains(p).unwrap());
        }
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
    fn subset_relation_consistent(a in arb_basic_set(), b in arb_basic_set()) {
        let sa = Set::from_basic(a.clone());
        let sb = Set::from_basic(b.clone());
        let inter = sa.intersect(&sb).unwrap();
        // inter ⊆ a and inter ⊆ b always.
        prop_assert!(inter.is_subset(&sa).unwrap());
        prop_assert!(inter.is_subset(&sb).unwrap());
        // a ⊆ b iff brute-force containment holds.
        let brute = brute_points(&a).is_subset(&brute_points(&b));
        prop_assert_eq!(sa.is_subset(&sb).unwrap(), brute);
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

    #[test]
    fn projection_is_exact(a in arb_basic_set()) {
        let s = Set::from_basic(a.project_dims_out(1, 1));
        let expect: BTreeSet<i64> = brute_points(&a).into_iter().map(|p| p[0]).collect();
        let got: BTreeSet<i64> =
            s.enumerate(1000).unwrap().into_iter().map(|p| p[0]).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn lexmin_explicit_minimal(a in arb_basic_set()) {
        // View the 2-D set as a relation { [i] -> [j] } and take lexmin.
        let m = Map::from_basic(BasicMap::from_basic_set(
            a.clone().recast(Space::map(0, 1, 1)),
        ));
        let lm = m.lexmin_explicit(1000).unwrap();
        let pts = brute_points(&a);
        for (x, y) in &lm {
            // (x, y) must be a member and minimal among images of x.
            prop_assert!(pts.contains(&vec![x[0], y[0]]));
            for j in 0..8 {
                if pts.contains(&vec![x[0], j]) {
                    prop_assert!(y[0] <= j);
                }
            }
        }
        // Every domain point appears exactly once.
        let doms: BTreeSet<i64> = pts.iter().map(|p| p[0]).collect();
        prop_assert_eq!(lm.len(), doms.len());
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
    assert_eq!(restricted.count_pairs().unwrap(), 36);
}
