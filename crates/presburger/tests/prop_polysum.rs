//! Differential tests for the closed-form symbolic counting layer: on
//! random conjunctive systems drawn from the shape classes the cache model
//! actually produces (boxes, triangles, bands, mod-`m` strides, Pluto-tiled
//! domains), the symbolic path, the recursive enumerator, and exhaustive
//! point enumeration must report the identical cardinality.

use proptest::prelude::*;

use polyufc_presburger::{
    count_basic_enumerative, symbolic_count, BasicSet, CountCache, CountLimit, LinExpr, Set, Space,
};

/// Brute-force reference over a bounding grid that covers every generated
/// set (extents are kept within `[-1, 20]` by construction).
fn brute(b: &BasicSet) -> i128 {
    let dims = b.space().n_dim();
    let mut count = 0i128;
    let mut point = vec![0i64; dims];
    fn rec(b: &BasicSet, point: &mut Vec<i64>, d: usize, count: &mut i128) {
        if d == point.len() {
            if b.contains(point).unwrap() {
                *count += 1;
            }
            return;
        }
        for x in -1..=20 {
            point[d] = x;
            rec(b, point, d + 1, count);
        }
    }
    rec(b, &mut point, 0, &mut count);
    count
}

/// Checks all counting strategies against the brute-force reference. The
/// symbolic path may decline (`None`) on shapes outside its fragment, but
/// must never disagree. (The vendored proptest reports failures as
/// `String`s, hence the return type.)
fn check_all_paths(b: &BasicSet) -> Result<(), String> {
    let reference = brute(b);
    let enumerated = count_basic_enumerative(b, CountLimit::default()).unwrap();
    prop_assert_eq!(enumerated, reference, "recursive enumerator disagrees");
    if let Some(symbolic) = symbolic_count(b) {
        prop_assert_eq!(symbolic, reference, "symbolic path disagrees");
    }
    let set = Set::from_basic(b.clone());
    prop_assert_eq!(set.count().unwrap(), reference, "production path disagrees");
    let points = set.enumerate(100_000).unwrap();
    prop_assert_eq!(
        points.len() as i128,
        reference,
        "point enumeration disagrees"
    );
    Ok(())
}

/// A random box `lo_d <= v_d <= hi_d` in 2 or 3 dimensions.
fn arb_box() -> impl Strategy<Value = BasicSet> {
    (
        2usize..=3,
        proptest::collection::vec((0i64..=10, 0i64..=10), 3),
    )
        .prop_map(|(dims, ranges)| {
            let mut b = BasicSet::universe(Space::set(0, dims));
            for (d, &(a, c)) in ranges.iter().take(dims).enumerate() {
                b.add_range(d, a.min(c), a.max(c));
            }
            b
        })
}

/// A triangle `0 <= i <= n, 0 <= j, j <= i + shift` with an optional
/// extra halfplane — the cholesky/lu/trisolv shape.
fn arb_triangle() -> impl Strategy<Value = BasicSet> {
    (
        3i64..=15,
        -2i64..=2,
        any::<bool>(),
        (-2i64..=2, -2i64..=2, -6i64..=6),
    )
        .prop_map(|(n, shift, with_extra, (ci, cj, k))| {
            let mut b = BasicSet::universe(Space::set(0, 2));
            b.add_range(0, 0, n);
            b.add_ge0(LinExpr::var(1));
            b.add_ge0(LinExpr::var(0) - LinExpr::var(1) + LinExpr::constant(shift));
            if with_extra {
                b.add_ge0(LinExpr::var(0) * ci + LinExpr::var(1) * cj + LinExpr::constant(k));
            }
            b
        })
}

/// A band `|i - j| <= w` inside a box — the jacobi/stencil shape.
fn arb_band() -> impl Strategy<Value = BasicSet> {
    (4i64..=15, 0i64..=4).prop_map(|(n, w)| {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, n);
        b.add_range(1, 0, n);
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1) + LinExpr::constant(w));
        b.add_ge0(LinExpr::var(1) - LinExpr::var(0) + LinExpr::constant(w));
        b
    })
}

/// A strided set `i ≡ r (mod m)` inside a box, via a determined div.
fn arb_stride() -> impl Strategy<Value = BasicSet> {
    (6i64..=18, 2i64..=4, 0i64..=3, any::<bool>()).prop_map(|(n, m, r, couple)| {
        let r = r % m;
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, n);
        b.add_range(1, 0, 7);
        let subject = if couple {
            LinExpr::var(0) + LinExpr::var(1)
        } else {
            LinExpr::var(0)
        };
        let q = b.add_div(subject.clone(), m);
        b.add_eq(subject - LinExpr::var(q) * m - LinExpr::constant(r));
        b
    })
}

/// A Pluto-tiled domain: a box / triangle / skewed band over the point
/// iterators `x, y` (vars 0, 1) and one or two tile iterators (vars 2, 3)
/// — set dimensions, so the brute-force grid ranges over them too, which
/// caps the shape at four variables. A tile iterator `t` is tied to a
/// point expression `e` by `e + k₁ - c·t >= 0` and `-e + k₂ + c·t >= 0`
/// and carries a constant range that may clip the first and last tile, so
/// the `c·lo <= e` side of the floor rewrite actually binds. Point ranges
/// start at -1, 0 or 1 (floor, not truncation).
///
/// `twist` 0 is a clean tiling (`k₁ + k₂ = c - 1`, so `t = ⌊(e + k₁)/c⌋`);
/// 1..=5 are near misses the counter must leave alone and still count
/// right: `k₁ + k₂ = c` (two `t` for some points), `k₁ + k₂ = c - 2`
/// (points between tiles dropped), a third row coupling `t₀` to the other
/// tile iterator, `t₀` pinned by a unit equality, and a non-unit equality
/// on `t₀` that Gaussian elimination leaves in place.
fn arb_tiled(twists: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = BasicSet> {
    (
        (0usize..=2, -1i64..=1, 4i64..=12, 2i64..=6),
        (0usize..=3, 2i64..=8, 2i64..=8, 0i64..=3),
        (0i64..=1, 0i64..=1),
        (twists, 0i64..=2),
    )
        .prop_map(
            |((shape, lo, n, w), (tiling, c0, c1, k1), (trim_lo, trim_hi), (twist, s))| {
                let (x, y) = (LinExpr::var(0), LinExpr::var(1));
                let n_tiles = if tiling == 0 || tiling == 3 { 1 } else { 2 };
                let mut b = BasicSet::universe(Space::set(0, 2 + n_tiles));
                b.add_range(0, lo, n);
                // Point domain, with the bounding range of `y`.
                let (y_min, y_max) = match shape {
                    0 => {
                        b.add_range(1, lo, w + 6);
                        (lo, w + 6)
                    }
                    1 => {
                        b.add_ge0(y.clone() - LinExpr::constant(lo));
                        b.add_ge0(x.clone() - y.clone());
                        (lo, n)
                    }
                    _ => {
                        b.add_ge0(y.clone() - x.clone() - LinExpr::constant(1));
                        b.add_ge0(x.clone() + LinExpr::constant(w) - y.clone());
                        (lo + 1, n + w)
                    }
                };
                // (tile var, e, bounding range of e, c, k₁) per tile iterator.
                let ties = match tiling {
                    0 => vec![(2, x, (lo, n), c0, 0)],
                    1 => vec![(2, x, (lo, n), c0, 0), (3, y, (y_min, y_max), c1, 0)],
                    // Two floors of one expression.
                    2 => vec![(2, x.clone(), (lo, n), c0, 0), (3, x, (lo, n), c1, 0)],
                    // A floor of a sum with an offset.
                    _ => vec![(2, x + y, (lo + y_min, n + y_max), c0, k1 % c0)],
                };
                for (i, (t, e, (e_min, e_max), c, k1)) in ties.into_iter().enumerate() {
                    let k2 = match (i, twist) {
                        (0, 1) => c - k1,
                        (0, 2) => c - 2 - k1,
                        _ => c - 1 - k1,
                    };
                    let ct = LinExpr::var(t) * c;
                    b.add_ge0(e.clone() + LinExpr::constant(k1) - ct.clone());
                    b.add_ge0(ct + LinExpr::constant(k2) - e);
                    let t_lo = (e_min + k1).div_euclid(c) + trim_lo;
                    let t_hi = (e_max + k1).div_euclid(c) - trim_hi;
                    b.add_range(t, t_lo, t_hi);
                }
                let t0 = LinExpr::var(2);
                let other = LinExpr::var(if n_tiles == 2 { 3 } else { 1 });
                match twist {
                    3 => b.add_ge0(other - t0 + LinExpr::constant(s)),
                    4 => b.add_eq(t0 - LinExpr::constant(s / 2)),
                    5 => {
                        let (p, q) = [(2, 2), (3, 2), (2, 3)][s as usize];
                        b.add_eq(t0 * p - LinExpr::var(1) * q);
                    }
                    _ => {}
                }
                b
            },
        )
}

proptest! {
    #[test]
    fn boxes_agree(b in arb_box()) {
        check_all_paths(&b)?;
        // Boxes are always inside the symbolic fragment.
        prop_assert!(symbolic_count(&b).is_some());
    }

    #[test]
    fn triangles_agree(b in arb_triangle()) {
        check_all_paths(&b)?;
    }

    #[test]
    fn bands_agree(b in arb_band()) {
        check_all_paths(&b)?;
        prop_assert!(symbolic_count(&b).is_some());
    }

    #[test]
    fn strides_agree(b in arb_stride()) {
        check_all_paths(&b)?;
    }

    #[test]
    fn tiled_domains_agree(b in arb_tiled(0..=0)) {
        check_all_paths(&b)?;
        // Every tile iterator is a floor of point iterators with unit
        // coefficients: once eliminated, nothing is left to enumerate.
        let mut cache = CountCache::new();
        Set::from_basic(b.clone()).count_cached(&mut cache).unwrap();
        prop_assert_eq!(cache.enumerated(), 0, "tiled shape fell back to enumeration");
    }

    #[test]
    fn tiled_near_misses_agree(b in arb_tiled(1..=5)) {
        check_all_paths(&b)?;
    }

    #[test]
    fn random_conjunctions_agree(
        base in prop_oneof![arb_box(), arb_triangle(), arb_band()],
        extras in proptest::collection::vec((-3i64..=3, -3i64..=3, -12i64..=12), 0..3),
    ) {
        // Layer random halfplanes on a structured base: the symbolic path
        // must keep agreeing (or declining) as shapes leave the fragment.
        let mut b = base;
        for (ci, cj, k) in extras {
            b.add_ge0(LinExpr::var(0) * ci + LinExpr::var(1) * cj + LinExpr::constant(k));
        }
        check_all_paths(&b)?;
    }
}
