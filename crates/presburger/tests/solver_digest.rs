//! Witness stability of the solver, pinned as one digest: a fixed sweep of
//! about 2000 small sets — boxes with random cuts, triangles, bands, strided
//! div sets and 3-D boxes — each folded into an FNV-1a hash through its
//! emptiness verdict, the point `BasicSet::sample` returns, the point
//! `Context::sample` returns (one context for the whole sweep), and its
//! count.
//!
//! The brute-force suite (`prop.rs`) checks that every answer is *correct*;
//! this test checks that the answers, down to which point is sampled, do not
//! move. Dependence witnesses and lint reports quote sampled points, so a
//! change to the search order is an output change even when every point is
//! still a member. The sweep uses its own LCG rather than proptest so that
//! `PROPTEST_CASES` cannot change what is hashed. A change that moves
//! witnesses on purpose regenerates the constant (the failure message
//! prints the new value) and says so.

use polyufc_presburger::{BasicSet, Context, LinExpr, Set, Space};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Knuth's MMIX LCG; the high bits feed the shape parameters.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lo + ((self.0 >> 33) % (hi - lo + 1) as u64) as i64
    }
}

/// `{ [i, j] : 0 <= i, j <= 7 }` plus up to three cuts `a*i + b*j + c >= 0`.
fn box_with_cuts(rng: &mut Lcg) -> BasicSet {
    let mut b = BasicSet::universe(Space::set(0, 2));
    b.add_range(0, 0, 7);
    b.add_range(1, 0, 7);
    for _ in 0..rng.range(0, 3) {
        let (a, bb, c) = (rng.range(-3, 3), rng.range(-3, 3), rng.range(-12, 12));
        b.add_ge0(LinExpr::var(0) * a + LinExpr::var(1) * bb + LinExpr::constant(c));
    }
    b
}

/// `{ [i, j] : lo <= i <= hi, 0 <= j, a*i - j + c >= 0 }`.
fn triangle(rng: &mut Lcg) -> BasicSet {
    let (lo, hi) = (rng.range(0, 3), rng.range(4, 9));
    let (a, c) = (rng.range(1, 2), rng.range(-2, 2));
    let mut b = BasicSet::universe(Space::set(0, 2));
    b.add_range(0, lo, hi);
    b.add_ge0(LinExpr::var(1));
    b.add_ge0(LinExpr::var(0) * a - LinExpr::var(1) + LinExpr::constant(c));
    b
}

/// `{ [i, j] : 0 <= i, j < n, |i - j| <= w }`.
fn band(rng: &mut Lcg) -> BasicSet {
    let (n, w) = (rng.range(4, 12), rng.range(0, 3));
    let mut b = BasicSet::universe(Space::set(0, 2));
    b.add_range(0, 0, n - 1);
    b.add_range(1, 0, n - 1);
    b.add_ge0(LinExpr::var(0) - LinExpr::var(1) + LinExpr::constant(w));
    b.add_ge0(LinExpr::var(1) - LinExpr::var(0) + LinExpr::constant(w));
    b
}

/// Alternately `{ [i] : 0 <= i < n, i mod d == r }` and a cut 2-D box with
/// `(i + j) mod d == r`, both through a determined div.
fn strided(rng: &mut Lcg, k: usize) -> BasicSet {
    let d = rng.range(2, 5);
    let r = rng.range(0, 4) % d;
    if k.is_multiple_of(2) {
        let n = rng.range(8, 32);
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, n - 1);
        let q = b.add_div(LinExpr::var(0) - LinExpr::constant(r), d);
        b.add_eq(LinExpr::var(0) - LinExpr::constant(r) - LinExpr::var(q) * d);
        b
    } else {
        let mut b = box_with_cuts(rng);
        let q = b.add_div(LinExpr::var(0) + LinExpr::var(1), d);
        b.add_eq(LinExpr::var(0) + LinExpr::var(1) - LinExpr::var(q) * d - LinExpr::constant(r));
        b
    }
}

/// A 3-D box of extents 3..7 plus up to two cuts over all three dims.
fn box3(rng: &mut Lcg) -> BasicSet {
    let mut b = BasicSet::universe(Space::set(0, 3));
    for v in 0..3 {
        let hi = rng.range(2, 6);
        b.add_range(v, 0, hi);
    }
    for _ in 0..rng.range(0, 2) {
        let mut e = LinExpr::constant(rng.range(-8, 8));
        for v in 0..3 {
            e = e + LinExpr::var(v) * rng.range(-2, 2);
        }
        b.add_ge0(e);
    }
    b
}

fn sweep() -> Vec<BasicSet> {
    let mut rng = Lcg(2026);
    let mut out = Vec::new();
    out.extend((0..800).map(|_| box_with_cuts(&mut rng)));
    out.extend((0..300).map(|_| triangle(&mut rng)));
    out.extend((0..300).map(|_| band(&mut rng)));
    out.extend((0..300).map(|k| strided(&mut rng, k)));
    out.extend((0..300).map(|_| box3(&mut rng)));
    out
}

fn fold_point(h: u64, point: &Option<Vec<i64>>) -> u64 {
    match point {
        None => fnv1a(h, &[0]),
        Some(p) => p
            .iter()
            .fold(fnv1a(h, &[1]), |h, x| fnv1a(h, &x.to_le_bytes())),
    }
}

fn digest() -> u64 {
    let mut ctx = Context::new();
    let mut h = FNV_OFFSET;
    for (k, b) in sweep().iter().enumerate() {
        let empty = b.is_empty().unwrap();
        let sampled = b.sample().unwrap();
        let in_ctx = ctx.sample(b).unwrap();
        let count = Set::from_basic(b.clone()).count().unwrap();
        // Cheap consistency, so a digest mismatch is never the first sign
        // of a wrong answer.
        assert_eq!(ctx.check(b).is_empty(), empty, "set {k}: {b}");
        assert_eq!(count == 0, empty, "set {k}: {b}");
        for p in [&sampled, &in_ctx] {
            assert_eq!(p.is_none(), empty, "set {k}: {b}");
            if let Some(p) = p {
                assert!(b.contains(&p[..b.space().n_dim()]).unwrap(), "set {k}: {b}");
            }
        }
        h = fnv1a(h, &[u8::from(empty)]);
        h = fold_point(h, &sampled);
        h = fold_point(h, &in_ctx);
        h = fnv1a(h, &count.to_le_bytes());
    }
    h
}

#[test]
fn solver_witnesses_are_pinned() {
    let got = digest();
    let expected = 0x20d2_edf1_02b4_541c;
    assert_eq!(
        got, expected,
        "solver answers moved: digest is now {got:#018x}, pinned {expected:#018x}"
    );
}
