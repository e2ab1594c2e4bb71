//! `LinExpr` against a plain `Vec<i64>` oracle: expressions whose
//! coefficient lists run from empty to twice the in-place capacity, so
//! every operation is exercised inline, spilled, across the boundary, and
//! spilled-then-trimmed back below it. The oracle is the representation
//! `LinExpr` had before its coefficients moved in place; its derived
//! `Debug` and `Hash` pin the formatted and hashed forms.

use std::hash::{BuildHasher, Hash};

use proptest::prelude::*;

use polyufc_presburger::LinExpr as Expr;

/// `LinExpr`'s in-place coefficient capacity.
const INLINE: usize = 10;
/// Variables the generated expressions and operations touch.
const VARS: usize = 2 * INLINE;

/// The oracle, named and laid out like the old `LinExpr` so its derived
/// `Debug` prints the format `LinExpr` must keep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LinExpr {
    coeffs: Vec<i64>,
    constant: i64,
}

impl LinExpr {
    fn new(mut coeffs: Vec<i64>, constant: i64) -> Self {
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        LinExpr { coeffs, constant }
    }

    fn coeff(&self, i: usize) -> i64 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    fn zip(&self, o: &LinExpr, f: impl Fn(i64, i64) -> i64) -> LinExpr {
        let n = self.coeffs.len().max(o.coeffs.len());
        let coeffs = (0..n).map(|i| f(self.coeff(i), o.coeff(i))).collect();
        LinExpr::new(coeffs, f(self.constant, o.constant))
    }

    fn scale(&self, k: i64) -> LinExpr {
        LinExpr::new(
            self.coeffs.iter().map(|&c| c * k).collect(),
            self.constant * k,
        )
    }

    fn set_coeff(&self, idx: usize, c: i64) -> LinExpr {
        let mut coeffs = self.coeffs.clone();
        coeffs.resize(coeffs.len().max(idx + 1), 0);
        coeffs[idx] = c;
        LinExpr::new(coeffs, self.constant)
    }

    fn shift_vars(&self, at: usize, by: usize) -> LinExpr {
        let mut coeffs = vec![0; self.coeffs.len() + by];
        for (i, &c) in self.coeffs.iter().enumerate() {
            coeffs[if i >= at { i + by } else { i }] = c;
        }
        LinExpr::new(coeffs, self.constant)
    }

    fn permute_vars(&self, perm: &[usize]) -> LinExpr {
        let mut coeffs = vec![0; perm.len()];
        for (i, &c) in self.coeffs.iter().enumerate() {
            coeffs[perm[i]] += c;
        }
        LinExpr::new(coeffs, self.constant)
    }

    fn substitute(&self, idx: usize, r: &LinExpr) -> LinExpr {
        let c = self.coeff(idx);
        self.set_coeff(idx, 0).zip(&r.scale(c), |a, b| a + b)
    }

    fn coeff_gcd(&self) -> i64 {
        let gcd = |mut a: i64, mut b: i64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a.abs()
        };
        self.coeffs.iter().fold(0, |g, &c| gcd(g, c.abs()))
    }

    fn eval(&self, values: &[i64]) -> i64 {
        self.coeffs
            .iter()
            .zip(values)
            .fold(self.constant, |acc, (c, v)| acc + c * v)
    }

    /// The same expression as a `LinExpr`, built one coefficient at a time.
    fn build(&self) -> Expr {
        let mut e = Expr::constant(self.constant);
        for (i, &c) in self.coeffs.iter().enumerate() {
            e.set_coeff(i, c);
        }
        e
    }
}

/// The oracle form of a `LinExpr`, read through its public API.
fn read(e: &Expr) -> LinExpr {
    let coeffs = (0..2 * VARS + 2).map(|i| e.coeff(i)).collect();
    let out = LinExpr::new(coeffs, e.constant_term());
    let terms: Vec<(usize, i64)> = e.terms().collect();
    let nonzero: Vec<(usize, i64)> = out
        .coeffs
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c != 0)
        .collect();
    assert_eq!(terms, nonzero, "terms() and coeff() disagree on {e:?}");
    assert_eq!(e.is_constant(), out.coeffs.is_empty());
    out
}

/// Checks `e` against the oracle value `o`: coefficients, constant, and
/// both `Debug` forms.
fn agree(what: &str, e: &Expr, o: &LinExpr) -> Result<(), String> {
    prop_assert_eq!(&read(e), o, "{}", what);
    prop_assert_eq!(format!("{e:?}"), format!("{o:?}"), "{}: Debug", what);
    prop_assert_eq!(
        format!("{e:#?}"),
        format!("{o:#?}"),
        "{}: pretty Debug",
        what
    );
    Ok(())
}

/// A coefficient list of 0..=2·INLINE entries, about a third of them zero
/// (so trimming and sparse `terms()` are exercised).
fn arb_oracle() -> impl Strategy<Value = LinExpr> {
    (
        proptest::collection::vec(
            (-9i64..=9).prop_map(|c| if c.abs() > 6 { 0 } else { c }),
            0..=VARS,
        ),
        -50i64..=50,
    )
        .prop_map(|(coeffs, k)| LinExpr::new(coeffs, k))
}

/// A permutation of `0..VARS`, as the ranks of random keys.
fn arb_perm() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<u64>(), VARS).prop_map(|keys| {
        let mut order: Vec<usize> = (0..VARS).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut perm = vec![0; VARS];
        for (rank, &i) in order.iter().enumerate() {
            perm[i] = rank;
        }
        perm
    })
}

fn hash_of<T: Hash>(s: &std::collections::hash_map::RandomState, x: &T) -> u64 {
    s.hash_one(x)
}

proptest! {
    #[test]
    fn arithmetic_matches_the_vec_oracle(
        a in arb_oracle(),
        b in arb_oracle(),
        k in -4i64..=4,
    ) {
        let (ea, eb) = (Expr::new(a.coeffs.clone(), a.constant), b.build());
        agree("new", &ea, &a)?;
        agree("set_coeff build", &eb, &b)?;
        agree("a + b", &(ea.clone() + eb.clone()), &a.zip(&b, |x, y| x + y))?;
        agree("a - b", &(ea.clone() - eb.clone()), &a.zip(&b, |x, y| x - y))?;
        agree("-a", &(-ea.clone()), &a.scale(-1))?;
        agree("a * k", &(ea.clone() * k), &a.scale(k))?;
        // Cancelling the longer operand's tail trims back across the
        // inline boundary.
        agree("a + (-a)", &(ea.clone() + (-ea.clone())), &LinExpr::new(vec![], 0))?;
        prop_assert_eq!(ea.coeff_gcd(), a.coeff_gcd());
        prop_assert_eq!(ea == eb, a == b);
    }

    #[test]
    fn edits_and_substitution_match_the_vec_oracle(
        a in arb_oracle(),
        r in arb_oracle(),
        idx in 0usize..VARS,
        c in -3i64..=3,
        at in 0usize..=VARS,
        by in 0usize..=INLINE,
        perm in arb_perm(),
        values in proptest::collection::vec(-20i64..=20, VARS + INLINE),
    ) {
        let e = a.build();
        let mut set = e.clone();
        set.set_coeff(idx, c);
        agree("set_coeff", &set, &a.set_coeff(idx, c))?;
        let mut cleared = e.clone();
        cleared.set_coeff(idx, 0);
        agree("set_coeff to 0", &cleared, &a.set_coeff(idx, 0))?;
        agree("shift_vars", &e.shift_vars(at, by), &a.shift_vars(at, by))?;
        agree("permute_vars", &e.permute_vars(&perm), &a.permute_vars(&perm))?;
        agree("substitute", &e.substitute(idx, &r.build()), &a.substitute(idx, &r))?;
        prop_assert_eq!(e.eval(&values), a.eval(&values));
    }

    #[test]
    fn spilled_then_trimmed_equals_and_hashes_like_inline(a in arb_oracle(), far in 0usize..INLINE) {
        let s = std::collections::hash_map::RandomState::new();
        let inline = a.build();
        // Push the list past the in-place capacity, then clear the tail
        // again: the value is `a` once more, wherever it is stored.
        let mut spilled = inline.clone();
        let top = 2 * INLINE + far;
        spilled.set_coeff(top, 7);
        agree("spilled", &spilled, &a.set_coeff(top, 7))?;
        spilled.set_coeff(top, 0);
        agree("trimmed", &spilled, &a)?;
        prop_assert_eq!(&spilled, &inline);
        prop_assert_eq!(hash_of(&s, &spilled), hash_of(&s, &inline));
        // The hash is the derived one of the `Vec<i64>` layout.
        prop_assert_eq!(hash_of(&s, &inline), hash_of(&s, &a));
        let wide = Expr::var(top) - Expr::var(top) + inline.clone();
        prop_assert_eq!(&wide, &inline);
        prop_assert_eq!(hash_of(&s, &wide), hash_of(&s, &inline));
    }
}

#[test]
fn debug_output_is_the_derived_format() {
    let e = Expr::var(0) * 2 - Expr::var(2) + Expr::constant(3);
    assert_eq!(
        format!("{e:?}"),
        "LinExpr { coeffs: [2, 0, -1], constant: 3 }"
    );
    assert_eq!(
        format!("{:?}", Expr::zero()),
        "LinExpr { coeffs: [], constant: 0 }"
    );
}
