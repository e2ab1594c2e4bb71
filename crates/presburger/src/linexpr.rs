//! Affine (linear + constant) expressions over the variables of a space.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::inline::InlineVec;

/// Coefficients stored in place; longer lists spill to the heap. 10 covers
/// 97% of the expressions a compile builds. 12 (99%) raised `compile_cold`'s
/// peak RSS by 5–8%; 8 (94%) left it above 2,000 allocations per program.
const INLINE_COEFFS: usize = 10;

/// An affine expression `c_0*v_0 + ... + c_{n-1}*v_{n-1} + k` over the flat
/// variable layout of a [`crate::Space`] (params, dims, divs).
///
/// Coefficient vectors may be shorter than the full variable count of the
/// constraint system they appear in; missing trailing coefficients are zero.
/// The stored coefficients never end in a zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    coeffs: InlineVec<i64, INLINE_COEFFS>,
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(k: i64) -> Self {
        LinExpr {
            coeffs: InlineVec::default(),
            constant: k,
        }
    }

    /// The expression consisting of variable `idx` with coefficient 1.
    pub fn var(idx: usize) -> Self {
        let mut coeffs = InlineVec::default();
        coeffs.resize(idx + 1, 0);
        coeffs[idx] = 1;
        LinExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Builds an expression from explicit coefficients and a constant.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        let mut e = LinExpr::constant(constant);
        e.coeffs.resize(coeffs.len(), 0);
        e.coeffs.copy_from_slice(&coeffs);
        e.trim();
        e
    }

    fn trim(&mut self) {
        while self.coeffs.last() == Some(&0) {
            self.coeffs.resize(self.coeffs.len() - 1, 0);
        }
    }

    /// The coefficient of variable `idx` (zero if beyond the stored length).
    pub fn coeff(&self, idx: usize) -> i64 {
        self.coeffs.get(idx).copied().unwrap_or(0)
    }

    /// Sets the coefficient of variable `idx`.
    pub fn set_coeff(&mut self, idx: usize, c: i64) {
        if idx >= self.coeffs.len() {
            if c == 0 {
                return;
            }
            self.coeffs.resize(idx + 1, 0);
        }
        self.coeffs[idx] = c;
        self.trim();
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, k: i64) {
        self.constant = k;
    }

    /// Adds `delta` to the constant term.
    pub fn add_constant(&mut self, delta: i64) {
        self.constant += delta;
    }

    /// Number of stored coefficients (highest referenced variable + 1).
    pub(crate) fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the expression is constant (no variable has a nonzero
    /// coefficient).
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Iterator over `(var_index, coefficient)` pairs with nonzero
    /// coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.coeffs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c != 0)
    }

    /// Evaluates the expression on a full variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the highest referenced variable.
    pub fn eval(&self, values: &[i64]) -> i64 {
        let mut acc = self.constant;
        for (i, c) in self.terms() {
            acc += c * values[i];
        }
        acc
    }

    /// Substitutes variable `idx` with the given expression, returning the
    /// resulting expression.
    pub fn substitute(&self, idx: usize, replacement: &LinExpr) -> LinExpr {
        let c = self.coeff(idx);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.set_coeff(idx, 0);
        out = out + replacement.clone() * c;
        out
    }

    /// Shifts all variable indices at or above `at` up by `by` (used when
    /// inserting variables into a space).
    pub fn shift_vars(&self, at: usize, by: usize) -> LinExpr {
        if by == 0 || self.coeffs.len() <= at {
            return self.clone();
        }
        let mut coeffs = InlineVec::default();
        coeffs.resize(self.coeffs.len() + by, 0);
        coeffs[..at].copy_from_slice(&self.coeffs[..at]);
        coeffs[at + by..].copy_from_slice(&self.coeffs[at..]);
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Applies an arbitrary index permutation/relocation: variable `i`
    /// becomes variable `perm[i]`. Variables beyond `perm.len()` must have
    /// zero coefficient.
    ///
    /// # Panics
    ///
    /// Panics if a variable with nonzero coefficient has no mapping.
    pub fn permute_vars(&self, perm: &[usize]) -> LinExpr {
        let mut out = LinExpr::constant(self.constant);
        for (i, c) in self.terms() {
            let j = *perm
                .get(i)
                .unwrap_or_else(|| panic!("permute_vars: variable {i} has no mapping"));
            out.set_coeff(j, out.coeff(j) + c);
        }
        out
    }

    /// The greatest common divisor of all variable coefficients (0 if the
    /// expression is constant).
    pub fn coeff_gcd(&self) -> i64 {
        let mut g: i64 = 0;
        for (_, c) in self.terms() {
            g = gcd(g, c.abs());
        }
        g
    }

    /// Formats with variable names supplied by `name`.
    pub fn display_with<'a>(
        &'a self,
        name: impl Fn(usize) -> String + 'a,
    ) -> impl fmt::Display + 'a {
        DisplayExpr {
            expr: self,
            name: Box::new(name),
        }
    }
}

/// Greatest common divisor of two non-negative integers.
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

struct DisplayExpr<'a> {
    expr: &'a LinExpr,
    name: Box<dyn Fn(usize) -> String + 'a>,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.expr.terms() {
            let n = (self.name)(i);
            if first {
                match c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    _ => write!(f, "{c}{n}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {n}")?;
                } else {
                    write!(f, " + {c}{n}")?;
                }
            } else if c == -1 {
                write!(f, " - {n}")?;
            } else {
                write!(f, " - {}{n}", -c)?;
            }
        }
        let k = self.expr.constant_term();
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|i| format!("v{i}")))
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        if rhs.coeffs.len() > self.coeffs.len() {
            self.coeffs.resize(rhs.coeffs.len(), 0);
        }
        for (a, &b) in self.coeffs.iter_mut().zip(rhs.coeffs.iter()) {
            *a += b;
        }
        self.constant += rhs.constant;
        self.trim();
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for c in self.coeffs.iter_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: i64) -> LinExpr {
        for c in self.coeffs.iter_mut() {
            *c *= k;
        }
        self.constant *= k;
        self.trim();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_eval() {
        // 2*v0 - v2 + 3
        let e = LinExpr::var(0) * 2 - LinExpr::var(2) + LinExpr::constant(3);
        assert_eq!(e.coeff(0), 2);
        assert_eq!(e.coeff(1), 0);
        assert_eq!(e.coeff(2), -1);
        assert_eq!(e.eval(&[5, 100, 4]), 9);
    }

    #[test]
    fn substitution() {
        // v0 + 2*v1, substitute v1 := v0 - 1  =>  3*v0 - 2
        let e = LinExpr::var(0) + LinExpr::var(1) * 2;
        let r = LinExpr::var(0) - LinExpr::constant(1);
        let s = e.substitute(1, &r);
        assert_eq!(s.coeff(0), 3);
        assert_eq!(s.coeff(1), 0);
        assert_eq!(s.constant_term(), -2);
    }

    #[test]
    fn shift_and_permute() {
        let e = LinExpr::var(0) + LinExpr::var(1) * 5;
        let s = e.shift_vars(1, 2);
        assert_eq!(s.coeff(0), 1);
        assert_eq!(s.coeff(3), 5);
        let p = e.permute_vars(&[1, 0]);
        assert_eq!(p.coeff(0), 5);
        assert_eq!(p.coeff(1), 1);
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::var(0) * 2 - LinExpr::var(1) - LinExpr::constant(7);
        assert_eq!(format!("{e}"), "2v0 - v1 - 7");
        assert_eq!(format!("{}", LinExpr::zero()), "0");
    }

    #[test]
    fn gcd_of_coeffs() {
        let e = LinExpr::var(0) * 6 + LinExpr::var(1) * 9;
        assert_eq!(e.coeff_gcd(), 3);
        assert_eq!(LinExpr::constant(5).coeff_gcd(), 0);
    }
}
