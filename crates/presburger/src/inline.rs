//! A small vector of `Copy` values stored in place up to `N` elements, with
//! a heap spill above that: the storage of [`crate::LinExpr`] coefficients,
//! polysum monomials, and the solver's constraint rows, intervals and
//! candidate points, which are almost always short and are built, cloned
//! and dropped in the solver's inner loops. A spill reserves room for at
//! least `2 * N` elements, so a vector that just outgrew its place does not
//! reallocate on the next few pushes.
//!
//! Equality, hashing and `Debug` are those of the element slice (as for
//! `Vec<T>`), so a value that spilled and shrank back compares and hashes
//! like one that never left the inline buffer.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

#[derive(Clone)]
pub(crate) enum InlineVec<T: Copy + Default, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn push(&mut self, x: T) {
        self.resize(self.len() + 1, x);
    }

    /// Grows to `n` elements filling with `x`, or truncates to `n`.
    pub(crate) fn resize(&mut self, n: usize, x: T) {
        match self {
            InlineVec::Inline { len, buf } if n <= N => {
                buf[(*len as usize).min(n)..n].fill(x);
                *len = n as u8;
            }
            InlineVec::Inline { .. } => {
                let mut v = Vec::with_capacity(n.max(2 * N));
                v.extend_from_slice(self);
                v.resize(n, x);
                *self = InlineVec::Heap(v);
            }
            InlineVec::Heap(v) => v.resize(n, x),
        }
    }

    pub(crate) fn extend_from_slice(&mut self, xs: &[T]) {
        let at = self.len();
        self.resize(at + xs.len(), T::default());
        self[at..].copy_from_slice(xs);
    }

    /// Elements the storage holds without growing: `N` in place.
    pub(crate) fn capacity(&self) -> usize {
        match self {
            InlineVec::Inline { .. } => N,
            InlineVec::Heap(v) => v.capacity(),
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::default();
        iter.into_iter().for_each(|x| out.push(x));
        out
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize) };
        InlineVec::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = InlineVec<i64, 3>;

    #[test]
    fn spills_past_capacity_and_keeps_slice_semantics() {
        let mut a = V::default();
        for x in 1..=5 {
            a.push(x);
        }
        assert!(matches!(a, InlineVec::Heap(_)));
        assert_eq!(&*a, &[1, 2, 3, 4, 5]);
        a.resize(2, 0);
        let mut b = V::default();
        b.push(1);
        b.push(2);
        assert!(matches!(b, InlineVec::Inline { .. }));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[1, 2]");
        use std::hash::BuildHasher;
        let s = std::collections::hash_map::RandomState::new();
        assert_eq!(s.hash_one(&a), s.hash_one(&b));
        assert_eq!(s.hash_one(&a), s.hash_one(vec![1i64, 2]));
    }

    #[test]
    fn resize_fills_and_truncates() {
        let mut a = V::default();
        a.push(7);
        a.resize(3, 0);
        assert_eq!(&*a, &[7, 0, 0]);
        a.resize(1, 0);
        a.resize(2, 9);
        assert_eq!(&*a, &[7, 9]);
        a.resize(0, 0);
        assert!(a.is_empty());
    }
}
