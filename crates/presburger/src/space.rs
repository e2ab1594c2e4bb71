//! Spaces: the signatures of sets and relations.

use std::fmt;

/// The signature of a set or relation: how many parameters, input
/// dimensions and output dimensions it has.
///
/// Sets use `n_out == 0`; their tuple dimensions are the input dimensions.
/// Variables of the associated constraint system are laid out as
/// `[params..., in..., out..., divs...]`; the div count lives on the
/// [`crate::BasicSet`], not here, because different disjuncts of a union may
/// use different numbers of divs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Space {
    n_param: usize,
    n_in: usize,
    n_out: usize,
}

impl Space {
    /// Creates the space of a set with `n_param` parameters and `n_dim`
    /// tuple dimensions.
    pub fn set(n_param: usize, n_dim: usize) -> Self {
        Space {
            n_param,
            n_in: n_dim,
            n_out: 0,
        }
    }

    /// Creates the space of a relation with `n_param` parameters, `n_in`
    /// input dimensions and `n_out` output dimensions.
    pub fn map(n_param: usize, n_in: usize, n_out: usize) -> Self {
        Space {
            n_param,
            n_in,
            n_out,
        }
    }

    /// Number of parameters.
    pub fn n_param(&self) -> usize {
        self.n_param
    }

    /// Number of input dimensions (for sets: the tuple dimensions).
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output dimensions (zero for sets).
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Total number of tuple dimensions (`n_in + n_out`).
    pub fn n_dim(&self) -> usize {
        self.n_in + self.n_out
    }

    /// Number of non-div variables (`n_param + n_in + n_out`).
    pub fn n_var(&self) -> usize {
        self.n_param + self.n_in + self.n_out
    }

    /// Index of the first input dimension in the flat variable layout.
    pub fn in_offset(&self) -> usize {
        self.n_param
    }

    /// Index of the first output dimension in the flat variable layout.
    pub fn out_offset(&self) -> usize {
        self.n_param + self.n_in
    }

    /// Whether this is a set space (no output dimensions).
    pub fn is_set(&self) -> bool {
        self.n_out == 0
    }

    /// A default debug name for variable `idx` in the flat layout
    /// (`p0..`, `i0..`, `o0..`, divs are named by the caller).
    pub fn var_name(&self, idx: usize) -> String {
        if idx < self.n_param {
            format!("p{idx}")
        } else if idx < self.n_param + self.n_in {
            format!("i{}", idx - self.n_param)
        } else if idx < self.n_var() {
            format!("o{}", idx - self.n_param - self.n_in)
        } else {
            format!("e{}", idx - self.n_var())
        }
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_set() {
            write!(f, "[{} params] {{ [{} dims] }}", self.n_param, self.n_in)
        } else {
            write!(
                f,
                "[{} params] {{ [{}] -> [{}] }}",
                self.n_param, self.n_in, self.n_out
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_space_layout() {
        let s = Space::set(2, 3);
        assert_eq!(s.n_param(), 2);
        assert_eq!(s.n_dim(), 3);
        assert_eq!(s.n_var(), 5);
        assert_eq!(s.in_offset(), 2);
        assert!(s.is_set());
    }

    #[test]
    fn map_space_layout() {
        let m = Space::map(1, 2, 3);
        assert_eq!((m.n_in(), m.n_out(), m.n_dim()), (2, 3, 5));
        assert_eq!(m.out_offset(), 3);
        assert!(!m.is_set());
    }

    #[test]
    fn var_names() {
        let m = Space::map(1, 1, 1);
        assert_eq!(m.var_name(0), "p0");
        assert_eq!(m.var_name(1), "i0");
        assert_eq!(m.var_name(2), "o0");
        assert_eq!(m.var_name(3), "e0");
    }
}
