//! Error type for Presburger operations.

use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by set/map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two operands had incompatible spaces.
    SpaceMismatch {
        /// What the operation expected.
        expected: String,
        /// What it got.
        found: String,
    },
    /// An operation required all div variables to be integer-division
    /// definitions (functions of the other variables), but an undetermined
    /// existential was present (e.g. introduced by [`crate::BasicMap::deltas`]).
    UndeterminedDivs {
        /// The operation that could not proceed.
        operation: &'static str,
    },
    /// The branch-and-bound search exceeded its work budget.
    SearchBudgetExceeded {
        /// Budget that was exceeded, in search steps.
        budget: u64,
    },
    /// A variable was unbounded where a bounded search was required.
    Unbounded {
        /// Index of the unbounded variable in the flat layout.
        var: usize,
    },
    /// Arithmetic overflow during constraint manipulation.
    Overflow,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SpaceMismatch { expected, found } => {
                write!(f, "space mismatch: expected {expected}, found {found}")
            }
            Error::UndeterminedDivs { operation } => {
                write!(
                    f,
                    "operation `{operation}` requires determined div variables"
                )
            }
            Error::SearchBudgetExceeded { budget } => {
                write!(f, "integer search exceeded budget of {budget} steps")
            }
            Error::Unbounded { var } => {
                write!(f, "variable {var} is unbounded in a bounded search")
            }
            Error::Overflow => write!(f, "arithmetic overflow"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let cases: Vec<Error> = vec![
            Error::SpaceMismatch {
                expected: "a".into(),
                found: "b".into(),
            },
            Error::UndeterminedDivs {
                operation: "contains",
            },
            Error::SearchBudgetExceeded { budget: 42 },
            Error::Unbounded { var: 3 },
            Error::Overflow,
        ];
        for e in cases {
            let m = e.to_string();
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
            assert!(!m.ends_with('.'), "{m}");
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::Overflow);
    }
}
