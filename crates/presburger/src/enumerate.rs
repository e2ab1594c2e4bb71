//! Exhaustive enumeration of the integer points of a basic set. Used for
//! validation, small exact analyses (Fig 4-style reuse maps), and as the
//! fallback when undetermined existentials rule out fast counting.

use std::collections::BTreeSet;

use crate::basic::{Budget, System};
use crate::error::{Error, Result};
use crate::BasicSet;

/// Enumerates every tuple (dims only; parameters must be pinned by
/// constraints) of the set, deduplicating when undetermined divs are
/// present. Results are in ascending lexicographic order.
///
/// # Errors
///
/// Returns [`Error::SearchBudgetExceeded`] if more than `max_points` points
/// (or a proportional amount of search work) would be produced, and
/// [`Error::Unbounded`] for unbounded variables.
pub(crate) fn enumerate_points(set: &BasicSet, max_points: u64) -> Result<Vec<Vec<i64>>> {
    let sys = set.system();
    let mut budget = Budget::with_limit(max_points.saturating_mul(64).max(1_000_000));
    let mut out: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut values: Vec<Option<i64>> = vec![None; sys.n];
    let np = set.space().n_param();
    let nd = set.space().n_dim();
    enum_rec(&sys, &mut values, &mut out, np, nd, max_points, &mut budget)?;
    Ok(out.into_iter().collect())
}

fn enum_rec(
    sys: &System,
    values: &mut Vec<Option<i64>>,
    out: &mut BTreeSet<Vec<i64>>,
    np: usize,
    nd: usize,
    max_points: u64,
    budget: &mut Budget,
) -> Result<()> {
    budget.tick(1)?;
    let mut cur = sys.clone();
    for (i, v) in values.iter().enumerate() {
        if let Some(v) = *v {
            cur.substitute(i, v);
        }
    }
    let Some(iv) = cur.propagate(budget)? else {
        return Ok(());
    };

    let mut fixed = Vec::new();
    for (i, v) in values.iter_mut().enumerate() {
        if v.is_none() {
            if let Some(x) = iv[i].singleton() {
                *v = Some(x);
                fixed.push(i);
            }
        }
    }

    // Prefer branching on tuple variables first (deterministic point order),
    // then divs.
    let branch: Option<usize> = values.iter().position(|v| v.is_none());
    match branch {
        None => {
            let full: Vec<i64> = values.iter().map(|v| v.unwrap()).collect();
            if sys.check(&full) {
                out.insert(full[np..np + nd].to_vec());
                if out.len() as u64 > max_points {
                    for i in fixed {
                        values[i] = None;
                    }
                    return Err(Error::SearchBudgetExceeded { budget: max_points });
                }
            }
        }
        Some(var) => {
            let (lo, hi) = match (iv[var].lo, iv[var].hi) {
                (Some(l), Some(h)) => (l, h),
                _ => {
                    for i in fixed {
                        values[i] = None;
                    }
                    return Err(Error::Unbounded { var });
                }
            };
            for x in lo..=hi {
                values[var] = Some(x);
                let r = enum_rec(sys, values, out, np, nd, max_points, budget);
                if r.is_err() {
                    values[var] = None;
                    for i in fixed {
                        values[i] = None;
                    }
                    return r;
                }
            }
            values[var] = None;
        }
    }
    for i in fixed {
        values[i] = None;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasicMap, LinExpr, Space};

    #[test]
    fn enumerate_triangle() {
        let mut b = BasicSet::universe(Space::set(0, 2));
        b.add_range(0, 0, 2);
        b.add_ge0(LinExpr::var(1));
        b.add_ge0(LinExpr::var(0) - LinExpr::var(1));
        let pts = enumerate_points(&b, 100).unwrap();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![1, 1],
                vec![2, 0],
                vec![2, 1],
                vec![2, 2]
            ]
        );
    }

    #[test]
    fn enumerate_dedups_existentials() {
        // The deltas of { [i] -> [j] : 0<=i<3, 0<=j<2 } reach most values
        // through several (i, j) witnesses: { d : -2 <= d <= 1 }.
        let mut m = BasicMap::universe(Space::map(0, 1, 1));
        m.basic_set_mut().add_range(0, 0, 2);
        m.basic_set_mut().add_range(1, 0, 1);
        let pts = enumerate_points(&m.deltas(), 100).unwrap();
        assert_eq!(pts, vec![vec![-2], vec![-1], vec![0], vec![1]]);
    }

    #[test]
    fn cap_enforced() {
        let mut b = BasicSet::universe(Space::set(0, 1));
        b.add_range(0, 0, 999);
        match enumerate_points(&b, 10) {
            Err(Error::SearchBudgetExceeded { .. }) => {}
            other => panic!("expected cap, got {other:?}"),
        }
    }
}
