//! Property test of the count cache's factoring: a question whose rows fall
//! apart into independent components is counted component by component,
//! each component memoized under its own compact key. Random systems are
//! built from disjoint blocks — intervals, pinned variables, constant rows,
//! triangles, tile/point pairs, bands, equality-tied pairs and an empty
//! block — with the blocks' variables
//! interleaved and permuted and the rows shuffled. Counts through the cache
//! must equal the enumerating oracle and the uncached counter, a repeated
//! question must be answered without counting, and a re-interleaving of the
//! same blocks must find every coupled component cached.

use proptest::prelude::*;

use polyufc_presburger::{
    count_basic_enumerative, BasicSet, Constraint, CountCache, CountLimit, LinExpr, Set, Space,
};

/// One block of a system, over its own local variables.
#[derive(Debug, Clone)]
enum Block {
    /// `lo <= x <= hi`.
    Interval { lo: i64, hi: i64 },
    /// `a·x == c` (written with either sign), `|x| <= 9`: one point or none.
    Pinned { a: i64, c: i64, flip: bool },
    /// The constant row `k >= 0`, over no variable.
    Constant { k: i64 },
    /// `0 <= i < n, 0 <= j <= i`.
    Triangle { n: i64 },
    /// Pluto's tile coupling `tile·t <= x < tile·t + tile` over
    /// `lo <= x < lo + n`, with the tile loop's own range.
    TilePoint { tile: i64, lo: i64, n: i64 },
    /// `0 <= i, j < n, |i - j| <= w`.
    Band { n: i64, w: i64 },
    /// `0 <= i < n, j = i + c` (written with either sign), `0 <= j < n`.
    EqPair { n: i64, c: i64, flip: bool },
    /// `0 <= i, j < n, i + j >= 2n`: no points.
    Empty { n: i64 },
}

impl Block {
    fn vars(&self) -> usize {
        match self {
            Block::Constant { .. } => 0,
            Block::Interval { .. } | Block::Pinned { .. } => 1,
            _ => 2,
        }
    }

    /// The block's constraints with local variable `l` at `pos[l]`.
    fn constraints(&self, pos: &[usize]) -> Vec<Constraint> {
        let v = |l: usize| LinExpr::var(pos[l]);
        let k = LinExpr::constant;
        let range = |l: usize, lo: i64, hi: i64| {
            [Constraint::ge0(v(l) - k(lo)), Constraint::ge0(k(hi) - v(l))]
        };
        let mut out = Vec::new();
        match *self {
            Block::Interval { lo, hi } => out.extend(range(0, lo, hi)),
            Block::Pinned { a, c, flip } => {
                out.extend(range(0, -9, 9));
                let e = v(0) * a - k(c);
                out.push(Constraint::eq(if flip { -e } else { e }));
            }
            Block::Constant { k: c } => out.push(Constraint::ge0(k(c))),
            Block::Triangle { n } => {
                out.extend(range(0, 0, n - 1));
                out.push(Constraint::ge0(v(1)));
                out.push(Constraint::ge0(v(0) - v(1)));
            }
            Block::TilePoint { tile, lo, n } => {
                out.extend(range(1, lo, lo + n - 1));
                out.extend(range(0, lo.div_euclid(tile), (lo + n - 1).div_euclid(tile)));
                out.push(Constraint::ge0(v(1) - v(0) * tile));
                out.push(Constraint::ge0(v(0) * tile + k(tile - 1) - v(1)));
            }
            Block::Band { n, w } => {
                out.extend(range(0, 0, n - 1));
                out.extend(range(1, 0, n - 1));
                out.push(Constraint::ge0(v(0) - v(1) + k(w)));
                out.push(Constraint::ge0(v(1) - v(0) + k(w)));
            }
            Block::EqPair { n, c, flip } => {
                out.extend(range(0, 0, n - 1));
                out.extend(range(1, 0, n - 1));
                let e = v(1) - v(0) - k(c);
                out.push(Constraint::eq(if flip { -e } else { e }));
            }
            Block::Empty { n } => {
                out.extend(range(0, 0, n - 1));
                out.extend(range(1, 0, n - 1));
                out.push(Constraint::ge0(v(0) + v(1) - k(2 * n)));
            }
        }
        out
    }
}

fn arb_block() -> impl Strategy<Value = Block> {
    prop_oneof![
        (-3i64..=3, 0i64..=9).prop_map(|(lo, w)| Block::Interval { lo, hi: lo + w }),
        (1i64..=3, -6i64..=6, 0u8..=1).prop_map(|(a, c, f)| Block::Pinned { a, c, flip: f == 1 }),
        (-1i64..=1).prop_map(|k| Block::Constant { k }),
        (1i64..=12).prop_map(|n| Block::Triangle { n }),
        (2i64..=8, -5i64..=5, 1i64..=40).prop_map(|(tile, lo, n)| Block::TilePoint { tile, lo, n }),
        (1i64..=12, 0i64..=3).prop_map(|(n, w)| Block::Band { n, w }),
        (1i64..=10, -3i64..=3, 0u8..=1).prop_map(|(n, c, f)| Block::EqPair { n, c, flip: f == 1 }),
        (1i64..=6).prop_map(|n| Block::Empty { n }),
    ]
}

/// Positions `0..n` ordered by `keys` (a random permutation).
fn permutation(keys: &[u64], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// The blocks as one basic set: block `b`'s local variables take the next
/// slots of `slots` (so blocks interleave in variable order), and the rows
/// are shuffled by `row_keys`.
fn system(blocks: &[Block], slots: &[usize], row_keys: &[u64]) -> BasicSet {
    let n: usize = blocks.iter().map(Block::vars).sum();
    let mut rows = Vec::new();
    let mut next = 0;
    for b in blocks {
        rows.extend(b.constraints(&slots[next..next + b.vars()]));
        next += b.vars();
    }
    let order = permutation(row_keys, rows.len());
    let mut set = BasicSet::universe(Space::set(0, n));
    for i in order {
        set.add_constraint(rows[i].clone());
    }
    set
}

/// Interleaves the blocks' variables by `keys`, each block keeping its own
/// variables in order (so its compact key is the same in every placement).
fn ordered_slots(blocks: &[Block], keys: &[u64]) -> Vec<usize> {
    let n: usize = blocks.iter().map(Block::vars).sum();
    let mut slots = permutation(keys, n);
    let mut next = 0;
    for b in blocks {
        slots[next..next + b.vars()].sort_unstable();
        next += b.vars();
    }
    slots
}

proptest! {
    #[test]
    fn factored_counts_match_oracles(
        blocks in proptest::collection::vec(arb_block(), 1..5),
        keys in proptest::collection::vec(0u64..1000, 8..9),
        keys2 in proptest::collection::vec(0u64..1000, 8..9),
        row_keys in proptest::collection::vec(0u64..1000, 24..25),
        row_keys2 in proptest::collection::vec(0u64..1000, 24..25),
    ) {
        let n: usize = blocks.iter().map(Block::vars).sum();
        let set = system(&blocks, &permutation(&keys, n), &row_keys);
        let expected = count_basic_enumerative(&set, CountLimit::default()).unwrap();
        let plain = Set::from_basic(set.clone());
        prop_assert_eq!(plain.count().unwrap(), expected, "uncached, {:?}", blocks);

        let mut cache = CountCache::new();
        prop_assert_eq!(plain.count_cached(&mut cache).unwrap(), expected, "cached, {:?}", blocks);
        prop_assert!(cache.len() as u64 <= cache.misses());
        prop_assert_eq!(cache.enumerated(), 0, "{:?}", blocks);

        // A repeat is one whole-key hit: nothing is looked up or counted.
        let tallies = |c: &CountCache| (c.hits(), c.misses(), c.symbolic(), c.len());
        let (hits, misses, symbolic, len) = tallies(&cache);
        prop_assert_eq!(plain.count_cached(&mut cache).unwrap(), expected);
        prop_assert_eq!(tallies(&cache), (hits + 1, misses, symbolic, len));

        // The same blocks at other positions, each block's own variables
        // in order (so its compact key does not depend on where it sits),
        // rows in another order. Once one such placement is counted,
        // another is a new whole key whose every coupled component is
        // cached (one-variable ones are counted on the spot): when the
        // question factors, nothing is counted.
        let placed = |keys: &[u64], row_keys: &[u64]| {
            Set::from_basic(system(&blocks, &ordered_slots(&blocks, keys), row_keys))
        };
        prop_assert_eq!(placed(&keys2, &row_keys).count_cached(&mut cache).unwrap(), expected);
        let (hits, misses, symbolic, len) = tallies(&cache);
        prop_assert_eq!(placed(&keys, &row_keys2).count_cached(&mut cache).unwrap(), expected);
        prop_assert!(cache.len() as u64 <= cache.misses());
        let coupled = blocks.iter().filter(|b| b.vars() == 2).count() as u64;
        let components = blocks.iter().filter(|b| b.vars() > 0).count();
        if components >= 2 && expected != 0 && cache.misses() > misses {
            prop_assert_eq!(
                tallies(&cache),
                (hits + coupled, misses + 1, symbolic, len + 1),
                "{:?}",
                blocks
            );
        }
    }
}
