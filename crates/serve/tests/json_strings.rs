//! The wire's string escaper and parser round-trip every string: plain
//! runs, both characters JSON must escape, every control byte, DEL and
//! multi-byte scalars, in any mix. The parser copies plain runs in bulk,
//! so a run that ends one byte early or late shows up here as a dropped,
//! doubled or mis-escaped character.
//!
//! Run deeper with `PROPTEST_CASES=4096 cargo test --release -p
//! polyufc-serve --test json_strings`.

use proptest::prelude::*;

use polyufc_serve::json::{self, Value};

/// Plain ASCII, the two characters escaped by name, DEL, a two-byte and
/// a four-byte scalar. The 32 control bytes follow them in the alphabet.
const PRINTABLE: [char; 15] = [
    'a', 'z', '0', '9', ' ', '{', '}', ':', ',', '/', '"', '\\', '\u{7f}', 'é', '😀',
];
const ALPHABET_LEN: usize = PRINTABLE.len() + 0x20;

fn letter(i: usize) -> char {
    PRINTABLE
        .get(i)
        .copied()
        .unwrap_or_else(|| char::from((i - PRINTABLE.len()) as u8))
}

fn strings() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET_LEN, 0..64)
        .prop_map(|picks| picks.into_iter().map(letter).collect())
}

proptest! {
    #[test]
    fn parse_inverts_push_escaped(s in strings()) {
        let mut doc = String::new();
        json::push_escaped(&mut doc, &s);
        prop_assert_eq!(json::parse(&doc), Ok(Value::Str(s)));
    }
}
