//! Property tests of the shared JSON codec:
//!
//! * both renderings parse back to the value they were rendered from,
//!   integers exact over the whole `u64`/`i64` range and strings with
//!   quotes, backslashes and control characters intact;
//! * the parser returns `Ok` or `Err` — never panics — on arbitrary bytes
//!   and on every truncation of a valid document.

use proptest::prelude::*;
use proptest::{Gen, Strategy};

use flashmark_registry::json::{parse, Json};

/// String fragments that exercise every escaping path.
const PIECES: [&str; 9] = ["", "a", "\"", "\\", "\n\t\r", "\u{1}\u{1f}", "/", "é✓", "𝄞"];

fn string(g: &mut Gen) -> String {
    (0..g.next_u64() % 5)
        .map(|_| PIECES[(g.next_u64() % PIECES.len() as u64) as usize])
        .collect()
}

/// A finite float: raw bit patterns (subnormals, huge magnitudes),
/// integral values and ordinary fractions.
fn float(g: &mut Gen) -> f64 {
    match g.next_u64() % 3 {
        0 => Some(f64::from_bits(g.next_u64()))
            .filter(|x| x.is_finite())
            .unwrap_or(0.5),
        1 => (g.next_u64() % 2_000_001) as f64 - 1e6,
        _ => g.next_f64() * 1e3,
    }
}

fn value(g: &mut Gen, depth: u32) -> Json {
    let kinds = if depth < 4 { 8 } else { 6 };
    match g.next_u64() % kinds {
        0 => Json::Null,
        1 => Json::Bool(g.next_u64() & 1 == 1),
        // Non-negative integers read back as `UInt`, negative ones as `Int`.
        2 => Json::UInt([0, u64::MAX, (1 << 53) + 1, g.next_u64()][(g.next_u64() % 4) as usize]),
        3 => Json::Int(-1 - (g.next_u64() >> 1) as i64),
        4 => Json::Num(float(g)),
        5 => Json::Str(string(g)),
        6 => Json::Arr((0..g.next_u64() % 4).map(|_| value(g, depth + 1)).collect()),
        _ => Json::Obj(
            (0..g.next_u64() % 4)
                .map(|_| (string(g), value(g, depth + 1)))
                .collect(),
        ),
    }
}

/// Arbitrary JSON values up to four levels deep.
struct AnyJson;

impl Strategy for AnyJson {
    type Value = Json;

    fn sample(&self, g: &mut Gen) -> Json {
        value(g, 0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse ∘ pretty` and `parse ∘ compact` are the identity.
    #[test]
    fn renderings_roundtrip(v in AnyJson) {
        prop_assert_eq!(parse(&v.pretty()), Ok(v.clone()));
        prop_assert_eq!(parse(&v.compact()), Ok(v.clone()));
        prop_assert!(!v.compact().contains(['\n', ' ']));
    }

    /// Arbitrary bytes (lossily decoded, half of them drawn from JSON's
    /// own punctuation) and every prefix of a valid document parse to `Ok`
    /// or `Err` without panicking.
    #[test]
    fn parse_never_panics(
        draws in proptest::collection::vec(any::<u16>(), 0..64),
        v in AnyJson,
    ) {
        const ALPHABET: &[u8] = b"[]{}\",:\\/u0e9.E+-tfn \n\xc3\xa9";
        let bytes: Vec<u8> = draws
            .iter()
            .map(|&d| match d.to_le_bytes() {
                [b, hi] if hi % 2 == 0 => ALPHABET[b as usize % ALPHABET.len()],
                [b, _] => b,
            })
            .collect();
        let _ = parse(&String::from_utf8_lossy(&bytes));
        let text = v.pretty();
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let _ = parse(&text[..end]);
        }
    }
}
