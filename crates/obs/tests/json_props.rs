//! Property tests for the workspace's one JSON codec: every value renders,
//! in both layouts, to text that parses back to the same value, and no
//! input — however malformed — makes the parser panic.

use cm5_obs::Json;
use proptest::prelude::*;

/// A character that stresses the escaper: every control character,
/// quotes, backslashes, a slash, and multi-byte and non-BMP characters.
fn char_from(word: u64) -> char {
    const SPECIAL: [char; 8] = [
        '"',
        '\\',
        '/',
        'a',
        'é',
        '\u{2028}',
        '\u{FFFF}',
        '\u{1F600}',
    ];
    match (word % 40) as u32 {
        w @ 0..=31 => char::from_u32(w).expect("control characters are chars"),
        w => SPECIAL[(w - 32) as usize],
    }
}

/// A finite number from raw bits: whole-range doubles (subnormals and
/// huge magnitudes included), fractions and integers.
fn number(bits: u64) -> f64 {
    match bits % 3 {
        0 => Some(f64::from_bits(bits))
            .filter(|x| x.is_finite())
            .unwrap_or(0.5),
        1 => (bits >> 32) as f64 / 1000.0 - 1e6,
        _ => (bits >> 11) as f64,
    }
}

/// Builds a value from a word stream: each word picks the next node, so
/// the proptest's flat `Vec<u64>` strategy drives a recursive grammar.
struct Gen<'a> {
    words: &'a [u64],
    at: usize,
}

impl Gen<'_> {
    fn next(&mut self) -> u64 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w
    }

    fn string(&mut self) -> String {
        let len = self.next() % 6;
        (0..len).map(|_| char_from(self.next())).collect()
    }

    fn value(&mut self, depth: usize) -> Json {
        let w = self.next();
        match w % if depth >= 4 { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(w & 8 != 0),
            2 => Json::num(number(self.next())),
            3 => Json::Str(self.string()),
            4 => Json::Arr(
                (0..self.next() % 4)
                    .map(|_| self.value(depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..self.next() % 4)
                    .map(|_| (self.string(), self.value(depth + 1)))
                    .collect(),
            ),
        }
    }
}

fn generate(words: &[u64]) -> Json {
    Gen { words, at: 0 }.value(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn both_layouts_round_trip(words in prop::collection::vec(any::<u64>(), 1..120)) {
        let v = generate(&words);
        let compact = v.render();
        prop_assert_eq!(Json::parse(&compact), Ok(v.clone()));
        prop_assert_eq!(Json::parse(&v.render_doc()), Ok(v.clone()));
        // Rendering is a fixed point, and the compact layout is one line.
        prop_assert_eq!(Json::parse(&compact).unwrap().render(), compact.clone());
        prop_assert!(!compact.contains('\n'));
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_mangled_documents(
        words in prop::collection::vec(any::<u64>(), 1..60),
        edits in prop::collection::vec((any::<usize>(), 0usize..24), 1..8),
    ) {
        // Valid text with a few bytes overwritten by JSON punctuation (or
        // cut short) reaches deep parser states random bytes never do.
        const SYNTAX: &[u8] = b"{}[]\":,\\u0d8e.E+-tn ";
        let mut bytes = generate(&words).render_doc().into_bytes();
        for &(at, b) in &edits {
            if bytes.is_empty() {
                break;
            }
            let at = at % bytes.len();
            match SYNTAX.get(b) {
                Some(&s) => bytes[at] = s,
                None => bytes.truncate(at),
            }
        }
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}
