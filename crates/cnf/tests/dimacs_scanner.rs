//! The DIMACS scanner against its contract: both entry points agree, and
//! both accept exactly the dialect of a straightforward line-by-line
//! parser (kept here as the reference), with the same error lines and
//! messages.

use cnf::{parse_dimacs, parse_dimacs_str, Clause, Cnf, Lit, ParseDimacsError};
use proptest::prelude::*;

/// A comparable parse outcome: the formula, or the syntax error's line and
/// message (`None` for an I/O error).
type Outcome = Result<Cnf, Option<(usize, String)>>;

fn outcome(r: Result<Cnf, ParseDimacsError>) -> Outcome {
    r.map_err(|e| match e {
        ParseDimacsError::Syntax { line, message } => Some((line, message)),
        ParseDimacsError::Io(_) => None,
    })
}

/// The reference: split into lines, trim, split each line on whitespace
/// and parse every token with `str::parse`.
fn reference(text: &str) -> Outcome {
    let err = |line: usize, message: String| Err(Some((line, message)));
    let mut formula: Option<Cnf> = None;
    let mut current = Clause::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('p') {
            if formula.is_some() {
                return err(line_no, "duplicate problem header".into());
            }
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("cnf") => {}
                other => {
                    let found = other.unwrap_or("");
                    return err(line_no, format!("expected `p cnf`, found `p {found}`"));
                }
            }
            let Some(vars) = parts.next().and_then(|t| t.parse::<u32>().ok()) else {
                return err(line_no, "missing or invalid variable count".into());
            };
            if parts.next().and_then(|t| t.parse::<usize>().ok()).is_none() {
                return err(line_no, "missing or invalid clause count".into());
            }
            if parts.next().is_some() {
                return err(line_no, "trailing tokens after header".into());
            }
            formula = Some(Cnf::new(vars));
            continue;
        }
        let Some(f) = formula.as_mut() else {
            return err(line_no, "clause data before `p cnf` header".into());
        };
        for token in trimmed.split_whitespace() {
            let Ok(value) = token.parse::<i64>() else {
                return err(line_no, format!("invalid literal token `{token}`"));
            };
            if value == 0 {
                f.add_clause(std::mem::take(&mut current));
            } else if value.unsigned_abs() > u64::from(u32::MAX / 2) {
                return err(line_no, format!("literal `{token}` out of range"));
            } else {
                current.push(Lit::from_dimacs(value as i32));
            }
        }
    }
    let mut f = formula.unwrap_or_default();
    if !current.is_empty() {
        f.add_clause(current);
    }
    Ok(f)
}

/// DIMACS-shaped text: a valid header most of the time, then a body of
/// tokens, signs, separators and line structure.
fn arb_dimacs(piece: BoxedStrategy<String>) -> impl Strategy<Value = String> {
    (
        prop_oneof![
            Just(String::new()),
            Just("p cnf 6 4\n".to_string()),
            Just("c hi\r\np cnf 3 1\r\n".to_string()),
        ],
        proptest::collection::vec(piece, 0..48),
    )
        .prop_map(|(header, body)| header + &body.concat())
}

/// Fixed pieces of ASCII input; repeats weight the draw.
const ASCII_PIECES: &[&str] = &[
    " ",
    " ",
    " ",
    "\n",
    "\n",
    "\r\n",
    "\t",
    "\x0b",
    "\x0c",
    "0",
    "0",
    "+3",
    "-0",
    "2147483647",
    "-2147483648",
    "99999999999999999999",
    "\nc note 1 2\n",
    "\n%\n",
    "\np cnf 2 2\n",
];

/// Fixed non-ASCII pieces: Unicode whitespace and a letter.
const UNICODE_PIECES: &[&str] = &["\u{a0}", "\u{2003}", "\u{85}", "é"];

fn pick(pieces: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..pieces.len())
        .prop_map(|i| pieces[i].to_string())
        .boxed()
}

fn small_int() -> BoxedStrategy<String> {
    (-8i64..=8).prop_map(|v| v.to_string()).boxed()
}

/// Pieces of plain ASCII input: small literals, fixed pieces, any byte.
fn ascii_piece() -> BoxedStrategy<String> {
    prop_oneof![
        small_int(),
        small_int(),
        pick(ASCII_PIECES),
        pick(ASCII_PIECES),
        (0u8..0x80).prop_map(|b| char::from(b).to_string()),
    ]
    .boxed()
}

/// ASCII pieces plus non-ASCII whitespace and letters.
fn unicode_piece() -> BoxedStrategy<String> {
    prop_oneof![
        ascii_piece(),
        ascii_piece(),
        ascii_piece(),
        pick(UNICODE_PIECES)
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reader_and_str_entry_points_agree(text in arb_dimacs(ascii_piece())) {
        prop_assert_eq!(
            outcome(parse_dimacs(text.as_bytes())),
            outcome(parse_dimacs_str(&text))
        );
    }

    #[test]
    fn scanner_matches_the_line_by_line_reference(text in arb_dimacs(unicode_piece())) {
        prop_assert_eq!(outcome(parse_dimacs_str(&text)), reference(&text));
    }
}

#[test]
fn invalid_utf8_yields_to_an_earlier_syntax_error() {
    let early = parse_dimacs(&b"p cnf 2 1\n1 x 0\n\xff 2 0\n"[..]);
    assert!(matches!(
        early,
        Err(ParseDimacsError::Syntax { line: 2, .. })
    ));
    let late = parse_dimacs(&b"p cnf 2 1\n1 2 0\nc \xff\n"[..]);
    assert!(matches!(late, Err(ParseDimacsError::Io(_))));
}
