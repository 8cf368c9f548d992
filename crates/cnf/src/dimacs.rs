//! DIMACS CNF reading and writing.
//!
//! The parser accepts the common dialect: `c` comment lines anywhere, `%`
//! lines (the SATLIB trailer), one `p cnf <vars> <clauses>` header,
//! whitespace-separated signed literals terminated by `0`, clauses spanning
//! multiple lines, and a missing final terminator at end of input.
//! Whitespace is what [`char::is_whitespace`] accepts; `\n` ends a line,
//! so CRLF input parses like LF input.
//!
//! Both entry points run one scanner: a single pass over the text that
//! reads literals digit by digit and allocates only the clauses it
//! returns. [`parse_dimacs_str`] scans the string in place;
//! [`parse_dimacs`] first reads its input to the end and checks that it is
//! UTF-8. The header's counts are never used to preallocate, so a hostile
//! header cannot force a large allocation.

use crate::{Clause, Cnf, Lit};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// An error produced while parsing DIMACS input.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// Underlying I/O failure (including input that is not UTF-8).
    Io(io::Error),
    /// Malformed content, with a line number and message.
    Syntax {
        /// One-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error reading DIMACS: {e}"),
            ParseDimacsError::Syntax { line, message } => {
                write!(f, "DIMACS syntax error at line {line}: {message}")
            }
        }
    }
}

impl Error for ParseDimacsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseDimacsError::Io(e) => Some(e),
            ParseDimacsError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseDimacsError {
    fn from(e: io::Error) -> Self {
        ParseDimacsError::Io(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseDimacsError {
    ParseDimacsError::Syntax {
        line,
        message: message.into(),
    }
}

/// Parses DIMACS CNF from a reader.
///
/// Reads the input to the end, then parses it as [`parse_dimacs_str`]
/// does. Pass `&mut reader` if you need the reader back afterwards.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on I/O failure, input that is not UTF-8, a
/// malformed header, a non-integer token, a literal out of the `i32`
/// range, or when the file contains a clause before the `p cnf` header.
/// A syntax error on a line before the first invalid UTF-8 byte is
/// reported in preference to the encoding error.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), cnf::ParseDimacsError> {
/// let text = "c example\np cnf 3 2\n1 2 0\n-2 3 0\n";
/// let f = cnf::parse_dimacs(text.as_bytes())?;
/// assert_eq!(f.num_vars(), 3);
/// assert_eq!(f.num_clauses(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_dimacs<R: BufRead>(mut reader: R) -> Result<Cnf, ParseDimacsError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    match std::str::from_utf8(&bytes) {
        Ok(text) => scan(text),
        Err(e) => {
            // The lines before the one holding the invalid byte are valid;
            // a syntax error there comes first, as in a line-by-line read.
            let bad_line = bytes[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |k| k + 1);
            scan(std::str::from_utf8(&bytes[..bad_line]).unwrap_or_default())?;
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
            .into())
        }
    }
}

/// Parses DIMACS CNF from an in-memory string.
///
/// # Errors
///
/// See [`parse_dimacs`].
pub fn parse_dimacs_str(text: &str) -> Result<Cnf, ParseDimacsError> {
    scan(text)
}

/// The scanner behind both entry points: one pass over `text`, line by
/// line, with no per-line allocation.
fn scan(text: &str) -> Result<Cnf, ParseDimacsError> {
    let bytes = text.as_bytes();
    let mut formula: Option<Cnf> = None;
    let mut clause: Vec<Lit> = Vec::new();
    let mut line = 0;
    let mut i = 0;
    while i < bytes.len() {
        line += 1;
        i = skip_blanks(text, i);
        match bytes.get(i) {
            None | Some(b'\n') => {}
            Some(b'c' | b'%') => i = line_end(bytes, i),
            Some(b'p') => {
                if formula.is_some() {
                    return Err(syntax(line, "duplicate problem header"));
                }
                let end = line_end(bytes, i);
                formula = Some(header(&text[i + 1..end], line)?);
                i = end;
            }
            Some(_) => {
                let f = formula
                    .as_mut()
                    .ok_or_else(|| syntax(line, "clause data before `p cnf` header"))?;
                i = clause_line(text, i, line, f, &mut clause)?;
            }
        }
        i += 1;
    }
    let mut f = formula.unwrap_or_default();
    if !clause.is_empty() {
        f.add_clause(Clause::from_lits(clause));
    }
    Ok(f)
}

/// Parses the header after its `p`. The declared clause count is checked
/// but advisory: SATLIB files often disagree with it.
fn header(rest: &str, line: usize) -> Result<Cnf, ParseDimacsError> {
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("cnf") => {}
        other => {
            return Err(syntax(
                line,
                format!("expected `p cnf`, found `p {}`", other.unwrap_or("")),
            ))
        }
    }
    let vars: u32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| syntax(line, "missing or invalid variable count"))?;
    parts
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| syntax(line, "missing or invalid clause count"))?;
    if parts.next().is_some() {
        return Err(syntax(line, "trailing tokens after header"));
    }
    Ok(Cnf::new(vars))
}

/// Reads the literals of one line starting at the non-blank byte `i`,
/// adding each clause to `f` as its `0` arrives; `clause` carries a clause
/// across lines. Returns the index of the line's end.
fn clause_line(
    text: &str,
    mut i: usize,
    line: usize,
    f: &mut Cnf,
    clause: &mut Vec<Lit>,
) -> Result<usize, ParseDimacsError> {
    let bytes = text.as_bytes();
    loop {
        let value;
        (value, i) = literal(text, i, line)?;
        if value == 0 {
            f.add_clause(Clause::from_lits(clause.as_slice()));
            clause.clear();
        } else {
            clause.push(Lit::from_dimacs(value));
        }
        i = skip_blanks(text, i);
        if bytes.get(i).is_none_or(|&b| b == b'\n') {
            return Ok(i);
        }
    }
}

/// Reads the token starting at `i` as a literal; returns its value and
/// the index after it.
fn literal(text: &str, i: usize, line: usize) -> Result<(i32, usize), ParseDimacsError> {
    let bytes = text.as_bytes();
    let negative = bytes[i] == b'-';
    let digits = if matches!(bytes[i], b'-' | b'+') {
        i + 1
    } else {
        i
    };
    let mut j = digits;
    let mut magnitude = 0u64;
    while let Some(&b) = bytes.get(j) {
        if !b.is_ascii_digit() || magnitude > i32::MAX as u64 {
            break;
        }
        magnitude = magnitude * 10 + u64::from(b - b'0');
        j += 1;
    }
    let ends = bytes.get(j).is_none_or(|&b| is_blank(b) || b == b'\n');
    if j > digits && ends && magnitude <= i32::MAX as u64 {
        let value = magnitude as i32;
        return Ok((if negative { -value } else { value }, j));
    }
    // Anything else (a malformed token, a value out of range, a non-ASCII
    // separator) is rare: take the token up to the next whitespace and
    // judge it as `str::parse::<i64>` does.
    let end = text[i..]
        .find(char::is_whitespace)
        .map_or(text.len(), |k| i + k);
    let token = &text[i..end];
    let value: i64 = token
        .parse()
        .map_err(|_| syntax(line, format!("invalid literal token `{token}`")))?;
    if value.unsigned_abs() > u64::from(u32::MAX / 2) {
        return Err(syntax(line, format!("literal `{token}` out of range")));
    }
    Ok((value as i32, end))
}

/// Whether `b` separates tokens within a line: an ASCII character that
/// [`char::is_whitespace`] accepts, other than the line feed.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

/// The first index at or after `i` that is not in-line whitespace.
fn skip_blanks(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if is_blank(b) {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            match text[i..].chars().next() {
                Some(ch) if ch.is_whitespace() => i += ch.len_utf8(),
                _ => break,
            }
        }
    }
    i
}

/// The index of the `\n` that ends the line holding `i`, or the input's
/// length on the last line.
fn line_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |k| i + k)
}

/// Writes a formula in DIMACS CNF format.
///
/// Pass `&mut writer` if you need the writer back afterwards.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = cnf::Cnf::new(2);
/// f.add_dimacs(&[1, -2]);
/// let mut out = Vec::new();
/// cnf::write_dimacs(&mut out, &f)?;
/// assert_eq!(String::from_utf8(out)?, "p cnf 2 1\n1 -2 0\n");
/// # Ok(())
/// # }
/// ```
pub fn write_dimacs<W: Write>(mut writer: W, formula: &Cnf) -> io::Result<()> {
    writeln!(
        writer,
        "p cnf {} {}",
        formula.num_vars(),
        formula.num_clauses()
    )?;
    for clause in formula.clauses() {
        for lit in clause.lits() {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders a formula to a DIMACS string.
pub fn to_dimacs_string(formula: &Cnf) -> String {
    let mut out = Vec::new();
    write_dimacs(&mut out, formula).expect("writing to Vec cannot fail");
    String::from_utf8(out).expect("DIMACS output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let f = parse_dimacs_str("p cnf 3 2\n1 2 0\n-2 3 0\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clauses()[1].lits()[0].to_dimacs(), -2);
    }

    #[test]
    fn parse_with_comments_and_blank_lines() {
        let f = parse_dimacs_str("c hi\n\np cnf 2 1\nc mid\n1 -2 0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn parse_multiline_clause_and_missing_terminator() {
        let f = parse_dimacs_str("p cnf 4 2\n1 2\n3 0 4\n-1").unwrap();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clauses()[0].len(), 3);
        assert_eq!(f.clauses()[1].len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_dimacs_str("1 2 0"),
            Err(ParseDimacsError::Syntax { line: 1, .. })
        ));
        assert!(parse_dimacs_str("p cnf x 2").is_err());
        assert!(parse_dimacs_str("p cnf 2 1\n1 zzz 0").is_err());
        assert!(parse_dimacs_str("p cnf 1 0\np cnf 1 0").is_err());
        assert!(parse_dimacs_str("p sat 3 2").is_err());
        assert!(parse_dimacs_str("p cnf 1 1 1").is_err());
    }

    #[test]
    fn roundtrip() {
        let mut f = Cnf::new(5);
        f.add_dimacs(&[1, -3, 5]);
        f.add_dimacs(&[-2]);
        f.add_dimacs(&[4, 2]);
        let text = to_dimacs_string(&f);
        let g = parse_dimacs_str(&text).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn error_display_mentions_line() {
        let err = parse_dimacs_str("p cnf 2 1\nbad 0").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn crlf_line_endings() {
        let f = parse_dimacs_str("c hi\r\np cnf 3 2\r\n1 -2 0\r\n2 3 0\r\n").unwrap();
        let g = parse_dimacs_str("c hi\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(f, g);
        assert!(matches!(
            parse_dimacs_str("p cnf 3 1\r\n1 2 0\r\n3 ? 0\r\n"),
            Err(ParseDimacsError::Syntax { line: 3, .. })
        ));
    }

    #[test]
    fn tabs_separate_tokens() {
        let f = parse_dimacs_str("p\tcnf\t3 1\n\t1\t-2\t3\t0\t\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.clauses(), &[Clause::from_dimacs(&[1, -2, 3])]);
    }

    #[test]
    fn clause_split_around_a_comment_line() {
        let f = parse_dimacs_str("p cnf 4 2\n1 -2\nc between the parts\n3 0\n4 0\n").unwrap();
        assert_eq!(
            f.clauses(),
            &[Clause::from_dimacs(&[1, -2, 3]), Clause::from_dimacs(&[4])]
        );
    }

    #[test]
    fn percent_trailer_is_skipped() {
        let f = parse_dimacs_str("p cnf 2 1\n1 2 0\n%\n0\n\n").unwrap();
        assert_eq!(f.clauses(), &[Clause::from_dimacs(&[1, 2]), Clause::new()]);
    }

    #[test]
    fn error_line_on_the_last_line() {
        for text in ["p cnf 2 1\n1 2 0\n\n1 -x", "p cnf 2 1\n1 2 0\n\n1 -x\n"] {
            let err = parse_dimacs_str(text).unwrap_err();
            assert!(
                matches!(&err, ParseDimacsError::Syntax { line: 4, message }
                    if message == "invalid literal token `-x`"),
                "{err}"
            );
        }
    }

    #[test]
    fn literal_range_and_signs() {
        let f = parse_dimacs_str("p cnf 1 1\n+1 -0 -2147483647 +0").unwrap();
        assert_eq!(
            f.clauses(),
            &[
                Clause::from_dimacs(&[1]),
                Clause::from_dimacs(&[-2147483647])
            ]
        );
        for (token, message) in [
            ("2147483648", "literal `2147483648` out of range"),
            (
                "-99999999999999999999",
                "invalid literal token `-99999999999999999999`",
            ),
            ("--1", "invalid literal token `--1`"),
            ("1-", "invalid literal token `1-`"),
            ("-", "invalid literal token `-`"),
        ] {
            let err = parse_dimacs_str(&format!("p cnf 1 1\n1 {token} 0\n")).unwrap_err();
            assert!(
                matches!(&err, ParseDimacsError::Syntax { line: 2, message: m } if m == message),
                "{token}: {err}"
            );
        }
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        let f = parse_dimacs_str("\u{2003}p cnf 2 1\n1\u{a0}-2\u{a0}0\u{a0}\n").unwrap();
        assert_eq!(f.clauses(), &[Clause::from_dimacs(&[1, -2])]);
    }

    #[test]
    fn percent_suffix_tolerated() {
        // Some SATLIB files end with a `%` line followed by `0`.
        let f = parse_dimacs_str("p cnf 2 1\n1 2 0\n%\n0\n").unwrap();
        // trailing bare `0` adds one empty clause; SATLIB quirk — the parser
        // treats it as an empty clause, callers typically simplify.
        assert!(f.num_clauses() >= 1);
    }
}
