//! A minimal, dependency-free Rust tokenizer.
//!
//! The lint rules in this crate need just enough lexical structure to be
//! reliable: comments, strings (including raw strings), character literals
//! vs. lifetimes, numbers (with float detection), identifiers, and
//! multi-character operators. Everything else is a single punctuation
//! token. The build environment is offline, so reaching for `syn` is not an
//! option — and token-level analysis is all the rules require.

/// The coarse classification the lint rules dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal.
    Int,
    /// Floating-point literal (contains `.` or an exponent, or a float
    /// suffix).
    Float,
    /// String, byte-string, or character literal.
    Str,
    /// Lifetime (`'a`) — distinct from `Str` so `'a` never looks like a
    /// character literal.
    Lifetime,
    /// Operator or punctuation, possibly multi-character (`==`, `::`, ...).
    Punct,
    /// Doc comment (`///`, `//!`, `/** */`, `/*! */`).
    DocComment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token's text (for `Punct`, the full operator).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Token {
    /// Whether this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Whether this is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }

    /// Whether this is any identifier (or keyword).
    pub fn is_ident_kind(&self) -> bool {
        self.kind == TokenKind::Ident
    }
}

/// A lexed source file: the token stream plus the inline lint-suppression
/// annotations found in ordinary comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order (comments omitted, doc comments kept).
    pub tokens: Vec<Token>,
    /// `(line, rule)` pairs from `// xtask: allow(<rule>) <reason>`
    /// comments; a diagnostic of `rule` on `line` is suppressed.
    pub allows: Vec<(u32, String)>,
}

impl Lexed {
    /// Whether a diagnostic of `rule` at `line` is suppressed by an inline
    /// annotation on the same line or on the line directly above.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| (*l == line || l + 1 == line) && r == rule)
    }
}

/// Multi-character operators, longest first so matching is greedy.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "|=", "&=", "<<", ">>",
];

/// Tokenizes `src`. Invalid input never panics: unrecognized bytes become
/// single-character `Punct` tokens and unterminated literals run to the end
/// of the file.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            out.tokens.push(Token {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            match chars[i + 1] {
                '/' => {
                    let start = i;
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                    let text: String = chars[start..i].iter().collect();
                    if text.starts_with("///") || text.starts_with("//!") {
                        push!(TokenKind::DocComment, text, line);
                    } else if let Some(rule) = parse_allow(&text) {
                        out.allows.push((line, rule));
                    }
                    continue;
                }
                '*' => {
                    let start_line = line;
                    let is_doc = matches!(chars.get(i + 2), Some('*') | Some('!'))
                        && chars.get(i + 3) != Some(&'/');
                    let mut depth = 0usize;
                    while i < chars.len() {
                        if chars[i] == '\n' {
                            line += 1;
                            i += 1;
                        } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                            depth += 1;
                            i += 2;
                        } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                            depth -= 1;
                            i += 2;
                            if depth == 0 {
                                break;
                            }
                        } else {
                            i += 1;
                        }
                    }
                    if is_doc {
                        push!(TokenKind::DocComment, String::from("/** */"), start_line);
                    }
                    continue;
                }
                _ => {}
            }
        }
        // Strings, byte strings, raw strings.
        if c == '"' {
            i = consume_string(&chars, i, &mut line);
            push!(TokenKind::Str, String::from("\"\""), line);
            continue;
        }
        if (c == 'r' || c == 'b') && is_raw_or_byte_literal(&chars, i) {
            let start_line = line;
            i = consume_prefixed_literal(&chars, i, &mut line);
            push!(TokenKind::Str, String::from("\"\""), start_line);
            continue;
        }
        // Character literal or lifetime.
        if c == '\'' {
            if is_lifetime(&chars, i) {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                push!(TokenKind::Lifetime, text, line);
            } else {
                i += 1; // opening quote
                while i < chars.len() && chars[i] != '\'' {
                    if chars[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1; // closing quote
                push!(TokenKind::Str, String::from("''"), line);
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            i += 1;
            // Radix prefixes: hex/octal/binary are always integers.
            if c == '0' && matches!(chars.get(i), Some('x') | Some('o') | Some('b')) {
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            } else {
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                // Fractional part: `.` followed by a digit (not `..` or a
                // method call on the literal).
                if chars.get(i) == Some(&'.')
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                // Exponent.
                if matches!(chars.get(i), Some('e') | Some('E'))
                    && (chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                        || (matches!(chars.get(i + 1), Some('+') | Some('-'))
                            && chars.get(i + 2).is_some_and(|d| d.is_ascii_digit())))
                {
                    is_float = true;
                    i += 1;
                    if matches!(chars.get(i), Some('+') | Some('-')) {
                        i += 1;
                    }
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Suffix (u32, f64, ...).
                let suffix_start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let suffix: String = chars[suffix_start..i].iter().collect();
                if suffix.starts_with('f') {
                    is_float = true;
                }
            }
            let text: String = chars[start..i].iter().collect();
            let kind = if is_float {
                TokenKind::Float
            } else {
                TokenKind::Int
            };
            push!(kind, text, line);
            continue;
        }
        // Identifiers and keywords.
        if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            push!(TokenKind::Ident, text, line);
            continue;
        }
        // Operators, longest match first.
        let mut matched = false;
        for op in OPERATORS {
            let len = op.len();
            if i + len <= chars.len() && chars[i..i + len].iter().collect::<String>() == **op {
                push!(TokenKind::Punct, (*op).to_string(), line);
                i += len;
                matched = true;
                break;
            }
        }
        if !matched {
            push!(TokenKind::Punct, c.to_string(), line);
            i += 1;
        }
    }
    out
}

/// Extracts the rule name from a `// xtask: allow(<rule>) ...` comment.
fn parse_allow(comment: &str) -> Option<String> {
    let rest = comment.split("xtask: allow(").nth(1)?;
    let rule = rest.split(')').next()?.trim();
    if rule.is_empty() {
        None
    } else {
        Some(rule.to_string())
    }
}

/// Whether the `'` at position `i` starts a lifetime rather than a
/// character literal: an identifier follows with no closing quote right
/// after the first character.
fn is_lifetime(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => false,
        Some(c) if c.is_alphanumeric() || *c == '_' => chars.get(i + 2) != Some(&'\''),
        _ => false,
    }
}

/// Whether position `i` (at `r` or `b`) starts a raw/byte string or byte
/// char literal rather than an identifier.
fn is_raw_or_byte_literal(chars: &[char], i: usize) -> bool {
    // An identifier character right before means this `r`/`b` is part of a
    // longer identifier (e.g. `for`, `grab"..."` cannot happen lexically).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    match chars[i] {
        'r' => {
            matches!(chars.get(i + 1), Some('"') | Some('#') if raw_hashes_then_quote(chars, i + 1))
        }
        'b' => match chars.get(i + 1) {
            Some('"') | Some('\'') => true,
            Some('r') => raw_hashes_then_quote(chars, i + 2),
            _ => false,
        },
        _ => false,
    }
}

/// Whether `#`* followed by `"` starts at `i` (also true for a bare `"`).
fn raw_hashes_then_quote(chars: &[char], mut i: usize) -> bool {
    while chars.get(i) == Some(&'#') {
        i += 1;
    }
    chars.get(i) == Some(&'"')
}

/// Consumes a plain `"..."` (or `b"..."`) string starting at the opening
/// quote; returns the index one past the closing quote. Counts every
/// newline inside, including one escaped by a `\` line continuation.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes an `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, or `b'x'`
/// literal starting at the prefix; returns the index one past the end.
fn consume_prefixed_literal(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    if chars[i] == 'b' {
        i += 1;
    }
    if chars.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    if chars.get(i) == Some(&'\'') {
        // byte char literal
        i += 1;
        while i < chars.len() && chars[i] != '\'' {
            if chars[i] == '\\' {
                i += 1;
            }
            i += 1;
        }
        return i + 1;
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if !raw {
        // plain byte string: handles escapes
        return consume_string(chars, i, line);
    }
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Strips items annotated `#[cfg(test)]` (and any `cfg(all(test, ...))`
/// style attribute mentioning `test`) from the token stream: lint rules
/// apply to shipped code, not to tests, which use `unwrap` and friends
/// idiomatically.
pub fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Parse the attribute to its closing bracket.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut mentions_cfg = false;
            let mut mentions_test = false;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                } else if t.is_ident("cfg") {
                    mentions_cfg = true;
                } else if t.is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if mentions_cfg && mentions_test {
                // Skip any further attributes and doc comments, then the
                // annotated item itself.
                i = skip_item(tokens, j);
                continue;
            }
            // Ordinary attribute: keep it.
            out.extend(tokens[i..j].iter().cloned());
            i = j;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Returns the index one past the item starting at `i` (skipping leading
/// attributes and doc comments): either the matching close of its first
/// top-level brace block or its terminating semicolon.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Leading doc comments and further attributes.
    loop {
        if tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::DocComment)
        {
            i += 1;
            continue;
        }
        if tokens.get(i).is_some_and(|t| t.is_punct("#"))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
        {
            let mut depth = 0usize;
            i += 1;
            while i < tokens.len() {
                if tokens[i].is_punct("[") {
                    depth += 1;
                } else if tokens[i].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            continue;
        }
        break;
    }
    // The item body: everything up to the first `;` or brace block at
    // bracket/paren depth zero.
    let mut paren = 0isize;
    let mut bracket = 0isize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(";") {
                return i + 1;
            }
            if t.is_punct("{") {
                let mut depth = 0usize;
                while i < tokens.len() {
                    if tokens[i].is_punct("{") {
                        depth += 1;
                    } else if tokens[i].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                    i += 1;
                }
                return i;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let src = "let x = \"unwrap()\"; // unwrap()\n/* panic! */ let y = 1;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let s = r#\"[0] panic!\"#; let c = '\\''; let l: &'a str = b\"x[1]\";";
        let toks = lex(src);
        assert!(toks.tokens.iter().all(|t| !t.is_punct("[")));
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = lex("a[0]; 1.5; 2e-3; 0x1f; 1..4; 3f64");
        let kinds: Vec<(TokenKind, String)> = toks
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
            .map(|t| (t.kind, t.text.clone()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (TokenKind::Int, "0".into()),
                (TokenKind::Float, "1.5".into()),
                (TokenKind::Float, "2e-3".into()),
                (TokenKind::Int, "0x1f".into()),
                (TokenKind::Int, "1".into()),
                (TokenKind::Int, "4".into()),
                (TokenKind::Float, "3f64".into()),
            ]
        );
    }

    #[test]
    fn multi_char_operators_stay_whole() {
        let toks = lex("a == b; c != d; e..=f; g::h");
        let ops: Vec<String> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct && t.text.len() > 1)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(ops, vec!["==", "!=", "..=", "::"]);
    }

    #[test]
    fn allow_annotations_are_collected() {
        let src =
            "let x = a[i]; // xtask: allow(no-index) audited access\nlet y = b[j];\nlet z = 1;";
        let toks = lex(src);
        assert!(toks.is_allowed("no-index", 1));
        // A standalone annotation line covers the line below it, but no
        // further.
        assert!(toks.is_allowed("no-index", 2));
        assert!(!toks.is_allowed("no-index", 3));
        assert!(!toks.is_allowed("no-panic", 1));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nlet t = 1;";
        let toks = lex(src);
        let t = toks.tokens.iter().find(|t| t.is_ident("t")).unwrap();
        assert_eq!(t.line, 4);
    }

    #[test]
    fn line_numbers_survive_escaped_newlines() {
        for src in [
            "let s = \"a \\\n b\";\nlet t = 1;",
            "let s = b\"a \\\n b\";\nlet t = 1;",
        ] {
            let toks = lex(src);
            let t = toks.tokens.iter().find(|t| t.is_ident("t")).unwrap();
            assert_eq!(t.line, 3, "{src:?}");
        }
    }

    #[test]
    fn strip_test_items_removes_cfg_test_mod() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\nfn after() {}";
        let toks = lex(src);
        let stripped = strip_test_items(&toks.tokens);
        let ids: Vec<&str> = stripped
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ids.contains(&"live"));
        assert!(ids.contains(&"after"));
        assert!(!ids.contains(&"tests"));
        assert!(!ids.contains(&"y"));
    }

    #[test]
    fn strip_test_items_handles_annotated_fn_with_more_attrs() {
        let src = "#[cfg(test)]\n#[inline]\nfn helper() -> u32 { 3 }\npub fn kept() {}";
        let toks = lex(src);
        let stripped = strip_test_items(&toks.tokens);
        let ids: Vec<&str> = stripped
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!ids.contains(&"helper"));
        assert!(ids.contains(&"kept"));
    }

    #[test]
    fn non_test_cfg_attributes_are_kept() {
        let src = "#[cfg(feature = \"checks\")]\nfn gated() {}";
        let toks = lex(src);
        let stripped = strip_test_items(&toks.tokens);
        let ids: Vec<&str> = stripped
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ids.contains(&"gated"));
        assert!(ids.contains(&"cfg"));
    }
}
