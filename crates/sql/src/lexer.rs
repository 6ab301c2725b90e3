//! Hand-written SQL tokenizer.
//!
//! Follows DB2 lexical rules for the supported subset: unquoted identifiers
//! fold to upper case, `"double quoted"` identifiers preserve case,
//! `'string'` literals escape quotes by doubling, `--` starts a line
//! comment.

use idaa_common::{Error, Result};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, upper-cased.
    Ident(String),
    /// Double-quoted identifier, case preserved.
    QuotedIdent(String),
    /// String literal (quotes stripped, `''` unescaped).
    String(String),
    /// Integer literal.
    Integer(i64),
    /// Decimal or float literal kept as text (the parser decides DECIMAL vs
    /// DOUBLE based on presence of an exponent).
    Number(String),
    /// Punctuation / operators.
    LParen,
    RParen,
    Comma,
    Period,
    Semicolon,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    ConcatOp,
    QuestionMark,
}

impl Token {
    /// True if this token is the given keyword (case-insensitive match on
    /// unquoted identifiers only).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s == kw)
    }
}

/// Tokenize `input` into a token vector.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '?' => {
                tokens.push(Token::QuestionMark);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                tokens.push(Token::ConcatOp);
                i += 2;
            }
            '<' => {
                match bytes.get(i + 1) {
                    Some(b'=') => {
                        tokens.push(Token::LtEq);
                        i += 2;
                    }
                    Some(b'>') => {
                        tokens.push(Token::Neq);
                        i += 2;
                    }
                    _ => {
                        tokens.push(Token::Lt);
                        i += 1;
                    }
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Neq);
                i += 2;
            }
            '\'' => {
                let (s, next) = lex_quoted(input, i, '\'', "string literal")?;
                tokens.push(Token::String(s));
                i = next;
            }
            '"' => {
                let (s, next) = lex_quoted(input, i, '"', "quoted identifier")?;
                tokens.push(Token::QuotedIdent(s));
                i = next;
            }
            '.' if bytes.get(i + 1).map(|b| b.is_ascii_digit()).unwrap_or(false) => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            '.' => {
                tokens.push(Token::Period);
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_ascii_uppercase()));
            }
            other => {
                return Err(Error::Parse(format!("unexpected character '{other}' at offset {i}")));
            }
        }
    }
    Ok(tokens)
}

/// The token between `quote` characters opening at byte `start`, a doubled
/// quote standing for one, and the offset after its closing quote. `what`
/// names the token in the unterminated error.
fn lex_quoted(input: &str, start: usize, quote: char, what: &str) -> Result<(String, usize)> {
    let body = start + quote.len_utf8();
    let mut out = String::new();
    let mut chars = input[body..].char_indices().peekable();
    while let Some((i, ch)) = chars.next() {
        if ch != quote {
            out.push(ch);
        } else if chars.next_if(|&(_, c)| c == quote).is_some() {
            out.push(quote);
        } else {
            return Ok((out, body + i + quote.len_utf8()));
        }
    }
    Err(Error::Parse(format!("unterminated {what}")))
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut saw_dot = false;
    let mut saw_exp = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !saw_dot && !saw_exp => {
                saw_dot = true;
                i += 1;
            }
            b'e' | b'E' if !saw_exp && i > start => {
                saw_exp = true;
                i += 1;
                if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let text = &input[start..i];
    if saw_dot || saw_exp {
        Ok((Token::Number(text.to_string()), i))
    } else {
        let v: i64 = text
            .parse()
            .map_err(|_| Error::Parse(format!("integer literal '{text}' out of range")))?;
        Ok((Token::Integer(v), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_fold_upper() {
        let t = tokenize("select Foo from bar").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("FOO".into()),
                Token::Ident("FROM".into()),
                Token::Ident("BAR".into()),
            ]
        );
    }

    #[test]
    fn strings_preserve_case_and_escape() {
        let t = tokenize("'It''s Fine'").unwrap();
        assert_eq!(t, vec![Token::String("It's Fine".into())]);
    }

    #[test]
    fn quoted_idents_preserve_case() {
        let t = tokenize("\"MixedCase\"").unwrap();
        assert_eq!(t, vec![Token::QuotedIdent("MixedCase".into())]);
    }

    #[test]
    fn quoted_tokens_keep_multibyte_text_and_undouble_quotes() {
        let t = tokenize("'Zoë''s café — 東京' = \"Größe \"\"Ω\"\"\" x").unwrap();
        assert_eq!(
            t,
            vec![
                Token::String("Zoë's café — 東京".into()),
                Token::Eq,
                Token::QuotedIdent("Größe \"Ω\"".into()),
                Token::Ident("X".into()),
            ]
        );
        let err = tokenize("'naïve").unwrap_err().to_string();
        assert!(err.contains("unterminated string literal"), "{err}");
        let err = tokenize("\"ß\"\"").unwrap_err().to_string();
        assert!(err.contains("unterminated quoted identifier"), "{err}");
    }

    #[test]
    fn numbers() {
        assert_eq!(tokenize("42").unwrap(), vec![Token::Integer(42)]);
        assert_eq!(tokenize("4.5").unwrap(), vec![Token::Number("4.5".into())]);
        assert_eq!(tokenize("1e-3").unwrap(), vec![Token::Number("1e-3".into())]);
        assert_eq!(tokenize(".5").unwrap(), vec![Token::Number(".5".into())]);
    }

    #[test]
    fn operators() {
        let t = tokenize("a <= b <> c >= d != e || f").unwrap();
        assert!(t.contains(&Token::LtEq));
        assert_eq!(t.iter().filter(|x| **x == Token::Neq).count(), 2);
        assert!(t.contains(&Token::GtEq));
        assert!(t.contains(&Token::ConcatOp));
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("select 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(t, vec![
            Token::Ident("SELECT".into()),
            Token::Integer(1),
            Token::Comma,
            Token::Integer(2),
        ]);
    }

    #[test]
    fn qualified_name_periods() {
        let t = tokenize("dwh.sales").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("DWH".into()),
                Token::Period,
                Token::Ident("SALES".into())
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(tokenize("select #").is_err());
    }

    #[test]
    fn huge_integer_errors() {
        assert!(tokenize("99999999999999999999999").is_err());
    }
}
