//! Recursive-descent parser for the pattern language.
//!
//! Supported syntax (a practical subset of PCRE sufficient for Wappalyzer
//! style fingerprints):
//!
//! * literals, `.` (any char but `\n`), `^`, `$`
//! * escapes: `\d \D \w \W \s \S \n \r \t \f \v \0 \xHH` and escaped
//!   punctuation (`\.`, `\/`, `\\`, …)
//! * character classes `[a-z0-9.\-]`, negated classes `[^…]`, perl classes
//!   inside classes
//! * quantifiers `* + ?` and `{m}`, `{m,}`, `{m,n}`, each with a lazy `?`
//!   suffix
//! * capturing groups `(…)` and non-capturing groups `(?:…)`
//! * alternation `a|b|c`

use crate::ast::{Ast, ClassSet, Group, Repeat};
use crate::Error;

/// Maximum allowed repetition bound; prevents pathological programs.
const MAX_REPEAT: u32 = 1000;

/// Parses `pattern`, returning the AST and the number of capturing groups.
pub(crate) fn parse(pattern: &str) -> Result<(Ast, u32), Error> {
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
        group_count: 0,
        depth: 0,
    };
    let ast = p.parse_alternate()?;
    if p.pos != p.chars.len() {
        return Err(p.error("unbalanced ')'"));
    }
    Ok((ast, p.group_count))
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    group_count: u32,
    depth: usize,
}

impl Parser {
    fn error(&self, msg: &str) -> Error {
        Error::Parse {
            message: msg.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_alternate(&mut self) -> Result<Ast, Error> {
        self.depth += 1;
        if self.depth > 100 {
            return Err(self.error("pattern nested too deeply"));
        }
        let mut branches = vec![self.parse_concat()?];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        self.depth -= 1;
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alternate(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, Error> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            let atom = self.parse_atom()?;
            let atom = self.parse_quantifier(atom)?;
            items.push(atom);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("one item"),
            _ => Ast::Concat(items),
        })
    }

    fn parse_atom(&mut self) -> Result<Ast, Error> {
        match self.bump().expect("caller checked peek") {
            '(' => {
                let index = if self.eat('?') {
                    if self.eat(':') {
                        None
                    } else {
                        return Err(self.error("unsupported group flag (only (?:…) is supported)"));
                    }
                } else {
                    self.group_count += 1;
                    Some(self.group_count)
                };
                let inner = self.parse_alternate()?;
                if !self.eat(')') {
                    return Err(self.error("missing ')'"));
                }
                Ok(Ast::Group(Box::new(Group { index, node: inner })))
            }
            '[' => self.parse_class().map(Ast::Class),
            '.' => Ok(Ast::Dot),
            '^' => Ok(Ast::StartAnchor),
            '$' => Ok(Ast::EndAnchor),
            '\\' => self.parse_escape(),
            '*' | '+' | '?' => Err(self.error("quantifier with nothing to repeat")),
            c => Ok(Ast::Literal(c)),
        }
    }

    fn parse_escape(&mut self) -> Result<Ast, Error> {
        let c = self.bump().ok_or_else(|| self.error("dangling '\\'"))?;
        Ok(match c {
            'd' => Ast::Class(ClassSet::digits()),
            'D' => Ast::Class(ClassSet::digits().negate()),
            'w' => Ast::Class(ClassSet::word()),
            'W' => Ast::Class(ClassSet::word().negate()),
            's' => Ast::Class(ClassSet::space()),
            'S' => Ast::Class(ClassSet::space().negate()),
            'n' => Ast::Literal('\n'),
            'r' => Ast::Literal('\r'),
            't' => Ast::Literal('\t'),
            'f' => Ast::Literal('\x0C'),
            'v' => Ast::Literal('\x0B'),
            '0' => Ast::Literal('\0'),
            'x' => Ast::Literal(self.parse_hex(2)?),
            'u' => Ast::Literal(self.parse_hex(4)?),
            'b' | 'B' => return Err(self.error("word boundaries are not supported")),
            c if c.is_ascii_alphanumeric() => {
                return Err(self.error("unknown escape"));
            }
            c => Ast::Literal(c),
        })
    }

    fn parse_hex(&mut self, digits: usize) -> Result<char, Error> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.error("truncated hex escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit"))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.error("escape is not a valid character"))
    }

    fn parse_class(&mut self) -> Result<ClassSet, Error> {
        let mut set = ClassSet::new();
        let negated = self.eat('^');
        // `]` as the very first member is a literal.
        if self.eat(']') {
            set.push_char(']');
        }
        loop {
            let c = match self.bump() {
                None => return Err(self.error("unterminated character class")),
                Some(']') => break,
                Some(c) => c,
            };
            let lo = match c {
                '\\' => match self.class_escape()? {
                    ClassAtom::Char(c) => c,
                    ClassAtom::Set(s) => {
                        set.push_set(&s);
                        if s.negated {
                            // Negated perl classes inside a class are rare and
                            // would require full set complement; reject.
                            return Err(self.error("negated perl class inside [...]"));
                        }
                        continue;
                    }
                },
                c => c,
            };
            // Possible range `lo-hi`.
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.pos += 1; // consume '-'
                let hi = match self.bump() {
                    None => return Err(self.error("unterminated character class")),
                    Some('\\') => match self.class_escape()? {
                        ClassAtom::Char(c) => c,
                        ClassAtom::Set(_) => return Err(self.error("perl class as range endpoint")),
                    },
                    Some(c) => c,
                };
                if hi < lo {
                    return Err(self.error("invalid range (hi < lo)"));
                }
                set.push_range(lo, hi);
            } else {
                set.push_char(lo);
            }
        }
        set.negated = negated;
        set.canonicalize();
        Ok(set)
    }

    fn class_escape(&mut self) -> Result<ClassAtom, Error> {
        let c = self
            .bump()
            .ok_or_else(|| self.error("dangling '\\' in class"))?;
        Ok(match c {
            'd' => ClassAtom::Set(ClassSet::digits()),
            'D' => ClassAtom::Set(ClassSet::digits().negate()),
            'w' => ClassAtom::Set(ClassSet::word()),
            'W' => ClassAtom::Set(ClassSet::word().negate()),
            's' => ClassAtom::Set(ClassSet::space()),
            'S' => ClassAtom::Set(ClassSet::space().negate()),
            'n' => ClassAtom::Char('\n'),
            'r' => ClassAtom::Char('\r'),
            't' => ClassAtom::Char('\t'),
            'f' => ClassAtom::Char('\x0C'),
            'v' => ClassAtom::Char('\x0B'),
            '0' => ClassAtom::Char('\0'),
            'x' => ClassAtom::Char(self.parse_hex(2)?),
            'u' => ClassAtom::Char(self.parse_hex(4)?),
            c if c.is_ascii_alphanumeric() => return Err(self.error("unknown escape in class")),
            c => ClassAtom::Char(c),
        })
    }

    fn parse_quantifier(&mut self, atom: Ast) -> Result<Ast, Error> {
        let (min, max) = match self.peek() {
            Some('*') => (0, None),
            Some('+') => (1, None),
            Some('?') => (0, Some(1)),
            Some('{') => return self.parse_counted(atom),
            _ => return Ok(atom),
        };
        self.pos += 1;
        let greedy = !self.eat('?');
        self.reject_double_quantifier()?;
        Ok(Ast::Repeat(Box::new(Repeat {
            node: atom,
            min,
            max,
            greedy,
        })))
    }

    fn parse_counted(&mut self, atom: Ast) -> Result<Ast, Error> {
        let start = self.pos;
        self.pos += 1; // consume '{'
        let min = match self.parse_number() {
            Some(n) => n,
            None => {
                // Not a quantifier after all — `{` is a literal appended
                // after the atom.
                self.pos = start + 1;
                return Ok(Ast::Concat(vec![atom, Ast::Literal('{')]));
            }
        };
        let max = if self.eat(',') {
            if self.peek() == Some('}') {
                None
            } else {
                Some(
                    self.parse_number()
                        .ok_or_else(|| self.error("expected number after ','"))?,
                )
            }
        } else {
            Some(min)
        };
        if !self.eat('}') {
            return Err(self.error("missing '}'"));
        }
        if let Some(m) = max {
            if m < min {
                return Err(self.error("repetition max < min"));
            }
        }
        if min > MAX_REPEAT || max.unwrap_or(0) > MAX_REPEAT {
            return Err(self.error("repetition bound too large"));
        }
        let greedy = !self.eat('?');
        self.reject_double_quantifier()?;
        Ok(Ast::Repeat(Box::new(Repeat {
            node: atom,
            min,
            max,
            greedy,
        })))
    }

    fn reject_double_quantifier(&self) -> Result<(), Error> {
        if matches!(self.peek(), Some('*') | Some('+')) {
            return Err(self.error("double quantifier"));
        }
        Ok(())
    }

    fn parse_number(&mut self) -> Option<u32> {
        let start = self.pos;
        let mut value: u32 = 0;
        while let Some(c) = self.peek() {
            match c.to_digit(10) {
                Some(d) => {
                    value = value.saturating_mul(10).saturating_add(d);
                    self.pos += 1;
                }
                None => break,
            }
        }
        if self.pos == start {
            None
        } else {
            Some(value)
        }
    }
}

enum ClassAtom {
    Char(char),
    Set(ClassSet),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(p: &str) -> Ast {
        parse(p).expect("parse ok").0
    }

    #[test]
    fn parses_literals_and_concat() {
        assert_eq!(
            ok("ab"),
            Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('b')])
        );
        assert_eq!(ok("a"), Ast::Literal('a'));
        assert_eq!(ok(""), Ast::Empty);
    }

    #[test]
    fn parses_alternation_with_priority_order() {
        match ok("a|b|c") {
            Ast::Alternate(v) => assert_eq!(v.len(), 3),
            other => panic!("expected alternation, got {other:?}"),
        }
    }

    #[test]
    fn parses_quantifiers() {
        match ok("a*") {
            Ast::Repeat(r) => {
                assert_eq!((r.min, r.max, r.greedy), (0, None, true));
            }
            other => panic!("{other:?}"),
        }
        match ok("a+?") {
            Ast::Repeat(r) => {
                assert_eq!((r.min, r.max, r.greedy), (1, None, false));
            }
            other => panic!("{other:?}"),
        }
        match ok("a{2,5}") {
            Ast::Repeat(r) => {
                assert_eq!((r.min, r.max), (2, Some(5)));
            }
            other => panic!("{other:?}"),
        }
        match ok("a{3}") {
            Ast::Repeat(r) => assert_eq!((r.min, r.max), (3, Some(3))),
            other => panic!("{other:?}"),
        }
        match ok("a{2,}") {
            Ast::Repeat(r) => assert_eq!((r.min, r.max), (2, None)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lone_brace_is_literal() {
        assert_eq!(
            ok("a{b"),
            Ast::Concat(vec![
                Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('{')]),
                Ast::Literal('b'),
            ])
        );
    }

    #[test]
    fn counts_capture_groups() {
        let (_, n) = parse("(a)(?:b)(c(d))").expect("parse ok");
        assert_eq!(n, 3);
    }

    #[test]
    fn class_with_ranges_and_escapes() {
        match ok(r"[a-z0-9.\-]") {
            Ast::Class(c) => {
                assert!(c.matches('q'));
                assert!(c.matches('7'));
                assert!(c.matches('.'));
                assert!(c.matches('-'));
                assert!(!c.matches('_'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negated_class() {
        match ok("[^<]") {
            Ast::Class(c) => {
                assert!(!c.matches('<'));
                assert!(c.matches('x'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn leading_bracket_is_literal_in_class() {
        match ok("[]a]") {
            Ast::Class(c) => {
                assert!(c.matches(']'));
                assert!(c.matches('a'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("(").is_err());
        assert!(parse(")").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("*a").is_err());
        assert!(parse(r"\q").is_err());
        assert!(parse("a{5,2}").is_err());
        assert!(parse("a**").is_err());
        assert!(parse("a{2000}").is_err());
        assert!(parse(r"\x1").is_err());
        assert!(parse("(?<name>a)").is_err());
    }

    #[test]
    fn hex_escapes() {
        assert_eq!(ok(r"\x41"), Ast::Literal('A'));
        assert_eq!(ok(r"A"), Ast::Literal('A'));
    }
}
