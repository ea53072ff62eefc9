//! Compilation from the AST to a bytecode program for the Pike VM.
//!
//! The instruction set follows the classic Thompson construction with
//! capture slots (`Save`). `Split` encodes priority: the first target is
//! preferred, which yields leftmost-greedy (perl-like) match semantics when
//! executed by the priority-aware VM in [`crate::vm`].

use crate::ast::{Ast, ClassSet, Repeat};
use crate::Error;

/// Upper bound on compiled program size, guarding against counted
/// repetitions exploding the program.
const MAX_PROGRAM: usize = 100_000;

/// A single VM instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Match one specific character and advance.
    Char(char),
    /// Match any character in the indexed class and advance.
    Class(u32),
    /// Match any character except `\n` and advance.
    Any,
    /// Try `0` first, then `1` (priority order), consuming nothing.
    Split(u32, u32),
    /// Unconditional jump, consuming nothing.
    Jmp(u32),
    /// Store the current position into capture slot `0`.
    Save(u16),
    /// Succeed only at the start of the haystack.
    AssertStart,
    /// Succeed only at the end of the haystack.
    AssertEnd,
    /// Successful match.
    Match,
}

/// A compiled pattern program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction stream; entry point is instruction 0.
    pub insts: Vec<Inst>,
    /// Character classes referenced by [`Inst::Class`].
    pub classes: Vec<ClassSet>,
    /// Number of capturing groups (excluding the implicit group 0).
    pub group_count: u32,
    /// Number of capture slots (`2 * (group_count + 1)`).
    pub slot_count: usize,
    /// Whether matching folds ASCII case.
    pub case_insensitive: bool,
    /// Literals one of which every match starts with; empty when a match
    /// may start with anything. Lower-cased when `case_insensitive` is set.
    pub literal_prefixes: Vec<String>,
    /// The longest common prefix of `literal_prefixes`: where a match can
    /// begin when scanning long haystacks.
    pub literal_prefix: String,
    /// True when the program starts with `^`.
    pub anchored_start: bool,
}

/// Compiles `ast` into a [`Program`].
pub fn compile(ast: &Ast, group_count: u32, case_insensitive: bool) -> Result<Program, Error> {
    let mut c = Compiler {
        insts: Vec::new(),
        classes: Vec::new(),
        ci: case_insensitive,
    };
    // Program shape: Save(0) <body> Save(1) Match
    c.push(Inst::Save(0))?;
    c.emit(ast)?;
    c.push(Inst::Save(1))?;
    c.push(Inst::Match)?;
    let anchored_start = matches!(peel_prefix(ast), Some(Ast::StartAnchor));
    // An anchored program seeds at offset 0 alone, whatever its literals.
    let literal_prefixes = if anchored_start {
        Vec::new()
    } else {
        prefix_set(ast, case_insensitive)
    };
    let literal_prefix = common_prefix(&literal_prefixes);
    Ok(Program {
        insts: c.insts,
        classes: c.classes,
        group_count,
        slot_count: 2 * (group_count as usize + 1),
        case_insensitive,
        literal_prefixes,
        literal_prefix,
        anchored_start,
    })
}

/// Returns the first concrete atom of the AST, looking through concats.
fn peel_prefix(ast: &Ast) -> Option<&Ast> {
    match ast {
        Ast::Concat(items) => items.first().and_then(peel_prefix),
        other => Some(other),
    }
}

/// The most literals a prefix set holds; a wider set says nothing.
const MAX_PREFIXES: usize = 16;

/// The prefix set of `ast`: literals (lower-cased when `ci`) one of which
/// every match starts with, none starting with another. Empty when a
/// match may start with anything.
fn prefix_set(ast: &Ast, ci: bool) -> Vec<String> {
    let mut set: Vec<String> = prefixes(ast, ci).into_iter().map(|(lit, _)| lit).collect();
    set.sort_unstable();
    // Sorted, a literal follows the shortest one it starts with.
    set.dedup_by(|lit, kept| lit.starts_with(kept.as_str()));
    if set.first().is_some_and(String::is_empty) {
        set.clear();
    }
    set
}

/// Literals one of which every match of `ast` starts with, each marked
/// `true` when it is the whole match, so that what follows `ast` extends it.
fn prefixes(ast: &Ast, ci: bool) -> Vec<(String, bool)> {
    let fold = |c: char| if ci { c.to_ascii_lowercase() } else { c };
    let set: Vec<_> = match ast {
        Ast::Empty | Ast::StartAnchor | Ast::EndAnchor => vec![(String::new(), true)],
        Ast::Literal(c) => vec![(fold(*c).to_string(), true)],
        Ast::Class(class) if !class.negated => {
            let chars = class.ranges.iter().flat_map(|&(lo, hi)| lo..=hi);
            let chars = chars.take(MAX_PREFIXES + 1).map(fold);
            chars.map(|c| (c.to_string(), true)).collect()
        }
        Ast::Class(_) | Ast::Dot => vec![(String::new(), false)],
        Ast::Group(g) => prefixes(&g.node, ci),
        Ast::Alternate(branches) => branches.iter().flat_map(|b| prefixes(b, ci)).collect(),
        Ast::Repeat(r) => {
            let mut set = prefixes(&r.node, ci);
            if r.max != Some(1) {
                // Another iteration may follow this one.
                set.iter_mut().for_each(|(_, whole)| *whole = false);
            }
            if r.min == 0 {
                set.push((String::new(), true));
            }
            set
        }
        Ast::Concat(items) => {
            let mut acc = vec![(String::new(), true)];
            // What a literal that is not the whole match is extended by.
            let stop = [(String::new(), false)];
            for item in items {
                let next = prefixes(item, ci);
                let width: usize = acc
                    .iter()
                    .map(|&(_, whole)| if whole { next.len() } else { 1 })
                    .sum();
                if width > MAX_PREFIXES {
                    // Too many to extend: what is known so far still holds.
                    acc.iter_mut().for_each(|(_, whole)| *whole = false);
                    break;
                }
                acc = acc
                    .into_iter()
                    .flat_map(|(lit, whole)| {
                        let tails = if whole { &next[..] } else { &stop[..] };
                        tails.iter().map(move |(more, w)| (lit.clone() + more, *w))
                    })
                    .collect();
            }
            acc
        }
    };
    if set.len() > MAX_PREFIXES {
        return vec![(String::new(), false)];
    }
    set
}

/// The longest prefix, in whole characters, of a sorted set of literals:
/// that of its first and last.
fn common_prefix(sorted: &[String]) -> String {
    let (Some(first), Some(last)) = (sorted.first(), sorted.last()) else {
        return String::new();
    };
    let shared = first.chars().zip(last.chars()).take_while(|(a, b)| a == b);
    shared.map(|(c, _)| c).collect()
}

struct Compiler {
    insts: Vec<Inst>,
    classes: Vec<ClassSet>,
    ci: bool,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> Result<u32, Error> {
        if self.insts.len() >= MAX_PROGRAM {
            return Err(Error::ProgramTooLarge);
        }
        self.insts.push(inst);
        Ok((self.insts.len() - 1) as u32)
    }

    fn next_pc(&self) -> u32 {
        self.insts.len() as u32
    }

    fn patch_split(&mut self, at: u32, which: usize, target: u32) {
        if let Inst::Split(a, b) = &mut self.insts[at as usize] {
            if which == 0 {
                *a = target;
            } else {
                *b = target;
            }
        } else {
            unreachable!("patch target is not a split");
        }
    }

    fn patch_jmp(&mut self, at: u32, target: u32) {
        if let Inst::Jmp(t) = &mut self.insts[at as usize] {
            *t = target;
        } else {
            unreachable!("patch target is not a jmp");
        }
    }

    fn class_index(&mut self, set: ClassSet) -> u32 {
        // Deduplicate identical classes to keep programs small.
        if let Some(i) = self.classes.iter().position(|c| *c == set) {
            return i as u32;
        }
        self.classes.push(set);
        (self.classes.len() - 1) as u32
    }

    fn emit(&mut self, ast: &Ast) -> Result<(), Error> {
        match ast {
            Ast::Empty => Ok(()),
            Ast::Literal(c) => {
                if self.ci && c.is_ascii_alphabetic() {
                    self.push(Inst::Char(c.to_ascii_lowercase()))?;
                } else {
                    self.push(Inst::Char(*c))?;
                }
                Ok(())
            }
            Ast::Class(set) => {
                let mut set = set.clone();
                if self.ci {
                    set.ascii_fold();
                }
                let idx = self.class_index(set);
                self.push(Inst::Class(idx))?;
                Ok(())
            }
            Ast::Dot => {
                self.push(Inst::Any)?;
                Ok(())
            }
            Ast::StartAnchor => {
                self.push(Inst::AssertStart)?;
                Ok(())
            }
            Ast::EndAnchor => {
                self.push(Inst::AssertEnd)?;
                Ok(())
            }
            Ast::Concat(items) => {
                for item in items {
                    self.emit(item)?;
                }
                Ok(())
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Group(g) => {
                if let Some(idx) = g.index {
                    self.push(Inst::Save((idx * 2) as u16))?;
                    self.emit(&g.node)?;
                    self.push(Inst::Save((idx * 2 + 1) as u16))?;
                } else {
                    self.emit(&g.node)?;
                }
                Ok(())
            }
            Ast::Repeat(r) => self.emit_repeat(r),
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) -> Result<(), Error> {
        // Chain of splits; earlier branches get priority.
        let mut jumps = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            if i + 1 < branches.len() {
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.next_pc();
                self.patch_split(split, 0, body);
                self.emit(branch)?;
                let jmp = self.push(Inst::Jmp(0))?;
                jumps.push(jmp);
                let next = self.next_pc();
                self.patch_split(split, 1, next);
            } else {
                self.emit(branch)?;
            }
        }
        let end = self.next_pc();
        for j in jumps {
            self.patch_jmp(j, end);
        }
        Ok(())
    }

    fn emit_repeat(&mut self, r: &Repeat) -> Result<(), Error> {
        match (r.min, r.max) {
            (0, Some(1)) => {
                // e?
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.next_pc();
                self.emit(&r.node)?;
                let end = self.next_pc();
                if r.greedy {
                    self.patch_split(split, 0, body);
                    self.patch_split(split, 1, end);
                } else {
                    self.patch_split(split, 0, end);
                    self.patch_split(split, 1, body);
                }
                Ok(())
            }
            (0, None) => {
                // e*
                let split = self.push(Inst::Split(0, 0))?;
                let body = self.next_pc();
                self.emit(&r.node)?;
                self.push(Inst::Jmp(split))?;
                let end = self.next_pc();
                if r.greedy {
                    self.patch_split(split, 0, body);
                    self.patch_split(split, 1, end);
                } else {
                    self.patch_split(split, 0, end);
                    self.patch_split(split, 1, body);
                }
                Ok(())
            }
            (1, None) => {
                // e+
                let body = self.next_pc();
                self.emit(&r.node)?;
                let split = self.push(Inst::Split(0, 0))?;
                let end = self.next_pc();
                if r.greedy {
                    self.patch_split(split, 0, body);
                    self.patch_split(split, 1, end);
                } else {
                    self.patch_split(split, 0, end);
                    self.patch_split(split, 1, body);
                }
                Ok(())
            }
            (min, max) => {
                // Counted repetition: unroll. `min` mandatory copies, then
                // either (max-min) optional copies or a trailing `*`.
                for _ in 0..min {
                    self.emit(&r.node)?;
                }
                match max {
                    None => self.emit_repeat(&Repeat {
                        node: r.node.clone(),
                        min: 0,
                        max: None,
                        greedy: r.greedy,
                    }),
                    Some(max) => {
                        // Nested optionals so that bailing out of iteration i
                        // skips all following iterations.
                        let mut splits = Vec::new();
                        for _ in min..max {
                            let split = self.push(Inst::Split(0, 0))?;
                            let body = self.next_pc();
                            if r.greedy {
                                self.patch_split(split, 0, body);
                            } else {
                                self.patch_split(split, 1, body);
                            }
                            splits.push(split);
                            self.emit(&r.node)?;
                        }
                        let end = self.next_pc();
                        for split in splits {
                            if r.greedy {
                                self.patch_split(split, 1, end);
                            } else {
                                self.patch_split(split, 0, end);
                            }
                        }
                        Ok(())
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(p: &str) -> Program {
        let (ast, n) = parse(p).expect("parse ok");
        compile(&ast, n, false).expect("compile ok")
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        assert_eq!(
            p.insts,
            vec![
                Inst::Save(0),
                Inst::Char('a'),
                Inst::Char('b'),
                Inst::Save(1),
                Inst::Match
            ]
        );
    }

    #[test]
    fn detects_anchored_start() {
        assert!(prog("^ab").anchored_start);
        assert!(!prog("ab").anchored_start);
    }

    #[test]
    fn extracts_literal_prefix() {
        assert_eq!(prog("jquery").literal_prefix, "jquery");
        assert_eq!(prog(r"jquery[.-]").literal_prefix, "jquery");
        assert_eq!(prog(r"jq(u|v)ery").literal_prefix, "jq");
        assert_eq!(prog(r"\d+").literal_prefix, "");
        let (ast, n) = parse("JQuery").expect("parse ok");
        let ci = compile(&ast, n, true).expect("compile ok");
        assert_eq!(ci.literal_prefix, "jquery");
    }

    #[test]
    fn prefix_sets_look_through_groups_alternations_and_optionals() {
        let set = |p: &str| prog(p).literal_prefixes;
        assert_eq!(
            set(r"/(?:jqueryui|jquery-ui)@(\d+)"),
            ["/jquery-ui@", "/jqueryui@"]
        );
        assert_eq!(set(r"jquery[.-]"), ["jquery-", "jquery."]);
        assert_eq!(set(r"a(?:\.min)?\.js"), ["a.js", "a.min.js"]);
        // Another iteration may follow `b+`; `c?` may be absent.
        assert_eq!(set(r"ab+c"), ["ab"]);
        assert_eq!(set(r"c?d"), ["cd", "d"]);
        // A literal another one starts with adds nothing.
        assert_eq!(set(r"(?:ab|abc)x"), ["abcx", "abx"]);
        assert_eq!(set(r"(?:ab|a)"), ["a"]);
        // A class wider than the cap, or an optional start: no literal.
        assert!(set(r"[a-z]+x").is_empty());
        assert!(set(r"a?").is_empty());
        // Past the cap the set stops growing but stays sound.
        assert_eq!(set(r"v\d\d").len(), 10);
        assert_eq!(prog(r"v\d\d").literal_prefix, "v");
        assert_eq!(prog(r"/(?:jqueryui|jquery-ui)@").literal_prefix, "/jquery");
        let (ast, n) = parse("(?:JQ|Jq)[X]").expect("parse ok");
        let ci = compile(&ast, n, true).expect("compile ok");
        assert_eq!(ci.literal_prefixes, ["jqx"]);
    }

    #[test]
    fn classes_are_deduplicated() {
        let p = prog(r"\d\d\d");
        assert_eq!(p.classes.len(), 1);
    }

    #[test]
    fn counted_repetition_unrolls() {
        let p = prog("a{3}");
        let chars = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Char('a')))
            .count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn slot_count_includes_group_zero() {
        assert_eq!(prog("(a)(b)").slot_count, 6);
        assert_eq!(prog("a").slot_count, 2);
    }
}
