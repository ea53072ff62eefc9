//! Pike VM: executes a compiled [`Program`] over a haystack.
//!
//! This is the classic breadth-first NFA simulation with capture slots and
//! thread priority, giving perl-style leftmost-greedy semantics in
//! `O(len(program) * len(haystack))` time — no backtracking, so fingerprint
//! patterns can never blow up on adversarial page content.
//!
//! The hot path allocates nothing: thread lists, capture slots and the
//! `seen` marks live in a per-OS-thread [`Scratch`] that every `exec`
//! reuses, and only a recorded match is copied out into a fresh [`Slots`].
//! A program with a mandatory literal prefix starts threads only where
//! that literal occurs and jumps straight to the next occurrence whenever
//! no thread is alive.

use crate::compile::{Inst, Program};
use std::cell::{Cell, RefCell};

/// Capture slots for one match: `slots[2k]`/`slots[2k+1]` hold the byte
/// offsets of group `k`'s start/end (group 0 is the whole match).
pub type Slots = Vec<Option<usize>>;

thread_local! {
    /// Cumulative VM work done on this thread, in instruction dispatches
    /// (including epsilon-closure work in `add_thread`).
    static VM_STEPS: Cell<u64> = const { Cell::new(0) };
    /// The working memory every `exec` on this thread reuses.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Total VM steps executed on the calling thread since it started.
///
/// A "step" is one instruction dispatch, counting epsilon-closure work.
/// The Pike VM never backtracks, so steps grow linearly with
/// `pattern × haystack` — instrumentation layers read this before and
/// after a batch of matches to attribute regex cost (and to prove the
/// no-blowup guarantee holds on real page content).
pub fn thread_vm_steps() -> u64 {
    VM_STEPS.with(Cell::get)
}

/// Runs `prog` against `haystack` starting the search at byte offset
/// `start`. Returns capture slots of the leftmost match, if any.
///
/// When `prog.anchored_start` is false, the search effectively prefixes the
/// program with `.*?` by seeding a fresh thread (at lowest priority,
/// preserving leftmost-first semantics) at every input position where a
/// match can begin: everywhere, or only where `prog.literal_prefix` occurs.
pub fn exec(prog: &Program, haystack: &str, start: usize) -> Option<Slots> {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let (matched, steps) = scratch.run(prog, haystack, start);
        VM_STEPS.with(|c| c.set(c.get().wrapping_add(steps)));
        matched
    })
}

/// Byte offset of the first occurrence of `needle` in `hay` at or after
/// `from`. With `fold`, `hay` is ASCII-lower-cased on the fly and `needle`
/// must already be lower-case. The offset is a char boundary of a UTF-8
/// `hay` because the needle's first byte starts a character.
fn find_literal(hay: &[u8], needle: &[u8], from: usize, fold: bool) -> Option<usize> {
    let eq = |h: u8, n: u8| h == n || (fold && h.to_ascii_lowercase() == n);
    let (&first, rest) = needle.split_first()?;
    let last = hay.len().checked_sub(needle.len())?;
    (from..=last)
        .find(|&i| eq(hay[i], first) && hay[i + 1..].iter().zip(rest).all(|(&h, &n)| eq(h, n)))
}

/// The character starting at byte offset `pos`, `None` at the end.
fn char_at(haystack: &str, pos: usize) -> Option<char> {
    match haystack.as_bytes().get(pos) {
        Some(&b) if b.is_ascii() => Some(b as char),
        Some(_) => haystack[pos..].chars().next(),
        None => None,
    }
}

/// Live threads in priority order: a program counter each, and each
/// thread's `slot_count` capture slots in one flat arena.
#[derive(Default)]
struct ThreadList {
    pcs: Vec<u32>,
    slots: Vec<Option<usize>>,
}

impl ThreadList {
    fn clear(&mut self) {
        self.pcs.clear();
        self.slots.clear();
    }
}

/// Membership of the thread list under construction, without clearing a
/// set: `seen[pc] == generation` means `pc` is already on it. Both lists
/// share one array because a list's marks are only read while it is built.
#[derive(Default)]
struct Marks {
    seen: Vec<u32>,
    generation: u32,
}

impl Marks {
    /// Forgets every mark.
    fn advance(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Marks stamped 2^32 generations ago would read as current.
            self.seen.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `pc`; false when it was marked already.
    fn insert(&mut self, pc: u32) -> bool {
        let mark = &mut self.seen[pc as usize];
        let fresh = *mark != self.generation;
        *mark = self.generation;
        fresh
    }
}

/// Everything a search allocates, kept between searches.
#[derive(Default)]
struct Scratch {
    clist: ThreadList,
    nlist: ThreadList,
    marks: Marks,
    /// Capture slots of the thread `add_thread` is placing.
    cur: Vec<Option<usize>>,
}

impl Scratch {
    /// The search loop; returns the match and the steps it cost.
    fn run(&mut self, prog: &Program, haystack: &str, start: usize) -> (Option<Slots>, u64) {
        let Scratch {
            clist,
            nlist,
            marks,
            cur,
        } = self;
        let insts = &prog.insts;
        let hay = haystack.as_bytes();
        clist.clear();
        if marks.seen.len() < insts.len() {
            marks.seen.resize(insts.len(), 0);
        }
        marks.advance();
        cur.clear();
        cur.resize(prog.slot_count, None);
        let mut closure = Closure {
            prog,
            end: hay.len(),
            marks,
            cur,
            steps: 0,
        };

        // The next position at or after `pos` where a match can begin.
        let prefix = prog.literal_prefix.as_bytes();
        let next_seed = |from: usize| {
            if prog.anchored_start {
                (from == 0).then_some(0)
            } else if prefix.is_empty() {
                Some(from)
            } else {
                find_literal(hay, prefix, from, prog.case_insensitive)
            }
        };

        let mut matched: Option<Slots> = None;
        let mut pos = start;
        let mut seed = next_seed(pos);
        // Iterate char boundaries from `start` to end-of-string inclusive.
        loop {
            if clist.pcs.is_empty() {
                // Nothing is alive: stop after a match (leftmost wins) or
                // when no later position can begin one, else jump there.
                match seed {
                    Some(at) if matched.is_none() => {
                        if at != pos {
                            // The dead list's marks were made for `pos`.
                            closure.marks.advance();
                            pos = at;
                        }
                    }
                    _ => break,
                }
            }
            let ch = char_at(haystack, pos);
            if seed == Some(pos) && matched.is_none() {
                closure.cur.fill(None);
                closure.add_thread(clist, 0, pos);
            }

            let next_pos = pos + ch.map_or(1, char::len_utf8);
            let folded = ch.map(|c| {
                if prog.case_insensitive {
                    c.to_ascii_lowercase()
                } else {
                    c
                }
            });

            nlist.clear();
            closure.marks.advance();
            let width = prog.slot_count;
            for (i, &pc) in clist.pcs.iter().enumerate() {
                let slots = &clist.slots[i * width..(i + 1) * width];
                closure.steps += 1;
                let advances = match &insts[pc as usize] {
                    Inst::Match => {
                        // Highest-priority thread matched at this position:
                        // lower-priority threads are discarded.
                        match &mut matched {
                            Some(best) => best.copy_from_slice(slots),
                            None => matched = Some(slots.to_vec()),
                        }
                        break;
                    }
                    Inst::Char(c) => folded == Some(*c),
                    Inst::Class(idx) => {
                        folded.is_some_and(|c| prog.classes[*idx as usize].matches(c))
                    }
                    Inst::Any => matches!(ch, Some(c) if c != '\n'),
                    // Epsilon instructions are resolved inside `add_thread`;
                    // reaching one here is a logic error.
                    Inst::Split(..)
                    | Inst::Jmp(_)
                    | Inst::Save(_)
                    | Inst::AssertStart
                    | Inst::AssertEnd => {
                        unreachable!("epsilon instruction survived add_thread")
                    }
                };
                if advances {
                    closure.cur.copy_from_slice(slots);
                    closure.add_thread(nlist, pc + 1, next_pos);
                }
            }

            std::mem::swap(clist, nlist);
            if ch.is_none() {
                break;
            }
            pos = next_pos;
            if seed.is_some_and(|at| at < pos) {
                seed = next_seed(pos);
            }
        }
        (matched, closure.steps)
    }
}

/// What `add_thread` needs besides the list it fills.
struct Closure<'a> {
    prog: &'a Program,
    /// Haystack length, where `$` holds.
    end: usize,
    marks: &'a mut Marks,
    cur: &'a mut Vec<Option<usize>>,
    steps: u64,
}

impl Closure<'_> {
    /// Adds `pc` to `list` with the slots in `cur`, transitively following
    /// epsilon transitions (splits, jumps, saves, satisfied assertions) in
    /// priority order. `cur` is the same on return as on entry.
    fn add_thread(&mut self, list: &mut ThreadList, pc: u32, pos: usize) {
        if !self.marks.insert(pc) {
            return;
        }
        self.steps += 1;
        match &self.prog.insts[pc as usize] {
            Inst::Jmp(t) => self.add_thread(list, *t, pos),
            Inst::Split(a, b) => {
                self.add_thread(list, *a, pos);
                self.add_thread(list, *b, pos);
            }
            Inst::Save(slot) => {
                let slot = *slot as usize;
                let outer = self.cur[slot].replace(pos);
                self.add_thread(list, pc + 1, pos);
                self.cur[slot] = outer;
            }
            Inst::AssertStart => {
                if pos == 0 {
                    self.add_thread(list, pc + 1, pos);
                }
            }
            Inst::AssertEnd => {
                if pos == self.end {
                    self.add_thread(list, pc + 1, pos);
                }
            }
            _ => {
                list.pcs.push(pc);
                list.slots.extend_from_slice(self.cur);
            }
        }
    }
}

/// The clone-per-thread VM this module replaced, kept as the reference the
/// allocation-free loop is differentially tested against.
#[cfg(test)]
mod oracle {
    use super::{Slots, VM_STEPS};
    use crate::compile::{Inst, Program};

    /// Runs `prog` against `haystack` starting the search at byte offset
    /// `start`. Returns capture slots of the leftmost match, if any.
    ///
    /// When `prog.anchored_start` is false, the search effectively prefixes the
    /// program with `.*?` by seeding a fresh thread at every input position
    /// (at lowest priority, preserving leftmost-first semantics).
    pub fn exec(prog: &Program, haystack: &str, start: usize) -> Option<Slots> {
        Vm::new(prog, haystack).run(start)
    }

    struct Thread {
        pc: u32,
        slots: Slots,
    }

    struct ThreadList {
        threads: Vec<Thread>,
        /// Dense generation-stamped membership test, avoids clearing a set.
        seen: Vec<u32>,
        generation: u32,
    }

    impl ThreadList {
        fn new(prog_len: usize) -> Self {
            ThreadList {
                threads: Vec::new(),
                seen: vec![0; prog_len],
                generation: 0,
            }
        }

        fn clear(&mut self) {
            self.threads.clear();
            self.generation += 1;
        }

        fn contains(&self, pc: u32) -> bool {
            self.seen[pc as usize] == self.generation
        }

        fn mark(&mut self, pc: u32) {
            self.seen[pc as usize] = self.generation;
        }
    }

    struct Vm<'p, 't> {
        prog: &'p Program,
        haystack: &'t str,
    }

    impl<'p, 't> Vm<'p, 't> {
        fn new(prog: &'p Program, haystack: &'t str) -> Self {
            Vm { prog, haystack }
        }

        fn run(&self, start: usize) -> Option<Slots> {
            let insts = &self.prog.insts;
            let mut clist = ThreadList::new(insts.len());
            let mut nlist = ThreadList::new(insts.len());
            clist.clear();
            nlist.clear();

            let mut matched: Option<Slots> = None;
            let mut steps: u64 = 0;
            let mut pos = start;
            // Iterate char boundaries from `start` to end-of-string inclusive.
            loop {
                let ch = self.haystack[pos..].chars().next();
                // Seed a new thread at this position unless anchored or a match
                // was already found at an earlier position (leftmost wins).
                if matched.is_none() && (!self.prog.anchored_start || pos == 0) {
                    let slots = vec![None; self.prog.slot_count];
                    self.add_thread(&mut clist, 0, slots, pos, &mut steps);
                }
                if clist.threads.is_empty() && matched.is_some() {
                    break;
                }

                let next_pos = pos + ch.map_or(1, char::len_utf8);
                let folded = ch.map(|c| {
                    if self.prog.case_insensitive {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                });

                nlist.clear();
                let mut cut = false;
                // `threads` is drained by index so `add_thread` can borrow nlist.
                let threads = std::mem::take(&mut clist.threads);
                for th in threads {
                    if cut {
                        break;
                    }
                    steps += 1;
                    match &insts[th.pc as usize] {
                        Inst::Match => {
                            // Highest-priority thread matched at this position:
                            // lower-priority threads are discarded.
                            matched = Some(th.slots);
                            cut = true;
                        }
                        Inst::Char(c) => {
                            if folded == Some(*c) {
                                self.add_thread(
                                    &mut nlist,
                                    th.pc + 1,
                                    th.slots,
                                    next_pos,
                                    &mut steps,
                                );
                            }
                        }
                        Inst::Class(idx) => {
                            if let Some(c) = folded {
                                if self.prog.classes[*idx as usize].matches(c) {
                                    self.add_thread(
                                        &mut nlist,
                                        th.pc + 1,
                                        th.slots,
                                        next_pos,
                                        &mut steps,
                                    );
                                }
                            }
                        }
                        Inst::Any => {
                            if matches!(ch, Some(c) if c != '\n') {
                                self.add_thread(
                                    &mut nlist,
                                    th.pc + 1,
                                    th.slots,
                                    next_pos,
                                    &mut steps,
                                );
                            }
                        }
                        // Epsilon instructions are resolved inside `add_thread`;
                        // reaching one here is a logic error.
                        Inst::Split(..)
                        | Inst::Jmp(_)
                        | Inst::Save(_)
                        | Inst::AssertStart
                        | Inst::AssertEnd => {
                            unreachable!("epsilon instruction survived add_thread")
                        }
                    }
                }

                std::mem::swap(&mut clist, &mut nlist);
                if ch.is_none() {
                    break;
                }
                pos = next_pos;
            }
            VM_STEPS.with(|c| c.set(c.get().wrapping_add(steps)));
            matched
        }

        /// Adds `pc` to `list`, transitively following epsilon transitions
        /// (splits, jumps, saves, satisfied assertions) in priority order.
        fn add_thread(
            &self,
            list: &mut ThreadList,
            pc: u32,
            slots: Slots,
            pos: usize,
            steps: &mut u64,
        ) {
            if list.contains(pc) {
                return;
            }
            list.mark(pc);
            *steps += 1;
            match &self.prog.insts[pc as usize] {
                Inst::Jmp(t) => self.add_thread(list, *t, slots, pos, steps),
                Inst::Split(a, b) => {
                    self.add_thread(list, *a, slots.clone(), pos, steps);
                    self.add_thread(list, *b, slots, pos, steps);
                }
                Inst::Save(slot) => {
                    let mut slots = slots;
                    slots[*slot as usize] = Some(pos);
                    self.add_thread(list, pc + 1, slots, pos, steps);
                }
                Inst::AssertStart => {
                    if pos == 0 {
                        self.add_thread(list, pc + 1, slots, pos, steps);
                    }
                }
                Inst::AssertEnd => {
                    if pos == self.haystack.len() {
                        self.add_thread(list, pc + 1, slots, pos, steps);
                    }
                }
                _ => list.threads.push(Thread { pc, slots }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use webvuln_failpoint::check::{self, Gen};

    fn program(pattern: &str, ci: bool) -> Program {
        let (ast, n) = parse(pattern).unwrap_or_else(|e| panic!("{pattern:?}: {e}"));
        compile(&ast, n, ci).unwrap_or_else(|e| panic!("{pattern:?}: {e}"))
    }

    fn run(pattern: &str, text: &str) -> Option<(usize, usize)> {
        let prog = program(pattern, false);
        exec(&prog, text, 0).map(|s| (s[0].expect("start"), s[1].expect("end")))
    }

    #[test]
    fn finds_leftmost_match() {
        assert_eq!(run("b", "abc"), Some((1, 2)));
        assert_eq!(run("a", "abc"), Some((0, 1)));
        assert_eq!(run("z", "abc"), None);
    }

    #[test]
    fn greedy_takes_longest() {
        assert_eq!(run("a+", "aaab"), Some((0, 3)));
        assert_eq!(run("a*", "aaab"), Some((0, 3)));
    }

    #[test]
    fn lazy_takes_shortest() {
        assert_eq!(run("a+?", "aaab"), Some((0, 1)));
        assert_eq!(run("<.*?>", "<a><b>"), Some((0, 3)));
        assert_eq!(run("<.*>", "<a><b>"), Some((0, 6)));
    }

    #[test]
    fn anchors() {
        assert_eq!(run("^abc$", "abc"), Some((0, 3)));
        assert_eq!(run("^bc", "abc"), None);
        assert_eq!(run("bc$", "abc"), Some((1, 3)));
        assert_eq!(run("ab$", "abc"), None);
    }

    #[test]
    fn alternation_prefers_first_branch() {
        // Both branches match at 0; the first wins even though shorter.
        assert_eq!(run("a|ab", "ab"), Some((0, 1)));
        assert_eq!(run("ab|a", "ab"), Some((0, 2)));
    }

    #[test]
    fn empty_pattern_matches_empty_at_start() {
        assert_eq!(run("", "xyz"), Some((0, 0)));
        assert_eq!(run("", ""), Some((0, 0)));
    }

    #[test]
    fn dot_does_not_match_newline() {
        assert_eq!(run("a.c", "a\nc"), None);
        assert_eq!(run("a.c", "axc"), Some((0, 3)));
    }

    #[test]
    fn unicode_input_is_handled() {
        assert_eq!(run("é", "café"), Some((3, 5)));
        assert_eq!(run(".+", "日本"), Some((0, 6)));
    }

    #[test]
    fn captures_are_recorded() {
        let (ast, n) = parse(r"v(\d+)\.(\d+)").expect("parse ok");
        let prog = compile(&ast, n, false).expect("compile ok");
        let slots = exec(&prog, "jquery v3.14 here", 0).expect("match");
        assert_eq!(
            &"jquery v3.14 here"[slots[2].unwrap()..slots[3].unwrap()],
            "3"
        );
        assert_eq!(
            &"jquery v3.14 here"[slots[4].unwrap()..slots[5].unwrap()],
            "14"
        );
    }

    #[test]
    fn no_catastrophic_backtracking() {
        // (a*)*b against a long 'a' run with no 'b' — backtrackers explode,
        // the Pike VM stays linear.
        let text = "a".repeat(2000);
        assert_eq!(run("(a*)*b", &text), None);
    }

    #[test]
    fn thread_step_counter_advances_and_stays_linear() {
        let (ast, n) = parse("(a*)*b").expect("parse ok");
        let prog = compile(&ast, n, false).expect("compile ok");

        let before = thread_vm_steps();
        let short = "a".repeat(100);
        exec(&prog, &short, 0);
        let short_steps = thread_vm_steps() - before;
        assert!(short_steps > 0, "exec must add steps");

        let mid = thread_vm_steps();
        let long = "a".repeat(1000);
        exec(&prog, &long, 0);
        let long_steps = thread_vm_steps() - mid;
        // 10x the input must cost no more than ~10x the steps (plus a
        // constant) — the linearity the Pike VM guarantees.
        assert!(
            long_steps <= short_steps * 10 + short_steps,
            "steps grew superlinearly: {short_steps} -> {long_steps}"
        );
    }

    /// Runs `prog` through the VM and the oracle at every char boundary
    /// from `start_at` on and asserts they agree slot for slot. Skipping
    /// doomed seeds may only save steps; without a literal prefix there is
    /// nothing to skip and the step counts are equal.
    fn assert_agrees(prog: &Program, hay: &str, start_at: usize) {
        for start in (start_at..=hay.len()).filter(|&i| hay.is_char_boundary(i)) {
            let before = thread_vm_steps();
            let expected = oracle::exec(prog, hay, start);
            let oracle_steps = thread_vm_steps() - before;
            let actual = exec(prog, hay, start);
            let steps = thread_vm_steps() - before - oracle_steps;
            assert_eq!(actual, expected, "haystack {hay:?} from {start}");
            if prog.literal_prefix.is_empty() {
                assert_eq!(steps, oracle_steps, "haystack {hay:?} from {start}");
            } else {
                assert!(steps <= oracle_steps, "haystack {hay:?} from {start}");
            }
        }
    }

    /// Every regex source string of the built-in fingerprint database, read
    /// out of its declaration so the list cannot drift.
    fn builtin_sources() -> Vec<&'static str> {
        let declarations = include_str!("../../fingerprint/src/patterns.rs");
        let sources: Vec<&str> = declarations
            .match_indices("r\"")
            .filter(|&(at, _)| !declarations[..at].ends_with(char::is_alphanumeric))
            .map(|(at, _)| {
                declarations[at + 2..]
                    .split('"')
                    .next()
                    .expect("closing quote")
            })
            .collect();
        // 74 URL patterns, 11 inline banners, WordPress generator and path.
        assert_eq!(sources.len(), 87, "{sources:?}");
        sources
    }

    /// Mixed-case text with multi-byte characters, the sort a literal can
    /// sit before, inside or after.
    fn noise(g: &mut Gen, max: usize) -> String {
        g.string("abABjJqQ/.-_@?=0159 \né日😀", 0..=max)
    }

    #[test]
    fn builtin_fingerprints_agree_with_the_oracle() {
        let programs: Vec<Program> = builtin_sources()
            .iter()
            .map(|source| program(source, true))
            .collect();
        let names = [
            "jquery",
            "jQuery-Migrate",
            "JQUERY-UI",
            "jquery.cookie",
            "bootstrap",
            "Bootstrap.bundle",
            "modernizr",
            "js.cookie",
            "underscore",
            "isotope.pkgd",
            "popper",
            "moment",
            "moment-with-locales",
            "require",
            "swfobject",
            "prototype",
            "polyfill",
            "wp-content",
            "wp-includes",
            "twitter-bootstrap",
            "jqueryui",
            "ui",
        ];
        let banners = [
            "jQuery v",
            "jQuery JavaScript Library v",
            "jQuery Migrate v",
            "jQuery UI ",
            "Bootstrap v",
            "Modernizr ",
            "Underscore.js ",
            "Isotope PACKAGED v",
            "RequireJS ",
            "SWFObject v",
            "Prototype JavaScript framework, version ",
            "WordPress ",
            "//! moment.js\n//! version : ",
        ];
        check::run("builtin_fingerprints_agree_with_the_oracle", 1024, |g| {
            let version = format!("{}.{}.{}", g.range(0..=12), g.range(0..=30), g.range(0..=9));
            let name = *g.pick(&names);
            let core = match g.range(0..=6) {
                0 => format!("https://cdn.example/ajax/libs/{name}/{version}/{name}.min.js"),
                1 => format!("/assets/js/{name}-{version}.min.js"),
                2 => format!("/wp-includes/js/{name}/{name}.min.js?ver={version}"),
                3 => format!("https://cdn.jsdelivr.net/npm/{name}@{version}/dist/{name}.js"),
                4 => format!("/v{}/{name}.min.js?version={version}", g.range(0..=9)),
                5 => format!("/*! {}{version} | (c) */", g.pick(&banners)),
                _ => name.to_string(),
            };
            let hay = format!("{}{core}{}", noise(g, 12), noise(g, 12));
            let prog = g.pick(&programs);
            assert_agrees(prog, &hay, hay.len());
            assert_agrees(prog, &hay, 0);
        });
    }

    /// A random pattern over a small alphabet: literals, classes, every
    /// quantifier greedy and lazy, alternation, nested and optional
    /// captures, anchors.
    fn pattern_source(g: &mut Gen, depth: u32) -> String {
        let mut out = String::new();
        for _ in 0..g.range(1..=4) {
            let atom = match g.range(0..=if depth == 0 { 5 } else { 8 }) {
                0..=2 => g.pick(&["a", "b", "A", "/", r"\.", "-", "é", "(?:ab)", "(?:jq)"]),
                3 => g.pick(&["[a-c]", "[^/]", r"\d", r"[\w.]", "[A-Bé]"]),
                4 => ".",
                5 => {
                    // Anchors take no quantifier.
                    out.push_str(g.pick::<&str>(&["^", "$"]));
                    continue;
                }
                6 => &format!("({})", pattern_source(g, depth - 1)),
                7 => &format!("(?:{})", pattern_source(g, depth - 1)),
                _ => &format!(
                    "({}|{})",
                    pattern_source(g, depth - 1),
                    pattern_source(g, depth - 1)
                ),
            };
            out.push_str(atom);
            out.push_str(g.pick::<&str>(&[
                "", "", "", "?", "*", "+", "{2}", "{0,2}", "{1,3}", "{2,}", "??", "*?", "+?",
                "{1,2}?",
            ]));
        }
        out
    }

    #[test]
    fn generated_patterns_agree_with_the_oracle() {
        check::run("generated_patterns_agree_with_the_oracle", 2048, |g| {
            let literal = *g.pick(&["", "", "ab", "jq", "/a", "é", "A-", "a.b"]);
            let escaped = literal.replace('.', r"\.");
            let mut source = format!(
                "{}{escaped}{}",
                if g.range(0..=9) == 0 { "^" } else { "" },
                pattern_source(g, 2)
            );
            if g.range(0..=4) == 0 {
                source = format!("{source}|{}", pattern_source(g, 1));
            }
            let prog = program(&source, g.bool());
            let cased = if g.bool() {
                literal.to_uppercase()
            } else {
                literal.to_string()
            };
            // The literal twice, so that a search resumed after the first
            // occurrence (`start > 0`, or a dead first attempt) finds more.
            let hay = format!(
                "{}{cased}{}{literal}{}",
                noise(g, 10),
                noise(g, 6),
                noise(g, 10)
            );
            assert_agrees(&prog, &hay, 0);
        });
    }

    /// What a thread that never ran a pattern before answers.
    fn on_a_fresh_thread(prog: &Program, hay: &str) -> Option<Slots> {
        std::thread::scope(|s| s.spawn(|| exec(prog, hay, 0)).join().expect("no panic"))
    }

    fn set_generation(generation: u32) {
        SCRATCH.with(|s| s.borrow_mut().marks.generation = generation);
    }

    #[test]
    fn scratch_reuse_matches_fresh_threads() {
        let long = program(r"(?:x|(a{1,40}))+(b|c)(\d+(?:\.\d+)*)?$", false);
        let short = program("a", false);
        let ci = program(r"jquery[.-](\d+)", true);
        let cs = program(r"jquery[.-](\d+)", false);
        let runs = [
            (&long, "xaaaaaaaaaaaaaaaaaaaaab1.2.3"),
            (&short, "bca"),
            (&long, "zzaaab"),
            (&ci, "/JQuery-3/jquery.9"),
            (&cs, "/JQuery-3/jquery.9"),
            (&ci, "/JQUERY.77"),
            (&long, "xaac12"),
        ];
        for (prog, hay) in runs {
            assert_eq!(exec(prog, hay, 0), on_a_fresh_thread(prog, hay), "{hay:?}");
        }
    }

    #[test]
    fn generation_wrap_does_not_resurrect_stale_marks() {
        let prog = program(r"(a|b)*c(\d+)$", false);
        let hay = "ababc12";
        let expected = on_a_fresh_thread(&prog, hay);
        assert!(expected.is_some());
        // Stamp marks with the first few generations, then run across the
        // wrap: whichever generation the counter restarts at, some pairing
        // below lines a stale stamp up with a thread that must be added.
        for stale in 0..16 {
            for before_wrap in 0..8 {
                set_generation(stale);
                exec(&prog, hay, 0);
                set_generation(u32::MAX - before_wrap);
                assert_eq!(exec(&prog, hay, 0), expected, "{stale} {before_wrap}");
                let wrapped = SCRATCH.with(|s| s.borrow().marks.generation);
                assert!(wrapped < 64, "the counter wrapped: {wrapped}");
            }
        }
    }
}
