#!/usr/bin/env python3
"""Public-surface scan for the workspace crates, run by CI's Structure step.

rustc's `dead_code` lint skips every `pub` item of a library, so this scan
lists the `pub` items of `crates/*/src` that nothing outside their crate
names. A name counts as used when it appears, as a whole word, in:

  * another crate's source (tests included), `src/` (facade and bin) or
    `benchmark/src` (the frozen harness);
  * an integration test (`tests/`, `crates/*/tests/`);
  * a doctest, that is code inside a fenced block of a doc comment;
  * for a type or trait, the signature or public fields of another `pub`
    item of its own crate, which it has to be as public as.

It prints two lists:

  * `unnamed`: a `pub` item named by none of those;
  * `test-only`: a `pub fn` that only tests name, and that its own crate's
    code names only where it is defined.

Both must equal the allow-list (`pub_surface.allow`: one `crate name
reason` a line). The scan also checks that each `crate::path` in DESIGN.md
section 4 is a module file or a `pub` item.

  python3 .github/pub_surface.py          # check, exit 1 on a difference
  python3 .github/pub_surface.py --list   # print both lists
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).resolve().parent / "pub_surface.allow"

ITEM = re.compile(
    r"^\s*pub (?:const |async |unsafe |extern \"C\" )*"
    r"(fn|struct|enum|const|static|trait|type|mod|union) +(?:mut +)?([A-Za-z_][A-Za-z0-9_]*)"
)
USE = re.compile(r"^\s*pub use ")
TYPES = ("struct", "enum", "trait", "type", "union", "use")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")


def brace_depths(lines):
    """The brace depth at the end of each line, outside strings and comments."""
    depths, depth, i = [], 0, 0
    text = "\n".join(lines) + "\n"
    state, hashes = None, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            depths.append(depth)
            if state == "line":
                state = None
        elif state == "line":
            pass
        elif state == "block":
            if text.startswith("*/", i):
                state, i = None, i + 1
        elif state == "str":
            if ch == "\\" and text[i + 1] != "\n":
                i += 1
            elif ch == '"':
                state = None
        elif state == "raw":
            if text.startswith('"' + "#" * hashes, i):
                state, i = None, i + hashes
        elif text.startswith("//", i):
            state = "line"
        elif text.startswith("/*", i):
            state, i = "block", i + 1
        elif ch == '"':
            state = "str"
        elif ch == "r" and re.match(r'r#*"', text[i:]) and not re.match(r"\w", text[i - 1]):
            hashes = len(re.match(r"r(#*)", text[i:]).group(1))
            state, i = "raw", i + hashes + 1
        elif ch == "'":
            literal = re.match(r"'(?:\\u\{[0-9a-fA-F]+\}|\\x[0-9a-fA-F]{2}|\\.|[^'\\])'", text[i:])
            if literal:
                i += len(literal.group(0)) - 1
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        i += 1
    return depths


def split_test(text):
    """Splits a source file into (non-test lines, test lines), each line a
    (number, text) pair.

    A `#![cfg(test)]` file is all test. Otherwise each `#[cfg(test)]` item
    (with its other attributes) is test and the rest is not: the count is
    item-aware, so an attribute near the top of a file does not cut it.
    """
    lines = text.splitlines()
    if any(line.strip() == "#![cfg(test)]" for line in lines):
        return [], list(enumerate(lines, 1))
    depths = brace_depths(lines)
    code, test = [], []
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(lines[i]):
            code.append((i + 1, lines[i]))
            i += 1
            continue
        start = depths[i - 1] if i else 0
        while i < len(lines) and lines[i].lstrip().startswith("#"):
            test.append((i + 1, lines[i]))
            i += 1
        while i < len(lines):
            test.append((i + 1, lines[i]))
            i += 1
            tail = lines[i - 1].split("//")[0].rstrip()
            if depths[i - 1] == start and tail.endswith((";", "}")):
                break
    return code, test


def doctest_code(lines):
    """The lines inside fenced blocks of `///` and `//!` comments."""
    out, inside = [], False
    for line in lines:
        stripped = line.strip()
        if not (stripped.startswith("///") or stripped.startswith("//!")):
            inside = False
            continue
        body = stripped[3:].strip()
        if body.startswith("```"):
            inside = not inside
        elif inside:
            out.append(body)
    return out


def code_only(lines):
    """The text of each (number, text) line that is not a whole-line comment."""
    return [line for _, line in lines if not line.lstrip().startswith("//")]


def use_names(statement):
    """The names a `pub use` statement exports (aliases, not `self` or `*`)."""
    body = statement.strip()[len("pub use "):].rstrip(";")
    names = []
    for leaf in re.split(r"[{},]", body):
        leaf = leaf.strip()
        if not leaf:
            continue
        if " as " in leaf:
            names.append(leaf.split(" as ")[-1].strip())
        else:
            name = leaf.split("::")[-1].strip()
            if name not in ("", "self", "*"):
                names.append(name)
    return names


class Source:
    def __init__(self, path):
        self.path = path
        text = path.read_text()
        self.lines = text.splitlines()
        self.code, self.test = split_test(text)
        self.doctests = doctest_code(self.lines)

    def interfaces(self):
        """(item name, interface text) of each `pub` item in non-test code: a
        fn's signature, a struct's `pub` fields, an enum's or a trait's body,
        an alias, const or static, and every associated type. A type named
        there has to be `pub` itself."""
        depths = brace_depths(self.lines)
        out = []
        for number, line in self.code:
            i = number - 1
            if re.match(r"^\s*type \w+(<[^>]*>)? = ", line):
                out.append(("", line))
            match = ITEM.match(line)
            if not match or match.group(1) in ("mod", "use"):
                continue
            kind, name = match.groups()
            start = depths[i - 1] if i else 0
            span = [line]
            j = i
            while depths[j] > start or not span[-1].split("//")[0].rstrip().endswith(("{", ";", "}")):
                if kind == "fn" and "{" in span[-1] or j + 1 >= len(self.lines):
                    break
                j += 1
                span.append(self.lines[j])
            if kind == "fn":
                span[-1] = span[-1].split("{")[0]
            elif kind == "struct":
                span = span[:1] + [s for s in span[1:] if re.match(r"^\s*(pub |where|[A-Z]\w*:)", s)]
            out.append((name, " ".join(span)))
        return out

    def items(self):
        """(kind, name, "path:line: text") of each `pub` item in non-test code."""
        out, pending = [], None
        for number, line in self.code:
            where = "%s:%d: %s" % (self.path.relative_to(ROOT), number, line.strip())
            if pending is not None:
                pending[1] += " " + line.strip()
                if ";" in line:
                    out += [("use", name, pending[0]) for name in use_names(pending[1])]
                    pending = None
                continue
            if USE.match(line):
                if ";" in line:
                    out += [("use", name, where) for name in use_names(line)]
                else:
                    pending = [where, line.strip()]
                continue
            match = ITEM.match(line)
            if match:
                out.append((match.group(1), match.group(2), where))
        return out


def words(lines):
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", "\n".join(lines)))


def count(lines, name):
    return len(re.findall(r"\b%s\b" % re.escape(name), "\n".join(lines)))


def scan():
    crates = sorted(p.parent.name for p in ROOT.glob("crates/*/Cargo.toml"))
    sources = {c: [Source(p) for p in sorted((ROOT / "crates" / c / "src").rglob("*.rs"))]
               for c in crates}
    # Names every crate sees from outside: the facade, the bin, the harness,
    # integration tests and doctests.
    shared_code, shared_test = [], []
    for path in list((ROOT / "src").rglob("*.rs")) + list((ROOT / "benchmark/src").rglob("*.rs")):
        src = Source(path)
        shared_code += code_only(src.code)
        shared_test += code_only(src.test) + src.doctests
    for path in list((ROOT / "tests").rglob("*.rs")) + list(ROOT.glob("crates/*/tests/**/*.rs")):
        shared_test += code_only(enumerate(path.read_text().splitlines()))
    for c in crates:
        for src in sources[c]:
            shared_test += src.doctests
    code_words = {c: words(line for s in sources[c] for line in code_only(s.code)) for c in crates}
    test_words = {c: words(line for s in sources[c] for line in code_only(s.test)) for c in crates}
    shared_code_words, shared_test_words = words(shared_code), words(shared_test)
    interface_names = {c: set() for c in crates}
    for c in crates:
        for src in sources[c]:
            for owner, text in src.interfaces():
                interface_names[c] |= words([text]) - {owner}

    unnamed, test_only = [], []
    for c in crates:
        outside_code = set(shared_code_words)
        outside_test = set(shared_test_words)
        for other in crates:
            if other != c:
                outside_code |= code_words[other]
                outside_test |= test_words[other]
        own_code = [line for s in sources[c] for line in code_only(s.code)]
        for src in sources[c]:
            for kind, name, where in src.items():
                if name in outside_code:
                    continue
                if kind in TYPES and name in interface_names[c]:
                    continue
                if name not in outside_test:
                    unnamed.append((c, name, where))
                elif kind == "fn" and count(own_code, name) <= count(own_code, "fn " + name):
                    test_only.append((c, name, where))
    return unnamed, test_only


def design_paths():
    """Each `crate::path` in DESIGN.md section 4 that names no module or item.

    A path walks module files as far as they go; the next name must be a
    `pub` item defined or re-exported in the last module, and any name
    after it a `pub fn` of the crate (a method)."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 4.", 1)[1].split("\n## ", 1)[0]
    missing = []
    for path in sorted(set(re.findall(r"`([a-z]+(?:::[A-Za-z_][A-Za-z0-9_]*)+)`", section))):
        parts = path.split("::")
        src = ROOT / "crates" / {"html": "htmlparse"}.get(parts[0], parts[0]) / "src"
        if not src.is_dir():
            missing.append(path)
            continue
        module, folder, rest = src / "lib.rs", src, parts[1:]
        while rest and (folder / (rest[0] + ".rs")).exists():
            module, folder, rest = folder / (rest[0] + ".rs"), folder / rest[0], rest[1:]
        if rest:
            items = Source(module).items()
            crate_text = "\n".join(f.read_text() for f in src.rglob("*.rs"))
            if rest[0] not in [name for _, name, _ in items] or any(
                not re.search(r"\bpub fn %s\b" % name, crate_text) for name in rest[1:]
            ):
                missing.append(path)
    return missing


def main():
    unnamed, test_only = scan()
    listed = {(c, n): ("unnamed", w) for c, n, w in unnamed}
    listed.update({(c, n): ("test-only", w) for c, n, w in test_only})
    if "--list" in sys.argv:
        for kind, entries in (("unnamed", unnamed), ("test-only", test_only)):
            for c, n, where in sorted(entries):
                print("%s %s [%s] %s" % (c, n, kind, where))
        return 0
    allowed, bad = {}, []
    for line in ALLOW.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) < 3:
            bad.append("allow-list line without a reason: " + line)
            continue
        allowed[(fields[0], fields[1])] = fields[2]
    for key in sorted(set(listed) - set(allowed)):
        kind, where = listed[key]
        why = "only tests name it" if kind == "test-only" else "nothing outside its crate names it"
        bad.append("%s %s: %s: %s" % (key + (why, where)))
    for key in sorted(set(allowed) - set(listed)):
        bad.append("%s %s: allow-listed but no longer listed; drop its line" % key)
    for path in design_paths():
        bad.append("DESIGN.md section 4 names `%s`, which is no module or pub item" % path)
    for line in bad:
        print(line)
    print("public surface: %d listed, %d allow-listed, %d problems"
          % (len(listed), len(allowed), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
