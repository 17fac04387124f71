#!/usr/bin/env python3
"""qrank_lint: compile_commands.json-driven checker for qrank repo contracts.

Clang's -Wthread-safety covers lock discipline (see
src/common/thread_annotations.h); this tool covers the repo rules that
are not expressible as type-system attributes. It is deliberately
stdlib-only: the build container has no libclang, so the frontend is a
small C++ tokenizer (comments and literals stripped, local includes
resolved transitively) driven by the compile database, which gives it
the two things a grep cannot have — per-TU compile flags and per-TU
transitive closure.

Rules
-----
  hot-alloc    Functions marked QRANK_HOT must not allocate, directly or
               through any function defined in the same translation
               unit. Allocation is detected at token level (operator
               new, malloc-family, growing container members,
               make_unique/make_shared, string builders); calls that
               leave the TU are invisible, which is why the runtime
               counting-allocator tests remain authoritative. This rule
               is the fast, always-on first line.
  scalar-tu    Functions marked QRANK_SCALAR_TU_ONLY (the bit-exactness
               oracles, e.g. ScalarSweepFuncs) may only be
               defined in TUs compiled without -mavx*/-march=*avx*/
               -ffast-math/-Ofast: FMA contraction or fast-math
               reassociation would silently change their rounding and
               break the cross-variant bit-equality contract. The
               marker must appear in the TU's main file.
  reader-guard Binary readers (functions named Load*/From*/Decode* that
               touch raw bytes) must size/header-check their input
               before the first allocation or byte-copy, so a header
               promising 2^31 pages in a 1 KB file dies in validation,
               not in operator new. The check is ordering-plus-basic-
               reachability: a guard whose condition is killed by a
               constant short-circuit (`true || check`, `false &&
               check`) does not count — see
               tests/lint_fixtures/reader_guard_known_miss.cc, which
               this catches. Full dataflow (a check behind `if
               (always_true_var)`) remains out of scope.
  no-assert    No raw assert(): it vanishes under NDEBUG and prints no
               context. Use QRANK_CHECK / QRANK_DCHECK (common/logging.h).
  naked-mutex  No std::mutex / std::condition_variable / std::lock_guard
               (and friends) outside common/thread_annotations.h. The
               annotated qrank::Mutex wrappers are what make
               -Wthread-safety able to see lock discipline at all; one
               naked mutex is an unanalyzable hole.

Suppression
-----------
A finding is suppressed by a comment on the same line or the directly
preceding comment block:

    // qrank-lint: allow(hot-alloc) grow-once scratch, see kernel_alloc_test

The rule name is required; a reason is expected by convention (and by
code review). For hot-alloc the suppression also stops the transitive
walk through that call site.

Exit status: 0 clean, 1 findings, 2 usage/database errors.
"""

import argparse
import json
import os
import re
import sys
from collections import namedtuple

Token = namedtuple("Token", ["kind", "text", "line"])  # kind: id num punct str
Function = namedtuple(
    "Function", ["name", "qual", "file", "line", "body", "markers"])
Finding = namedtuple("Finding", ["rule", "file", "line", "message"])

ALL_RULES = ("hot-alloc", "scalar-tu", "reader-guard", "no-assert",
             "naked-mutex")

ALLOW_RE = re.compile(r"qrank-lint:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")

# Names whose `name (...)` is control flow or an operator, never a call
# or a definition.
CONTROL = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "defined", "co_await", "co_return",
    "co_yield", "throw", "alignas", "noexcept", "typeid", "delete",
}

# Direct allocation evidence for hot-alloc: a call to one of these, or
# the `new` keyword. Member names are matched regardless of receiver —
# in a QRANK_HOT body any growing container is a bug or needs an
# explicit allow() with its amortization argument.
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "make_obj_using_allocator",
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "resize", "reserve", "assign", "insert", "append", "to_string",
    "substr", "operator_new",
}

# reader-guard: the first of these in a Load*/From*/Decode* body must
# be preceded by a size-ish check.
READER_RISKY = {
    "memcpy", "memmove", "reinterpret_cast", "resize", "reserve", "assign",
    "push_back", "emplace_back", "pread", "fread", "mmap", "new",
}
# ...and evidence that the function actually consumes raw bytes (rule
# scope gate, so PermFromOrder / FromEdges-style structured builders are
# out of scope).
READER_BYTE_TOKENS = {
    "uint8_t", "int8_t", "istream", "ifstream", "pread", "fread", "mmap",
    "ReadPod", "byte",
}
READER_NAME_RE = re.compile(r"^(Load|From|Decode)([A-Z_].*)?$")

# A guard is an `if`/check-macro/validator call whose parenthesized
# condition mentions one of these (substring match on identifiers).
GUARD_HINTS = ("size", "Size", "empty", "Empty", "length", "magic", "Magic",
               "remaining", "Remaining", "sizeof")
GUARD_CALL_RE = re.compile(r"^(QRANK_CHECK|QRANK_DCHECK|Validate|Check)")

MUTEX_IDS = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock",
}

ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
ID_CONT = ID_START | set("0123456789")


def tokenize(text):
    """Returns (tokens, allows, includes).

    allows: {rule: set(lines)} — suppressed lines (the comment's line
    and the next line that carries a token).
    includes: ["name.h", ...] from #include "name.h" directives.
    """
    tokens = []
    allow_comments = []  # (line, [rules])
    includes = []
    i, n, line = 0, len(text), 1

    def record_allow(comment, at_line):
        m = ALLOW_RE.search(comment)
        if m:
            rules = [r.strip() for r in m.group(1).split(",")]
            allow_comments.append((at_line, rules))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            record_allow(text[i:j], line)
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            comment = text[i:j]
            record_allow(comment, line)
            line += comment.count("\n")
            i = j
        elif c == "#" and (not tokens or tokens[-1].line != line):
            # Preprocessor directive: consume the logical line.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\" if k > 0 else False:
                    j = k + 1
                    continue
                j = k
                break
            directive = text[i:j]
            m = re.match(r'#\s*include\s*"([^"]+)"', directive)
            if m:
                includes.append(m.group(1))
            line += directive.count("\n")
            i = j
        elif c == '"':
            # String literal (handles the non-raw case; raw below).
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i:j + 1], line))
            line += text.count("\n", i, min(j + 1, n))
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'" and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i:j + 1], line))
            i = j + 1
        elif c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i)
                j = n if j < 0 else j + len(close)
                tokens.append(Token("str", "<raw>", line))
                line += text.count("\n", i, j)
                i = j
            else:
                tokens.append(Token("id", "R", line))
                i += 1
        elif c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] in ".'"):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
        else:
            tokens.append(Token("punct", c, line))
            i += 1

    token_lines = sorted({t.line for t in tokens})
    allows = {}
    for at_line, rules in allow_comments:
        covered = {at_line}
        nxt = next((l for l in token_lines if l > at_line), None)
        if nxt is not None:
            covered.add(nxt)
        for rule in rules:
            allows.setdefault(rule, set()).update(covered)
    return tokens, allows, includes


def match_forward(tokens, i, open_c, close_c):
    """Index of the token closing the bracket opened at i, or None."""
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return j
    return None


def skip_post_qualifiers(tokens, k):
    """After a parameter list's `)`, skip const/noexcept/attributes/
    trailing-return so the caller can test for `{`, `:` or `;`."""
    n = len(tokens)
    while k < n:
        t = tokens[k]
        if t.kind == "id" and t.text in (
                "const", "noexcept", "override", "final", "mutable", "try",
                "volatile", "throw"):
            k += 1
            if k < n and tokens[k].text == "(":  # noexcept(...) / throw()
                close = match_forward(tokens, k, "(", ")")
                if close is None:
                    return None
                k = close + 1
        elif t.kind == "id" and t.text.startswith("QRANK_"):
            k += 1
            if k < n and tokens[k].text == "(":
                close = match_forward(tokens, k, "(", ")")
                if close is None:
                    return None
                k = close + 1
        elif t.text in ("&", "&&"):
            k += 1
        elif t.text == "-" and k + 1 < n and tokens[k + 1].text == ">":
            # Trailing return type: consume type tokens up to { ; or :.
            k += 2
            while k < n and tokens[k].text not in ("{", ";", ":", ","):
                if tokens[k].text == "(":
                    close = match_forward(tokens, k, "(", ")")
                    if close is None:
                        return None
                    k = close
                k += 1
        else:
            return k
    return None


def skip_member_inits(tokens, k):
    """From just after a ctor's `:`, return the index of the body `{`."""
    n = len(tokens)
    while k < n:
        while k < n and (tokens[k].kind == "id" or
                         tokens[k].text in ("::", ":", "<", ">", ",")):
            # Qualified/templated member names; lenient.
            if tokens[k].text == ",":
                k += 1
                break
            k += 1
        if k >= n:
            return None
        if tokens[k].text == "(":
            close = match_forward(tokens, k, "(", ")")
        elif tokens[k].text == "{":
            # Either an init `member{...}` or the ctor body. Treat a `{`
            # directly after a completed init (preceded by `)` or `}`)
            # as the body.
            prev = tokens[k - 1].text if k > 0 else ""
            if prev in (")", "}"):
                return k
            close = match_forward(tokens, k, "{", "}")
        else:
            return None
        if close is None:
            return None
        k = close + 1
        if k < n and tokens[k].text == "{":
            return k
        if k < n and tokens[k].text == ",":
            k += 1
            continue
    return None


def scan_markers(tokens, idx):
    """Collect QRANK_* marker ids between the previous declaration
    boundary and the function name at idx."""
    markers = set()
    j = idx
    steps = 0
    while j >= 0 and steps < 64:
        t = tokens[j]
        if t.text in (";", "}", "{"):
            break
        if t.kind == "id" and t.text.startswith("QRANK_"):
            markers.add(t.text)
        j -= 1
        steps += 1
    return markers


def qualified_name(tokens, idx):
    parts = [tokens[idx].text]
    j = idx - 1
    while j > 0 and tokens[j].text == ":" and tokens[j - 1].text == ":":
        j -= 2
        if j >= 0 and tokens[j].kind == "id":
            parts.append(tokens[j].text)
            j -= 1
        else:
            break
    return "::".join(reversed(parts))


def extract_functions(tokens, path):
    """Find function definitions: id ( params ) [quals] [: inits] {."""
    funcs = []
    n = len(tokens)
    i = 1
    while i < n:
        if tokens[i].text != "(" or tokens[i - 1].kind != "id":
            i += 1
            continue
        name_tok = tokens[i - 1]
        if name_tok.text in CONTROL or name_tok.text.startswith("QRANK_"):
            i += 1
            continue
        close = match_forward(tokens, i, "(", ")")
        if close is None:
            i += 1
            continue
        k = skip_post_qualifiers(tokens, close + 1)
        if k is None or k >= n:
            i += 1
            continue
        if tokens[k].text == ":":
            k = skip_member_inits(tokens, k + 1)
            if k is None:
                i += 1
                continue
        if tokens[k].text == "{":
            end = match_forward(tokens, k, "{", "}")
            if end is not None:
                funcs.append(Function(
                    name=name_tok.text,
                    qual=qualified_name(tokens, i - 1),
                    file=path,
                    line=name_tok.line,
                    body=(k + 1, end, (i + 1, close)),
                    markers=frozenset(scan_markers(tokens, i - 1))))
        i += 1
    return funcs


Call = namedtuple("Call", ["name", "line", "is_new"])


def extract_calls(tokens, lo, hi):
    calls = []
    j = lo
    while j < hi:
        t = tokens[j]
        if t.kind == "id":
            if t.text == "new":
                # `operator new` overload mention vs the expression.
                prev = tokens[j - 1].text if j > 0 else ""
                if prev != "operator":
                    calls.append(Call("new", t.line, True))
            elif t.text in ("make_unique", "make_shared") and j + 1 < hi \
                    and tokens[j + 1].text == "<":
                calls.append(Call(t.text, t.line, False))
            elif j + 1 < hi and tokens[j + 1].text == "(" \
                    and t.text not in CONTROL:
                calls.append(Call(t.text, t.line, False))
        j += 1
    return calls


class SourceFile:
    def __init__(self, path):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.path = path
        self.tokens, self.allows, self.includes = tokenize(text)
        self.functions = extract_functions(self.tokens, path)

    def suppressed(self, rule, line):
        return line in self.allows.get(rule, ())


class Lint:
    def __init__(self, repo_root, rules):
        self.repo_root = repo_root
        self.rules = rules
        self.files = {}  # abs path -> SourceFile
        self.findings = {}  # dedup key -> Finding
        self.per_file_done = set()  # (rule, path) for TU-independent rules

    def file(self, path):
        path = os.path.realpath(path)
        sf = self.files.get(path)
        if sf is None:
            sf = SourceFile(path)
            self.files[path] = sf
        return sf

    def add(self, rule, path, line, message):
        rel = os.path.relpath(path, self.repo_root)
        key = (rule, rel, line, message)
        if key not in self.findings:
            self.findings[key] = Finding(rule, rel, line, message)

    # -- TU assembly ---------------------------------------------------

    def resolve_tu(self, main_path, include_dirs):
        """Transitive closure over local quoted includes, repo files only."""
        seen = []
        seen_set = set()
        stack = [os.path.realpath(main_path)]
        while stack:
            path = stack.pop()
            if path in seen_set or not path.startswith(self.repo_root):
                continue
            try:
                sf = self.file(path)
            except OSError:
                continue
            seen.append(sf)
            seen_set.add(path)
            base = os.path.dirname(path)
            for inc in sf.includes:
                for d in [base] + include_dirs:
                    cand = os.path.realpath(os.path.join(d, inc))
                    if os.path.isfile(cand):
                        stack.append(cand)
                        break
        return seen

    # -- rules ---------------------------------------------------------

    def check_tu(self, main_path, include_dirs, args):
        tu = self.resolve_tu(main_path, include_dirs)
        if "hot-alloc" in self.rules:
            self.rule_hot_alloc(tu)
        if "scalar-tu" in self.rules:
            self.rule_scalar_tu(tu[0], args)
        for sf in tu:
            if "reader-guard" in self.rules:
                self.per_file_rule("reader-guard", sf, self.rule_reader_guard)
            if "no-assert" in self.rules:
                self.per_file_rule("no-assert", sf, self.rule_no_assert)
            if "naked-mutex" in self.rules:
                self.per_file_rule("naked-mutex", sf, self.rule_naked_mutex)

    def per_file_rule(self, rule, sf, fn):
        key = (rule, sf.path)
        if key in self.per_file_done:
            return
        self.per_file_done.add(key)
        fn(sf)

    def rule_hot_alloc(self, tu):
        defs = {}
        for sf in tu:
            for f in sf.functions:
                defs.setdefault(f.name, []).append((sf, f))
        for sf in tu:
            for f in sf.functions:
                if "QRANK_HOT" not in f.markers:
                    continue
                self._walk_hot(sf, f, defs, visited={f.name},
                               root=f.qual, via=[])

    def _walk_hot(self, sf, fn, defs, visited, root, via):
        lo, hi, _ = fn.body
        for call in extract_calls(sf.tokens, lo, hi):
            if sf.suppressed("hot-alloc", call.line):
                continue
            if call.is_new or call.name in ALLOC_CALLS:
                path = " -> ".join(via + [call.name])
                self.add(
                    "hot-alloc", sf.path, call.line,
                    "QRANK_HOT function '%s' allocates via %s; hot paths "
                    "must be allocation-free (pre-size in setup, or add "
                    "'// qrank-lint: allow(hot-alloc) <reason>' with the "
                    "amortization argument)" % (root, path))
            elif call.name in defs and call.name not in visited:
                visited.add(call.name)
                for callee_sf, callee in defs[call.name]:
                    self._walk_hot(callee_sf, callee, defs, visited, root,
                                   via + [call.name])

    def rule_scalar_tu(self, main_sf, args):
        bad = [a for a in args
               if a.startswith("-mavx") or a == "-ffast-math"
               or a == "-Ofast" or a == "-funsafe-math-optimizations"
               or (a.startswith("-march=") and "avx" in a)]
        if not bad:
            return
        for f in main_sf.functions:
            if "QRANK_SCALAR_TU_ONLY" not in f.markers:
                continue
            if main_sf.suppressed("scalar-tu", f.line):
                continue
            self.add(
                "scalar-tu", main_sf.path, f.line,
                "'%s' is QRANK_SCALAR_TU_ONLY (bit-exactness oracle) but "
                "this TU is compiled with %s; FMA contraction/fast-math "
                "would change its rounding" % (f.qual, " ".join(bad)))

    def rule_reader_guard(self, sf):
        for f in sf.functions:
            if not READER_NAME_RE.match(f.name):
                continue
            lo, hi, (plo, phi) = f.body
            scope = sf.tokens[plo:phi] + sf.tokens[lo:hi]
            if not any(t.kind == "id" and t.text in READER_BYTE_TOKENS
                       for t in scope):
                continue  # not a raw-byte reader
            risky = self._first_risky(sf.tokens, lo, hi)
            if risky is None:
                continue
            guard = self._first_guard(sf.tokens, lo, hi)
            if guard is not None and guard < risky[0]:
                continue
            tok = risky[1]
            if sf.suppressed("reader-guard", tok.line) or \
                    sf.suppressed("reader-guard", f.line):
                continue
            self.add(
                "reader-guard", sf.path, tok.line,
                "binary reader '%s' hits '%s' before any size/header "
                "check; validate input bounds before the first allocation "
                "or byte copy" % (f.qual, tok.text))

    @staticmethod
    def _first_risky(tokens, lo, hi):
        for j in range(lo, hi):
            t = tokens[j]
            if t.kind != "id":
                continue
            if t.text == "new" and (j == 0 or tokens[j - 1].text != "operator"):
                return j, t
            if t.text in READER_RISKY and t.text != "new":
                nxt = tokens[j + 1].text if j + 1 < hi else ""
                if nxt in ("(", "<"):
                    return j, t
        return None

    @staticmethod
    def _dead_indices(tokens, lo, hi):
        """Token indices in [lo, hi) unreachable by constant short-circuit.

        Inside an if-condition, everything at the condition's own
        parenthesis depth after `true ||` (right operand never
        evaluated) or `false &&` is dead. A size check or validator
        call living in such a tail guards nothing. Value propagation
        (`if (kAlwaysTrue || ...)`) stays out of scope — this is a
        tokenizer, not an evaluator.
        """
        dead = set()
        for j in range(lo, hi):
            t = tokens[j]
            if t.kind != "id" or t.text != "if":
                continue
            if j + 1 >= hi or tokens[j + 1].text != "(":
                continue
            close = match_forward(tokens, j + 1, "(", ")")
            if close is None or close >= hi:
                continue
            depth = 0
            for i in range(j + 2, close):
                c = tokens[i]
                if c.kind == "punct":
                    if c.text == "(":
                        depth += 1
                    elif c.text == ")":
                        depth -= 1
                    continue
                if depth != 0 or c.kind != "id":
                    continue
                op = {"true": "|", "false": "&"}.get(c.text)
                if op and i + 2 < close and tokens[i + 1].text == op \
                        and tokens[i + 2].text == op:
                    dead.update(range(i + 1, close))
                    break
        return dead

    @staticmethod
    def _first_guard(tokens, lo, hi):
        dead = Lint._dead_indices(tokens, lo, hi)
        j = lo
        while j < hi:
            t = tokens[j]
            if j not in dead and t.kind == "id" and \
                    (t.text == "if" or GUARD_CALL_RE.match(t.text)):
                if j + 1 < hi and tokens[j + 1].text == "(":
                    close = match_forward(tokens, j + 1, "(", ")")
                    if close is not None and close < hi:
                        cond = [tokens[i] for i in range(j + 2, close)
                                if i not in dead]
                        if t.text != "if" or any(
                                c.kind == "id" and
                                any(h in c.text for h in GUARD_HINTS)
                                for c in cond):
                            return j
                        j = j + 1
            j += 1
        return None

    def rule_no_assert(self, sf):
        toks = sf.tokens
        for j, t in enumerate(toks):
            if t.kind == "id" and t.text == "assert" \
                    and j + 1 < len(toks) and toks[j + 1].text == "(":
                if sf.suppressed("no-assert", t.line):
                    continue
                self.add(
                    "no-assert", sf.path, t.line,
                    "raw assert() vanishes under NDEBUG and logs no "
                    "context; use QRANK_CHECK / QRANK_DCHECK "
                    "(common/logging.h)")

    def rule_naked_mutex(self, sf):
        if os.path.basename(sf.path) == "thread_annotations.h":
            return
        toks = sf.tokens
        for j in range(len(toks) - 2):
            if toks[j].text == "std" and toks[j + 1].text == ":" \
                    and toks[j + 2].text == ":" and j + 3 < len(toks) \
                    and toks[j + 3].text in MUTEX_IDS:
                t = toks[j + 3]
                if sf.suppressed("naked-mutex", t.line):
                    continue
                self.add(
                    "naked-mutex", sf.path, t.line,
                    "naked std::%s is invisible to -Wthread-safety; use "
                    "qrank::Mutex / MutexLock / CondVar "
                    "(common/thread_annotations.h)" % t.text)


def parse_db_entry(entry):
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        # Shell-split; compile commands from CMake have no tricky quoting
        # beyond -D values, which none of our checks read.
        args = entry["command"].split()
    directory = entry["directory"]
    file_path = entry["file"]
    if not os.path.isabs(file_path):
        file_path = os.path.join(directory, file_path)
    include_dirs = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "-I" and i + 1 < len(args):
            include_dirs.append(os.path.join(directory, args[i + 1]))
            i += 2
            continue
        if a.startswith("-I"):
            include_dirs.append(os.path.join(directory, a[2:]))
        i += 1
    return file_path, include_dirs, args


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="qrank_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-p", "--database", required=True,
                    help="path to compile_commands.json (or its directory)")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help="comma-separated subset of: %s" % ", ".join(ALL_RULES))
    ap.add_argument("--select", default=r"(^|/)src/",
                    help="regex; only database entries whose file path "
                         "matches are analyzed (default: %(default)s)")
    ap.add_argument("--report", help="also write findings to this file")
    ap.add_argument("--root", help="repo root for relative paths in output "
                                   "(default: database directory's parent)")
    args = ap.parse_args(argv)

    db_path = args.database
    if os.path.isdir(db_path):
        db_path = os.path.join(db_path, "compile_commands.json")
    try:
        with open(db_path, "r", encoding="utf-8") as f:
            db = json.load(f)
    except (OSError, ValueError) as e:
        print("qrank_lint: cannot read %s: %s" % (db_path, e), file=sys.stderr)
        return 2

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print("qrank_lint: unknown rule(s): %s" % ", ".join(unknown),
              file=sys.stderr)
        return 2

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.realpath(db_path)))
    root = os.path.realpath(root)
    select = re.compile(args.select) if args.select else None

    lint = Lint(root, rules)
    analyzed = 0
    for entry in db:
        file_path, include_dirs, cmd_args = parse_db_entry(entry)
        if select and not select.search(file_path):
            continue
        if not os.path.isfile(file_path):
            continue
        lint.check_tu(file_path, include_dirs, cmd_args)
        analyzed += 1

    findings = sorted(lint.findings.values(),
                      key=lambda f: (f.file, f.line, f.rule))
    lines = ["%s:%d: error: [%s] %s" % (f.file, f.line, f.rule, f.message)
             for f in findings]
    summary = "qrank_lint: %d finding(s) in %d TU(s), %d file(s) scanned" % (
        len(findings), analyzed, len(lint.files))
    out = "\n".join(lines + [summary])
    print(out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(out + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
