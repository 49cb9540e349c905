"""Line-oriented text formats for families and 4-block instances.

Rationals serialize as "p/q" (or "p" when the denominator is 1); bounds
may be "inf".  '#' starts a comment.  Readers report line and column on
malformed input; writers are deterministic, so regenerating a file from
the same data is byte-identical.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .norms import norm_from_name, norm_name
from .colorful import ColoredFamily
from .rearrange import VectorSequence
from .blockip import FourBlockInstance, IntegerForm, KernelPoint


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


def format_rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_bound(x) -> str:
    return "inf" if x is None else format_rat(x)


_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class _Tokens:
    def __init__(self, text: str):
        self.items = []
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for match in re.finditer(r"\S+", body):
                self.items.append((match.group(), ln, match.start() + 1))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self, what: str):
        if self.pos >= len(self.items):
            last = self.items[-1] if self.items else ("", 1, 1)
            raise ParseError(last[1], last[2], f"unexpected end of file, expected {what}")
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def rat(self, what: str = "a rational") -> Fraction:
        tok, ln, col = self.next(what)
        if not _RAT_RE.match(tok):
            raise ParseError(ln, col, f"expected {what}, got {tok!r}")
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:
                raise ParseError(ln, col, "zero denominator")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))

    def bound(self, what: str = "a bound"):
        nxt = self.peek()
        if nxt is not None and nxt[0] == "inf":
            self.pos += 1
            return None
        return self.rat(what)

    def count(self, what: str) -> int:
        """A nonnegative integer, rejected at its token otherwise."""
        tok, ln, col = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(ln, col, f"expected {what}, got {tok!r}") from None
        if value < 0:
            raise ParseError(ln, col, f"expected a nonnegative {what}, got {tok!r}")
        return value

    def literal(self, expected: str, what: str):
        tok, ln, col = self.next(what)
        if tok != expected:
            raise ParseError(ln, col, f"expected {what} ({expected!r}), got {tok!r}")

    def section(self, *words):
        label = " ".join(words)
        for w in words:
            self.literal(w, f"section {label!r}")

    def end(self):
        """Reject any token left after the last expected value."""
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok[1], tok[2], f"unexpected trailing input {tok[0]!r}")


# ---------------------------------------------------------------------------
# colorful family files


def write_family(fam: ColoredFamily, path: str):
    lines = [f"colorful {fam.dim} {fam.colors} {fam.length} {norm_name(fam.norm)}"]
    for j, color in enumerate(fam.vectors):
        lines.append(f"# color {j + 1}")
        for v in color:
            lines.append(" ".join(format_rat(x) for x in v))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_family(path: str) -> ColoredFamily:
    with open(path) as fh:
        toks = _Tokens(fh.read())
    toks.literal("colorful", "header")
    d = toks.count("dimension d")
    n = toks.count("color count n")
    m = toks.count("length m")
    tok, ln, col = toks.next("a norm name")
    try:
        norm = norm_from_name(tok)
    except ValueError as exc:
        raise ParseError(ln, col, str(exc)) from None
    vectors = tuple(
        tuple(tuple(toks.rat("a vector entry") for _ in range(d)) for _ in range(m))
        for _ in range(n))
    toks.end()
    return ColoredFamily(d, n, m, vectors, norm)


def family_as_sequence(fam: ColoredFamily) -> VectorSequence:
    if fam.colors != 1:
        raise ValueError("expected a single-color family")
    return VectorSequence(fam.vectors[0], fam.dim, fam.norm)


# ---------------------------------------------------------------------------
# 4-block instance files


def write_fourblock(inst: FourBlockInstance, path: str):
    form = inst.integer_form
    lines = [f"fourblock {inst.s0} {inst.s} {inst.t0} {inst.t} {inst.n} {inst.delta}"]
    lines.append("A0")
    lines.extend(" ".join(map(str, row)) for row in form.A0)
    for name, blocks in (("B", form.B), ("A", form.A), ("C", form.C)):
        for i, rows in enumerate(blocks):
            lines.append(f"{name} {i + 1}")
            lines.extend(" ".join(map(str, row)) for row in rows)
    lines.append("b")
    lines.append(" ".join(format_rat(x) for x in inst.b))
    lines.append("cx")
    lines.append(" ".join(format_rat(x) for x in inst.cx))
    lines.append("cy")
    lines.append(" ".join(format_rat(x) for x in inst.cy))
    lines.append("ux")
    lines.append(" ".join(format_bound(x) for x in inst.ux))
    lines.append("uy")
    lines.append(" ".join(format_bound(x) for x in inst.uy))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_fourblock(path: str) -> FourBlockInstance:
    with open(path) as fh:
        toks = _Tokens(fh.read())
    toks.literal("fourblock", "header")
    s0 = toks.count("s0")
    s = toks.count("s")
    t0 = toks.count("t0")
    t = toks.count("t")
    n = toks.count("n")
    delta = toks.count("delta")

    def entry():
        # int when integral; the instance rejects any other block entry
        x = toks.rat("a matrix entry")
        return x.numerator if x.denominator == 1 else x

    def matrix(rows, cols):
        return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))

    def blocks(name, rows, cols):
        out = []
        for i in range(n):
            toks.section(name, str(i + 1))
            out.append(matrix(rows, cols))
        return tuple(out)

    toks.section("A0")
    A0 = matrix(s0, t0)
    B, A, C = blocks("B", s, t0), blocks("A", s, t), blocks("C", s0, t)
    toks.section("b")
    b = tuple(toks.rat("a b entry") for _ in range(s0 + n * s))
    toks.section("cx")
    cx = tuple(toks.rat("a cx entry") for _ in range(t0))
    toks.section("cy")
    cy = tuple(toks.rat("a cy entry") for _ in range(n * t))
    toks.section("ux")
    ux = tuple(toks.bound("an ux bound") for _ in range(t0))
    toks.section("uy")
    uy = tuple(toks.bound("an uy bound") for _ in range(n * t))
    toks.end()
    return FourBlockInstance(s0, s, t0, t, n, IntegerForm(A0, B, A, C), b, cx, cy, ux, uy, delta)


def write_point(pt: KernelPoint, path: str):
    with open(path, "w") as fh:
        fh.write(" ".join(format_rat(x) for x in pt.x) + "\n")
        fh.write(" ".join(format_rat(x) for x in pt.y) + "\n")


def read_point(path: str, inst: FourBlockInstance) -> KernelPoint:
    with open(path) as fh:
        toks = _Tokens(fh.read())
    x = tuple(toks.rat("a point entry") for _ in range(inst.x_dim))
    y = tuple(toks.rat("a point entry") for _ in range(inst.y_dim))
    toks.end()
    return KernelPoint(x, y)

