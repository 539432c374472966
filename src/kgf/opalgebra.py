"""Vacuum expectation values of the quantized field's ladder algebra.

A word is a sequence of letters ``(kind, index)``: ``kind`` is a parser
keyword ``"phi"``, ``"a"`` or ``"adag"``, ``index`` any hashable key of a
test function, such as its name or an integer.  The one relation is

    a[g] adag[f]  =  adag[f] a[g] + (f, g) * 1,

with ``phi[i] = adag[i] + a[i]`` and same-kind letters commuting.

One kernel, :func:`contract`, evaluates every vacuum expectation value: a
word's VEV is the sum over its pairings (a hafnian) of inner products,
computed by a memoised recursion over the set of unpaired letters.  Field
letters enter it as they are, so a product of n fields is never expanded
into its 2^n ladder words.  :func:`parse_expression` reads an operator
string into words and coefficients.

Its independent referee, :func:`kgf.fockoracle.fock_vacuum_expectation`,
applies a word to the vacuum letter by letter on Fock space.

The two-point orientation that falls out of the commutator as written is
``<0| phi[f1] phi[f2] |0> = (f2, f1)``: the later insertion sits in the
conjugated slot.

Inner products enter as a table ``(i, j) -> (f_i, f_j)`` keyed by the
same keys and supplied by the caller, so exact tables can be injected in
tests and quadrature stays out of the algebra.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass

from .errors import (
    ExpressionSyntaxError,
    FunctionLookupError,
    InvalidInputError,
    MissingInnerProductError,
    SizeLimitError,
)
from . import kernels

__all__ = [
    "FunctionRegistry",
    "InnerProductTable",
    "OperatorExpression",
    "contract",
    "vacuum_expectation",
    "wick_vev",
    "enumerate_pairings",
    "parse_expression",
    "parse_terms",
    "ParsedTerm",
]


#: Pairing enumeration is refused beyond this many insertions ((n-1)!! growth).
MAX_PAIRING_SIZE = 16

#: The contraction kernel refuses to memoise more unpaired-letter sets than
#: this: 24 distinct phi letters need 75 025, 26 would need 196 418.
MAX_CONTRACTION_STATES = 2**17


class FunctionRegistry:
    """Numbers test-function names 1, 2, ... as :func:`parse_expression` keys
    its letters; it holds no packets.  Concurrent registration must be
    serialized by the caller (single writer); lookups are safe to share."""

    def __init__(self):
        self._index_by_name: dict[str, int] = {}

    def register(self, name: str) -> int:
        if name in self._index_by_name:
            raise InvalidInputError(f"function name {name!r} already registered")
        self._index_by_name[name] = len(self._index_by_name) + 1
        return self._index_by_name[name]

    def ensure(self, name: str) -> int:
        """Index for ``name``, registering it on first appearance."""
        return self._index_by_name.get(name) or self.register(name)

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise FunctionLookupError(f"unknown function name {name!r}") from None


class InnerProductTable:
    """Table (i, j) -> (f_i, f_j) read by the contraction kernel and its referee."""

    def __init__(self, entries: dict | None = None):
        self._entries = dict(entries or {})

    def __getitem__(self, pair) -> complex:
        try:
            return self._entries[pair]
        except KeyError:
            raise MissingInnerProductError(pair) from None

    @classmethod
    def from_kernel(cls, spec: kernels.KernelSpec, packets: dict,
                    check: bool = True) -> "InnerProductTable":
        """All pairwise inner products of ``packets``, a mapping from key to
        wave packet, by quadrature, each keyed by its pair of keys.

        One :func:`~kgf.kernels.inner_products` batch over the diagonal
        pairs, then the upper ones in the mapping's order, so an input fails
        as it would pair by pair.  Each value is
        :func:`~kgf.kernels.inner_product`'s, bit for bit.  With ``check``
        each diagonal pair's refined pass is also that packet's norm in
        every check: two quadrature passes per entry.
        """
        pairs = [(key, key) for key in packets]
        pairs += itertools.combinations(packets, 2)
        found = kernels.inner_products(
            spec, [(packets[i], packets[j]) for i, j in pairs], check)
        entries = {}
        for (i, j), (value, _) in zip(pairs, found):
            # conjugate first: a diagonal entry keeps the value itself
            entries[(j, i)] = value.conjugate()
            entries[(i, j)] = value
        return cls(entries)


@dataclass(frozen=True)
class OperatorExpression:
    """Complex linear combination of words: ``terms`` maps word -> coefficient.

    A word is a tuple of ``(kind, index)`` letters as :func:`contract`
    reads them; ``phi`` letters are kept, not expanded.
    """

    terms: dict


#: Letter kinds that can annihilate and that can create.
_ANNIHILATORS = {"a", "phi"}
_CREATORS = {"adag", "phi"}


def contract(letters, ip) -> complex:
    """<0| L_1 ... L_n |0> for letters ``(kind, index)`` as a pairing sum.

    ``kind`` is a parser keyword: ``phi``, ``a`` or ``adag``.  A pair
    p < q is worth ``ip[(index_q, index_p)]`` when letter p can
    annihilate and letter q can create, else 0; a pairing is worth
    the product of its pairs.  The recursion always pairs the lowest
    unpaired letter first and is memoised on the bitmask of unpaired
    letters, so n distinct phi letters visit Fibonacci(n+1) states rather
    than (n-1)!! pairings.  Odd n gives exactly 0, the empty word 1.
    """
    letters = list(letters)
    n = len(letters)
    if n % 2:
        return 0.0 + 0.0j
    if n // 2 >= sys.getrecursionlimit():
        raise _too_deep(n)
    weight = [[0j] * n for _ in range(n)]
    for p, (kind_p, index_p) in enumerate(letters):
        if kind_p in _ANNIHILATORS:
            for q in range(p + 1, n):
                kind_q, index_q = letters[q]
                if kind_q in _CREATORS:
                    weight[p][q] = complex(ip[(index_q, index_p)])
    memo = {0: 1.0 + 0.0j}

    def rec(mask: int) -> complex:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        rest = mask ^ low
        row = weight[low.bit_length() - 1]
        total = 0.0 + 0.0j
        partners = rest
        while partners:
            bit = partners & -partners
            partners ^= bit
            w = row[bit.bit_length() - 1]
            if w:
                total += w * rec(rest ^ bit)
        if len(memo) >= MAX_CONTRACTION_STATES:
            raise SizeLimitError(
                f"refusing to contract {n} letters: more than "
                f"MAX_CONTRACTION_STATES = {MAX_CONTRACTION_STATES} states"
            )
        memo[mask] = total
        return total

    try:
        return rec((1 << n) - 1)
    except RecursionError:
        raise _too_deep(n) from None


def _too_deep(n: int) -> SizeLimitError:
    return SizeLimitError(f"refusing to contract {n} letters: pairing them nests "
                          f"deeper than the interpreter's recursion limit")


def vacuum_expectation(expr: OperatorExpression, ip, strategy: str = "leftmost") -> complex:
    """<0| expr |0>: each word's coefficient times its :func:`contract`.

    ``strategy`` is validated and otherwise ignored.  It stays only because
    ``perfbench/traced_kgf.py`` passes it by keyword (ROADMAP direction 8).
    """
    if strategy not in ("leftmost", "rightmost"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    return sum((coeff * contract(word, ip) for word, coeff in expr.terms.items()),
               0.0 + 0.0j)


def enumerate_pairings(n: int):
    """All perfect matchings of positions 0..n-1, yielded as lists of (p, q), p < q.

    The size limit is checked when called, not when first iterated.
    """
    if n > MAX_PAIRING_SIZE:
        raise SizeLimitError(
            f"refusing to enumerate pairings of {n} insertions "
            f"(limit MAX_PAIRING_SIZE = {MAX_PAIRING_SIZE})"
        )
    if n % 2 or n < 0:
        return iter(())

    def rec(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        for j in range(1, len(remaining)):
            partner = remaining[j]
            rest = remaining[1:j] + remaining[j + 1:]
            for tail in rec(rest):
                yield [(first, partner)] + tail

    return rec(list(range(n)))


def wick_vev(indices, ip) -> complex:
    """Sum over perfect matchings of products of two-point kernels.

    For a product phi[i1]...phi[in] the vacuum expectation value is the sum
    over matchings of positions, with each matched pair (p < q) worth
    ip(f_q, f_p): :func:`contract` over phi letters.  Odd n gives 0, the
    empty product gives 1.  It enumerates no matchings, so its size limit is
    :func:`contract`'s ``MAX_CONTRACTION_STATES``.
    """
    return contract([("phi", i) for i in indices], ip)


# --- operator-string front end -------------------------------------------
#
# expression := term (('+'|'-') term)*
# term       := [complex-literal '*'] factor+
# factor     := ('phi'|'a'|'adag') '[' ident ']'
#
# Whitespace-insensitive; offsets in errors are 1-based.  The complex
# literal is a real decimal literal, an imaginary one with a 'j' suffix,
# or a parenthesized sum '(a+bj)'.

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?j?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>[+\-*\[\]()])"
    r")"
)

_FACTOR_KEYWORDS = ("phi", "a", "adag")


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | symbol | end
    text: str
    position: int  # 1-based offset of first character


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionSyntaxError(
                f"unexpected character {text[bad_at]!r}", bad_at + 1
            )
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


@dataclass(frozen=True)
class ParsedTerm:
    coefficient: complex
    factors: tuple  # of (keyword, ident) pairs in textual order

    @property
    def is_phi_product(self) -> bool:
        return all(kw == "phi" for kw, _ in self.factors)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.cursor = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok

    def expect_symbol(self, symbol: str) -> _Token:
        tok = self.peek()
        if tok.kind != "symbol" or tok.text != symbol:
            raise ExpressionSyntaxError(f"expected {symbol!r}", tok.position)
        return self.advance()

    def parse(self):
        terms = [(1.0, self.parse_term())]
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.text in "+-":
                self.advance()
                sign = 1.0 if tok.text == "+" else -1.0
                terms.append((sign, self.parse_term()))
            elif tok.kind == "end":
                break
            else:
                raise ExpressionSyntaxError(
                    f"expected '+', '-' or end of input, found {tok.text!r}",
                    tok.position,
                )
        return [
            ParsedTerm(sign * term.coefficient, term.factors)
            for sign, term in terms
        ]

    def parse_term(self) -> ParsedTerm:
        coeff = 1.0 + 0.0j
        tok = self.peek()
        if tok.kind == "number" or (tok.kind == "symbol" and tok.text == "("):
            coeff = self.parse_complex_literal()
            self.expect_symbol("*")
        factors = [self.parse_factor()]
        while self.peek().kind == "name":
            factors.append(self.parse_factor())
        return ParsedTerm(coeff, tuple(factors))

    def parse_factor(self):
        tok = self.peek()
        if tok.kind != "name":
            message = "expected a factor ('phi', 'a' or 'adag')"
            if tok.text:
                message += f", found {tok.text!r}"
            raise ExpressionSyntaxError(message, tok.position)
        self.advance()
        if tok.text not in _FACTOR_KEYWORDS:
            raise ExpressionSyntaxError(
                f"unknown factor keyword {tok.text!r}", tok.position
            )
        self.expect_symbol("[")
        ident = self.peek()
        if ident.kind != "name":
            raise ExpressionSyntaxError("expected a function name", ident.position)
        self.advance()
        self.expect_symbol("]")
        return (tok.text, ident.text)

    def parse_complex_literal(self) -> complex:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return _number_value(tok)
        self.expect_symbol("(")
        first = self.peek()
        if first.kind != "number":
            raise ExpressionSyntaxError("expected a number", first.position)
        self.advance()
        value = _number_value(first)
        tok = self.peek()
        if tok.kind == "symbol" and tok.text in "+-":
            self.advance()
            second = self.peek()
            if second.kind != "number" or not second.text.endswith("j"):
                raise ExpressionSyntaxError(
                    "expected an imaginary literal like '2j'", second.position
                )
            self.advance()
            imag = _number_value(second)
            value = value + imag if tok.text == "+" else value - imag
        self.expect_symbol(")")
        return value


def _number_value(tok: _Token) -> complex:
    imaginary = tok.text.endswith("j")
    value = float(tok.text[:-1] if imaginary else tok.text)
    if not math.isfinite(value):
        raise ExpressionSyntaxError(
            f"number {tok.text!r} is outside the float range", tok.position)
    return complex(0.0, value) if imaginary else complex(value, 0.0)


def parse_terms(text: str) -> list:
    """Parse an operator string into (coefficient, factor list) terms."""
    return _Parser(text).parse()


def parse_expression(text: str, registry: FunctionRegistry) -> OperatorExpression:
    """Parse an operator string, auto-registering idents on first appearance.

    Each term becomes one word of its letters in textual order; the
    coefficients of equal words are summed.
    """
    terms: dict = {}
    for term in parse_terms(text):
        word = tuple((kw, registry.ensure(ident)) for kw, ident in term.factors)
        terms[word] = terms.get(word, 0.0) + term.coefficient
    return OperatorExpression(terms)
