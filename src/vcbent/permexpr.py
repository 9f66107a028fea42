"""Expression mini-language for spectral permutations (p = 3).

Atoms: I, P01, P12, N, X, XT, Z, Zc, genperm's EA(1,3) table (Zc is Z*).
Forms:  kron(a,b)   compose(a,b)   blockdiag(a,b,c)   diag(e0,...,e8)
        w^k*expr    -expr
Diagonal entries are root literals: 1, w, w^2, optionally negated.

parse() builds an AST, evaluate() turns it into a GenPerm, render() is the
canonical writer (parse ∘ render ∘ parse is the identity), and
conjugate_expr() computes W = p^(-n)·C·P·C* structurally: atom images come
from the conjugation table, Kronecker/product/rotation nodes combine
factor-wise, 3×3 diagonals come from a cache, and every other block-diagonal
or diagonal node is conjugated by the transform engine (conjugate_by_c).  No
node above the size guard is built, and a node whose W turns dense is refused,
like conjugate_by_c, when its p^2n entries exceed the guard.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import RootScalar
from .genperm import (
    ATOM_NAMES,
    DenseCycMatrix,
    GenPerm,
    as_dense,
    atom,
    block_diag,
    compose,
    conjugate_by_c,
    conjugate_table,
    kron,
    scale,
    _downcast,
)
from .mvfunction import _length_to_n
from .vctransform import SizeLimitExceeded, _guard, size_limit


class ExprParseError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Rot:
    sign: int
    k: int
    child: "Expr"


@dataclass(frozen=True)
class Kron:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compose:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BlockDiag:
    items: tuple


@dataclass(frozen=True)
class Diag:
    entries: tuple  # of RootScalar


Expr = Atom | Rot | Kron | Compose | BlockDiag | Diag

_TOKENS = re.compile(r"\s*(w\^[0-9]+|[A-Za-z][A-Za-z0-9]*|[0-9]+|[(),*^-])")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKENS.match(text, pos)
            if m is None:
                raise ExprParseError(f"bad character at position {pos} in {text!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def pop(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprParseError(f"unexpected end of expression in {self.text!r}")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.pop()
        if got != tok:
            raise ExprParseError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def parse(self) -> Expr:
        node = self.parse_expr()
        if self.peek() is not None:
            raise ExprParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return node

    def parse_expr(self) -> Expr:
        tok = self.peek()
        if tok == "-":
            self.pop()
            child = self.parse_expr()
            return _fold_rot(-1, 0, child)
        if tok is not None and (tok == "w" or tok.startswith("w^")):
            save = self.i
            self.pop()
            k = 1 if tok == "w" else int(tok[2:])
            if self.peek() == "*":
                self.pop()
                child = self.parse_expr()
                return _fold_rot(1, k, child)
            self.i = save  # bare root literal is only legal inside diag(...)
            raise ExprParseError(f"dangling rotation {tok!r} in {self.text!r}")
        return self.parse_call()

    def parse_call(self) -> Expr:
        tok = self.pop()
        if tok == "kron" or tok == "compose":
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return Kron(left, right) if tok == "kron" else Compose(left, right)
        if tok == "blockdiag":
            self.expect("(")
            items = [self.parse_expr()]
            while self.peek() == ",":
                self.pop()
                items.append(self.parse_expr())
            self.expect(")")
            return BlockDiag(tuple(items))
        if tok == "diag":
            self.expect("(")
            entries = [self.parse_root()]
            while self.peek() == ",":
                self.pop()
                entries.append(self.parse_root())
            self.expect(")")
            return Diag(tuple(entries))
        if tok in ATOM_NAMES:
            return Atom(tok)
        raise ExprParseError(f"unknown name {tok!r} in {self.text!r}")

    def parse_root(self) -> RootScalar:
        sign = 1
        tok = self.pop()
        if tok == "-":
            sign = -1
            tok = self.pop()
        if tok == "1":
            return RootScalar(3, sign, 0)
        if tok == "w":
            if self.peek() == "^":
                self.pop()
                return RootScalar(3, sign, int(self.pop()))
            return RootScalar(3, sign, 1)
        if tok.startswith("w^"):
            return RootScalar(3, sign, int(tok[2:]))
        raise ExprParseError(f"bad diagonal entry {tok!r} in {self.text!r}")


def _fold_rot(sign: int, k: int, child: Expr) -> Expr:
    if isinstance(child, Rot):
        return Rot(sign * child.sign, (k + child.k) % 3, child.child)
    return Rot(sign, k % 3, child)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


def _render_root(r: RootScalar) -> str:
    body = "1" if r.exponent == 0 else ("w" if r.exponent == 1 else f"w^{r.exponent}")
    return ("-" if r.sign < 0 else "") + body


def render(node: Expr) -> str:
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Rot):
        prefix = "-" if node.sign < 0 else ""
        if node.k:
            prefix += f"w^{node.k}*"
        return prefix + render(node.child)
    if isinstance(node, Kron):
        return f"kron({render(node.left)},{render(node.right)})"
    if isinstance(node, Compose):
        return f"compose({render(node.left)},{render(node.right)})"
    if isinstance(node, BlockDiag):
        return f"blockdiag({','.join(render(i) for i in node.items)})"
    if isinstance(node, Diag):
        return f"diag({','.join(_render_root(e) for e in node.entries)})"
    raise TypeError(f"not an expression node: {node!r}")


def _check_size(size: int) -> None:
    if size > size_limit():
        raise SizeLimitExceeded(f"permutation size {size} exceeds the size limit {size_limit()}")


def evaluate(node: Expr) -> GenPerm:
    if isinstance(node, Atom):
        return atom(node.name)
    if isinstance(node, Rot):
        return scale(evaluate(node.child), RootScalar(3, node.sign, node.k))
    if isinstance(node, Kron):
        left, right = evaluate(node.left), evaluate(node.right)
        _check_size(left.size * right.size)
        return kron(left, right)
    if isinstance(node, Compose):
        return compose(evaluate(node.left), evaluate(node.right))
    if isinstance(node, BlockDiag):
        items = [evaluate(i) for i in node.items]
        _check_size(sum(i.size for i in items))
        return block_diag(items)
    if isinstance(node, Diag):
        _check_size(len(node.entries))
        return GenPerm.from_diag(3, node.entries)
    raise TypeError(f"not an expression node: {node!r}")


@lru_cache(maxsize=None)
def _diag3_conjugate(entries: tuple) -> "GenPerm | DenseCycMatrix":
    """W of a 3×3 diagonal of ±ξ^k entries; at most 6^3 of them."""
    return conjugate_by_c(GenPerm.from_diag(3, entries))


def conjugate_expr(node: Expr) -> "GenPerm | DenseCycMatrix":
    """Structural route to W; agrees exactly with conjugate_by_c(evaluate(node))."""
    if isinstance(node, Atom):
        return conjugate_table(node.name)
    if isinstance(node, Rot):
        child = conjugate_expr(node.child)
        s = RootScalar(3, node.sign, node.k)
        return scale(child, s) if isinstance(child, GenPerm) else child.scale_root(s)
    if isinstance(node, (Kron, Compose)):
        left, right = conjugate_expr(node.left), conjugate_expr(node.right)
        is_kron = isinstance(node, Kron)
        size = left.size * right.size if is_kron else left.size
        _check_size(size)
        if isinstance(left, GenPerm) and isinstance(right, GenPerm):
            return kron(left, right) if is_kron else compose(left, right)
        # a dense side makes W dense, with size² entries: guard them before they are built
        _guard(3, 2 * _length_to_n(3, size))
        left, right = as_dense(left), as_dense(right)
        return _downcast(left.kron(right) if is_kron else left.matmul(right))
    if isinstance(node, Diag) and len(node.entries) == 3:
        _guard(3, 2)  # conjugate_by_c's guard, run before the cached call
        return _diag3_conjugate(node.entries)
    if isinstance(node, (BlockDiag, Diag)):
        return conjugate_by_c(evaluate(node))
    raise TypeError(f"not an expression node: {node!r}")

