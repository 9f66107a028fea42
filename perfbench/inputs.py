"""Seeded input generators.  They use only the standard library, so the
program under test receives plain value vectors and expression text.

Index convention (the package's): point (x_1, ..., x_n) is flattened as
x_1·p^(n-1) + ... + x_n, the first variable owning the high digit.
"""

from __future__ import annotations

import random

ATOMS = ("I", "P01", "P12", "N", "X", "XT", "Z", "Zc")
DIAG_ENTRIES = ("1", "w", "w^2", "-1", "-w", "-w^2")


def digits(x: int, p: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        x, out[i] = divmod(x, p)
    return tuple(out)


def dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(u * v for u, v in zip(a, b))


class MaioranaBent:
    """f(x, y) = ⟨x, π(y)⟩ + g(y) mod p on Z_p^m × Z_p^m, x the high half.

    Generalized Maiorana-McFarland form (Kumar, Scholtz and Welch, JCTA
    1985): bent for every p, with the strict spectrum
    S(a, b) = p^m·ξ^(g(y) - ⟨b, y⟩) where y = π^-1(a).
    """

    def __init__(self, rng: random.Random, p: int, m: int):
        side = p**m
        self.p, self.m = p, m
        self.perm = list(range(side))
        rng.shuffle(self.perm)
        self.g = [rng.randrange(p) for _ in range(side)]

    @property
    def n(self) -> int:
        return 2 * self.m

    def values(self) -> list[int]:
        p, m, side = self.p, self.m, self.p**self.m
        pts = [digits(i, p, m) for i in range(side)]
        return [
            (dot(pts[x], pts[self.perm[y]]) + self.g[y]) % p
            for x in range(side)
            for y in range(side)
        ]

    def dual_exponents(self) -> tuple[int, ...]:
        """t with S(w) = p^m·ξ^t(w), from the construction alone."""
        p, m, side = self.p, self.m, self.p**self.m
        pts = [digits(i, p, m) for i in range(side)]
        inv = [0] * side
        for y, a in enumerate(self.perm):
            inv[a] = y
        return tuple(
            (self.g[inv[a]] - dot(pts[b], pts[inv[a]])) % p
            for a in range(side)
            for b in range(side)
        )


def ternary_bent(rng: random.Random, n: int) -> list[int]:
    """A bent ternary function of n >= 1 variables.

    Even n: Maiorana-McFarland.  Odd n: the tensor sum of a Maiorana part
    on the high n-1 digits and a 1-place quadratic a·x² + b·x + c, a ≠ 0,
    whose Gauss sum is flat.
    """
    a, b, c = rng.choice((1, 2)), rng.randrange(3), rng.randrange(3)
    low = [(a * x * x + b * x + c) % 3 for x in range(3)]
    if n % 2 == 0:
        return MaioranaBent(rng, 3, n // 2).values()
    high = MaioranaBent(rng, 3, (n - 1) // 2).values() if n > 1 else [0]
    return [(a + b) % 3 for a in high for b in low]


def random_values(rng: random.Random, p: int, n: int) -> list[int]:
    return [rng.randrange(p) for _ in range(p**n)]


def random_expr(rng: random.Random, n: int, depth: int = 2, rotate: bool = True) -> str:
    """A random spectral-permutation expression of size 3^n, in canonical text.

    The text is what the expression language's writer emits, so parsing and
    rendering it gives it back unchanged.  Compositions stay at n <= 2 and
    diagonals at sizes 3 and 9, which keeps the structural conjugation
    route on its tabulated cases.
    """
    forms = ["kron", "kron"] if n > 2 else (["atom", "atom", "diag"] if n == 1 else ["kron", "kron", "blockdiag", "diag"])
    if n <= 2 and depth > 0:
        forms.append("compose")
    if rotate:
        forms.append("rot")
    form = rng.choice(forms)
    if form == "atom":
        return rng.choice(ATOMS)
    if form == "diag":
        return f"diag({','.join(rng.choice(DIAG_ENTRIES) for _ in range(3**n))})"
    if form == "rot":
        sign, k = rng.choice([(1, 1), (1, 2), (-1, 0), (-1, 1), (-1, 2)])
        prefix = ("-" if sign < 0 else "") + (f"w^{k}*" if k else "")
        return prefix + random_expr(rng, n, depth, rotate=False)
    if form == "compose":
        return f"compose({random_expr(rng, n, depth - 1)},{random_expr(rng, n, depth - 1)})"
    if form == "blockdiag":
        return f"blockdiag({','.join(random_expr(rng, 1, depth - 1) for _ in range(3))})"
    k = 1 if n == 2 else rng.randint(1, n - 1)
    return f"kron({random_expr(rng, k, depth - 1)},{random_expr(rng, n - k, depth - 1)})"
