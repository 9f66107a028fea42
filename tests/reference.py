"""Dense references that the tests hold the package's engine to."""

from functools import lru_cache

from vcbent.cyclotomic import CycInt
from vcbent.mvfunction import scalar_product


@lru_cache(maxsize=None)
def build_c(p: int, n: int) -> tuple[tuple[CycInt, ...], ...]:
    """The rows of C(n), entry by entry: C[j][k] = ξ^⟨j·k⟩, p^2n ring elements."""
    size = p**n
    return tuple(tuple(CycInt.root(p, scalar_product(j, k, p, n)) for k in range(size)) for j in range(size))
