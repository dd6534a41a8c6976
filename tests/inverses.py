"""The inverse of a permutation or of a matrix mod p, for the tests.

The program never inverts an element: a closure multiplies by generators
only, and a reflection is its own inverse. The tests' oracles invert
elements, so the inverse lives here.
"""

from polywythoff.elements import MatModP, Perm, row_reduce


def inverse(g):
    """g^-1 for a ``Perm`` or an invertible ``MatModP``. A matrix is inverted
    by row-reducing [M | I] (``row_reduce``): M is invertible iff it has
    rank d, and then the right half is M^-1. Raises ValueError on a matrix
    that is singular mod p."""
    if isinstance(g, Perm):
        inv = [0] * g.degree
        for i, img in enumerate(g.images):
            inv[img - 1] = i + 1
        return Perm._raw(tuple(inv))
    d, p = g.dim, g.p
    aug = [
        list(g.entries[i * d : (i + 1) * d]) + [1 if i == j else 0 for j in range(d)]
        for i in range(d)
    ]
    if row_reduce(aug, d, p)[0] < d:
        raise ValueError(f"matrix singular mod {p}")
    return MatModP._raw(p, d, tuple(aug[i][d + j] for i in range(d) for j in range(d)))
