"""The cycle walk over a permutation of X(F_p) that the Grassmannian verbs
used for epsilon_2, epsilon_3 and the cusp widths before they were
counted from 4x4 matrices, kept unchanged as their oracle: with
permutation_oracle.permutation it counts fixed points and cycles point by
point, independent of symplectic.fixed_lagrangians and of the Moebius
inversion in invariants."""

import itertools
import operator
from typing import Dict, Iterable, List

from phicong.invariants import CuspData


def cycle_type(perm: List[int]) -> Dict[int, int]:
    """{cycle length: number of cycles} of a permutation, walking each
    cycle once from its least point."""
    seen = bytearray(len(perm))
    counts: Dict[int, int] = {}
    start = seen.find(0)
    while start >= 0:
        length, j = 0, start
        while not seen[j]:
            seen[j] = 1
            j = perm[j]
            length += 1
        counts[length] = counts.get(length, 0) + 1
        start = seen.find(0, start + 1)
    return counts


def fixed_points(images: Iterable[int]) -> int:
    """Number of points i with images[i] == i.  images may be a lazy map,
    so a composition of permutations is counted without being built."""
    return sum(map(operator.eq, images, itertools.count()))


def cusp_data_cycles(perm_t: List[int]) -> CuspData:
    """Cycle-type histogram of the T-action: the independent cusp oracle."""
    widths = cycle_type(perm_t)
    return CuspData(sum(widths.values()), widths)
