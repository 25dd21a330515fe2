"""Reference computations that the tests check the program against: plain
loops over definitions, kept apart from the program's faster paths."""

import numpy as np


def arrangement_weights(lat, vecs, rows, to=None):
    """Per field set (row of each ``vecs[i]``), the sum over every slot
    permutation p in ``lat.perms`` of each set ``lat.sets[rows]`` (or its
    image ``to[lat.sets[rows]]``) of prod_i vecs[i] at the mode in place
    p(i), times 1 / (the permutations that leave the set unchanged): each
    distinct arrangement once."""
    sets = lat.sets[rows] if to is None else to[lat.sets[rows]]
    total = np.zeros((len(vecs[0]), len(sets)), dtype=np.complex128)
    stabiliser = np.zeros(len(sets))
    for p in lat.perms:
        term = np.ones_like(total)
        for v, j in zip(vecs, p):
            term *= v[:, sets[:, j]]
        total += term
        stabiliser += np.all(sets[:, list(p)] == sets, axis=1)
    return total / stabiliser
