"""Reference computations that the tests compare the library against, and
test-only helpers."""

import math

import numpy as np

from fusioncat.cyclotomic import (CycNum, _CycArray, cyc_rational,
                                  cyc_root_of_unity)
from fusioncat.modular_data import ModularDatum


def stilde_conjugate_form(md) -> list[list[CycNum]]:
    """s~ of a modular datum through the conjugate identity
    s~_{i,j} = sum_k N_{i,j}^k theta_i theta_j/theta_k d_k, one scalar
    CycNum product at a time."""
    n = md.ring.rank
    thetas = [cyc_root_of_unity(*t.as_integer_ratio()) for t in md.twists]
    inv_thetas = [t.conj() for t in thetas]
    tensor = md.ring.tensor
    rows: list[list[CycNum]] = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = cyc_rational(0)
            for k in np.nonzero(tensor[i, j])[0]:
                k = int(k)
                acc = acc + inv_thetas[k] * md.dims[k] * tensor[i, j, k]
            row.append(acc * thetas[i] * thetas[j])
        rows.append(row)
    return rows


def minimal_orders(a: _CycArray) -> list[int]:
    """The minimal order of each entry of `a`, in row-major order, from
    every unit k of the conductor N: the least d | N such that each sigma_k
    with k = 1 mod d fixes the entry."""
    n = a.order
    flat = _CycArray(a.num.reshape(-1, a.num.shape[-1]), a.den, n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    fixed = {d: np.ones(len(flat.num), dtype=bool) for d in divisors}
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            fixed_by_k = (flat._galois(k).num == flat.num).all(axis=-1)
            for d in divisors:
                if (k - 1) % d == 0:
                    fixed[d] &= fixed_by_k
    return [next(d for d in divisors if fixed[d][t])
            for t in range(len(flat.num))]


def shifted_twist(md: ModularDatum, index: int, delta) -> ModularDatum:
    """A copy of `md` with the twist of label `index` shifted by `delta`,
    which breaks a modular datum for the failure paths."""
    twists = dict(enumerate(md.twists))
    twists[index] += delta
    return ModularDatum(md.ring, twists, dict(enumerate(md.dims)),
                        md.central_charge)
