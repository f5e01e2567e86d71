"""Scalar reference computations that the tests compare the array engine
against."""

import numpy as np

from fusioncat.cyclotomic import CycNum, cyc_rational


def stilde_conjugate_form(md) -> list[list[CycNum]]:
    """s~ of a modular datum through the conjugate identity
    s~_{i,j} = sum_k N_{i,j}^k theta_i theta_j/theta_k d_k, one scalar
    CycNum product at a time."""
    n = md.ring.rank
    thetas = [md.theta(i) for i in range(n)]
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
