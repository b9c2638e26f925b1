"""Exact P(1) for the tests: the defining series in 40-digit decimal arithmetic."""

from decimal import Decimal, localcontext

import numpy as np

from photonmux import PriorityLogic, SourceKind


def decimal_p1(model, v_d, tm, layout):
    """Oracle: the defining ``j``-series of P(1) in 40-digit decimal arithmetic.

    The emission pmf is summed until its terms fall below 1e-45, and ``p0`` is
    its no-click sum, so neither the float series' truncation nor the
    thinning identity enters.  ``V`` and the inputs are taken at their exact
    binary values.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        tiny = Decimal("1e-45")
        mu = Decimal(model.mean_pairs) / model.n_windows
        miss = 1 - Decimal(v_d)
        pmf = []
        if model.kind is SourceKind.POISSONIAN:
            term, k = (-mu).exp(), 0
            while term >= tiny or k <= mu:
                pmf.append(term)
                k += 1
                term = term * mu / k
        else:
            term, ratio = 1 / (1 + mu), mu / (1 + mu)
            while term >= tiny:
                pmf.append(term)
                term *= ratio
        p0 = sum(p * miss**k for k, p in enumerate(pmf))
        pj = [(j, pmf[j] * (1 - miss**j)) for j in range(1, len(pmf))]
        m, n = layout.m, layout.n
        first_detection = layout.logic is PriorityLogic.FIRST_DETECTION
        rank_step, window_step = (p0, p0**m) if first_detection else (p0**n, p0)
        a, b = [Decimal(1)], [Decimal(1)]
        while len(a) < m:
            a.append(a[-1] * rank_step)
        while len(b) < n:
            b.append(b[-1] * window_step)
        runs = tm.row_runs
        total = Decimal(0)
        for row, start, length in zip(runs.rows, runs.starts, np.diff(runs.starts, append=m)):
            row_sum = Decimal(0)
            for window, value in enumerate(row):
                v = Decimal(float(value))
                row_sum += b[window] * sum(j * p * v * (1 - v) ** (j - 1) for j, p in pj)
            total += sum(a[start : start + length]) * row_sum
        return total
