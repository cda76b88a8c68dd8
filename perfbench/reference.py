"""Fixed computations timed between jobs, as yardsticks for machine speed.

On a shared host the same job's time drifts by tens of percent, switching
between fast and slow states within seconds and over minutes. The benchmark
times a reference before and after every job and also reports batch time
in reference units: the ratio cancels most of the drift, because the
reference runs on the same machine within a second of the job.

The host's slow state slows different kinds of work by different amounts
(small numpy calls by up to ~1.8x, BLAS passes by ~1.3x), so each workload
gets a reference made of the same kind of work as its hot loop: QR tests of
point triples for the domain check, fixed-point steps on a tiny sample for
the Monte Carlo solves, fixed-point steps on a 2e4 x 10 sample for the big
fits. The references are written here, on inputs that are the same in
every run, and call nothing from ``tscatter``, so no change to the program
can change them.
"""

import itertools
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular


def _fixed_point_steps(Y, steps):
    # the reweighting step of the scatter solver, in plain numpy
    n, d = Y.shape
    w = np.full(n, 1.0 / n)
    A = np.eye(d)
    for _ in range(steps):
        L = np.linalg.cholesky(A)
        Z = solve_triangular(L, Y.T, lower=True)
        s = np.einsum("ij,ij->j", Z, Z)
        A_next = (Y * (w * (2.0 + d) / (2.0 + s))[:, None]).T @ Y
        np.linalg.norm(A - A_next)
        A = (A_next + A_next.T) / 2.0


def _subset_tests(X, count):
    # the exact domain check's inner loop: span of 3 points, mass inside
    w = np.full(X.shape[0], 1.0 / X.shape[0])
    for subset in itertools.islice(itertools.combinations(range(X.shape[0]), 3), count):
        q, r = np.linalg.qr(X[list(subset)].T)
        if np.abs(np.diag(r)).min() <= 1e-9:
            continue
        inside = np.linalg.norm(X - (X @ q) @ q.T, axis=1) <= 1e-9
        float(w[inside].sum())


# kind -> (kernel, input shape, count); each run takes about 0.07 s here
KINDS = {
    "subsets": (_subset_tests, (30, 4), 1000),
    "tiny": (_fixed_point_steps, (200, 2), 800),
    "tall": (_fixed_point_steps, (20_000, 10), 12),
}


class Reference:
    def __init__(self, kind: str):
        self._kernel, shape, self._count = KINDS[kind]
        self._data = np.random.default_rng(0).standard_normal(shape)

    def seconds(self, units: int = 1) -> float:
        """Run the reference ``units`` times; return the mean seconds per run."""
        t0 = perf_counter()
        for _ in range(units):
            self._kernel(self._data, self._count)
        return (perf_counter() - t0) / units
