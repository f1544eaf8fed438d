"""Machine-speed reference for normalizing verdict times.

The machine this benchmark was set up on runs the same Python work at
speeds that differ by up to 2x from one second to the next (other tenants
share its cores).  Raw verdict times then measure the machine more than the
program.  So each verdict is bracketed by runs of ``kernel()``, a fixed
pure-Python loop in the style of xmod2's inner loops (small objects,
owner checks, sparse dict products mod 5).  Its time tracks the
machine's current speed, and it is code no change to xmod2 can touch.
A verdict's reported time is its wall time scaled by ``REFERENCE_S / k``,
where k is the mean kernel time just before and just after it.  The result
reads as seconds on the machine at the speed where one kernel run takes
REFERENCE_S (its fast state when this file was written).
"""

import gc
import time

REFERENCE_S = 0.0016


class _Element:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs


class _Algebra:
    def __init__(self, n, p):
        self.p = p
        self.table = {(i, j): _Element(self, {(i + j) % n: 1, (i * j + 1) % n: 2})
                      for i in range(n) for j in range(n)}

    def owns(self, u):
        if u.algebra is not self:
            raise ValueError("foreign element")
        return u

    def multiply(self, u, v):
        self.owns(u)
        self.owns(v)
        p = self.p
        acc = {}
        for k1, c1 in u.coeffs.items():
            for k2, c2 in v.coeffs.items():
                c = c1 * c2 % p
                for k, cv in self.table[(k1, k2)].coeffs.items():
                    s = (acc.get(k, 0) + c * cv) % p
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
        return _Element(self, acc)


_ALGEBRA = _Algebra(7, 5)


def kernel():
    """Wall seconds of one fixed run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        u = _Element(_ALGEBRA, {k: k % 5 + 1 for k in range(7)})
        for rep in range(60):
            v = _Element(_ALGEBRA, {k: (k + rep) % 5 + 1 for k in range(7)})
            u = _ALGEBRA.multiply(u, v)
            if not u.coeffs:
                u = _Element(_ALGEBRA, {0: 1})
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
