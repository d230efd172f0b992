"""The φ pre-reduction's brute-force reference: each step merges the whole
of h with ``poly_axpy``.

``phi_reduce_reference`` is the step loop ``Engine._phi_reduce`` ran before
it moved onto the normal-form kernel (``poly.reduce_with``): it scans h from
its head, cancels each reducible term with the first basis element whose
head divides it, and resumes at the same place, since every term of u*b is
at most u*head(b).  ``Engine._phi_reduce`` must reach the same remainder
through the same steps; ``tests/test_engine.py`` compares the two.
"""

from __future__ import annotations

from typing import Sequence

from f5gb.poly import Monomial, Polynomial, poly_axpy


def phi_reduce_reference(
    h: Polynomial, basis: Sequence[tuple[int, Polynomial]]
) -> tuple[Polynomial, list[tuple[int, Monomial, int]], int]:
    """(remainder, steps, scale) of h modulo ``basis``, (position, monic
    polynomial) pairs in basis order.  Each step is (c, u, position) for
    h := h - c*u*b; after a step the remainder is made monic, and ``scale``
    is the factor applied (1 when no step was taken or h was monic)."""
    steps: list[tuple[int, Monomial, int]] = []
    terms = h.terms
    k = 0
    while k < len(terms):
        c, mono = terms[k]
        for pos, b in basis:
            if b.head_mono.divides(mono):
                u = mono.divide(b.head_mono)
                h = poly_axpy(h, c, u, b)
                terms = h.terms
                steps.append((c, u, pos))
                break
        else:
            k += 1
    scale = 1
    if steps:
        h, scale = h.monic_scale()
    return h, steps, scale
