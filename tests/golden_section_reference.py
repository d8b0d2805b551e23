"""Scalar golden-section search over alpha, one protocol point at a time: the test
oracle for the closed-form and Newton optimum of `detector.optimize_alpha`."""

import dataclasses
import math

from mechcat.detector import true_positive_fraction_nonresolving, true_positive_fraction_resolving
from mechcat.herald import CoherentInput


def golden_section_alpha(det, protocol, lo=1e-4, hi=4.0, tol=1e-6):
    """(alpha, F, flat_objective) of the maximum of F over real alpha in [lo, hi]."""
    fraction = true_positive_fraction_resolving if det.resolving else true_positive_fraction_nonresolving

    def f(alpha):
        return fraction(det, dataclasses.replace(protocol, input=CoherentInput(alpha)))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    probes = [f(lo), fc, fd, f(hi)]
    if max(probes) - min(probes) < 1e-12:
        return hi, f(hi), True
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    alpha = 0.5 * (a + b)
    return alpha, f(alpha), False
