"""Homotopy of crossed module maps, as the L = 0 slice of the 2-crossed layer.

For crossed module morphisms f, g: A -> A', a homotopy f => g is an
f0-derivation, a linear map s: R -> E' with

    s(rr') = f0(r) > s(r') + f0(r') > s(r) + s(r)s(r'),

and the target is g0 = f0 + d' o s, g1 = f1 + s o d.  The zero map is a
homotopy f => f, -s inverts, and pointwise addition concatenates, giving
the groupoid of maps A -> A' and their homotopies, over a finite R or a
free one alike.

A crossed module E -> R is the 2-crossed module 0 -> E -> R with zero
lifting (``crossed.as_two_crossed``): its maps are the 2-crossed maps of
the slices with f2 = 0 (``crossed.make_cm_morphism``), and its homotopies
are the quadratic derivations with t = 0.  Their s-law is the derivation
law above, their target is (f0 + d' o s, f1 + s o d, 0), and w takes
values in L' = 0, so the 2-crossed concatenation is the pointwise sum and
its inverse is -s (``tcm_homotopy._s_keys``).  This module holds no
homotopy code of its own: ``make_cm_derivation`` certifies a derivation
by the 2-crossed laws, reporting a failing derivation law as
DerivationLawViolation; ``zero_cm_derivation``, ``concat_cm`` and
``invert_cm`` are the 2-crossed operations, and ``cm_groupoid_check`` runs
the one groupoid loop on the slices.  So the zero derivation is built with
no law checked (``tcm_homotopy.zero_quadratic``): every term of the
derivation law has a factor s, so s = 0 satisfies it for every f, and its
target (f0 + d' o 0, f1 + 0 o d) is f.
"""

from .maps import DEFAULT_POLICY
from .randgen import random_cm_derivation, random_cm_morphism
from .tcm_homotopy import _certify, _entry, concat_2cm, groupoid_check, invert_2cm, zero_quadratic

zero_cm_derivation, concat_cm, invert_cm = zero_quadratic, concat_2cm, invert_2cm


def make_cm_derivation(f, images, policy=DEFAULT_POLICY):
    """Certify the derivation law for s given by basis/generator images
    over a crossed module map f, as a quadratic derivation with t = 0.

    Every call certifies; the first derivation certified for these images
    under ``policy`` is kept on f, where the 2-crossed operations find it."""
    return _certify(f, *_entry(f, images, {}, policy), policy)


def cm_groupoid_check(A, B, samples=25, seed=0, policy=DEFAULT_POLICY):
    """The groupoid laws (``tcm_homotopy.groupoid_check``) on sampled
    derivation chains of crossed module maps A -> B.  Returns report
    entries (name, ok, witness)."""
    draws = (random_cm_morphism, random_cm_derivation)
    return groupoid_check(A, B, samples, seed, policy, ("cm", "target-valid", "associative"), draws)
