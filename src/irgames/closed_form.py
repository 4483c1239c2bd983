"""Optimal play on one absentminded two-action row, in closed form.

When Player 1's only infoset has two actions, the utility is one
polynomial in the first action's probability x (Piccione & Rubinstein,
GEB 1997, study this row): U(x) = sum over the leaves of w x^a (1 - x)^b,
with w the leaf's chance reach times utility and a, b the times its path
takes each action.  Factored as x^m (1 - x)^n Q(x), m and n the least
counts,

    U'(x) = x^(m-1) (1 - x)^(n-1) R(x),  R = (m - (m+n) x) Q + x (1 - x) Q',

so U's critical points inside (0, 1) are R's roots there.  Once R's roots
at 0 and 1 are divided out, a rest of degree at most one has at most one
root, and the best of 0, that root and 1 is U's exact maximum.  The
arithmetic is exact in a float game too, each float read as the Fraction
it equals.  Only ``recall.optimal_strategy`` imports this module, when it
runs, so ``import irgames`` does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .game import Game, Num
from .strategies import BehavioralStrategy


def two_action_optimum(game: Game) -> Optional[tuple[Num, BehavioralStrategy]]:
    """Exact maximum and maximiser of Player 1's utility in a
    single-player game whose Player 1 has one infoset, with two actions;
    None when R, stripped of its roots at 0 and 1, has degree two or more.
    A float game's value is a float; ties take the first action's vertex,
    then the interior root."""
    (iset,) = game.infosets[1].values()
    key = (1, iset.id)
    terms: dict[tuple[int, int], Fraction] = {}
    for z, leaf in game.leaves.items():
        w = Fraction(leaf.chance) * Fraction(game.utilities[z][0])
        counts = dict(leaf.visits).get(key, (0, 0))
        terms[counts] = terms.get(counts, 0) + w
    terms = {ab: w for ab, w in terms.items() if w}
    roots = _interior_roots(terms) if terms else []
    if roots is None:
        return None
    best = None
    for x in (Fraction(1), *roots, Fraction(0)):
        value = sum((w * x ** a * (1 - x) ** b for (a, b), w in terms.items()), Fraction(0))
        if best is None or value > best[0]:
            best = value, x
    value, x = best
    strategy = BehavioralStrategy(1, {iset.id: (x, 1 - x)})
    return (value if game.is_rational else float(value)), strategy


def _interior_roots(terms: dict[tuple[int, int], Fraction]) -> Optional[list[Fraction]]:
    """R's roots inside (0, 1), or None when its rest has degree two or
    more once its roots at 0 and 1 are divided out."""
    scale = math.lcm(*(w.denominator for w in terms.values()))
    m = min(a for a, _ in terms)
    n = min(b for _, b in terms)
    # R = sum of w (a x^a' (1-x)^(b'+1) - b x^(a'+1) (1-x)^b'), a' = a - m and
    # b' = b - n, times ``scale``: integer coefficients, the lowest power first.
    R = [0] * (max(a + b for a, b in terms) - m - n + 2)
    for (a, b), w in terms.items():
        w = w.numerator * (scale // w.denominator)
        for shift, q, c in ((a - m, b - n + 1, a * w), (a - m + 1, b - n, -b * w)):
            for k in range(q + 1 if c else 0):
                R[shift + k] += c
                c = -c * (q - k) // (k + 1)
    while R and R[-1] == 0:
        R.pop()
    if not R:
        return []  # U is constant
    R = R[next(k for k, c in enumerate(R) if c):]
    while sum(R) == 0:
        # Divide by (x - 1), the highest coefficient first.
        quotient = [R[-1]]
        for c in reversed(R[1:-1]):
            quotient.append(c + quotient[-1])
        R = quotient[::-1]
    if len(R) > 2:
        return None
    root = Fraction(-R[0], R[1]) if len(R) == 2 else None
    return [root] if root is not None and 0 < root < 1 else []
