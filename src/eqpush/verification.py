"""Seeded randomized differential campaigns: residue formulas against
localization sums, with variant cross-checks.  A seed fully determines the
generated classes, so campaign output is byte-reproducible.  A trial that
disagrees is followed by its first differing orbit class.  The report comes
line by line as the trials finish, so a campaign cut short has already shown
the trials it finished.
"""

from __future__ import annotations

import random

from .algebra import LaurentPolynomial, Monomial
from .spaces import (SpaceDescriptor, _calc, localization_pushforward,
                     residue_pushforward)

_MAX_CLASSES = 3  # orbit classes summed into one random class, at most


def random_admissible_class(space: SpaceDescriptor, rng: random.Random,
                            max_exp: int = 3) -> LaurentPolynomial:
    """Random admissible class: a few symmetrized auxiliary monomials with
    small integer coefficients (nonsymmetric spaces get plain monomials)."""
    calc = _calc(space)
    m = space.residue_count()
    total = LaurentPolynomial.zero(calc.table)
    for _ in range(rng.randint(1, _MAX_CLASSES)):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in range(m))
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        total = total + calc.orbit_sum(calc.canonical(exps)).scale(coeff)
    if total.is_zero:
        total = LaurentPolynomial.one(calc.table)
    return total


def first_mismatch(space: SpaceDescriptor, f: LaurentPolynomial) -> str:
    """The first canonical orbit class of f whose residue value, in some
    variant, differs from its localization value; both paths are linear."""
    calc = _calc(space)
    for canon in sorted(calc.decompose(f)):
        for variant in space.variants():
            diff = calc.res_class_value(canon, variant) - calc.loc_class_value(canon)
            if not diff.is_zero:
                name = Monomial(calc.table, canon + (0,) * (len(calc.table) - calc.m)).render()
                return (f"  first differing class: orbit of {name} variant {variant}: "
                        f"residue - localization = {diff.render()}")
    return "  no orbit class differs on its own"


def run_campaign(space: SpaceDescriptor, trials: int, seed: int,
                 max_exp: int = 3):
    """Run seeded trials, yielding each report line as soon as it is known:
    the header, each trial's line as the trial finishes (a disagreeing one
    followed by its first differing class) and the summary, which ends in
    "all agree" exactly when no trial disagreed."""
    rng = random.Random(seed)
    yield f"space {space.key()} trials {trials} seed {seed} max-exp {max_exp}"
    failures = 0
    for t in range(1, trials + 1):
        f = random_admissible_class(space, rng, max_exp=max_exp)
        loc = localization_pushforward(space, f)
        agree = all(residue_pushforward(space, f, v) == loc for v in space.variants())
        yield (f"trial {t}: terms {len(f)} variants {','.join(space.variants())} "
               f"agree {'yes' if agree else 'NO'}")
        if not agree:
            failures += 1
            yield first_mismatch(space, f)
    status = "all agree" if failures == 0 else f"{failures} mismatches"
    yield f"verified {trials - failures}/{trials} trials: {status}"
