"""Shared corpus: ten criterion-passing and ten criterion-failing families.

Every family satisfies the standing assumptions on any horizon used in the
suite: a_n never vanishes, the consecutive ratios stay in a fixed band, and
the trailing tail ratios |b_n/a_{n+1}| stay below one.  Failing families use
bounded alternating sequences rather than geometric growth so they remain
representable in doubles at horizon 1024 and beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trishift import CoefficientSpec, SequencePair, materialize, parse_sequence_expr


@dataclass(frozen=True)
class Family:
    name: str
    a: str
    b: str
    expected: str  # "holds" or "fails"


PASSING = [
    Family("szego", "1", "0", "holds"),
    Family("bergman", "sqrt(n+1)", "0", "holds"),
    Family("dirichlet", "1/sqrt(n+1)", "0", "holds"),
    Family("const-half-b", "1", "0.5", "holds"),
    Family("harmonic-b", "1", "1/(n+1)", "holds"),
    Family("bergman-const-b", "sqrt(n+1)", "0.5", "holds"),
    Family("rational-a", "(n+2)/(n+1)", "1/(n+2)", "holds"),
    Family("drifting-b", "1", "(n+1)/(n+3)", "holds"),
    Family("shifted-a", "2 + 1/(n+1)", "0.25", "holds"),
    Family("high-const-b", "1", "0.9", "holds"),
]

FAILING = [
    Family("alt-a-2", "2^((-1)^n)", "0", "fails"),
    Family("alt-b-half", "1", "0.5*(-1)^n", "fails"),
    Family("alt-b-04", "1", "0.4*(-1)^n", "fails"),
    Family("alt-a-const-b", "2^((-1)^n)", "0.25", "fails"),
    Family("pulsed-b", "1", "0.25 + 0.25*(-1)^n", "fails"),
    Family("alt-a-3", "3^((-1)^n)", "0", "fails"),
    Family("alt-b-drift", "1", "0.5*(-1)^n + 1/(n+3)", "fails"),
    Family("alt-both", "2^((-1)^n)", "0.3*(-1)^n", "fails"),
    Family("alt-b-swell", "1", "(-1)^n * (0.4 + 1/(n+2))", "fails"),
    Family("alt-a-15", "1 + 0.5*(-1)^n", "0", "fails"),
]

CORPUS = PASSING + FAILING

_PAIR_CACHE: dict[tuple[str, int], SequencePair] = {}


def family_spec(fam: Family) -> CoefficientSpec:
    return CoefficientSpec(
        parse_sequence_expr(fam.a), parse_sequence_expr(fam.b), fam.name
    )


def family_pair(fam: Family, horizon: int) -> SequencePair:
    key = (fam.name, horizon)
    if key not in _PAIR_CACHE:
        _PAIR_CACHE[key] = materialize(family_spec(fam), horizon)
    return _PAIR_CACHE[key]


def make_pair(a_text: str, b_text: str, N: int, label: str = "") -> SequencePair:
    """The pair of the expressions ``a_text`` and ``b_text`` on horizon ``N``."""
    spec = CoefficientSpec(parse_sequence_expr(a_text), parse_sequence_expr(b_text), label)
    return materialize(spec, N)


def random_pair(rng: np.random.Generator, N: int, b_scale: float = 0.2) -> SequencePair:
    """A complex pair with random moduli and phases on horizon ``N``:
    ``|b_n| <= b_scale * sqrt(2)`` and ``|a_n| >= 0.5`` keep ``|b_n/a_{n+1}|
    < 1``."""
    mags = rng.uniform(0.5, 2.0, N + 1)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, N + 1))
    a = mags * phases
    b = b_scale * (rng.uniform(-1, 1, N + 1) + 1j * rng.uniform(-1, 1, N + 1))
    return SequencePair(a=a, b=b)


def complex_baseline_pair(seed: int, H: int) -> SequencePair:
    """The Baseline's moduli ``sqrt(n+1)`` and ``0.5`` with phases drawn
    from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n = np.arange(H + 1)
    return SequencePair(
        a=np.sqrt(n + 1.0) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, H + 1)),
        b=0.5 * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, H + 1)),
    )
