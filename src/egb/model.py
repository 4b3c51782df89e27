"""Model Z_p module of the periodic-orbit output and certified Hofer bounds.

Every p-tuple of fixed points contributes p generators born at its action
with the cyclic rotation action; the zero-differential model makes all bars
infinite.  Two bounds are always reported side by side: the exact spread of
that model (model-dependent) and the window bound from the action gap,
which is valid no matter what the unknown differential does.  The report
reads both in closed form off the sorted actions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .equivariant import _check_betti, _supremum
from .field import is_prime
from .persistence import _least_gap, is_inf


@dataclass(frozen=True)
class ModelInput:
    """Tuple actions (pairwise distinct) and degrees feeding the model,
    stored sorted by action once, when built, with the least gap between
    neighbouring actions (+inf for fewer than two tuples)."""

    p: int
    tuples: tuple[tuple[Fraction, int], ...]
    gap: Fraction | float = field(init=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        keyed = []
        for a, d in self.tuples:
            a = a if isinstance(a, Fraction) else Fraction(a)
            n, den = a.as_integer_ratio()
            keyed.append(((n << 64) // den, n, den, a, int(d)))
        keyed.sort()
        gap = _least_gap(keyed)  # which leaves `keyed` in exact order
        object.__setattr__(self, "tuples", tuple((a, d) for *_, a, d in keyed))
        if gap == 0:
            raise ValueError("tuple actions must be pairwise distinct")
        object.__setattr__(self, "gap", gap)


def _model_spread_pairs(tuples, betti: list[int], p: int):
    """The spread candidates of the model stabilized by ``betti``, as the
    unreduced integer pairs that `equivariant._supremum` ranks.

    In degree t the tuple (a, d) adds betti[t - d] rays (a, +inf], so each
    degree's barcode is rays alone, born at the sorted actions.  Its
    candidates are the births x whose running count is not divisible by p,
    each worth (r - x)/2, r the next birth in that degree, or +inf, (1, 0),
    when there is none: the last birth's count is the degree's total.  So a
    total not divisible by p gives +inf, read off the count of tuples per
    degree, before any pair; else one pass over ``tuples``, sorted with
    distinct actions, yields the finite pairs.  No bar is built."""
    weights = [(i, b) for i, b in enumerate(betti) if b]
    totals: dict[int, int] = {}
    for d, n in Counter(d for _, d in tuples).items():
        for i, b in weights:
            totals[d + i] = totals.get(d + i, 0) + b * n
    if any(c % p for c in totals.values()):
        yield 1, 0
        return
    count, open_birth = dict.fromkeys(totals, 0), {}  # the birth awaiting its r
    for a, d in tuples:
        an, ad = a.as_integer_ratio()
        for i, b in weights:
            t = d + i
            if x := open_birth.get(t):
                yield an * x[1] - x[0] * ad, 2 * ad * x[1]
            count[t] = c = count[t] + b
            open_birth[t] = (an, ad) if c % p else None


def paper_mu_lower_bound(model_input: ModelInput, eps_frac=Fraction(1, 100)) -> Fraction:
    """Differential-independent bound c = g(1 - 2 eps)/4 from the minimal
    inter-tuple gap g, for eps in (0, 1/2] so that c >= 0.  The witness
    (a + eps g/2, a + g - eps g/2], a the least action, and its 2c-shrink
    (a + (1 - eps) g/2, a + (1 + eps) g/2] must each have model multiplicity
    1.  A ray of the model contains (lo, hi] iff it is born by lo, so each
    witness end must lie at or after a and before the second least action:
    the witness then lies in the window between the two, where only the ray
    born at a counts, and so does its shrink, which lies inside it.  The
    ends are integer numerators over one denominator, and c is the one
    Fraction built."""
    en, ed = Fraction(eps_frac).as_integer_ratio()
    if not 0 < 2 * en <= ed:
        raise ValueError("eps_frac must lie in (0, 1/2]")
    gap = model_input.gap
    if is_inf(gap):
        return Fraction(0)  # fewer than 2 tuples: the gap bound is vacuous
    (an, ad), (gn, gd) = model_input.tuples[0][0].as_integer_ratio(), gap.as_integer_ratio()
    c = Fraction(gn * (ed - 2 * en), 4 * gd * ed)
    # a = base / den and g/2 = ed u / den, so eps g/2 = en u / den
    base, u, den = 2 * an * ed * gd, ad * gn, 2 * ad * ed * gd
    lo, hi = base + en * u, base + (2 * ed - en) * u
    nn, nd = model_input.tuples[1][0].as_integer_ratio()
    if not (base <= lo and hi * nd < nn * den):
        raise AssertionError("witness interval does not have model multiplicity 1")
    return c


@dataclass(frozen=True)
class BoundsReport:
    """Certified lower bounds extracted from one egg-beater run."""

    p: int
    lam: Fraction | None
    k: int
    mu_p_model: Fraction | float
    mu_p_paper_bound: Fraction
    gap: Fraction | float

    def __post_init__(self):
        for v in (self.mu_p_model, self.mu_p_paper_bound, self.gap):
            if not is_inf(v) and v < 0:
                raise ValueError("bounds must be nonnegative")

    @property
    def pow_bound(self) -> Fraction:
        """The distance bound to full p-th powers, mu_p_paper_bound / p."""
        return self.mu_p_paper_bound / self.p

    @property
    def aut_bound(self) -> Fraction:
        """The distance bound to autonomous maps, gap / k; 0 for an
        infinite gap (fewer than two tuples)."""
        return Fraction(0) if is_inf(self.gap) else self.gap / self.k


def bounds_report(
    model_input: ModelInput,
    k: int | None = None,
    eps_frac=Fraction(1, 100),
    lam: Fraction | None = None,
    stabilize: list[int] | None = None,
) -> BoundsReport:
    """Assemble both mu values and the power/autonomous distance bounds.

    ``stabilize`` applies a Kunneth stabilization (betti vector, betti[0]=1)
    to the graded eigenspace family before the model mu is taken; the
    reported bounds are invariant under it.  The model mu is the graded
    spread of `equivariant.mu_p_of_family` in closed form."""
    if k is None:
        k = model_input.p
    if k < 1:
        raise ValueError("k must be >= 1")
    tuples = model_input.tuples
    if not tuples:
        raise ValueError("model needs at least one tuple")
    betti = [1] if stabilize is None else list(stabilize)
    _check_betti(betti)
    mu_model = _supremum(_model_spread_pairs(tuples, betti, model_input.p))
    return BoundsReport(
        p=model_input.p,
        lam=Fraction(lam) if lam is not None else None,
        k=k,
        mu_p_model=mu_model,
        mu_p_paper_bound=paper_mu_lower_bound(model_input, eps_frac),
        gap=model_input.gap,
    )


def model_input_from_records(records, p: int) -> ModelInput:
    """Tuple actions of the VALID records of an egg-beater run, in degree 0."""
    return ModelInput(p, tuple((r.action, 0) for r in records if r.valid))
