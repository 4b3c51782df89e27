"""Model Z_p module of the periodic-orbit output and certified Hofer bounds.

Every p-tuple of fixed points contributes p generators born at its action
with the cyclic rotation action; the zero-differential model makes all bars
infinite.  Two bounds are always reported side by side: the exact spread of
that model (model-dependent) and the window bound from the action gap,
which is valid no matter what the unknown differential does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equivariant import GradedBarcodeFamily, kunneth_stabilize, mu_p_of_family
from .field import is_prime
from .persistence import Bar, Barcode, INF, Interval, is_inf, multiplicity


@dataclass(frozen=True)
class ModelInput:
    """Tuple actions (pairwise distinct) and degrees feeding the model."""

    p: int
    tuples: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        tuples = tuple((Fraction(a), int(d)) for a, d in self.tuples)
        object.__setattr__(self, "tuples", tuples)
        actions = [a for a, _ in tuples]
        if len(set(actions)) != len(actions):
            raise ValueError("tuple actions must be pairwise distinct")

    def actions(self) -> list[Fraction]:
        return sorted(a for a, _ in self.tuples)

    def min_gap(self) -> Fraction | float:
        acts = self.actions()
        if len(acts) < 2:
            return INF
        return min(b - a for a, b in zip(acts, acts[1:]))


def eigenspace_family(model_input: ModelInput) -> GradedBarcodeFamily:
    """Per-degree barcodes of every eigenspace of the model, in closed form.

    Every p-th root of unity is a simple eigenvalue of the cyclic
    permutation, so each tuple (action, degree) adds exactly one bar
    (action, +inf] to ``family[degree]``, whichever root is chosen."""
    if not model_input.tuples:
        raise ValueError("model needs at least one tuple")
    family: GradedBarcodeFamily = {}
    for r in sorted({d for _, d in model_input.tuples}):
        family[r] = Barcode.of(
            (Bar(a, INF), 1, None) for a, d in model_input.tuples if d == r
        )
    return family


def paper_mu_lower_bound(
    model_input: ModelInput,
    eps_frac=Fraction(1, 100),
    family: GradedBarcodeFamily | None = None,
) -> Fraction:
    """Differential-independent bound g(1 - 2 eps)/4 from the minimal
    inter-tuple gap g, with the witness interval checked to have model
    multiplicity 1 (a count not divisible by p), summed over the degrees of
    the family: multiplicity is additive over a multiset union."""
    eps_frac = Fraction(eps_frac)
    if not 0 < eps_frac < 1:
        raise ValueError("eps_frac must lie in (0, 1)")
    gap = model_input.min_gap()
    if is_inf(gap):
        return Fraction(0)  # fewer than 2 tuples: the gap bound is vacuous
    acts = model_input.actions()
    a_min = acts[0]
    witness = Interval(a_min + eps_frac * gap / 2, a_min + gap - eps_frac * gap / 2)
    c = gap * (1 - 2 * eps_frac) / 4
    if family is None:
        family = eigenspace_family(model_input)
    shrunk = witness.shrink(2 * c)
    m_full = sum(multiplicity(bc, witness) for bc in family.values())
    m_shrunk = sum(multiplicity(bc, shrunk) for bc in family.values())
    if not (m_full == m_shrunk == 1):
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
    pow_bound: Fraction
    aut_bound: Fraction | float
    gap: Fraction | float

    def __post_init__(self):
        if self.pow_bound != self.mu_p_paper_bound / self.p:
            raise ValueError("pow_bound must equal mu_p_paper_bound / p")
        for v in (self.mu_p_model, self.mu_p_paper_bound, self.pow_bound, self.aut_bound):
            if not is_inf(v) and v < 0:
                raise ValueError("bounds must be nonnegative")


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
    reported bounds are invariant under it."""
    if k is None:
        k = model_input.p
    if k < 1:
        raise ValueError("k must be >= 1")
    family = eigenspace_family(model_input)
    stabilized = family
    if stabilize is not None:
        stabilized = kunneth_stabilize(family, list(stabilize))
    mu_model = mu_p_of_family(stabilized, model_input.p)
    paper_bound = paper_mu_lower_bound(model_input, eps_frac, family=family)
    gap = model_input.min_gap()
    aut_bound = Fraction(0) if is_inf(gap) else gap / k
    return BoundsReport(
        p=model_input.p,
        lam=Fraction(lam) if lam is not None else None,
        k=k,
        mu_p_model=mu_model,
        mu_p_paper_bound=paper_bound,
        pow_bound=paper_bound / model_input.p,
        aut_bound=aut_bound,
        gap=gap,
    )


def model_input_from_records(records, p: int, degree: int = 0) -> ModelInput:
    """Tuple actions of the VALID records of an egg-beater run."""
    tuples = []
    for r in records:
        if r.valid:
            tuples.append((r.action, degree))
    return ModelInput(p, tuple(tuples))
