"""Model Z_p module of the periodic-orbit output and certified Hofer bounds.

Every p-tuple of fixed points contributes p generators born at its action
with the cyclic rotation action; the zero-differential model makes all bars
infinite.  Two bounds are always reported side by side: the exact spread of
that model (model-dependent) and the window bound from the action gap,
which is valid no matter what the unknown differential does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .equivariant import kunneth_stabilize, mu_p_of_family
from .field import is_prime
from .persistence import Bar, Barcode, INF, _canonical, _multiplicity, _order_key, is_inf, min_gap


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
        keyed = sorted((_order_key(a if isinstance(a, Fraction) else Fraction(a)), int(d))
                       for a, d in self.tuples)
        object.__setattr__(self, "tuples", tuple((a, d) for (_, a), d in keyed))
        gap = min_gap(a.as_integer_ratio() for a, _ in self.tuples)
        if gap == 0:
            raise ValueError("tuple actions must be pairwise distinct")
        object.__setattr__(self, "gap", gap)


def eigenspace_family(model_input: ModelInput) -> dict[int, Barcode]:
    """Per-degree barcodes of every eigenspace of the model, in closed form.

    Every p-th root of unity is a simple eigenvalue of the cyclic
    permutation, so each tuple (action, degree) adds exactly one bar
    (action, +inf] to ``family[degree]``, whichever root is chosen."""
    if not model_input.tuples:
        raise ValueError("model needs at least one tuple")
    # the tuples are sorted on `_order_key` with distinct actions, so each
    # degree's rays are already merged and in canonical order
    rays: dict[int, list] = {}
    for a, d in model_input.tuples:
        rays.setdefault(d, []).append((Bar(a, INF), 1, None))
    return {r: _canonical(rays[r]) for r in sorted(rays)}


def paper_mu_lower_bound(
    model_input: ModelInput,
    eps_frac=Fraction(1, 100),
    family: dict[int, Barcode] | None = None,
) -> Fraction:
    """Differential-independent bound c = g(1 - 2 eps)/4 from the minimal
    inter-tuple gap g, for eps in (0, 1/2] so that c >= 0.  The witness
    (a + eps g/2, a + g - eps g/2], a the least action, and its 2c-shrink
    (a + (1 - eps) g/2, a + (1 + eps) g/2] must each have model multiplicity
    1 (a count not divisible by p), summed over the degrees of the family:
    multiplicity is additive over a multiset union.  The four ends are
    integer numerators over one denominator, and c is the one Fraction
    built."""
    en, ed = Fraction(eps_frac).as_integer_ratio()
    if not 0 < 2 * en <= ed:
        raise ValueError("eps_frac must lie in (0, 1/2]")
    gap = model_input.gap
    if is_inf(gap):
        return Fraction(0)  # fewer than 2 tuples: the gap bound is vacuous
    (an, ad), (gn, gd) = model_input.tuples[0][0].as_integer_ratio(), gap.as_integer_ratio()
    c = Fraction(gn * (ed - 2 * en), 4 * gd * ed)
    if family is None:
        family = eigenspace_family(model_input)
    # a = base / den and g/2 = ed u / den, so eps g/2 = en u / den
    base, u, den = 2 * an * ed * gd, ad * gn, 2 * ad * ed * gd
    witness = base + en * u, base + (2 * ed - en) * u
    shrunk = base + (ed - en) * u, base + (ed + en) * u
    m_full = sum(_multiplicity(bc, *witness, den) for bc in family.values())
    m_shrunk = sum(_multiplicity(bc, *shrunk, den) for bc in family.values())
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
    gap = model_input.gap
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


def model_input_from_records(records, p: int) -> ModelInput:
    """Tuple actions of the VALID records of an egg-beater run, in degree 0."""
    return ModelInput(p, tuple((r.action, 0) for r in records if r.valid))
