"""Exact fixed points of the egg-beater map in the chosen winding class.

Two tent-profile shear annuli crossing at two squares are composed; lifted
to the universal cover, a fixed point of the p-th power with a prescribed
sign pattern of its intermediate coordinates solves an affine 2x2 system
with sign-indexed coefficient matrices.  Block j's affine map reads only
two of the signs, so the enumeration builds the four variants of each block
once and composes every prefix of blocks once, shared by all 4^p sign
vectors that extend it.  Everything is rational: lambda on the integrality
lattice, coordinates, actions, determinants.  Validation never trusts the
affine shortcut: every candidate is pushed through the checked piecewise map
and must come back exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .field import Matrix, QQ_FIELD, is_prime
from .persistence import INF


class ReductionWindowError(ValueError):
    """A lifted trajectory missed its reduction window: the point does not
    realize the prescribed winding class."""


def u0(s) -> Fraction:
    """Tent shear profile 1 - |s| on [-1, 1]."""
    s = Fraction(s)
    if not -1 <= s <= 1:
        raise ValueError(f"u0 argument {s} outside [-1, 1]")
    return 1 - abs(s)


def h0(s) -> Fraction:
    """Normalized tent Hamiltonian s - sign(s) s^2/2 (odd, h0(+-1) = +-1/2)."""
    s = Fraction(s)
    if not -1 <= s <= 1:
        raise ValueError(f"h0 argument {s} outside [-1, 1]")
    return s - s * abs(s) / 2  # sign(s) s^2 = s |s|


def _in_open_square(x: Fraction, y: Fraction) -> bool:
    return -1 < x < 1 and -1 < y < 1


def phi_block(x, y, mu, nu, lam) -> tuple[Fraction, Fraction]:
    """One vertical-then-horizontal block of the lifted map on the square.

    Equals HV . r_{nu lam} . f . VH . r_{mu lam} . f on its domain; both
    reduction windows are checked, and a miss signals that the input does
    not follow the prescribed winding class.
    """
    return _phi_block(*(Fraction(v) for v in (x, y, mu, nu, lam)))


def _phi_block(x, y, mu, nu, lam) -> tuple[Fraction, Fraction]:
    """`phi_block` on arguments that are already Fractions."""
    if not _in_open_square(x, y):
        raise ReductionWindowError(f"input ({x}, {y}) outside the open square")
    y2 = y + lam * u0(x) - mu * lam
    if not -1 < y2 < 1:
        raise ReductionWindowError(
            f"vertical reduction window missed: intermediate height {y2}"
        )
    x2 = x + lam * u0(y2) - nu * lam
    if not -1 < x2 < 1:
        raise ReductionWindowError(
            f"horizontal reduction window missed: intermediate height {x2}"
        )
    return (x2, y2)


@dataclass(frozen=True)
class EggBeaterParams:
    """Exact egg-beater configuration: p blocks of winding fractions on the
    lattice where all winding numbers are positive integers."""

    p: int
    L: Fraction
    lam: Fraction
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]
    degree: int = 0  # grading indices are not computed; one shared slot

    def __post_init__(self):
        object.__setattr__(self, "L", Fraction(self.L))
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", tuple(Fraction(v) for v in self.mu))
        object.__setattr__(self, "nu", tuple(Fraction(v) for v in self.nu))
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        self._validate()

    def _validate(self):
        if self.L < 4:
            raise ValueError(f"L must be >= 4, got {self.L}")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if len(self.mu) != self.p or len(self.nu) != self.p:
            raise ValueError(f"need {self.p} mu and nu coefficients")
        for v in self.mu + self.nu:
            if not 0 < v < 1:
                raise ValueError(f"coefficient {v} outside (0, 1)")
        pairs = list(zip(self.mu, self.nu))
        if len(set(pairs)) != len(pairs):
            raise ValueError("(mu_i, nu_i) pairs must be pairwise distinct")
        for j in range(self.p):
            if self.winding_m(j) < 1 or self.winding_n(j) < 1:
                raise ValueError(
                    f"lambda {self.lam} is off the lattice: block {j} windings "
                    f"{self.mu[j] * self.lam / self.L}, {self.nu[j] * self.lam / self.L}"
                )

    def winding_m(self, j: int) -> int:
        m = self.mu[j] * self.lam / self.L
        if m.denominator != 1:
            return 0
        return int(m)

    def winding_n(self, j: int) -> int:
        n = self.nu[j] * self.lam / self.L
        if n.denominator != 1:
            return 0
        return int(n)


@dataclass(frozen=True)
class FixedPointRecord:
    """One sign-indexed solution attempt, VALID only when the checked
    piecewise map closes up exactly with matching signs."""

    signs: tuple[int, ...]
    valid: bool
    reason: str | None
    point: tuple[Fraction, Fraction] | None
    even_points: tuple[tuple[Fraction, Fraction], ...]
    odd_points: tuple[tuple[Fraction, Fraction], ...]
    action: Fraction | None
    action_leading: Fraction
    det: Fraction
    kink_distance: Fraction | None

    def label(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


def _eps(signs: tuple[int, ...], i: int) -> int:
    """1-based cyclic sign accessor eps_i."""
    return signs[(i - 1) % len(signs)]


def block_matrix(j: int, signs: tuple[int, ...], lam) -> Matrix:
    """Coefficient matrix of block j (0-based): det = 1 and it factors into
    the two parabolic shears."""
    lam = Fraction(lam)
    e1 = _eps(signs, 2 * j + 1)
    e4 = _eps(signs, 2 * j + 4)
    return Matrix.from_rows(
        QQ_FIELD,
        [[1 + e4 * e1 * lam * lam, -e4 * lam], [-e1 * lam, Fraction(1)]],
    )


def block_vector(j: int, signs: tuple[int, ...], lam, mu_j, nu_j) -> tuple[Fraction, Fraction]:
    lam, mu_j, nu_j = Fraction(lam), Fraction(mu_j), Fraction(nu_j)
    e4 = _eps(signs, 2 * j + 4)
    return (
        -e4 * (1 - mu_j) * lam * lam + (1 - nu_j) * lam,
        (1 - mu_j) * lam,
    )


def nondegeneracy(signs: tuple[int, ...], lam) -> Fraction:
    """det(A_bar - id), cross-checked against 2 - trace(A_bar)."""
    p = len(signs) // 2
    a_bar = Matrix.identity(QQ_FIELD, 2)
    for j in range(p):
        a_bar = block_matrix(j, signs, lam) @ a_bar
    m = a_bar - Matrix.identity(QQ_FIELD, 2)
    det = m.det()
    trace = a_bar.entries[0][0] + a_bar.entries[1][1]
    if det != 2 - trace:
        raise AssertionError("det(A-id) != 2 - trace(A) for a det-1 matrix")
    return det


def leading_sum(signs: tuple[int, ...], mu, nu) -> Fraction:
    """Coefficient of lambda/2 in the action: the signed sum of squared
    winding complements."""
    mu = tuple(Fraction(v) for v in mu)
    nu = tuple(Fraction(v) for v in nu)
    total = Fraction(0)
    for j in range(len(mu)):
        total += _leading_term(j, signs, mu[j], nu[j])
    return total


def _leading_term(j: int, signs: tuple[int, ...], mu_j: Fraction, nu_j: Fraction) -> Fraction:
    """Block j's term of `leading_sum`; like A_j and b_j it reads only the
    signs eps_{2j+1} and eps_{2j+4}."""
    return _eps(signs, 2 * j + 1) * (1 - mu_j) ** 2 - _eps(signs, 2 * j + 4) * (1 - nu_j) ** 2


def action_leading(signs: tuple[int, ...], params: EggBeaterParams) -> Fraction:
    return params.lam / 2 * leading_sum(signs, params.mu, params.nu)


def action_exact(record: FixedPointRecord, params: EggBeaterParams) -> Fraction:
    """Segment-wise action: Hamiltonian term lam*h0 of the flowing coordinate
    minus the reference-loop area term lam*(winding fraction)*coordinate.

    The 2p segments alternate vertical (even points, fraction mu) and
    horizontal (odd points, fraction nu); the odd point's flowing coordinate
    is its first (the flipped height)."""
    if not record.valid:
        raise ValueError("action of an invalid record")
    return _action_from_points(
        params.p, params.lam, params.mu, params.nu, record.even_points, record.odd_points
    )


def _kink_distance(coords) -> Fraction:
    """Distance of shear arguments in [-1, 1] to the kink set {-1, 0, 1}."""
    return min((min(abs(c), 1 - abs(c)) for c in coords), default=Fraction(0))


def solve_signed(signs: tuple[int, ...], params: EggBeaterParams) -> FixedPointRecord:
    """Solve the sign-indexed affine system and validate through the exact
    piecewise map; rejections carry the failing check."""
    return _solve_core(params.p, params.lam, params.mu, params.nu, signs)


def _solve_core(
    p: int, lam: Fraction, mu: tuple, nu: tuple, signs: tuple[int, ...]
) -> FixedPointRecord:
    lam = Fraction(lam)
    mu = tuple(Fraction(v) for v in mu)
    nu = tuple(Fraction(v) for v in nu)
    if len(signs) != 2 * p or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a vector over {+1, -1} of length 2p")
    composed = _block(0, signs, lam, mu[0], nu[0])
    for j in range(1, p):
        composed = _compose(_block(j, signs, lam, mu[j], nu[j]), composed)
    return _validate(p, lam, mu, nu, signs, composed)


def _block(j: int, signs: tuple[int, ...], lam: Fraction, mu_j: Fraction, nu_j: Fraction) -> tuple:
    """Block j as bare Fractions: the entries of A_j, then b_j, then the
    block's term of the leading sum."""
    (a, b), (c, d) = block_matrix(j, signs, lam).entries
    v1, v2 = block_vector(j, signs, lam, mu_j, nu_j)
    return (a, b, c, d, v1, v2, _leading_term(j, signs, mu_j, nu_j))


def _compose(block: tuple, acc: tuple) -> tuple:
    """The block applied after the accumulated affine map: (A_j A, A_j v + b_j),
    with the leading-sum terms added."""
    a, b, c, d, v1, v2, t = block
    a0, b0, c0, d0, w1, w2, s = acc
    return (
        a * a0 + b * c0, a * b0 + b * d0, c * a0 + d * c0, c * b0 + d * d0,
        a * w1 + b * w2 + v1, c * w1 + d * w2 + v2, s + t,
    )


def _validate(
    p: int, lam: Fraction, mu: tuple, nu: tuple, signs: tuple[int, ...], composed: tuple
) -> FixedPointRecord:
    """Solve (A_bar - id) z = -v0 for the composed affine map (A_bar, v0) and
    validate z through the checked piecewise map."""
    a, b, c, d, v1, v2, lead_sum = composed
    lead = lam / 2 * lead_sum
    det = (a - 1) * (d - 1) - b * c
    if det != 2 - (a + d):
        raise AssertionError("det(A-id) != 2 - trace(A) for a det-1 matrix")

    def reject(reason: str) -> FixedPointRecord:
        return FixedPointRecord(
            signs, False, reason, None, (), (), None, lead, det, None
        )

    if det == 0:
        return reject("singular system: det(A_bar - id) = 0")

    # Cramer's rule
    x0 = (b * v2 - (d - 1) * v1) / det
    y0 = (c * v1 - (a - 1) * v2) / det

    even = [(x0, y0)]
    try:
        cur = (x0, y0)
        for j in range(p):
            cur = _phi_block(cur[0], cur[1], mu[j], nu[j], lam)
            even.append(cur)
    except (ReductionWindowError, ValueError) as e:
        return reject(f"forward map: {e}")
    if even[-1] != (x0, y0):
        return reject("forward map does not close up on the affine solution")
    even = even[:p]

    for j, (x, y) in enumerate(even):
        if x == 0 or y == 0:
            return reject(f"even point {j} has a zero coordinate (sign undefined)")
        if not _in_open_square(x, y):
            return reject(f"even point {j} outside the open square")
        if (1 if x > 0 else -1) != _eps(signs, 2 * j + 1):
            return reject(f"realized sign of x_{2 * j} differs from requested")
        if (1 if y > 0 else -1) != _eps(signs, 2 * j + 2):
            return reject(f"realized sign of y_{2 * j} differs from requested")

    odd = []
    for j in range(p):
        y_next = even[(j + 1) % p][1]
        x_prev = even[j][0]
        pt = (-y_next, x_prev)
        if not _in_open_square(*pt):
            return reject(f"odd point {j} outside the open square")
        odd.append(pt)

    kink = _kink_distance([c for pt in even for c in pt])
    action = _action_from_points(p, lam, mu, nu, even, odd)
    return FixedPointRecord(
        signs, True, None, (x0, y0), tuple(even), tuple(odd), action, lead, det, kink
    )


def _action_from_points(p, lam, mu, nu, even_points, odd_points) -> Fraction:
    total = Fraction(0)
    for j in range(p):
        xv = even_points[j][0]
        xh = odd_points[j][0]
        total += h0(xv) - mu[j] * xv + h0(xh) - nu[j] * xh
    return lam * total


def sign_vectors(p: int):
    """All 2^{2p} sign vectors, all-plus first, deterministic order."""
    return itertools.product((1, -1), repeat=2 * p)


def enumerate_records(params: EggBeaterParams) -> list[FixedPointRecord]:
    return _enumerate_core(params.p, params.lam, params.mu, params.nu)


def _enumerate_core(p: int, lam: Fraction, mu: tuple, nu: tuple) -> list[FixedPointRecord]:
    """`_solve_core` for every sign vector, in `sign_vectors` order.

    Block j reads only e1 = signs[2j] and e4 = signs[(2j + 3) % 2p], and each
    sign index belongs to exactly one block, so the 4^p vectors are the
    products of four variants per block.  The affine maps of all prefixes
    are composed level by level, each once, and shared by the vectors that
    extend them; every vector is then validated on its own."""
    lam = Fraction(lam)
    mu = tuple(Fraction(v) for v in mu)
    nu = tuple(Fraction(v) for v in nu)
    n = 2 * p

    def variants(j: int) -> list[tuple]:
        """Block j for (e1, e4) = (+,+), (+,-), (-,+), (-,-): variant
        2 (e1 < 0) + (e4 < 0)."""
        out = []
        for e1, e4 in itertools.product((1, -1), repeat=2):
            signs = [1] * n
            signs[2 * j], signs[(2 * j + 3) % n] = e1, e4
            out.append(_block(j, tuple(signs), lam, mu[j], nu[j]))
        return out

    table = variants(0)
    for j in range(1, p):
        row = variants(j)
        table = [_compose(block, acc) for acc in table for block in row]
    records = []
    for signs in sign_vectors(p):
        index = 0
        for j in range(p):
            index = 4 * index + 2 * (signs[2 * j] < 0) + (signs[(2 * j + 3) % n] < 0)
        records.append(_validate(p, lam, mu, nu, signs, table[index]))
    return records


def min_action_gap(records) -> Fraction | float:
    """Minimum pairwise distance of the exact actions of VALID records."""
    actions = [r.action for r in records if r.valid]
    if len(actions) < 2:
        return INF
    actions.sort()
    return min(b - a for a, b in zip(actions, actions[1:]))


def coefficient_sums_distinct(p: int, mu, nu) -> bool:
    sums = {leading_sum(tuple(s), mu, nu) for s in sign_vectors(p)}
    return len(sums) == 4 ** p


def _farey_rationals(max_denominator: int) -> list[Fraction]:
    """Rationals in (0,1) ordered by denominator, then numerator."""
    seen = set()
    out = []
    for q in range(2, max_denominator + 1):
        for num in range(1, q):
            f = Fraction(num, q)
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


def param_search(p: int, L, max_denominator: int = 10) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """First (mu, nu) in the deterministic grid whose 2^{2p} coefficient sums
    are pairwise distinct.

    Equal squares (1 - v)^2 force sum collisions, and v -> (1 - v)^2 is
    injective on (0, 1), so only tuples of 2p distinct values can qualify
    (their (mu_i, nu_i) pairs are then distinct too); `permutations` yields
    exactly those, in the lexicographic order of the full product."""
    L = Fraction(L)
    if L < 4:
        raise ValueError("L must be >= 4")
    for combo in itertools.permutations(_farey_rationals(max_denominator), 2 * p):
        mu, nu = combo[:p], combo[p:]
        if coefficient_sums_distinct(p, mu, nu):
            return mu, nu
    raise ValueError(
        f"no admissible coefficients with denominators <= {max_denominator}; raise the bound"
    )


def _lcm_fractions(values) -> Fraction:
    out = None
    for v in values:
        v = Fraction(v)
        if out is None:
            out = v
        else:
            out = Fraction(
                math.lcm(out.numerator, v.numerator),
                math.gcd(out.denominator, v.denominator),
            )
    if out is None:
        raise ValueError("lcm of nothing")
    return out


def lambda_lattice(L, mu, nu, count: int) -> list[Fraction]:
    """The `count` smallest lambda with every winding m_j, n_j a positive
    integer: multiples of lcm_j(L / coefficient)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    L = Fraction(L)
    coefficients = [Fraction(v) for v in tuple(mu) + tuple(nu)]
    if not coefficients:
        raise ValueError("need at least one winding coefficient")
    step = _lcm_fractions(L / c for c in coefficients)
    return [step * i for i in range(1, count + 1)]


def validation_threshold(
    p: int, L, mu, nu, max_steps: int = 12, degree: int = 0
) -> tuple[Fraction, list[FixedPointRecord]]:
    """Smallest lattice lambda at which all 2^{2p} sign vectors validate.

    Existence is only known asymptotically, so this reports the empirical
    threshold instead of asserting one."""
    for lam in lambda_lattice(L, mu, nu, max_steps):
        params = EggBeaterParams(p, L, lam, tuple(mu), tuple(nu), degree=degree)
        records = enumerate_records(params)
        if all(r.valid for r in records):
            return lam, records
    raise ValueError(f"no fully-validating lambda among the first {max_steps} lattice points")


# frozen p=2 fixture; distinctness of the 16 coefficient sums is forced by
# the 2-, 5-, 3-, 7-adic valuations of the squared complements
FIXTURE_P2_MU = (Fraction(1, 2), Fraction(1, 5))
FIXTURE_P2_NU = (Fraction(1, 3), Fraction(1, 7))
FIXTURE_L = Fraction(4)


def fixture_params(lam, p: int = 2, degree: int = 0) -> EggBeaterParams:
    if p != 2:
        raise ValueError("the frozen fixture is for p = 2")
    return EggBeaterParams(2, FIXTURE_L, lam, FIXTURE_P2_MU, FIXTURE_P2_NU, degree=degree)


# -- the 2D variant -------------------------------------------------------------


def solve_2d(mu, nu, lam, L=Fraction(4)) -> list[FixedPointRecord]:
    """The four sign-indexed fixed points of the single-block map, with
    closed-form points (eps1 (1-mu), eps2 (1-nu)) and exactly the leading
    actions; mu = nu collapses the action values and is rejected."""
    mu, nu, lam, L = Fraction(mu), Fraction(nu), Fraction(lam), Fraction(L)
    if not (0 < mu < 1 and 0 < nu < 1):
        raise ValueError("mu, nu must lie in (0, 1)")
    if mu == nu:
        raise ValueError("mu = nu collapses the four action values")
    if L < 4:
        raise ValueError("L must be >= 4")
    m = mu * lam / L
    n = nu * lam / L
    if m.denominator != 1 or n.denominator != 1 or m < 1 or n < 1:
        raise ValueError(f"lambda {lam} off the lattice: windings {m}, {n}")
    records = []
    for signs in sign_vectors(1):
        rec = _solve_core(1, lam, (mu,), (nu,), tuple(signs))
        if not rec.valid:
            raise ValueError(f"2d solve failed for signs {signs}: {rec.reason}")
        e1, e2 = signs
        expected = (e1 * (1 - mu), e2 * (1 - nu))
        if rec.point != expected:
            raise AssertionError("2d solution differs from the closed form")
        if rec.action != lam / 2 * (e1 * (1 - mu) ** 2 - e2 * (1 - nu) ** 2):
            raise AssertionError("2d action differs from the closed form")
        records.append(rec)
    actions = {r.action for r in records}
    if len(actions) != 4:
        raise AssertionError("2d actions are not pairwise distinct")
    return records

