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
and must come back exactly.  The solver composes the blocks and runs that
same piecewise map on integer numerators over one shared positive
denominator, and a valid record keeps the orbit as those integers.  Its
action, leading action, det(A_bar - id) and kink distance are kept as
integer numerators and denominators too: the writer formats them from the
integers, and only the action and the points become Fractions, when read.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .field import is_prime
from .persistence import min_gap


@dataclass(frozen=True)
class EggBeaterParams:
    """Exact egg-beater configuration: p blocks of winding fractions on the
    lattice where all winding numbers are positive integers."""

    p: int
    L: Fraction
    lam: Fraction
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]

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
        return m.numerator if m.denominator == 1 else 0

    def winding_n(self, j: int) -> int:
        n = self.nu[j] * self.lam / self.L
        return n.numerator if n.denominator == 1 else 0


@dataclass(frozen=True)
class FixedPointRecord:
    """One sign-indexed solution attempt, VALID only when the checked
    piecewise map closes up exactly with matching signs.

    A valid record stores its p even points (x_{2j}, y_{2j}) as integer
    numerators (X_{2j}, Y_{2j}) over one positive denominator `den`; the
    points and the start point are Fractions built from them when read.  The
    odd points (x_{2j+1}, y_{2j+1}) = (-y_{2j+2}, x_{2j}), indices mod 2p,
    are not kept: the writer forms them from the even points' strings.  A
    rejected record stores no points, so its `point` is None and its
    `even_points` are empty.

    The action, the leading action and det(A_bar - id) are kept as the
    integer (numerator, positive denominator) pairs the solver computes, not
    reduced, and the kink distance as its numerator over `den`; the writer
    formats them from those integers, and `action` is the Fraction built
    from its pair when read.  A rejected record has no action or kink
    distance: its `action_ratio` and `kink_numerator` are None."""

    signs: tuple[int, ...]
    valid: bool
    reason: str | None
    numerators: tuple[tuple[int, int], ...]
    den: int
    action_ratio: tuple[int, int] | None
    leading_ratio: tuple[int, int]
    det_ratio: tuple[int, int]
    kink_numerator: int | None

    @property
    def action(self) -> Fraction | None:
        return None if self.action_ratio is None else Fraction(*self.action_ratio)

    @property
    def even_points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(x_{2j}, y_{2j}) = (X_{2j}, Y_{2j}) / den for j = 0, ..., p - 1."""
        return tuple((Fraction(x, self.den), Fraction(y, self.den)) for x, y in self.numerators)

    @property
    def point(self) -> tuple[Fraction, Fraction] | None:
        """The start point (x_0, y_0): the first even point."""
        return self.even_points[0] if self.numerators else None

    def label(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


def _eps(signs: tuple[int, ...], i: int) -> int:
    """1-based cyclic sign accessor eps_i."""
    return signs[(i - 1) % len(signs)]


def solve_signed(signs: tuple[int, ...], params: EggBeaterParams) -> FixedPointRecord:
    """Solve the sign-indexed affine system and validate through the exact
    piecewise map; rejections carry the failing check."""
    return _solve_core(params.p, params.lam, params.mu, params.nu, signs)


def _solve_core(
    p: int, lam: Fraction, mu: tuple, nu: tuple, signs: tuple[int, ...]
) -> FixedPointRecord:
    if len(signs) != 2 * p or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a vector over {+1, -1} of length 2p")
    scale = _integer_scale(lam, mu, nu)
    blocks = [_block(j, _eps(signs, 2 * j + 1), _eps(signs, 2 * j + 4), scale) for j in range(p)]
    composed = blocks[0]
    for block in blocks[1:]:
        composed = _compose(block, composed)
    return _validate(p, scale, signs, composed)


def _integer_scale(lam: Fraction, mu: tuple, nu: tuple) -> tuple:
    """(K, K lam, (K (1 - mu_j) lam)_j, (K (1 - nu_j) lam)_j) for the least
    K > 0 that makes all of them integers; K = 1 when lam, mu_j lam, nu_j lam
    already are."""
    shifts = [(1 - v) * lam for v in mu + nu]
    k = math.lcm(lam.denominator, *(v.denominator for v in shifts))
    ints = [v.numerator * (k // v.denominator) for v in shifts]
    return k, lam.numerator * (k // lam.denominator), ints[:len(mu)], ints[len(mu):]


def _block(j: int, e1: int, e4: int, scale: tuple) -> tuple:
    """Block j with the signs e1 = eps_{2j+1}, e4 = eps_{2j+4} on the
    integers of `scale` = (K, K lam, (K (1 - mu_i) lam)_i, (K (1 - nu_i) lam)_i): K^2 A_j,
    then K^{2j+2} b_j, then K^2 lam^2 times the block's term
    e1 (1 - mu_j)^2 - e4 (1 - nu_j)^2 of the leading sum, the coefficient of
    lam/2 in the action (oracle: `tests/conftest.py::leading_sum`).
    Composing blocks 0, ..., j in order then gives K^{2j+2} (A, v) for the
    composed affine map (A, v)."""
    k, big_lam, big_rm, big_rn = scale
    rm, rn = big_rm[j], big_rn[j]
    lift = k ** (2 * j)
    return (
        k * k + e4 * e1 * big_lam * big_lam, -e4 * k * big_lam, -e1 * k * big_lam, k * k,
        lift * (k * rn - e4 * big_lam * rm), lift * k * rm, e1 * rm * rm - e4 * rn * rn,
    )


def _compose(block: tuple, acc: tuple) -> tuple:
    """The block applied after the accumulated affine map: (A_j A, A_j v + b_j),
    with the leading-sum terms added."""
    a, b, c, d, v1, v2, t = block
    a0, b0, c0, d0, w1, w2, s = acc
    return (
        a * a0 + b * c0, a * b0 + b * d0, c * a0 + d * c0, c * b0 + d * d0,
        a * w1 + b * w2 + v1, c * w1 + d * w2 + v2, s + t,
    )


def _validate(p: int, scale: tuple, signs: tuple[int, ...], composed: tuple) -> FixedPointRecord:
    """Solve (A_bar - id) z = -v0 for the composed affine map (A_bar, v0),
    given as `composed` = K^{2p} (A_bar, v0) by `_block` and `_compose`, and
    validate z through the checked piecewise map.

    The orbit is carried as integer numerators over one denominator
    D = |det_num| / g K^{2p}, with det_num = K^{4p} det(A_bar - id) and g
    the gcd of det_num and the two Cramer numerators, so D / K^{2p} is the
    least common denominator of the start point.  With
    (K, K lam, K (1 - mu_j) lam, K (1 - nu_j) lam) = `scale`, the half-step
    y' = y + lam (1 - |x|) - mu_j lam reads
    Y' = Y + (K (1 - mu_j) lam D - K lam |X|) / K.  Both numerators start
    divisible by K^{2p}, and the i-th half-step leaves them divisible by
    K^{2p-i}, so every division is exact."""
    k, big_lam, big_rm, big_rn = scale
    unit = k ** (2 * p)
    a, b, c, d, v1, v2, lead_num = composed  # lead_num = K^2 lam^2 (leading sum)
    lead = (lead_num, 2 * k * big_lam)
    det_num = (a - unit) * (d - unit) - b * c  # K^{4p} det(A_bar - id)
    if det_num != (2 * unit - (a + d)) * unit:
        raise AssertionError("det(A-id) != 2 - trace(A) for a det-1 matrix")
    det = (det_num, unit * unit)

    def reject(reason: str) -> FixedPointRecord:
        return FixedPointRecord(signs, False, reason, (), 1, None, lead, det, None)

    if det_num == 0:
        return reject("singular system: det(A_bar - id) = 0")

    # Cramer's rule: (x0, y0) = (xn, yn) / det_num
    xn = b * v2 - (d - unit) * v1
    yn = c * v1 - (a - unit) * v2
    g = math.gcd(xn, yn, det_num) * (1 if det_num > 0 else -1)
    den = det_num // g * unit
    start = x, y = xn // g * unit, yn // g * unit
    even = []
    # with the tent Hamiltonian h0(s) = s - s|s|/2, the segment action
    # lam (h0(s) - w s) with s = S/D is (2D (K (1 - w) lam) S - K lam S|S|) / (2 K D^2);
    # block j adds its input X_{2j} and, as the horizontal segment flows
    # x_{2j+1} = -y_{2j+2}, minus its height Y_{2j+2}: all even points once closed
    linear = squares = 0
    for j in range(p):
        if not (-den < x < den and -den < y < den):
            return reject(
                f"forward map: input ({Fraction(x, den)}, {Fraction(y, den)}) "
                "outside the open square"
            )
        even.append((x, y))
        ax = abs(x)
        y += (big_rm[j] * den - big_lam * ax) // k
        if not -den < y < den:
            return reject(
                "forward map: vertical reduction window missed: "
                f"intermediate height {Fraction(y, den)}"
            )
        linear += big_rm[j] * x - big_rn[j] * y
        ay = abs(y)
        squares += y * ay - x * ax
        x += (big_rn[j] * den - big_lam * ay) // k
        if not -den < x < den:
            return reject(
                "forward map: horizontal reduction window missed: "
                f"intermediate height {Fraction(x, den)}"
            )
    if (x, y) != start:
        return reject("forward map does not close up on the affine solution")

    # the forward map has already checked every even point and every odd
    # point (-Y_{2j+2}, X_{2j}) against the open square
    for j, (x, y) in enumerate(even):
        if x == 0 or y == 0:
            return reject(f"even point {j} has a zero coordinate (sign undefined)")
        if (1 if x > 0 else -1) != signs[2 * j]:
            return reject(f"realized sign of x_{2 * j} differs from requested")
        if (1 if y > 0 else -1) != signs[2 * j + 1]:
            return reject(f"realized sign of y_{2 * j} differs from requested")

    mags = [abs(c) for point in even for c in point]
    kink = min(min(mags), den - max(mags))
    return FixedPointRecord(
        signs, True, None, tuple(even), den,
        (2 * den * linear + big_lam * squares, 2 * k * den * den), lead, det, kink,
    )


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
    n = 2 * p

    def variants(j: int) -> list[tuple]:
        """Block j for (e1, e4) = (+,+), (+,-), (-,+), (-,-): variant
        2 (e1 < 0) + (e4 < 0)."""
        return [_block(j, e1, e4, scale) for e1, e4 in itertools.product((1, -1), repeat=2)]

    scale = _integer_scale(lam, mu, nu)
    table = variants(0)
    for j in range(1, p):
        row = variants(j)
        table = [_compose(block, acc) for acc in table for block in row]
    records = []
    for signs in sign_vectors(p):
        index = 0
        for j in range(p):
            index = 4 * index + 2 * (signs[2 * j] < 0) + (signs[(2 * j + 3) % n] < 0)
        records.append(_validate(p, scale, signs, table[index]))
    return records


def min_action_gap(records) -> Fraction | float:
    """Minimum pairwise distance of the exact actions of VALID records; +inf
    for fewer than two (`persistence.min_gap` on their integer pairs)."""
    return min_gap(r.action_ratio for r in records if r.valid)


def _farey_rationals(max_denominator: int) -> list[Fraction]:
    """Rationals in (0,1) ordered by denominator, then numerator."""
    return [Fraction(num, q) for q in range(2, max_denominator + 1)
            for num in range(1, q) if math.gcd(num, q) == 1]


def param_search(p: int, L, max_denominator: int = 10) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """First (mu, nu) in the deterministic grid whose 2^{2p} coefficient sums
    are pairwise distinct.

    The sums are the signed sums of the 2p squares (1 - v)^2, one sign per
    square, so they are pairwise distinct exactly when the 2^{2p} subset sums
    of the squares are.  A depth-first search picks the coordinates in the
    lexicographic order of `itertools.permutations` over the Farey grid,
    keeps the subset sums of the chosen prefix and cuts the prefix at its
    first collision, which every extension keeps.  A repeated value collides
    at once, and v -> (1 - v)^2 is injective on (0, 1), so the (mu_i, nu_i)
    pairs of the result are distinct too."""
    L = Fraction(L)
    if L < 4:
        raise ValueError("L must be >= 4")
    rats = _farey_rationals(max_denominator)
    squares = [(1 - v) ** 2 for v in rats]
    chosen: list[int] = []

    def extend(sums: set) -> bool:
        if len(chosen) == 2 * p:
            return True
        for i, c in enumerate(squares):
            if any(s + c in sums for s in sums):
                continue
            chosen.append(i)
            if extend(sums | {s + c for s in sums}):
                return True
            chosen.pop()
        return False

    if not extend({Fraction(0)}):
        raise ValueError(
            f"no admissible coefficients with denominators <= {max_denominator}; raise the bound"
        )
    combo = tuple(rats[i] for i in chosen)
    return combo[:p], combo[p:]


def lambda_lattice(L, mu, nu, count: int) -> Iterator[Fraction]:
    """The `count` smallest lambda with every winding m_j, n_j a positive
    integer, in increasing order: multiples of lcm_j(L / coefficient), the
    lcm of the numerators of the reduced ratios over the gcd of their
    denominators.  The arguments are checked at the call; the points are
    made one at a time as they are read, so memory does not grow with
    `count`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    L = Fraction(L)
    coefficients = [Fraction(v) for v in tuple(mu) + tuple(nu)]
    if not coefficients:
        raise ValueError("need at least one winding coefficient")
    if min(coefficients) <= 0:
        raise ValueError(f"winding coefficient {min(coefficients)} must be positive")
    ratios = [L / c for c in coefficients]
    step = Fraction(math.lcm(*(r.numerator for r in ratios)),
                    math.gcd(*(r.denominator for r in ratios)))
    return (step * i for i in range(1, count + 1))


def validation_threshold(p: int, L, mu, nu) -> tuple[Fraction, list[FixedPointRecord]]:
    """Smallest of the first 12 lattice lambdas at which all 2^{2p} sign
    vectors validate.

    Existence is only known asymptotically, so this reports the empirical
    threshold instead of asserting one."""
    max_steps = 12
    for lam in lambda_lattice(L, mu, nu, max_steps):
        params = EggBeaterParams(p, L, lam, tuple(mu), tuple(nu))
        records = enumerate_records(params)
        if all(r.valid for r in records):
            return lam, records
    raise ValueError(f"no fully-validating lambda among the first {max_steps} lattice points")


# frozen p=2 fixture; distinctness of the 16 coefficient sums is forced by
# the 2-, 5-, 3-, 7-adic valuations of the squared complements
FIXTURE_P2_MU = (Fraction(1, 2), Fraction(1, 5))
FIXTURE_P2_NU = (Fraction(1, 3), Fraction(1, 7))
FIXTURE_L = Fraction(4)


def fixture_params(lam) -> EggBeaterParams:
    return EggBeaterParams(2, FIXTURE_L, lam, FIXTURE_P2_MU, FIXTURE_P2_NU)


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

