"""Words in Free<a,b,c>, the two-square groupoid alphabet, and itineraries.

Letters are signed integers (1=a, 2=b, 3=c; negatives are inverses), words
are stored fully reduced.  Conjugacy of cyclically reduced words is tested
with the doubling trick.  Itineraries of alternating vertical/horizontal
segments between the two intersection squares translate to groupoid words
over q1..q4 and then, after contracting the tree edge q2 (so q1 -> a,
q2 -> 1, q3 -> c, q4 -> c^{-1} b), to reduced words in a, b, c.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

A_, B_, C_ = 1, 2, 3
_NAMES = {1: "a", 2: "b", 3: "c"}
_VALUES = {v: k for k, v in _NAMES.items()}
_LETTERS = frozenset((1, -1, 2, -2, 3, -3))
# a word is reduced iff its `_image` contains none of these
_INVERSE_PAIRS = tuple(bytes((x % 256, -x % 256)) for x in _LETTERS)
MAX_LETTERS = 10 ** 7  # the longest word a text or an itinerary may expand to


@dataclass(frozen=True)
class Word:
    """Reduced word in Free<a,b,c> as a tuple of signed letters."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if not _LETTERS.issuperset(self.letters):
            bad = next(x for x in self.letters if x not in _LETTERS)
            raise ValueError(f"invalid letter {bad}")
        object.__setattr__(self, "letters", _reduce(self.letters))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __str__(self):
        return format_word(self)


def _check_length(count: int, what: str) -> None:
    """Refuse a word of `count` > `MAX_LETTERS` letters before the excess is built."""
    if count > MAX_LETTERS:
        raise ValueError(f"{what} expands to at least {count} letters, "
                         f"over the limit of {MAX_LETTERS}")


def _image(letters) -> bytes:
    """The letters as signed bytes (x mod 256), one per letter."""
    return array("b", letters).tobytes()


def _reduce(letters) -> tuple[int, ...]:
    """The freely reduced word; a word that is already reduced, as most words
    built from reduced words are, comes back as it is after six substring
    searches of its byte image."""
    image = _image(letters)
    if not any(pair in image for pair in _INVERSE_PAIRS):
        return tuple(letters)
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word: Word) -> Word:
    """Strip inverse pairs from the two ends until the word is cyclically
    reduced: count the cancelling pairs first, then slice once."""
    w = word.letters
    depth = 0
    while 2 * depth + 2 <= len(w) and w[depth] == -w[-1 - depth]:
        depth += 1
    return Word(w[depth:len(w) - depth])


def conjugate_eq(w1: Word, w2: Word) -> bool:
    """Conjugacy in the free group: cyclic reductions are rotations of each
    other, tested via the doubling trick (u is a rotation of v iff |u| = |v|
    and u occurs in v.v).  Each letter becomes one byte of `_image`, so the
    occurrence test is one substring search."""
    u, v = (_image(cyclic_reduce(w).letters) for w in (w1, w2))
    return len(u) == len(v) and u in v + v


def parse_word(text: str) -> Word:
    """Parse `a^3 b^-2 c` style notation over {a,b,c} or {q1..q4}.

    Groupoid words are validated for composability (a loop based at the
    square A) and returned as their image in Free<a,b,c>.
    """
    tokens = text.replace("*", " ").split()
    return _parse_groupoid([t for t in tokens if t != "1"])  # "1" denotes the identity


def _split_caret(tok: str) -> tuple[str, int]:
    if "^" in tok:
        name, _, pow_s = tok.partition("^")
        try:
            exp = int(pow_s)
        except ValueError as e:
            raise ValueError(f"bad exponent in {tok!r}") from e
    else:
        name, exp = tok, 1
    return name, exp


# groupoid edges: q1, q3 go A -> B; q2, q4 go B -> A.
_EDGE_ENDS = {"q1": ("A", "B"), "q2": ("B", "A"), "q3": ("A", "B"), "q4": ("B", "A")}
# contracting the tree edge q2: q1 -> a, q2 -> 1, q3 -> c, q4 -> c^-1 b
_EDGE_IMAGE = {
    "q1": (A_,),
    "q2": (),
    "q3": (C_,),
    "q4": (-C_, B_),
}


def _parse_groupoid(tokens: list[str]) -> Word:
    """The image in Free<a,b,c> of a groupoid word based at A; a word over
    a, b, c alone is a loop at A."""
    at = "A"
    letters: list[int] = []
    for tok in tokens:
        name, exp = _split_caret(tok)
        if name in _VALUES:  # a, b are loops at A; c = q3 q2 is a loop at A
            if at != "A":
                raise ValueError(f"loop letter {name!r} used away from the square A")
            base = _VALUES[name]
            _check_length(len(letters) + abs(exp), "word")
            letters.extend([base if exp > 0 else -base] * abs(exp))
            continue
        if name not in _EDGE_ENDS:
            raise ValueError(f"unknown letter {name!r}")
        src, dst = _EDGE_ENDS[name]
        image = _EDGE_IMAGE[name]
        for _ in range(abs(exp)):
            if exp > 0:
                if at != src:
                    raise ValueError(f"edge {name} not composable at {at}")
                letters.extend(image)
                at = dst
            else:
                if at != dst:
                    raise ValueError(f"edge {name}^-1 not composable at {at}")
                letters.extend(-x for x in reversed(image))
                at = src
    if at != "A":
        raise ValueError("groupoid word is not a loop at A")
    return Word(tuple(letters))


def format_word(word: Word) -> str:
    if not word.letters:
        return "1"
    parts = []
    i = 0
    letters = word.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run = j - i
        name = _NAMES[abs(letters[i])]
        exp = run if letters[i] > 0 else -run
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


# -- itineraries ---------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One flow segment: which annulus, endpoints, and the winding count.

    For segments between distinct squares and for B -> B returns, the table
    exponent is winding - 1, so those need winding >= 1; the A -> A loops use
    the winding itself and admit winding 0.
    """

    flow: str  # "V" or "H"
    src: str  # "A" or "B"
    dst: str
    winding: int

    def __post_init__(self):
        if self.flow not in ("V", "H"):
            raise ValueError(f"flow must be V or H, got {self.flow!r}")
        if self.src not in ("A", "B") or self.dst not in ("A", "B"):
            raise ValueError("segment endpoints must be A or B")
        if self.winding < 0:
            raise ValueError("winding must be >= 0")
        if (self.src, self.dst) != ("A", "A") and self.winding < 1:
            raise ValueError("crossing segments need winding >= 1")


@dataclass(frozen=True)
class Itinerary:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = self.segments
        for s1, s2 in zip(segs, segs[1:]):
            if s1.dst != s2.src:
                raise ValueError(f"segments {s1} and {s2} do not chain")
            if s1.flow == s2.flow:
                raise ValueError("itinerary must alternate V and H flows")

    def is_loop_at_a(self) -> bool:
        if not self.segments:
            return True
        return self.segments[0].src == "A" and self.segments[-1].dst == "A"


def parse_itinerary(text: str) -> Itinerary:
    """Parse segments `FLOW:SRC-DST:WINDING` separated by spaces, like
    `V:A-A:3 H:A-B:1`."""
    segments = []
    for tok in text.split():
        parts = tok.split(":")
        if len(parts) != 3 or "-" not in parts[1]:
            raise ValueError(f"bad segment {tok!r}; expected FLOW:SRC-DST:WINDING like V:A-A:3")
        flow, ends, wind = parts
        src, dst = ends.split("-", 1)
        try:
            winding = int(wind)
        except ValueError:
            raise ValueError(
                f"bad winding {wind!r} in segment {tok!r}; expected an integer") from None
        segments.append(Segment(flow, src, dst, winding))
    return Itinerary(tuple(segments))


def _segment_parts(segment: Segment) -> tuple[tuple[int, ...], int, int, tuple[int, ...]]:
    """(head, loop, n, tail): the image in Free<a,b,c> of one flow segment is
    head, n loop letters and tail, from the trajectory-type table: the edge
    back to A when it starts at B, winding - 1 loops (winding loops for
    A -> A), and the edge into B when it ends there."""
    loop = A_ if segment.flow == "V" else B_
    into, back = ("q1", "q2") if segment.flow == "V" else ("q3", "q4")
    if (segment.src, segment.dst) == ("A", "A"):
        return (), loop, segment.winding, ()
    head = _EDGE_IMAGE[back] if segment.src == "B" else ()
    tail = _EDGE_IMAGE[into] if segment.dst == "B" else ()
    return head, loop, segment.winding - 1, tail


def itinerary_to_word(itinerary: Itinerary) -> Word:
    """Reduced a,b,c word of a loop itinerary based at A.  Consecutive
    segments chain, so the groupoid word of a loop at A is composable."""
    if not itinerary.is_loop_at_a():
        raise ValueError("itinerary must be a loop based at A")
    parts = [_segment_parts(seg) for seg in itinerary.segments]
    _check_length(sum(len(head) + n + len(tail) for head, _, n, tail in parts), "itinerary")
    return Word(tuple(x for head, loop, n, tail in parts for x in head + (loop,) * n + tail))


def canonical_itinerary(windings_v, windings_h) -> Itinerary:
    """The 2p-segment itinerary V:A->A(m_1), H:A->A(n_1), ..., whose word is
    a^{m_1} b^{n_1} ... a^{m_p} b^{n_p}."""
    if len(windings_v) != len(windings_h):
        raise ValueError("need equally many vertical and horizontal windings")
    segments = []
    for m, n in zip(windings_v, windings_h):
        segments.append(Segment("V", "A", "A", m))
        segments.append(Segment("H", "A", "A", n))
    return Itinerary(tuple(segments))


def self_intersection(m: int, n: int) -> int:
    """Self-intersection count m*n + (m-1)*(n-1) of the (m, n) class."""
    if m < 1 or n < 1:
        raise ValueError("winding exponents must be >= 1")
    return m * n + (m - 1) * (n - 1)
