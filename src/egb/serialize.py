"""Machine-readable interfaces: rational-string JSON, CSV tables, SVG bars.

Rationals are serialized as exact strings ("3/4", "-2", "inf"), never
floats, and read back by the one parser `parse_frac`.  Every JSON text is
`dumps`, json.dumps with indent 2 and sorted keys, except the egg-beater
records: their CSV rows and their JSON objects are hand-written templates,
filled from strings formatted once per record, since that is the hot path
of `egb eggbeater`; `write_records` streams them inside a frame that
`dumps` lays out.  The SVG drawing is the one place floats appear: each
coordinate is one correctly rounded division of exact integers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .eggbeater import FixedPointRecord
from .equivariant import EquivariantComplex, ZpPersistenceModule
from .field import (
    CyclotomicField,
    CyclotomicNumber,
    Field,
    Matrix,
    QQ_FIELD,
)
from .model import BoundsReport
from .persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    is_inf,
)


def _field(obj: dict, key: str, what: str):
    """obj[key] of a JSON object; a missing key names the field and the object."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing field {key!r} in {what}") from None


def frac_str(x) -> str:
    if type(x) is Fraction or type(x) is int:
        return str(x)
    if is_inf(x):
        return "inf"
    return str(Fraction(x))


def parse_frac(s: str, allow_inf: bool = False):
    """An exact rational of a JSON field or a command-line option, as an
    element of Q: an `int` when it is integral, else a `Fraction`; "inf"
    only when `allow_inf`.  Text that `Fraction` refuses, a zero
    denominator included, is a `bad rational`.  ASCII text "n" or "n/d" of
    decimal digits, n optionally signed "-", is read with `int`, without
    `Fraction`'s regex; every other spelling goes to `Fraction`."""
    if not isinstance(s, str):
        raise ValueError(f"rational {s!r} must be an exact string such as \"3/2\"")
    if allow_inf and s.strip() in ("inf", "+inf", "Infinity"):
        return INF
    try:
        n, slash, d = s.partition("/")
        if s.isascii() and n.removeprefix("-").isdigit() and (d.isdigit() or not slash):
            if not slash:
                return int(n)
            x = Fraction(int(n), int(d))
        else:
            x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {s!r}") from None
    return x.numerator if x.denominator == 1 else x


def parse_int(x, what: str) -> int:
    """An integer field of a JSON input: a JSON integer (an integral number
    such as 2.0 included) or a decimal integer string.  Booleans and
    non-integral numbers are rejected rather than truncated."""
    if type(x) is int:
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def parse_array(x, what: str, objects: bool = False) -> list:
    """A JSON array field, of JSON objects when ``objects``; a string is
    refused rather than read as its characters."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON array")
    if objects and not all(isinstance(item, dict) for item in x):
        raise ValueError(f"every entry of {what} must be a JSON object")
    return x


def dumps(obj) -> str:
    """The JSON text of every egb output: indent 2, sorted keys, ASCII."""
    return json.dumps(obj, indent=2, sort_keys=True)


# -- barcodes -------------------------------------------------------------------


def barcode_to_obj(barcode: Barcode) -> list[dict]:
    return [
        {
            "birth": frac_str(bar.birth),
            "death": frac_str(bar.death),
            "mult": mult,
            "degree": degree,
        }
        for bar, mult, degree in barcode.items
    ]


def barcode_from_obj(obj) -> Barcode:
    entries = []
    for item in parse_array(obj, "barcode JSON", objects=True):
        birth = parse_frac(_field(item, "birth", "bar"))
        death = parse_frac(_field(item, "death", "bar"), allow_inf=True)
        mult = parse_int(item.get("mult", 1), "mult")
        degree = item.get("degree")
        if degree is not None:
            degree = parse_int(degree, "degree")
        entries.append((Bar(birth, death), mult, degree))
    return Barcode(tuple(entries))


def barcode_to_json(barcode: Barcode) -> str:
    return dumps(barcode_to_obj(barcode))


# -- fields and matrices --------------------------------------------------------


def field_to_obj(field: Field):
    if isinstance(field, CyclotomicField):
        return {"cyclotomic": field.p}
    return "Q"


def field_from_obj(obj) -> Field:
    if obj == "Q" or obj is None:
        return QQ_FIELD
    if isinstance(obj, dict) and "cyclotomic" in obj:
        return CyclotomicField(parse_int(obj["cyclotomic"], "cyclotomic"))
    raise ValueError(f"unknown field spec {obj!r}")


def element_to_obj(x):
    if isinstance(x, CyclotomicNumber):
        if x.is_rational():
            return frac_str(x.rational_part())
        return [frac_str(c) for c in x.coords]
    return frac_str(x)


def element_from_obj(field: Field, obj):
    if isinstance(obj, list):
        if not isinstance(field, CyclotomicField):
            raise ValueError("coordinate-list element in a rational matrix")
        coords = [parse_frac(c) for c in obj]
        return CyclotomicNumber(field.p, tuple(coords))
    return field.coerce(parse_frac(obj))


def matrix_to_obj(m: Matrix) -> list[list]:
    return [[element_to_obj(x) for x in row] for row in m.entries]


def matrix_from_obj(field: Field, obj, rows: int, cols: int) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix JSON must be an array of row arrays")
    if len(obj) != rows or any(len(r) != cols for r in obj):
        raise ValueError(f"matrix JSON is not {rows}x{cols}")
    columns = tuple({} for _ in range(cols))
    for i, row in enumerate(obj):
        for col, x in zip(columns, row):  # "0", most entries, is skipped unparsed
            if x != "0" and (x := element_from_obj(field, x)):
                col[i] = x
    return Matrix(field, rows, cols, columns)  # the elements are already in `field`


# -- filtered complexes ---------------------------------------------------------


def complex_to_obj(cx: FilteredComplex) -> dict:
    return {
        "field": field_to_obj(cx.field),
        "generators": [
            {"action": frac_str(a), "degree": d} for a, d in cx.generators
        ],
        "boundary": matrix_to_obj(cx.boundary),
    }


def _require_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def _matrix_list(obj, count: int, what: str) -> list:
    """The JSON array of `count` matrices under the key `what`."""
    if not isinstance(obj, list) or len(obj) != count:
        raise ValueError(f"{what} must be an array of {count} matrices")
    return obj


def complex_from_obj(obj) -> FilteredComplex:
    field = field_from_obj(_require_object(obj, "complex").get("field"))
    gens = tuple(
        (parse_frac(_field(g, "action", "generator")),
         parse_int(_field(g, "degree", "generator"), "degree"))
        for g in parse_array(_field(obj, "generators", "complex"), "generators", objects=True)
    )
    n = len(gens)
    boundary = matrix_from_obj(field, _field(obj, "boundary", "complex"), n, n)
    return FilteredComplex(field, gens, boundary)


# -- persistence and Z_p modules --------------------------------------------------


def module_to_obj(module: FinitePersistenceModule) -> dict:
    return {
        "field": field_to_obj(module.field),
        "spectrum": [frac_str(s) for s in module.spectrum],
        "dims": list(module.dims),
        "transitions": [matrix_to_obj(t) for t in module.transitions],
    }


def module_from_obj(obj) -> FinitePersistenceModule:
    field = field_from_obj(_require_object(obj, "module").get("field"))
    spectrum = tuple(
        parse_frac(s) for s in parse_array(_field(obj, "spectrum", "module"), "spectrum")
    )
    dims = tuple(parse_int(d, "dims") for d in parse_array(_field(obj, "dims", "module"), "dims"))
    if any(d < 0 for d in dims):
        raise ValueError(f"dims must be nonnegative, got {list(dims)}")
    matrices = _matrix_list(
        _field(obj, "transitions", "module"), max(len(dims) - 1, 0), "transitions"
    )
    transitions = tuple(
        matrix_from_obj(field, t, dims[i + 1], dims[i]) for i, t in enumerate(matrices)
    )
    return FinitePersistenceModule(field, spectrum, dims, transitions)


def zp_module_from_obj(obj) -> ZpPersistenceModule:
    p = parse_int(_field(_require_object(obj, "module"), "p", "module"), "p")
    base_obj = dict(obj)
    base_obj.setdefault("field", {"cyclotomic": p})
    base = module_from_obj(base_obj)
    action = tuple(
        matrix_from_obj(base.field, a, base.dims[i], base.dims[i])
        for i, a in enumerate(
            _matrix_list(_field(obj, "action", "module"), len(base.dims), "action")
        )
    )
    return ZpPersistenceModule(p, base, action)


def equivariant_from_obj(obj) -> EquivariantComplex:
    """The `egb spread` input: {"p", "complex", "chain_map"}."""
    cx = complex_from_obj(_field(_require_object(obj, "spread input"), "complex", "spread input"))
    p = parse_int(_field(obj, "p", "spread input"), "p")
    n = len(cx.generators)
    chain_map = matrix_from_obj(cx.field, _field(obj, "chain_map", "spread input"), n, n)
    return EquivariantComplex(p, cx, chain_map)


def tuples_from_obj(obj) -> tuple[tuple[Fraction, int], ...]:
    """The (action, degree) tuples of a `bounds --file` input: {"tuples":
    [{"action", "degree"?}, ...]}, the degree 0 when left out."""
    items = parse_array(_field(_require_object(obj, "tuples file"), "tuples", "tuples file"),
                        "tuples", objects=True)
    if not items:
        raise ValueError("tuples file is empty")
    return tuple(
        (parse_frac(_field(t, "action", "tuple")), parse_int(t.get("degree", 0), "degree"))
        for t in items
    )


# -- fixed point records -----------------------------------------------------------


CSV_HEADER = "signs,x0,y0,action_exact,action_leading,det,valid,rejection_reason\n"


def _quoted(s: str | None) -> str:
    """JSON text of a formatted rational: `frac_str` yields only [-0-9/] or
    "inf", which need no escaping."""
    return "null" if s is None else f'"{s}"'


def _negated(s: str) -> str:
    """frac_str(-x), given s = frac_str(x) of a nonzero rational x: a stored
    point has no zero coordinate, since `_validate` rejects one."""
    return s[1:] if s[0] == "-" else "-" + s


def _ratio_str(n: int, d: int) -> str:
    """frac_str(Fraction(n, d)) for an integer n and a positive integer d."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _orbit_strs(r: FixedPointRecord) -> tuple[list[tuple[str, str]], str | None]:
    """frac_str of the even points' coordinates X / D and of the kink
    distance K / D, all over D = `r.den`.  A stored coordinate has
    0 < |X| < D, so its reduced denominator D / gcd(X, D) is never 1; its
    string is made once per distinct gcd."""
    d = r.den
    dens: dict[int, str] = {}  # gcd -> str(D / gcd)
    even = []
    for x, y in r.numerators:
        gx, gy = math.gcd(x, d), math.gcd(y, d)
        even.append((f"{x // gx}/{dens.get(gx) or dens.setdefault(gx, str(d // gx))}",
                     f"{y // gy}/{dens.get(gy) or dens.setdefault(gy, str(d // gy))}"))
    kink = r.kink_numerator
    if kink is None:
        return even, None
    g = math.gcd(kink, d)
    return even, f"{kink // g}/{dens.get(g) or str(d // g)}"


def _points_json(points) -> str:
    if not points:
        return "[]"
    inner = ",\n".join(
        f'        [\n          "{x}",\n          "{y}"\n        ]' for x, y in points
    )
    return f"[\n{inner}\n      ]"


def _record_texts(r: FixedPointRecord, label: str, det: str) -> tuple[str, str]:
    """The CSV row and the JSON object (indent 2, sorted keys, at depth 2) of
    one record.  Each coordinate is formatted once, from its numerator over
    the record's denominator: the start point and the odd points
    (-y_{2j+2}, x_{2j}) reuse the strings of the even points."""
    even, kink = _orbit_strs(r)
    p = len(even)
    odd = [(_negated(even[(j + 1) % p][1]), even[j][0]) for j in range(p)]
    x0, y0 = even[0] if even else (None, None)
    action = _ratio_str(*r.action_ratio) if r.action_ratio is not None else None
    leading = _ratio_str(*r.leading_ratio)
    valid = "true" if r.valid else "false"
    reason = r.reason
    reason_json = "null" if reason is None else encode_basestring_ascii(reason)
    csv_row = (
        f"{label},{x0 or ''},{y0 or ''},{action or ''},{leading},{det},{valid},"
        f"{(reason or '').replace(',', ';')}\n"
    )
    json_text = (
        "    {\n"
        f'      "action_exact": {_quoted(action)},\n'
        f'      "action_leading": "{leading}",\n'
        f'      "det": "{det}",\n'
        f'      "even_points": {_points_json(even)},\n'
        f'      "kink_distance": {_quoted(kink)},\n'
        f'      "odd_points": {_points_json(odd)},\n'
        f'      "rejection_reason": {reason_json},\n'
        f'      "signs": {encode_basestring_ascii(label)},\n'
        f'      "valid": {valid},\n'
        f'      "x0": {_quoted(x0)},\n'
        f'      "y0": {_quoted(y0)}\n'
        "    }"
    )
    return csv_row, json_text


def write_records(records, csv_out=None, json_out=None, header: dict | None = None,
                  det_values: bool = False) -> None:
    """Write the CSV table of `records` to `csv_out`, and to `json_out` the
    `dumps` text of the object `header` plus "records" (and "det_values",
    sign label -> det, when asked), without a trailing newline.  Either
    output may be None.

    Each record is formatted once, and its text is written as soon as it is
    made, between the two halves of the `dumps` text of the object with no
    records."""
    labels = [r.label() for r in records]
    dets = [_ratio_str(*r.det_ratio) for r in records]
    if csv_out is not None:
        csv_out.write(CSV_HEADER)
    if json_out is not None:
        frame = {**(header or {}), "records": []}
        if det_values:
            frame["det_values"] = dict(zip(labels, dets))
        head, _, tail = dumps(frame).partition('"records": []')
        json_out.write(head + '"records": [')
    sep = "\n"
    for r, label, det in zip(records, labels, dets):
        csv_row, json_text = _record_texts(r, label, det)
        if csv_out is not None:
            csv_out.write(csv_row)
        if json_out is not None:
            json_out.write(sep + json_text)
        sep = ",\n"
    if json_out is not None:
        json_out.write(("\n  ]" if records else "]") + tail)


def bounds_report_to_obj(report: BoundsReport, provenance: dict | None = None) -> dict:
    obj = {
        "p": report.p,
        "k": report.k,
        "lambda": frac_str(report.lam) if report.lam is not None else None,
        "mu_p_model": frac_str(report.mu_p_model),
        "mu_p_model_note": "zero-differential model value; actual Floer bars are finite",
        "mu_p_paper_bound": frac_str(report.mu_p_paper_bound),
        "pow_bound": frac_str(report.pow_bound),
        "aut_bound": frac_str(report.aut_bound),
        "gap": frac_str(report.gap),
    }
    if provenance is not None:
        obj["provenance"] = provenance
    return obj


# -- SVG ----------------------------------------------------------------------------


def barcode_svg(barcode: Barcode) -> str:
    """Bars as horizontal segments ordered by birth; infinite bars run to the
    right margin and are drawn dashed."""
    width, row_height = 640, 14
    bars = barcode.expand()  # already birth-sorted by canonical order
    if not bars:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="20">'
            "<text x='4' y='14' font-size='10'>empty barcode</text></svg>"
        )
    # lo = ln/ld, the first birth, and span = sn/sd, the exact width (1 when 0)
    ln, ld = bars[0][0].birth.as_integer_ratio()
    hn, hd = max([b.death for b, _ in bars if b.finite] + [bars[-1][0].birth]).as_integer_ratio()
    sn, sd = hn * ld - ln * hd, hd * ld
    if not sn:
        sn = sd = 1
    margin = 40

    def sx(v: Fraction) -> float:
        """margin + (v - lo) (width - 2 margin) / span, rounded once."""
        vn, vd = v.as_integer_ratio()
        den = vd * ld * sn
        return (margin * den + (width - 2 * margin) * sd * (vn * ld - ln * vd)) / den

    height = row_height * (len(bars) + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for i, (bar, degree) in enumerate(bars):
        y = row_height * (i + 1) - row_height / 2
        x1 = sx(bar.birth)
        if bar.finite:
            x2 = sx(bar.death)
            dash = ""
        else:
            x2 = width - margin / 2
            dash = ' stroke-dasharray="6 3"'
        label = str(bar) if degree is None else f"{bar} deg {degree}"
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y:.2f}" x2="{x2:.2f}" y2="{y:.2f}" '
            f'stroke="black" stroke-width="3"{dash}/>'
        )
        parts.append(
            f'<text x="{x2 + 4:.2f}" y="{y + 3:.2f}" font-size="9">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
