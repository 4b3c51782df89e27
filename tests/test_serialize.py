import io
import json
from fractions import Fraction as F

import pytest

from egb.eggbeater import (
    FIXTURE_L,
    FIXTURE_P2_MU,
    FIXTURE_P2_NU,
    _enumerate_core,
    enumerate_records,
    fixture_params,
    lambda_lattice,
)
from egb.equivariant import cyclic_tuple_module
from egb.field import CyclotomicField, Matrix, QQ_FIELD, cyclo_zeta
from egb.persistence import Bar, Barcode, FilteredComplex, INF
from egb.serialize import (
    barcode_from_obj,
    barcode_svg,
    barcode_to_json,
    barcode_to_obj,
    complex_from_obj,
    complex_to_obj,
    element_from_obj,
    element_to_obj,
    equivariant_from_obj,
    frac_str,
    matrix_from_obj,
    module_from_obj,
    module_to_obj,
    parse_frac,
    tuples_from_obj,
    write_records,
    zp_module_from_obj,
)

from conftest import (
    rand_barcode, random_zp_module, record_to_obj, records_to_csv, zp_module_to_obj,
)


class TestRationalStrings:
    def test_canonical_forms(self):
        assert frac_str(F(3, 4)) == "3/4"
        assert frac_str(F(-2)) == "-2"
        assert frac_str(INF) == "inf"

    def test_parse(self):
        assert parse_frac("3/4") == F(3, 4)
        assert parse_frac("-2") == F(-2)
        assert parse_frac("inf", allow_inf=True) == INF
        with pytest.raises(ValueError):
            parse_frac("inf")

    @pytest.mark.parametrize("text", ["x", "1/0", "inf", " 1/0 ", ""])
    def test_refused_text_is_a_bad_rational(self, text):
        with pytest.raises(ValueError) as e:
            parse_frac(text)
        assert str(e.value) == f"bad rational {text!r}"


class TestMatrixJson:
    @pytest.mark.parametrize("obj, rows, cols", [([], 0, 3), ([[], []], 2, 0), ([], 0, 0)])
    def test_empty_shapes_kept(self, obj, rows, cols):
        m = matrix_from_obj(QQ_FIELD, obj, rows, cols)
        assert (m.rows, m.cols) == (rows, cols)
        assert m == Matrix.zeros(QQ_FIELD, rows, cols)

    def test_entries_are_field_elements(self):
        field = CyclotomicField(3)
        m = matrix_from_obj(field, [["1/2", ["0", "1"]]], 1, 2)
        assert m == Matrix.from_rows(field, [[F(1, 2), cyclo_zeta(3)]])


class TestInputFormats:
    def test_tuples(self):
        obj = {"tuples": [{"action": "1/2", "degree": 1}, {"action": "0"}]}
        assert tuples_from_obj(obj) == ((F(1, 2), 1), (F(0), 0))

    @pytest.mark.parametrize("obj, message", [
        ({"tuples": []}, "tuples file is empty"),
        ({}, "missing field 'tuples' in tuples file"),
        ([], "tuples file must be a JSON object"),
        ({"tuples": [{"action": "1/0"}]}, "bad rational '1/0'"),
    ])
    def test_tuples_refused(self, obj, message):
        with pytest.raises(ValueError) as e:
            tuples_from_obj(obj)
        assert str(e.value) == message

    def test_equivariant_complex(self):
        cx = FilteredComplex(QQ_FIELD, ((F(0), 0), (F(0), 0)), Matrix.zeros(QQ_FIELD, 2, 2))
        eq = equivariant_from_obj(
            {"p": 2, "complex": complex_to_obj(cx), "chain_map": [["0", "1"], ["1", "0"]]})
        assert (eq.p, eq.complex) == (2, cx)
        assert eq.chain_map == Matrix.from_rows(QQ_FIELD, [[0, 1], [1, 0]])


class TestBarcodeJson:
    def test_roundtrip_random(self, rng):
        for _ in range(30):
            bc = rand_barcode(rng)
            assert barcode_from_obj(json.loads(barcode_to_json(bc))) == bc

    def test_degree_preserved(self):
        bc = Barcode.of([(Bar(0, 1), 2, 3), (Bar(0, INF), 1, None)])
        assert barcode_from_obj(json.loads(barcode_to_json(bc))) == bc

    def test_no_floats_in_output(self):
        bc = Barcode.of([(Bar(F(1, 3), INF), 1)])
        obj = barcode_to_obj(bc)
        assert obj[0]["birth"] == "1/3"
        assert obj[0]["death"] == "inf"


class TestElementJson:
    def test_cyclotomic_roundtrip(self):
        field = CyclotomicField(5)
        x = cyclo_zeta(5) + cyclo_zeta(5, 3)
        obj = element_to_obj(x)
        assert isinstance(obj, list)
        assert element_from_obj(field, obj) == x

    def test_rational_element_compact(self):
        field = CyclotomicField(3)
        x = field.coerce(F(2, 3))
        assert element_to_obj(x) == "2/3"
        assert element_from_obj(field, "2/3") == x

    @pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(2), CyclotomicField(5)],
                             ids=repr)
    def test_zero_string_is_the_field_zero(self, field):
        zero = element_from_obj(field, "0")
        assert zero == field.zero() and type(zero) is type(field.zero())
        for text in ("-0", "0/7", "00"):
            assert element_from_obj(field, text) == field.coerce(parse_frac(text)) == zero

    @pytest.mark.parametrize("field", [QQ_FIELD, CyclotomicField(3)], ids=repr)
    def test_json_number_zero_is_refused(self, field):
        with pytest.raises(ValueError) as e:
            element_from_obj(field, 0)
        assert str(e.value) == 'rational 0 must be an exact string such as "3/2"'


class TestComplexJson:
    def test_roundtrip(self):
        cx = FilteredComplex(
            QQ_FIELD, ((F(5), 1), (F(2), 0)),
            Matrix.from_rows(QQ_FIELD, [[0, 0], [1, 0]]),
        )
        again = complex_from_obj(complex_to_obj(cx))
        assert again == cx


class TestModuleJson:
    def test_zp_roundtrip(self, rng):
        for p in (2, 3):
            m = random_zp_module(rng, p, max_blocks=2)
            again = zp_module_from_obj(zp_module_to_obj(m))
            assert again == m

    def test_plain_module_roundtrip(self):
        m = cyclic_tuple_module(F(1), 2, death=F(4)).base
        assert module_from_obj(module_to_obj(m)) == m


class TestCsv:
    def test_sixteen_rows(self):
        lam = next(iter(lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)))
        records = enumerate_records(fixture_params(lam))
        text = io.StringIO()
        write_records(records, csv_out=text)
        lines = text.getvalue().strip().split("\n")
        assert len(lines) == 17  # header + 16
        assert lines[0].startswith("signs,")
        assert "." not in lines[1].split(",")[1]  # exact rationals, no floats


class TestRecordWriter:
    """`write_records` against the oracle: `json.dumps(indent=2,
    sort_keys=True)` of the record dicts plus the oracle CSV, byte for byte."""

    MU = (F(1, 3), F(1, 7), F(1, 13), F(1, 19), F(1, 29))
    NU = (F(1, 2), F(1, 5), F(1, 11), F(1, 17), F(1, 23))
    REASONS = ('a "quoted" reason', "back\\slash, and comma", "tab\there", "\u00e9chec \u2260 ok")

    @staticmethod
    def expected(records, header):
        objs = [record_to_obj(r) for r in records]
        obj = {**header, "det_values": {o["signs"]: o["det"] for o in objs}, "records": objs}
        return records_to_csv(objs), json.dumps(obj, indent=2, sort_keys=True)

    @staticmethod
    def written(records, header):
        csv_out, json_out = io.StringIO(), io.StringIO()
        write_records(records, csv_out, json_out, header, det_values=True)
        return csv_out.getvalue(), json_out.getvalue()

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_bytes_equal_the_oracle(self, rng, p):
        mu, nu = self.MU[:p], self.NU[:p]
        lam = next(iter(lambda_lattice(FIXTURE_L, mu, nu, 1)))
        records = _enumerate_core(p, lam, mu, nu)
        # rejected records the way a forced rejection builds them, with
        # reasons that JSON must escape and the CSV must keep comma-free
        for i, reason in enumerate(self.REASONS):
            r = records[i]
            records[i] = type(r)(r.signs, False, reason, (), 1, None, r.leading_ratio, r.det_ratio,
                                 None)
        records += _enumerate_core(p, F(3, 2), mu, nu)[:8]  # rejected by the solver
        rng.shuffle(records)  # det_values is in label order, the records are not
        header = {
            "p": p, "L": "4", "lambda": frac_str(lam),
            "mu": [frac_str(v) for v in mu], "nu": [frac_str(v) for v in nu],
            "valid_count": sum(r.valid for r in records), "windings_m": list(range(p)),
        }
        if p > 1:  # p = 1 never rejects
            assert any(not r.valid and r.reason not in self.REASONS for r in records)
        assert self.written(records, header) == self.expected(records, header)

    def test_no_records(self):
        assert self.written([], {"p": 2}) == self.expected([], {"p": 2})


class TestSvg:
    def test_renders(self):
        bc = Barcode.of([(Bar(0, 4), 1, 0), (Bar(1, INF), 1, 1)])
        svg = barcode_svg(bc)
        assert svg.startswith("<svg")
        assert "dasharray" in svg  # infinite bar drawn dashed

    def test_empty(self):
        assert "empty barcode" in barcode_svg(Barcode.empty())
