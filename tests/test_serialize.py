from fractions import Fraction as F

import pytest

from egb.eggbeater import enumerate_records, fixture_params, lambda_lattice, FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU
from egb.equivariant import cyclic_tuple_module
from egb.field import CyclotomicField, Matrix, QQ_FIELD, cyclo_zeta
from egb.persistence import Bar, Barcode, FilteredComplex, INF
from egb.serialize import (
    barcode_from_json,
    barcode_svg,
    barcode_to_json,
    barcode_to_obj,
    complex_from_obj,
    complex_to_obj,
    element_from_obj,
    element_to_obj,
    frac_str,
    module_from_obj,
    module_to_obj,
    parse_frac,
    record_to_obj,
    records_to_csv,
    zp_module_from_obj,
    zp_module_to_obj,
)

from conftest import rand_barcode, random_zp_module


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


class TestBarcodeJson:
    def test_roundtrip_random(self, rng):
        for _ in range(30):
            bc = rand_barcode(rng)
            assert barcode_from_json(barcode_to_json(bc)) == bc

    def test_degree_preserved(self):
        bc = Barcode.of([(Bar(0, 1), 2, 3), (Bar(0, INF), 1, None)])
        assert barcode_from_json(barcode_to_json(bc)) == bc

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
        lam = lambda_lattice(FIXTURE_L, FIXTURE_P2_MU, FIXTURE_P2_NU, 1)[0]
        records = enumerate_records(fixture_params(lam))
        text = records_to_csv([record_to_obj(r) for r in records])
        lines = text.strip().split("\n")
        assert len(lines) == 17  # header + 16
        assert lines[0].startswith("signs,")
        assert "." not in lines[1].split(",")[1]  # exact rationals, no floats


class TestSvg:
    def test_renders(self):
        bc = Barcode.of([(Bar(0, 4), 1, 0), (Bar(1, INF), 1, 1)])
        svg = barcode_svg(bc)
        assert svg.startswith("<svg")
        assert "dasharray" in svg  # infinite bar drawn dashed

    def test_empty(self):
        assert "empty barcode" in barcode_svg(Barcode.empty())
