import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import egb
from egb import equivariant, serialize
from egb.cli import build_parser, main
from egb.eggbeater import param_search, validation_threshold
from egb.field import CyclotomicField, Matrix, QQ_FIELD, cyclo_zeta
from egb.persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    barcode_of_module,
)
from egb.serialize import (
    barcode_from_obj, barcode_to_json, barcode_to_obj, complex_to_obj, frac_str, matrix_to_obj,
)
from egb.equivariant import (
    ZpPersistenceModule,
    cyclic_tuple_module,
    full_power_check,
    mu_from_barcode,
    mu_p,
    w_hat,
)

from conftest import count_calls, random_zp_module, zp_direct_sum, zp_module_to_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(*argv, timeout=None):
    """Run egb in a fresh interpreter, so an escaping exception shows as a traceback."""
    src = str(Path(egb.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "egb.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


def assert_clean_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def mixed_p3_module() -> ZpPersistenceModule:
    """A cyclic block plus two zeta^2-scalar blocks, all on (0, 10], in a
    basis that mixes the summands: the zeta-eigenspace barcode is one bar
    (verdict FAIL, mu 5/2), the zeta^2 one three (verdict PASS, mu 0)."""
    field = CyclotomicField(3)
    scalar = ZpPersistenceModule(
        3,
        FinitePersistenceModule(
            field, (F(0), F(10)), (0, 2, 0),
            (Matrix.zeros(field, 2, 0), Matrix.zeros(field, 0, 2)),
        ),
        (Matrix.zeros(field, 0, 0), Matrix.identity(field, 2).scale(cyclo_zeta(3, 2)),
         Matrix.zeros(field, 0, 0)),
    )
    plain = zp_direct_sum(cyclic_tuple_module(F(0), 3, death=F(10)), scalar)
    # unipotent upper-triangular change of basis on every constancy interval
    change = [
        Matrix.from_rows(field, [[1 if c >= r else 0 for c in range(n)] for r in range(n)])
        for n in plain.base.dims
    ]
    back = [c.inverse() for c in change]
    transitions = tuple(
        change[i + 1] @ t @ back[i] for i, t in enumerate(plain.base.transitions)
    )
    action = tuple(change[i] @ a @ back[i] for i, a in enumerate(plain.action))
    base = FinitePersistenceModule(field, plain.base.spectrum, plain.base.dims, transitions)
    return ZpPersistenceModule(3, base, action)


class TestFreegroupCommands:
    def test_si(self, capsys):
        code, out, _ = run(capsys, "freegroup", "si", "2", "3")
        assert code == 0
        assert out.strip() == "8"

    def test_conjugate_true(self, capsys):
        code, out, _ = run(capsys, "freegroup", "conjugate", "a^2 b", "b a^2")
        assert code == 0
        assert out.strip() == "true"

    def test_conjugate_false(self, capsys):
        code, out, _ = run(capsys, "freegroup", "conjugate", "a^2 b", "a b^2")
        assert code == 0
        assert out.strip() == "false"

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "freegroup", "reduce", "a b b^-1")
        assert code == 0
        assert out.strip() == "a"

    def test_itinerary(self, capsys):
        code, out, _ = run(capsys, "freegroup", "itinerary", "V:A-A:3 H:A-A:2")
        assert code == 0
        assert out.strip() == "a^3 b^2"

    def test_bad_input_exits_one(self, capsys):
        code, _, err = run(capsys, "freegroup", "si", "0", "3")
        assert code == 1

    def test_itinerary_bad_winding_names_segment(self):
        proc = run_subprocess("freegroup", "itinerary", "V:A-A:3 V:A-A:x")
        assert_clean_error(proc)
        assert proc.stderr == (
            "error: bad winding 'x' in segment 'V:A-A:x'; expected an integer\n")

    @pytest.mark.parametrize("argv, what, count", [
        (("reduce", "a^99999999999999"), "word", 99999999999999),
        (("reduce", "a^9223372036854775808"), "word", 9223372036854775808),
        (("itinerary", "V:A-A:99999999999999"), "itinerary", 99999999999999),
        (("reduce", "a^100000000000"), "word", 100000000000),
        (("itinerary", "V:A-A:100000000000"), "itinerary", 100000000000),
    ])
    def test_huge_exponent_exits_one(self, argv, what, count):
        """A word or itinerary of more than `MAX_LETTERS` letters fails at
        once, before allocating, and ends in one error line."""
        proc = run_subprocess("freegroup", *argv, timeout=20)
        assert_clean_error(proc)
        assert (proc.stdout, proc.stderr) == (
            "", f"error: {what} expands to at least {count} letters, over the limit of 10000000\n")


class TestOperandCounts:
    """A wrong number of positional arguments, a non-integer `si`
    argument, or an option that only another subcommand or mode reads exits
    1 with an error naming the subcommand and what it expects, or the
    option; no input file is read first."""

    @pytest.mark.parametrize("argv, message", [
        (("freegroup", "conjugate", "a"),
         "freegroup conjugate expects 2 arguments WORD1 WORD2, got 1"),
        (("freegroup", "si", "1"), "freegroup si expects 2 arguments M N, got 1"),
        (("freegroup", "si", "a", "2"), "freegroup si expects integers M N, got 'a 2'"),
        (("freegroup", "si", "2", "3", "4"), "freegroup si expects 2 arguments M N, got 3"),
        (("freegroup", "reduce", "a", "b"), "freegroup reduce expects 1 argument WORD, got 2"),
        (("freegroup", "itinerary", "X", "Y"),
         "freegroup itinerary expects 1 argument ITINERARY, got 2"),
        (("barcode", "decompose", "f", "g"),
         "barcode decompose expects 1 argument COMPLEX.json, got 2"),
        (("barcode", "mu", "f", "g"), "barcode mu expects 1 argument MODULE.json, got 2"),
        (("barcode", "bottleneck", "f"),
         "barcode bottleneck expects 2 arguments BARCODE1.json BARCODE2.json, got 1"),
    ])
    def test_bad_count_exits_one(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("freegroup", "si", "2", "3", "--cyclic"), "--cyclic applies only to freegroup reduce"),
        (("freegroup", "conjugate", "a", "a", "--cyclic"),
         "--cyclic applies only to freegroup reduce"),
        (("freegroup", "itinerary", "V:A-A:3", "--cyclic"),
         "--cyclic applies only to freegroup reduce"),
        (("barcode", "bottleneck", "f", "g", "--zeta-index", "7"),
         "--zeta-index applies only to barcode mu"),
        (("barcode", "decompose", "f", "--zeta-index", "0"),
         "--zeta-index applies only to barcode mu"),
        (("eggbeater", "--fixture", "--mu", "1/3,1/5", "--lambda", "840"),
         "--mu applies only without --fixture"),
        (("eggbeater", "--fixture", "--nu", "1/3,1/7"), "--nu applies only without --fixture"),
        (("eggbeater", "--fixture", "--mu", "1/2,1/5", "--nu", "1/3,1/7", "--lambda", "840"),
         "--mu applies only without --fixture"),
        (("bounds", "--file", "t.json", "--lambda", "840"), "--lambda applies only without --file"),
        (("eggbeater", "--lambda", "840", "--count", "5"), "--count applies only to --lambda auto"),
    ])
    def test_option_of_another_subcommand_exits_one(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_degree_option_is_gone(self, capsys):
        code, out, err = run(capsys, "eggbeater", "--degree", "0")
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            "egb: error: unrecognized arguments: --degree 0"]

    def test_owned_options_still_work(self, capsys):
        assert run(capsys, "freegroup", "reduce", "b a c b^-1", "--cyclic") == (0, "a c\n", "")


class TestBarcodeCommands:
    def test_bottleneck_identical_files(self, tmp_path, capsys):
        bc = Barcode.of([(Bar(0, 4), 1), (Bar(1, 3), 2)])
        f = tmp_path / "b.json"
        f.write_text(barcode_to_json(bc))
        code, out, _ = run(capsys, "barcode", "bottleneck", str(f), str(f))
        assert code == 0
        assert json.loads(out)["bottleneck"] == "0"

    def test_bottleneck_with_an_augmenting_path_of_1100_bars(self, tmp_path, capsys):
        """B_i = (i/2n, 1001 + 2i] for i < n - 1, B_(n-1) = ((n-1)/2n, 999] and
        C_j = (j/2n, 1000 + 2j]: every pair costs at least 1, and at 1 the one
        perfect matching pairs B_(n-1) with C_0 and B_i with C_(i+1), which
        the search reaches by an augmenting path through all n bars."""
        n = 1100
        b = [{"birth": f"{i}/{2 * n}", "death": str(1001 + 2 * i)} for i in range(n - 1)]
        b.append({"birth": f"{n - 1}/{2 * n}", "death": "999"})
        c = [{"birth": f"{j}/{2 * n}", "death": str(1000 + 2 * j)} for j in range(n)]
        paths = [tmp_path / "b.json", tmp_path / "c.json"]
        for path, bars in zip(paths, (b, c)):
            path.write_text(json.dumps(bars))
        assert run(capsys, "barcode", "bottleneck", *map(str, paths)) == (
            0, '{\n  "bottleneck": "1"\n}\n', "")

    def test_decompose_zero_boundary(self, tmp_path, capsys):
        cx = FilteredComplex(
            QQ_FIELD, ((F(1), 0), (F(3), 1)), Matrix.zeros(QQ_FIELD, 2, 2)
        )
        f = tmp_path / "cx.json"
        f.write_text(json.dumps(complex_to_obj(cx)))
        code, out, _ = run(capsys, "barcode", "decompose", str(f))
        assert code == 0
        bars = json.loads(out)
        assert all(b["death"] == "inf" for b in bars)
        assert len(bars) == 2

    def test_mu_of_single_tuple(self, tmp_path, capsys):
        m = cyclic_tuple_module(F(0), 2, death=F(10))
        f = tmp_path / "m.json"
        f.write_text(json.dumps(zp_module_to_obj(m)))
        code, out, _ = run(capsys, "barcode", "mu", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["mu_p"] == "5/2"
        assert report["mu_p_zeta"] == "5/2"
        assert report["verdict"] == "FAIL"
        assert report["w_hat"] == "10"
        assert report["zeta_index"] == 1
        assert report["barcode"] == [
            {"birth": "0", "death": "10", "degree": None, "mult": 1}
        ]

    def test_schema_violation_exits_one(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"not": "a barcode"}')
        code, _, err = run(capsys, "barcode", "bottleneck", str(f), str(f))
        assert code == 1

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "barcode", "decompose", "/nonexistent.json")
        assert code == 1

    def test_numeric_birth_exits_one_without_traceback(self, tmp_path):
        f = tmp_path / "b.json"
        f.write_text(json.dumps([{"birth": 1, "death": "2"}]))
        assert_clean_error(run_subprocess("barcode", "bottleneck", str(f), str(f)))

    def test_mu_at_second_root_of_p3(self, tmp_path, capsys):
        m = mixed_p3_module()
        f = tmp_path / "m.json"
        f.write_text(json.dumps(zp_module_to_obj(m)))
        code, out, _ = run(capsys, "barcode", "mu", str(f), "--zeta-index", "2")
        assert code == 0
        report = json.loads(out)
        zeta2 = cyclo_zeta(3, 2)
        barcode = barcode_of_module(m.parts[2])
        # the two roots must differ, or a wrong root index would go unseen
        other = barcode_of_module(m.parts[1])
        assert barcode != other
        assert mu_from_barcode(barcode, 3) != mu_from_barcode(other, 3) == mu_p(m)
        assert full_power_check(m, zeta2) != full_power_check(m, cyclo_zeta(3, 1))
        assert report == {
            "zeta_index": 2,
            "barcode": barcode_to_obj(barcode),
            "mu_p_zeta": frac_str(mu_from_barcode(barcode, 3)),
            "mu_p": frac_str(mu_p(m)),
            "w_hat": frac_str(w_hat(m)),
            "verdict": full_power_check(m, zeta2),
        }

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mu_builds_one_eigenspace_per_root(self, tmp_path, capsys, monkeypatch, p):
        """The module is decomposed once, when it is parsed: one sparse
        column reduction (`_null_vectors`) per root and interval, and no
        `Matrix` elimination, product or power.  The report reads the stored parts
        and reduces nothing more."""
        m = cyclic_tuple_module(F(0), p, death=F(10))
        f = tmp_path / "m.json"
        f.write_text(json.dumps(zp_module_to_obj(m)))
        reductions = count_calls(monkeypatch, equivariant, "_null_vectors")
        dense = [count_calls(monkeypatch, Matrix, name) for name in (
            "kernel_basis", "__matmul__", "solve", "solve_matrix", "matpow", "from_columns")]
        parse, at_parse = serialize.zp_module_from_obj, []

        def counting(obj):
            module = parse(obj)
            at_parse.append(len(reductions))
            return module

        monkeypatch.setattr(serialize, "zp_module_from_obj", counting)
        code, _, _ = run(capsys, "barcode", "mu", str(f), "--zeta-index", str(p - 1))
        assert code == 0
        assert at_parse == [p * len(m.base.dims)] == [len(reductions)]
        assert [len(calls) for calls in dense] == [0] * 6


def killed_swap_obj() -> dict:
    """`egb spread` input: a swapped pair at action 0 killed at action 7 by
    an antisymmetric generator, so w_spread is 7."""
    cx = FilteredComplex(
        QQ_FIELD,
        ((F(0), 0), (F(0), 0), (F(7), 1)),
        Matrix.from_rows(QQ_FIELD, [[0, 0, 1], [0, 0, -1], [0, 0, 0]]),
    )
    return {
        "p": 2,
        "complex": complex_to_obj(cx),
        "chain_map": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]],
    }


def degenerate_swap_obj() -> dict:
    """`egb spread` input: a swapped pair with zero boundary, so w_spread is
    +inf and the report adds the gap bound."""
    cx = FilteredComplex(
        QQ_FIELD, ((F(0), 0), (F(0), 0)), Matrix.zeros(QQ_FIELD, 2, 2)
    )
    return {
        "p": 2,
        "complex": complex_to_obj(cx),
        "chain_map": [["0", "1"], ["1", "0"]],
    }


def zeta3_obj() -> dict:
    """`egb spread` input over Q(zeta_3), in a basis that mixes each
    (action, degree) class: a 3-cycle at action 1 whose zeta- and
    zeta^2-parts a 3-cycle at action 4 kills through zeta (I - P), and a
    zeta^2-scalar generator at action 0 killed at action 2."""
    field = CyclotomicField(3)
    z1, z2 = cyclo_zeta(3, 1), cyclo_zeta(3, 2)
    gens = ((F(1), 0),) * 3 + ((F(4), 1),) * 3 + ((F(0), 0), (F(2), 1))
    bnd, chain = [[0] * 8 for _ in range(8)], [[0] * 8 for _ in range(8)]
    for j in range(3):
        for e in (0, 3):
            chain[e + (j + 1) % 3][e + j] = 1
        bnd[j][3 + j], bnd[(j + 1) % 3][3 + j] = z1, -z1
    chain[6][6] = chain[7][7] = z2
    bnd[6][7] = z1
    ent = [[1 if r == c else 0 for c in range(8)] for r in range(8)]
    ent[0][1], ent[1][2], ent[3][5] = 1, z2, F(-1, 2)
    change = Matrix.from_rows(field, ent)
    back = change.inverse()
    cx = FilteredComplex(field, gens, change @ Matrix.from_rows(field, bnd) @ back)
    return {
        "p": 3,
        "complex": complex_to_obj(cx),
        "chain_map": matrix_to_obj(change @ Matrix.from_rows(field, chain) @ back),
    }


class TestSpreadCommand:
    def test_degenerate_labelled(self, tmp_path, capsys):
        f = tmp_path / "eq.json"
        f.write_text(json.dumps(degenerate_swap_obj()))
        code, out, _ = run(capsys, "spread", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["w_spread"] == "inf"
        assert "model-degenerate" in report["note"]

    def test_finite_spread(self, tmp_path, capsys):
        f = tmp_path / "eq.json"
        f.write_text(json.dumps(killed_swap_obj()))
        code, out, _ = run(capsys, "spread", str(f))
        assert code == 0
        assert json.loads(out)["w_spread"] == "7"

    def test_k_left_out_means_p(self, tmp_path, capsys):
        f = tmp_path / "eq.json"
        f.write_text(json.dumps(killed_swap_obj()))
        for k in ([], ["--k", "2"], ["--k", "4"]):
            code, out, _ = run(capsys, "spread", str(f), *k)
            assert code == 0
            assert json.loads(out)["w_spread"] == "7"
        code, _, err = run(capsys, "spread", str(f), "--k", "3")
        assert code == 1
        assert "T^3" in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_exits_one(self, tmp_path, k):
        f = tmp_path / "eq.json"
        f.write_text(json.dumps(killed_swap_obj()))
        proc = run_subprocess("spread", str(f), "--k", k)
        assert_clean_error(proc)
        assert proc.stderr == "error: k must be >= 1\n"


def zero_boundary_obj() -> dict:
    """`egb spread` input: two fixed generators in degrees 0 and 1 with zero
    boundary, the complex of `test_decompose_zero_boundary`."""
    cx = FilteredComplex(QQ_FIELD, ((F(1), 0), (F(3), 1)), Matrix.zeros(QQ_FIELD, 2, 2))
    return {"p": 2, "complex": complex_to_obj(cx), "chain_map": [["1", "0"], ["0", "1"]]}


class TestComplexOutputBytes:
    """sha256 of stdout of `egb spread` and of `egb barcode decompose` on
    each fixture (the complex of the spread input), pinned before the
    complexes kept their maps as sparse columns."""

    FIXTURES = {"killed-swap": killed_swap_obj, "degenerate-swap": degenerate_swap_obj,
                "zeta3-mixed": zeta3_obj, "zero-boundary": zero_boundary_obj}

    @pytest.mark.parametrize("fixture, digest", [
        ("killed-swap", "ed81a689552a1ada43ac5613fcf693654c287931708440ffaee5f9e76ab724e3"),
        ("degenerate-swap", "241046df6a7588beb8b662a70bbcd755d255d4d1e5b9505253670ed618ab6b1d"),
        ("zeta3-mixed", "eb4757a6ab323f678fa36558a26e6b2c511633e086d9df7e49e64a3e0604d4df"),
        ("zero-boundary", "5bd3df132af7711718544c242a3660677141b166b97ea231a5d6c3f62c1f5578"),
    ])
    def test_spread(self, tmp_path, capsys, fixture, digest):
        f = tmp_path / "eq.json"
        f.write_text(json.dumps(self.FIXTURES[fixture]()))
        code, out, err = run(capsys, "spread", str(f))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fixture, digest", [
        ("killed-swap", "9868f46a120dc96f9ffc18a8465abd16f112f27a6be6e17754f121e52e510948"),
        ("degenerate-swap", "86495faf022b692f1984e17894d8016be2b023109ca91cc53c4db027dcfef22a"),
        ("zeta3-mixed", "be2257691e90b792c4194c4be71aee92784c850be73d432f891cc68554442272"),
        ("zero-boundary", "d0947bad392d4865bde4b4078e1874059b3ca6ccdd564294eb9c6af67286147f"),
    ])
    def test_decompose(self, tmp_path, capsys, fixture, digest):
        f = tmp_path / "cx.json"
        f.write_text(json.dumps(self.FIXTURES[fixture]()["complex"]))
        code, out, err = run(capsys, "barcode", "decompose", str(f))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBarcodeMuOutputBytes:
    """sha256 of stdout of `egb barcode mu` at every zeta index, on random
    conjugated Z_p modules drawn from a fixed seed (only finite bars, or
    rays allowed), pinned before the parts were read off the kernels' free
    columns."""

    @pytest.mark.parametrize("p, rays, k, digest", [
        (2, False, 1, "63f24aa4cd76d48a57ab9d287e4a9fcecd2d2d3152ff759c5461fd9d0f4ad59a"),
        (2, True, 1, "40b35829d4ab70f352e61b3999fef9cf92d5b6313644574821ad94337e3ac127"),
        (3, False, 1, "9e1e9576fda35ea423c810566f88132426a159a57c9746ab1418e4960c141567"),
        (3, False, 2, "3fe6eb2fb03d6f0bf225ab275815fdd6115c9eb6be0586501a3e9b9ec651c886"),
        (3, True, 1, "61104695883c82f5b3bd11a5df873c8c2de3380bbc8bd8bcd0a066bc4d10f312"),
        (3, True, 2, "6d4aa86a97cab178e124e1975b470263f3e373170de6d99f0fa326358ab1934e"),
        (5, False, 1, "71206b00ddeab4dcfa1a3b36784ef7e9ceaead3cbba0628cc8b725914cb1b92c"),
        (5, False, 2, "605eb49ca03f733a956db862faeeb0c4fb2e2e01977569857e640b6fc3941764"),
        (5, False, 3, "af888d4e8dc1f46ebdc393656ac7023a320932a010537bb07c1a0cad95906007"),
        (5, False, 4, "2498fc49596dd7558c13917a931314d3adab05b7577d3e72a29dc216658a7fb5"),
        (5, True, 1, "9a1336e3360e1507cdfbb34010073f2222ea248ad27d8c6d7e81111d56d26a1a"),
        (5, True, 2, "b9128dd0251712091afde28d050032e371f9fcab2dd7accb65b47d99934f814a"),
        (5, True, 3, "793d50fa5950dbdb1ef1d8da66a5e98de342dd88e0336f778b51c56cc965c051"),
        (5, True, 4, "93141370f206a4a5ed3105a2715f56054b68404a1fab53bce4c05199eab3198d"),
    ])
    def test_mu(self, tmp_path, capsys, p, rays, k, digest):
        m = random_zp_module(random.Random(2500 + p), p, max_blocks=5, allow_infinite=rays)
        f = tmp_path / "m.json"
        f.write_text(json.dumps(zp_module_to_obj(m)))
        code, out, err = run(capsys, "barcode", "mu", str(f), "--zeta-index", str(k))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEggbeater2d:
    def test_run(self, capsys):
        code, out, _ = run(
            capsys, "eggbeater-2d", "--mu", "1/2", "--nu", "1/4", "--lambda", "160"
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["records"]) == 4

    def test_mu_equals_nu_exits_one(self, capsys):
        code, _, err = run(
            capsys, "eggbeater-2d", "--mu", "1/2", "--nu", "1/2", "--lambda", "160"
        )
        assert code == 1


class TestEggbeaterCommand:
    def test_fixture_csv(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "eggbeater", "--fixture", "--lambda", "840",
            "--out", str(tmp_path),
        )
        assert code == 0
        csv_text = (tmp_path / "eggbeater_lam_840_1.csv").read_text()
        assert len(csv_text.strip().split("\n")) == 17
        diag = json.loads((tmp_path / "eggbeater_lam_840_1.json").read_text())
        assert diag["valid_count"] == 16

    def test_auto_lattice_runs(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "eggbeater", "--fixture", "--lambda", "auto", "--count", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "eggbeater_lam_840_1.csv").exists()
        assert (tmp_path / "eggbeater_lam_1680_1.csv").exists()

    def test_malformed_input_exits_one(self, capsys):
        code, _, err = run(capsys, "eggbeater", "--p", "2", "--mu", "1/2", "--nu", "1/3,1/7")
        assert code == 1

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_one(self, count):
        proc = run_subprocess("eggbeater", "--fixture", "--lambda", "auto", "--count", count)
        assert_clean_error(proc)
        assert proc.stdout == ""
        assert proc.stderr == "error: count must be >= 1\n"

    def test_off_lattice_exits_one(self, capsys):
        code, _, err = run(capsys, "eggbeater", "--fixture", "--lambda", "841")
        assert code == 1

    def test_partial_validation_exits_two(self, tmp_path, capsys, monkeypatch):
        import egb.cli as cli_mod

        real = cli_mod.eb.enumerate_records

        def drop_one(params):
            records = real(params)
            first = records[0]
            rejected = type(first)(
                first.signs, False, "forced rejection for the exit-code test",
                (), 1, None, first.leading_ratio, first.det_ratio, None,
            )
            return [rejected] + records[1:]

        monkeypatch.setattr(cli_mod.eb, "enumerate_records", drop_one)
        code, _, _ = run(
            capsys, "eggbeater", "--fixture", "--lambda", "840", "--out", str(tmp_path)
        )
        assert code == 2

    def test_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "eggbeater", "--fixture", "--lambda", "840", "--out", str(d1))
        run(capsys, "eggbeater", "--fixture", "--lambda", "840", "--out", str(d2))
        assert (d1 / "eggbeater_lam_840_1.csv").read_bytes() == (
            d2 / "eggbeater_lam_840_1.csv"
        ).read_bytes()
        assert (d1 / "eggbeater_lam_840_1.json").read_bytes() == (
            d2 / "eggbeater_lam_840_1.json"
        ).read_bytes()


class TestBoundsCommand:
    def test_fixture_bounds_with_stabilize_and_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "bars.svg"
        code, out, _ = run(
            capsys, "bounds", "--p", "2", "--lambda", "840", "--svg", str(svg_path)
        )
        assert code == 0
        plain = json.loads(out)
        assert plain["pow_bound"] != "0"
        assert plain["provenance"]["lambda"] == "840"
        assert svg_path.read_text().startswith("<svg")

        code, out2, _ = run(
            capsys, "bounds", "--p", "2", "--lambda", "840", "--stabilize", "1,2,1"
        )
        stab = json.loads(out2)
        assert stab["pow_bound"] == plain["pow_bound"]
        assert stab["mu_p_model"] == plain["mu_p_model"]

    # sha256 of stdout and of the --svg file, pinned before bars were merged
    # and sorted on integer keys.  The SVG draws the bars in canonical order.
    # A --file input is the first n solver actions at the validation threshold
    # of param_search(p, 4), the i-th in degree i % degrees.
    @pytest.mark.parametrize("file_input, argv, stdout_digest, svg_digest", [
        (None, ["--p", "2", "--stabilize", "1,2,1"],
         "b61c531b80ddc9dd7d3b7eef7fb441e32da4e6aaf75bd2aadf5513cafa02eb2d",
         "724f3297b1424cc3fe1f8f3c75cab581b4432cbf3517f9cac079c5e5264f4963"),
        ((3, 63, 3), ["--p", "3", "--stabilize", "1,2"],
         "9dd44317ed29c6c95ac2501d5cb91ba0cc4ec41c7ea20c26394c802b69eed20a",
         "16542d06cb5cb8ea20b606e13e51e7b71c5d3e018fb8f9f85d92828cd0fbcc6f"),
        ((5, 1020, 4), ["--p", "5", "--stabilize", "1,1,1"],
         "6cd47b26aedafc3e9f545f9557a45870026116b4e40126f0aee348f8abf173b6",
         "5fa8598bee9dc37848340b91dbecc06ee625c84cd257928cf013432b79bdd1b9"),
    ], ids=["p2-fixture", "p3-file-mixed", "p5-file-mixed"])
    def test_output_bytes(self, tmp_path, monkeypatch, capsys, file_input, argv,
                          stdout_digest, svg_digest):
        monkeypatch.chdir(tmp_path)  # the provenance names the --file path as given
        if file_input is not None:
            p, n, degrees = file_input
            _, records = validation_threshold(p, 4, *param_search(p, 4))
            tuples = [{"action": frac_str(r.action), "degree": i % degrees}
                      for i, r in enumerate(records[:n])]
            Path("tuples.json").write_text(json.dumps({"tuples": tuples}))
            argv = [*argv, "--file", "tuples.json"]
        code, out, err = run(capsys, "bounds", *argv, "--svg", "bars.svg")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(Path("bars.svg").read_bytes()).hexdigest() == svg_digest

    def test_tuples_file(self, tmp_path, capsys):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "0"}, {"action": "8"}]}))
        code, out, _ = run(capsys, "bounds", "--p", "2", "--file", str(f),
                           "--epsilon-frac", "1/8")
        assert code == 0
        report = json.loads(out)
        assert report["mu_p_paper_bound"] == "3/2"
        assert report["pow_bound"] == "3/4"

    def test_empty_input_exits_one(self, tmp_path, capsys):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": []}))
        code, _, err = run(capsys, "bounds", "--p", "2", "--file", str(f))
        assert code == 1

    def test_zero_denominator_exits_one_without_traceback(self, tmp_path):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "1/0"}]}))
        assert_clean_error(run_subprocess("bounds", "--p", "2", "--file", str(f)))

    def test_numeric_action_exits_one_without_traceback(self, tmp_path):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": 5}]}))
        assert_clean_error(run_subprocess("bounds", "--p", "2", "--file", str(f)))

    def test_p_not_prime_is_named(self, tmp_path):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "0"}, {"action": "8"}]}))
        proc = run_subprocess("bounds", "--p", "4", "--file", str(f))
        assert_clean_error(proc)
        assert proc.stderr == "error: p must be prime, got 4\n"

    def test_duplicate_actions_exit_one(self, tmp_path, capsys):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "1/2"}, {"action": "2/4", "degree": 1}]}))
        code, _, err = run(capsys, "bounds", "--p", "2", "--file", str(f))
        assert code == 1
        assert err == "error: tuple actions must be pairwise distinct\n"

    def test_k_left_out_means_p(self, tmp_path, capsys):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "0"}, {"action": "8"}]}))
        for k, expected in ([], 3), (["--k", "2"], 2):
            code, out, _ = run(capsys, "bounds", "--p", "3", "--file", str(f), *k)
            assert code == 0
            assert json.loads(out)["k"] == expected

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_exits_one(self, k):
        proc = run_subprocess("bounds", "--p", "2", "--k", k)
        assert_clean_error(proc)
        assert proc.stderr == "error: k must be >= 1\n"

    def test_k_one_bounds_by_the_whole_gap(self, capsys):
        code, out, _ = run(capsys, "bounds", "--p", "2", "--k", "1")
        assert code == 0
        report = json.loads(out)
        assert (report["k"], report["aut_bound"]) == (1, report["gap"])

    @pytest.mark.parametrize("eps", ["0", "1"])
    def test_epsilon_frac_endpoints_exit_one(self, capsys, eps):
        code, out, err = run(capsys, "bounds", "--epsilon-frac", eps)
        assert (code, out, err) == (1, "", "error: eps_frac must lie in (0, 1/2]\n")

    def test_barcode_json_reparses_losslessly(self, tmp_path, capsys):
        m = cyclic_tuple_module(F(0), 2, death=F(10))
        f = tmp_path / "m.json"
        f.write_text(json.dumps(zp_module_to_obj(m)))
        code, out, _ = run(capsys, "barcode", "mu", str(f))
        barcode_obj = json.loads(out)["barcode"]
        assert barcode_from_obj(barcode_obj) == Barcode.of(
            [(Bar(0, 10), 1)]
        )


class TestBadRationals:
    """A rational that `Fraction` refuses, in an option or a JSON field, a
    zero denominator included, gives one `bad rational` line."""

    @pytest.mark.parametrize("argv, text", [
        (["bounds", "--lambda", "x"], "x"),
        (["bounds", "--lambda", "1/0"], "1/0"),
        (["eggbeater-2d", "--mu", "1/2", "--nu", "1/4", "--lambda", "1/0"], "1/0"),
        (["eggbeater", "--p", "2", "--mu", "1/2,x", "--nu", "1/3,1/5"], "x"),
    ])
    def test_option(self, capsys, argv, text):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: bad rational {text!r}\n")

    def test_json_field(self, tmp_path, capsys):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "1/0"}]}))
        code, out, err = run(capsys, "bounds", "--p", "2", "--file", str(f))
        assert (code, out, err) == (1, "", "error: bad rational '1/0'\n")


class TestLongRationals:
    """Rationals longer than Python's default int/str digit cap (4,300
    digits) are read and printed exactly, and `main` gives the caller's cap
    back when it returns."""

    def test_bounds_gap_of_5000_digits(self, tmp_path, capsys):
        digits = "1" * 5000
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": digits}, {"action": "0"}]}))
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "bounds", "--p", "2", "--file", str(f))
        assert (code, err) == (0, "")
        assert json.loads(out)["gap"] == digits
        assert sys.get_int_max_str_digits() == cap

    def test_eggbeater_2d_lambda_of_5001_digits(self, capsys):
        lam = "16" + "0" * 4999
        code, out, err = run(capsys, "eggbeater-2d", "--mu", "1/2", "--nu", "1/4", "--lambda", lam)
        assert (code, err) == (0, "")
        assert json.loads(out)["lambda"] == lam


class TestNestedJson:
    """JSON nested beyond the parser's recursion limit is invalid JSON, not a
    traceback, in every command that reads a JSON file."""

    @pytest.mark.parametrize("argv", [
        ["barcode", "bottleneck", "{f}", "{f}"], ["barcode", "decompose", "{f}"],
        ["barcode", "mu", "{f}"], ["spread", "{f}"], ["bounds", "--file", "{f}"],
    ])
    def test_exits_one(self, tmp_path, argv):
        f = tmp_path / "deep.json"
        f.write_text("[" * 200000 + "]" * 200000)
        proc = run_subprocess(*(a.format(f=f) for a in argv))
        assert_clean_error(proc)
        assert proc.stderr == f"error: invalid JSON in {f}: nested too deeply\n"


class TestLargePrime:
    """A huge p is decided by Miller-Rabin at once, or refused above the
    range where the test is certified; it never hangs the CLI."""

    BIG_PRIME = 10 ** 18 + 3
    UNCERTIFIED = 2 ** 89 - 1

    def bounds(self, tmp_path, p):
        f = tmp_path / "tuples.json"
        f.write_text(json.dumps({"tuples": [{"action": "0"}, {"action": "8"}]}))
        return run_subprocess("bounds", "--p", str(p), "--file", str(f), timeout=10)

    def spread(self, tmp_path, p):
        f = tmp_path / "eq.json"
        f.write_text(json.dumps({**killed_swap_obj(), "p": p}))
        return run_subprocess("spread", str(f), timeout=10)

    def test_bounds_with_large_prime(self, tmp_path):
        proc = self.bounds(tmp_path, self.BIG_PRIME)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p"] == self.BIG_PRIME

    def test_spread_with_large_prime(self, tmp_path):
        proc = self.spread(tmp_path, self.BIG_PRIME)
        assert proc.returncode in (0, 1)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["bounds", "spread"])
    def test_uncertified_p_exits_one(self, tmp_path, command):
        proc = getattr(self, command)(tmp_path, self.UNCERTIFIED)
        assert_clean_error(proc)
        assert "cannot certify" in proc.stderr


class TestIntegerFields:
    """Integer fields of the JSON inputs are parsed by `serialize.parse_int`:
    a non-integral number or a boolean exits 1, never truncates."""

    @staticmethod
    def spread_with(edit):
        obj = killed_swap_obj()
        edit(obj)
        return obj

    CASES = {
        "spread p 2.5": ("spread", lambda: TestIntegerFields.spread_with(
            lambda o: o.update(p=2.5))),
        "spread p true": ("spread", lambda: TestIntegerFields.spread_with(
            lambda o: o.update(p=True))),
        "spread generator degree 1.5": ("spread", lambda: TestIntegerFields.spread_with(
            lambda o: o["complex"]["generators"][2].update(degree=1.5))),
        "spread cyclotomic 2.5": ("spread", lambda: TestIntegerFields.spread_with(
            lambda o: o["complex"].update(field={"cyclotomic": 2.5}))),
        "bounds tuple degree 1.5": ("bounds", lambda: {"tuples": [{"action": "0", "degree": 1.5}]}),
        "bottleneck mult 1.5": ("bottleneck", lambda: [{"birth": "0", "death": "1", "mult": 1.5}]),
        "bottleneck degree true": ("bottleneck", lambda: [{"birth": "0", "death": "1", "degree": True}]),
        "mu dims 1.5": ("mu", lambda: {**zp_module_to_obj(cyclic_tuple_module(F(0), 2)), "dims": [0, 1.5]}),
        "mu p true": ("mu", lambda: {**zp_module_to_obj(cyclic_tuple_module(F(0), 2)), "p": True}),
    }

    @staticmethod
    def argv(command, path):
        return {
            "spread": ["spread", path],
            "bounds": ["bounds", "--p", "2", "--file", path],
            "bottleneck": ["barcode", "bottleneck", path, path],
            "mu": ["barcode", "mu", path],
        }[command]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_integer_exits_one(self, tmp_path, case):
        command, build = self.CASES[case]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(build()))
        assert_clean_error(run_subprocess(*self.argv(command, str(f))))

    def test_integer_strings_and_integral_numbers_accepted(self, tmp_path, capsys):
        obj = self.spread_with(lambda o: o.update(p="2"))
        obj["complex"]["generators"][2]["degree"] = "1"
        obj["complex"]["generators"][0]["degree"] = 0.0
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "spread", str(f))
        assert code == 0
        assert json.loads(out)["w_spread"] == "7"
        b = tmp_path / "b.json"
        b.write_text(json.dumps([{"birth": "0", "death": "1", "mult": "2", "degree": 1}]))
        code, out, _ = run(capsys, "barcode", "bottleneck", str(b), str(b))
        assert code == 0
        assert json.loads(out) == {"bottleneck": "0"}


class TestMalformedMatrices:
    """A matrix must be an array of row arrays, and a module must carry one
    transition per spectrum point and one action matrix per interval; any
    other shape exits 1 with an `error:` line."""

    COMPLEX = {
        "field": "Q",
        "generators": [{"action": "1", "degree": 0}, {"action": "3", "degree": 1}],
        "boundary": [["0", "0"], ["0", "0"]],
    }
    MODULE = {"p": 2, "spectrum": ["0"], "dims": [0, 1], "transitions": [[[]]],
              "action": [[], [["1"]]]}

    CASES = {
        "boundary rows are strings": ("decompose", {**COMPLEX, "boundary": ["01", "00"]}),
        "boundary row is a number": ("decompose", {**COMPLEX, "boundary": [["0", "0"], 5]}),
        "boundary is a number": ("decompose", {**COMPLEX, "boundary": 5}),
        "boundary entry is the number 0": ("decompose",
                                           {**COMPLEX, "boundary": [[0, "0"], ["0", "0"]]}),
        "complex is an array": ("decompose", [COMPLEX]),
        "action row is a string": ("mu", {**MODULE, "action": [[], ["1"]]}),
        "extra transition": ("mu", {**MODULE, "transitions": [[[]], []]}),
        "extra action matrix": ("mu", {**MODULE, "action": [[], [["1"]], []]}),
    }

    def test_well_formed_inputs_run(self, tmp_path, capsys):
        for command, obj in (("decompose", self.COMPLEX), ("mu", self.MODULE)):
            f = tmp_path / f"{command}.json"
            f.write_text(json.dumps(obj))
            assert run(capsys, "barcode", command, str(f))[0] == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_one(self, tmp_path, case):
        command, obj = self.CASES[case]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        assert_clean_error(run_subprocess("barcode", command, str(f)))


class TestMalformedArrays:
    """An array field given as a string (or any non-array), and an entry of
    generators, tuples or bars that is not an object, exit 1 with an
    `error:` line that names the field."""

    COMPLEX = TestMalformedMatrices.COMPLEX
    MODULE = TestMalformedMatrices.MODULE
    BAR = {"birth": "0", "death": "1"}

    CASES = {
        "spectrum and dims are strings": (
            "mu", {**MODULE, "spectrum": "0", "dims": "01"}, "spectrum must be a JSON array"),
        "dims is a string": ("mu", {**MODULE, "dims": "01"}, "dims must be a JSON array"),
        "generators is a string": (
            "decompose", {**COMPLEX, "generators": "ab"}, "generators must be a JSON array"),
        "generator is a string": (
            "decompose", {**COMPLEX, "generators": ["a", "b"]}, "generators must be a JSON object"),
        "tuples is a string": ("bounds", {"tuples": "ab"}, "tuples must be a JSON array"),
        "tuple is a string": ("bounds", {"tuples": ["a"]}, "tuples must be a JSON object"),
        "barcode is an object": ("bottleneck", BAR, "barcode JSON must be a JSON array"),
        "bar is a string": ("bottleneck", [BAR, "a"], "barcode JSON must be a JSON object"),
    }

    @staticmethod
    def argv(command: str, path: str) -> list[str]:
        return {
            "mu": ["barcode", "mu", path],
            "decompose": ["barcode", "decompose", path],
            "bounds": ["bounds", "--p", "2", "--file", path],
            "bottleneck": ["barcode", "bottleneck", path, path],
        }[command]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_one(self, tmp_path, case):
        command, obj, message = self.CASES[case]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        proc = run_subprocess(*self.argv(command, str(f)))
        assert_clean_error(proc)
        assert message in proc.stderr


class TestMissingFields:
    """A missing JSON field is named in the error with the object it belongs
    to, and the top level of a `bounds --file` or `spread` input must be a
    JSON object."""

    COMPLEX = TestMalformedMatrices.COMPLEX
    MODULE = TestMalformedMatrices.MODULE
    SPREAD = {"complex": COMPLEX, "p": 2, "chain_map": [["1", "0"], ["0", "1"]]}

    CASES = {
        "module without spectrum": (
            ["barcode", "mu"], {k: v for k, v in MODULE.items() if k != "spectrum"},
            "missing field 'spectrum' in module"),
        "generator without degree": (
            ["barcode", "decompose"], {**COMPLEX, "generators": [{"action": "1"}]},
            "missing field 'degree' in generator"),
        "tuple without action": (
            ["bounds", "--p", "2", "--file"], {"tuples": [{"degree": 0}]},
            "missing field 'action' in tuple"),
        "tuples file without tuples": (
            ["bounds", "--p", "2", "--file"], {}, "missing field 'tuples' in tuples file"),
        "tuples file is an array": (
            ["bounds", "--p", "2", "--file"], [{"tuples": []}], "must be a JSON object"),
        "spread without chain_map": (
            ["spread"], {k: v for k, v in SPREAD.items() if k != "chain_map"},
            "missing field 'chain_map' in spread input"),
        "spread input is an array": (["spread"], [SPREAD], "must be a JSON object"),
    }

    def test_well_formed_spread_runs(self, tmp_path, capsys):
        f = tmp_path / "spread.json"
        f.write_text(json.dumps(self.SPREAD))
        assert run(capsys, "spread", str(f))[0] == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_one(self, tmp_path, case):
        argv, obj, message = self.CASES[case]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        proc = run_subprocess(*argv, str(f))
        assert_clean_error(proc)
        assert message in proc.stderr


class TestUnwritableOutput:
    """An output path that cannot be written exits 1 with an `error:` line
    naming the operating system's reason and the path."""

    COMMANDS = {
        "bounds": ["bounds", "--out"],
        "bounds svg": ["bounds", "--svg"],
        "eggbeater": ["eggbeater", "--fixture", "--lambda", "840", "--out"],
        "eggbeater-2d": ["eggbeater-2d", "--mu", "1/2", "--nu", "1/4", "--lambda", "160", "--out"],
        "barcode": ["barcode", "bottleneck", "{bars}", "{bars}", "--out"],
    }
    PLACES = {  # eggbeater makes its --out directory with its parents
        "under a file": ("file/out", "Not a directory"),
        "in a missing directory": ("missing/out", "No such file or directory"),
    }

    @pytest.mark.parametrize("command, where", [
        case for case in itertools.product(sorted(COMMANDS), sorted(PLACES))
        if case != ("eggbeater", "in a missing directory")
    ])
    def test_exits_one(self, tmp_path, capsys, command, where):
        (tmp_path / "file").write_text("")
        bars = tmp_path / "bars.json"
        bars.write_text(json.dumps([{"birth": "0", "death": "1"}]))
        relative, reason = self.PLACES[where]
        path = tmp_path / relative
        argv = [a.format(bars=bars) for a in self.COMMANDS[command]]
        code, _, err = run(capsys, *argv, str(path))
        assert code == 1
        assert err.startswith("error:") and reason in err and str(path) in err


class TestRepeatedCalls:
    """`main` builds its parser once per process; no option of one call
    reaches the next, and a malformed call after a good one fails as it
    does first."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_cyclic_does_not_carry_over(self, capsys):
        assert run(capsys, "freegroup", "reduce", "a b a^-1", "--cyclic") == (0, "b\n", "")
        assert run(capsys, "freegroup", "reduce", "a b a^-1") == (0, "a b a^-1\n", "")
        code, _, err = run(capsys, "freegroup", "si", "2", "3", "--cyclic")
        assert (code, err) == (1, "error: --cyclic applies only to freegroup reduce\n")
        assert run(capsys, "freegroup", "si", "2", "3") == (0, "8\n", "")

    def test_zeta_index_does_not_carry_over(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(zp_module_to_obj(mixed_p3_module())))
        code, out, _ = run(capsys, "barcode", "mu", str(f), "--zeta-index", "2")
        assert (code, json.loads(out)["zeta_index"]) == (0, 2)
        code, out, _ = run(capsys, "barcode", "mu", str(f))
        assert (code, json.loads(out)["zeta_index"]) == (0, 1)

    def test_malformed_option_after_a_good_call(self, capsys):
        first = run(capsys, "bounds", "--k", "x")
        assert first[0] == 1 and "error: argument --k: invalid int value: 'x'" in first[2]
        assert run(capsys, "bounds", "--p", "2", "--k", "2")[0] == 0
        assert run(capsys, "bounds", "--k", "x") == first
