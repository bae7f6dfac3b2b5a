"""CLI behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chainring.cli
import chainring.code
from chainring import ChainRing, code_from_generators, dual, weight_distribution
from chainring.cli import main, random_generator_rows
from chainring.codefile import CodeDocument
from chainring.enumeration import ENUMERATION_CAP_ENV, enumeration_cap
from chainring.errors import InvariantError
from oracles import mds_distribution
from seedcorpus import EXTENDED_FAMILIES, PRIMARY_FAMILIES

C1_DOC = {
    "ring": {"p": 5, "s": 3, "backend": "int"},
    "n": 4,
    "generators": [[1, 0, 57, 0], [0, 1, 0, 68]],
    "name": "c1",
}

REFERENCE_DOC = {
    "ring": {"p": 2, "s": 2, "backend": "int"},
    "n": 3,
    "generators": [[1, 0, 1], [0, 2, 0], [0, 0, 2]],
}

# Over F_2[u]/(u^3), of type (1, 1, 1) and needing a column permutation.
POLY_DOC = {
    "ring": {"p": 2, "s": 3, "backend": "poly"},
    "n": 6,
    "generators": [
        [[0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 1], [0, 0, 1], [0, 1, 1]],
        [[0, 0, 1], [0, 0, 1], [0, 1, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 1], [0, 0, 0], [0, 0, 1]],
    ],
}
POLY_PARITY_ROWS = (
    "[[[1,0,0],[0,0,0],[0,1,0],[0,0,0],[0,0,0],[0,0,0]],"
    "[[0,0,0],[0,1,1],[1,1,0],[1,0,0],[1,0,0],[0,0,0]],"
    "[[0,0,0],[0,1,0],[1,1,0],[0,0,0],[0,0,0],[1,0,0]],"
    "[[0,0,0],[0,0,1],[0,0,0],[0,1,0],[0,0,0],[0,0,0]],"
    "[[0,0,0],[0,0,0],[0,0,1],[0,0,0],[0,0,0],[0,0,0]]]"
)


@pytest.fixture
def c1_file(tmp_path):
    path = tmp_path / "c1.json"
    path.write_text(json.dumps(C1_DOC))
    return str(path)


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    return str(path)


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(POLY_DOC))
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_stdin(text, *argv):
    """``main(argv)`` in process with ``text`` on stdin: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(list(argv))
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


def run_length_zero_twins(capsys, tmp_path, *argv):
    """Run argv on the int and the poly code of length 0 over Z/4, F_2[u]/(u^2)."""
    results = []
    for backend in ("int", "poly"):
        path = tmp_path / f"{backend}.json"
        doc = {"ring": {"p": 2, "s": 2, "backend": backend}, "n": 0, "generators": []}
        path.write_text(json.dumps(doc))
        results.append(run(capsys, argv[0], str(path), *argv[1:]))
    return results


# Over Z/4: |C| = 64 and |C_dual| = 4; its distribution is 1, 0, 18, 24, 21.
Z4_DOC = {
    "ring": {"p": 2, "s": 2, "backend": "int"},
    "n": 4,
    "generators": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
}


class TestWdist:
    def test_enumerate_c1(self, capsys, c1_file):
        status, out, _ = run(capsys, "wdist", c1_file)
        assert status == 0
        assert out.strip() == '["1","0","248","0","15376"]'

    def test_solve_with_known(self, capsys, c1_file):
        status, out, _ = run(
            capsys, "wdist", c1_file, "--method", "solve", "--known", "2=248", "--d", "2"
        )
        assert status == 0
        assert json.loads(out) == ["1", "0", "248", "0", "15376"]

    def test_mds_method(self, capsys, tmp_path):
        doc = {
            "ring": {"p": 2, "s": 2, "backend": "int"},
            "n": 2,
            "generators": [[1, 1]],
        }
        path = tmp_path / "mds.json"
        path.write_text(json.dumps(doc))
        status, out, _ = run(capsys, "wdist", str(path), "--method", "mds")
        assert status == 0
        assert json.loads(out) == ["1", "0", "3"]

    def test_mds_rejects_non_free(self, capsys, reference_file):
        status, _, err = run(capsys, "wdist", reference_file, "--method", "mds")
        assert status == 2
        assert "free" in err

    def test_mds_rejects_free_code_that_is_not_mds(self, capsys, tmp_path):
        # Free of rank 2 over Z/4, but its last column is zero, so the closed
        # form ["1","0","9","6"] would be wrong.
        path = tmp_path / "free.json"
        path.write_text(json.dumps(
            {"ring": {"p": 2, "s": 2}, "n": 3, "generators": [[1, 0, 0], [0, 1, 0]]}
        ))
        status, out, err = run(capsys, "wdist", str(path), "--method", "mds")
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            "error: the mds method needs an MDS code, and this free code is not"
        ]
        assert run(capsys, "wdist", str(path)) == (0, '["1","6","9","0"]\n', "")

    def test_mds_rejects_the_zero_code(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"ring": {"p": 2, "s": 2}, "n": 3, "generators": []}))
        status, out, err = run(capsys, "wdist", str(path), "--method", "mds")
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            "error: the mds method needs a nonzero code, and this is the zero code"
        ]

    def test_mds_closed_form_equals_enumeration(self, capsys, tmp_path):
        path = tmp_path / "mds.json"
        path.write_text(json.dumps(
            {"ring": {"p": 2, "s": 2}, "n": 3, "generators": [[1, 0, 1], [0, 1, 1]]}
        ))
        closed = run(capsys, "wdist", str(path), "--method", "mds")
        assert closed == run(capsys, "wdist", str(path)) == (0, '["1","0","9","6"]\n', "")

    def test_mds_over_subset_cap_exits_3(self, capsys, tmp_path):
        # [I_12 | I_12] over Z/4: comb(24, 12) = 2704156 subsets, over the 10**6 cap.
        rows = [[int(i == j) for j in range(12)] * 2 for i in range(12)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"ring": {"p": 2, "s": 2}, "n": 24, "generators": rows}))
        status, out, err = run(capsys, "wdist", str(path), "--method", "mds")
        assert status == 3
        assert out == ""
        assert err.splitlines() == ["error: 2704156 column subsets exceed the cap of 1000000"]

    @pytest.mark.parametrize(
        "p, s, n, k, backend",
        [
            (11, 2, 11, 5, "int"),
            (11, 2, 11, 5, "poly"),
            (13, 2, 13, 6, "int"),
            (23, 1, 20, 19, "int"),
        ],
    )
    def test_mds_method_equals_the_closed_form(self, capsys, tmp_path, p, s, n, k, backend):
        # Vandermonde rows x^j (j < k) at x = 0..n-1, distinct mod p: every
        # k x k minor is a product of unit differences.  C is past the
        # enumeration cap, so the subset-count solve is the only route.
        rows = [[pow(x, j, p**s) for x in range(n)] for j in range(k)]
        if backend == "poly":  # the same rows mod p, as constants
            rows = [[[v % p] + [0] * (s - 1) for v in row] for row in rows]
        path = tmp_path / "vandermonde.json"
        path.write_text(json.dumps(
            {"ring": {"p": p, "s": s, "backend": backend}, "n": n, "generators": rows}
        ))
        status, out, err = run(capsys, "wdist", str(path), "--method", "mds")
        assert (status, err) == (0, "")
        assert json.loads(out) == [str(a) for a in mds_distribution(n, k, p, s).counts]

    def test_poly_flag(self, capsys, reference_file):
        status, out, _ = run(capsys, "wdist", reference_file, "--poly")
        payload = json.loads(out)
        assert status == 0
        assert payload["distribution"] == ["1", "3", "7", "5"]
        assert payload["enumerator_polynomial"] == "X^3 + 3*X^2*Y + 7*X*Y^2 + 5*Y^3"

    def test_poly_length_zero_matches_int_twin(self, capsys, tmp_path):
        int_run, poly_run = run_length_zero_twins(capsys, tmp_path, "wdist")
        assert poly_run == int_run == (0, '["1"]\n', "")

    def test_workers_flag_is_gone(self, capsys, c1_file):
        with pytest.raises(SystemExit) as exc:
            main(["wdist", c1_file, "--workers", "2"])
        assert exc.value.code == 2


class TestStructureCommands:
    def test_stdform(self, capsys, reference_file):
        status, out, _ = run(capsys, "stdform", reference_file)
        payload = json.loads(out)
        assert status == 0
        assert payload["profile"] == [1, 2]
        assert payload["column_permutation"] == [1, 2, 3]
        assert payload["reduced"] == [[1, 0, 1], [0, 2, 0], [0, 0, 2]]
        assert payload["cardinality"] == "16"

    def test_paritycheck(self, capsys, reference_file):
        status, out, _ = run(capsys, "paritycheck", reference_file)
        payload = json.loads(out)
        assert payload["parity_check"] == [[0, 2, 0], [2, 0, 2]]

    def test_paritycheck_poly_output(self, capsys, poly_file):
        status, out, _ = run(capsys, "paritycheck", poly_file)
        assert status == 0
        assert out == (
            '{"ring":{"p":2,"s":3,"backend":"poly"},"n":6,"parity_check":'
            + POLY_PARITY_ROWS
            + "}\n"
        )

    def test_dual_poly_output(self, capsys, poly_file):
        status, out, _ = run(capsys, "dual", poly_file)
        assert status == 0
        assert out == (
            '{"ring":{"p":2,"s":3,"backend":"poly"},"n":6,"generators":'
            + POLY_PARITY_ROWS
            + ',"profile":[3,1,1],"rank":5,"free_rank":3,"cardinality":"4096"}\n'
        )

    def test_card(self, capsys, reference_file):
        _, out, _ = run(capsys, "card", reference_file)
        assert json.loads(out)["cardinality"] == "16"

    def test_dual_round_trips_into_reader(self, capsys, reference_file, tmp_path):
        status, out, _ = run(capsys, "dual", reference_file)
        payload = json.loads(out)
        assert payload["profile"] == [0, 2]
        dual_path = tmp_path / "dual.json"
        dual_path.write_text(out)
        status2, out2, _ = run(capsys, "wdist", str(dual_path))
        assert status2 == 0
        assert json.loads(out2) == ["1", "1", "1", "1"]

    def test_classify(self, capsys, c1_file):
        _, out, _ = run(capsys, "classify", c1_file)
        payload = json.loads(out)
        assert payload["label"] == "NearMDS"
        assert payload["d"] == 2
        assert payload["d_dual"] == 2
        assert payload["sigma"] == 2

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(REFERENCE_DOC)))
        status, out, _ = run(capsys, "card", "-")
        assert status == 0
        assert json.loads(out)["cardinality"] == "16"

    @pytest.mark.parametrize("backend", ["int", "poly"])
    @pytest.mark.parametrize(
        "n, rows, expected",
        [
            # The full space: its dual is zero, of distance n + 1.
            (2, [(1, 0), (0, 1)], (3, 0, 0, 0, "MDS")),
            (4, [(1, 0, 1, 1), (0, 1, 1, 2)], (2, 1, 1, 2, "NearMDS")),
        ],
        ids=["full-space", "free-4-2"],
    )
    def test_classify_and_check_share_d_dual(self, n, rows, expected, backend):
        doc = CodeDocument(ring=ChainRing(2, 2, backend), n=n, generators=tuple(rows))
        text = json.dumps(doc.to_obj())
        status, out, _ = run_stdin(text, "classify", "-")
        payload = json.loads(out)
        assert status == 0
        keys = ("d_dual", "defect", "dual_defect", "sigma", "label")
        assert tuple(payload[key] for key in keys) == expected
        for identity in ("new", "pless", "power", "subtypes"):
            status, out, _ = run_stdin(text, "check", "-", "--identity", identity, "--all-nu")
            assert status == 0, identity
            assert json.loads(out)["d_dual"] == payload["d_dual"], identity

    def test_classify_zero_code_rejected(self, capsys, tmp_path):
        doc = {"ring": {"p": 2, "s": 2, "backend": "int"}, "n": 2, "generators": []}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        status, _, err = run(capsys, "classify", str(path))
        assert status == 2
        assert "zero code" in err

    def test_classify_poly_length_zero_matches_int_twin(self, capsys, tmp_path):
        int_run, poly_run = run_length_zero_twins(capsys, tmp_path, "classify")
        assert poly_run == int_run
        assert int_run[0] == 2 and "zero code" in int_run[2]


class TestMac:
    def test_transform(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('["1","3","7","5"]')
        status, out, _ = run(
            capsys,
            "mac",
            str(path),
            "--p", "2", "--s", "2", "--n", "3",
            "--card", "16", "--rank", "3", "--free-rank", "1",
        )
        assert status == 0
        assert json.loads(out) == ["1", "1", "1", "1"]

    def test_invalid_distribution(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('["1","4","6","5"]')
        status, _, err = run(
            capsys,
            "mac",
            str(path),
            "--p", "2", "--s", "2", "--n", "3",
            "--card", "16", "--rank", "3", "--free-rank", "1",
        )
        assert status == 2
        assert "valid weight distribution" in err

    # One case per rule: the ring's rules are those of a document's ring, and
    # the type needs 0 <= free_rank <= rank <= n.
    @pytest.mark.parametrize(
        "p, s, rank, free_rank",
        [
            pytest.param(4, 1, 1, 1, id="p-not-prime"),
            pytest.param(1, 1, 1, 1, id="p-below-2"),
            pytest.param(0, 1, 1, 1, id="p-zero"),
            pytest.param(2, 0, 1, 1, id="s-below-1"),
            pytest.param(2, 40, 1, 1, id="ring-over-size-bound"),
            pytest.param(2, 1, 1, -1, id="free-rank-negative"),
            pytest.param(2, 1, 1, 2, id="free-rank-over-rank"),
            pytest.param(2, 1, 3, 1, id="rank-over-n"),
            pytest.param(2, 1, -3, 1, id="rank-negative"),
        ],
    )
    def test_rejects_ring_or_type(self, capsys, tmp_path, p, s, rank, free_rank):
        path = tmp_path / "dist.json"
        path.write_text("[1,0,3]")
        status, out, err = run(
            capsys,
            "mac",
            str(path),
            "--p", str(p), "--s", str(s), "--n", "2",
            "--card", "4", "--rank", str(rank), "--free-rank", str(free_rank),
        )
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    # A code of rank r and free rank f has p**m words, s*f + (r-f) <= m <=
    # s*f + (s-1)*(r-f): f copies of R and r-f proper ideals.  The Z/4,
    # field and Z/125 cases are distributions of real codes of another type,
    # which the transform alone accepts.
    @pytest.mark.parametrize(
        "p, s, n, rank, free_rank, card, dist",
        [
            pytest.param(2, 2, 4, 2, 1, "4", "[1,0,1,2,0]", id="z4-below-the-type"),
            pytest.param(2, 2, 4, 2, 1, "16", "[1,0,1,10,4]", id="z4-above-the-type"),
            pytest.param(2, 2, 4, 2, 1, "0", "[1]", id="zero"),
            pytest.param(2, 2, 4, 2, 1, "12", "[1,0,1,2,8]", id="not-a-power-of-p"),
            pytest.param(3, 1, 2, 1, 0, "3", "[1,2,0]", id="field-with-a-non-free-row"),
            pytest.param(5, 3, 3, 2, 2, "625", "[1,0,132,492]", id="z125-below-the-free-type"),
        ],
    )
    def test_rejects_card_no_code_of_the_type_has(
        self, capsys, tmp_path, p, s, n, rank, free_rank, card, dist
    ):
        path = tmp_path / "dist.json"
        path.write_text(dist)
        status, out, err = run(
            capsys,
            "mac",
            str(path),
            "--p", str(p), "--s", str(s), "--n", str(n),
            "--card", card, "--rank", str(rank), "--free-rank", str(free_rank),
        )
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"--card {card} is not {p}**m" in err

    @pytest.mark.parametrize(
        "generators, card",
        [
            pytest.param([[1, 0, 1], [0, 4, 0]], 16, id="z8-lowest-m"),
            pytest.param([[1, 0, 1], [0, 2, 0]], 32, id="z8-highest-m"),
        ],
    )
    def test_accepts_card_at_each_end_of_the_type(self, capsys, tmp_path, generators, card):
        # Z/8, rank 2, free rank 1: from 8*2 = 16 words up to 8*4 = 32.
        code = code_from_generators(ChainRing(2, 3), 3, generators)
        assert (code.cardinality, code.rank, code.free_rank) == (card, 2, 1)
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(list(weight_distribution(code).counts)))
        status, out, err = run(
            capsys,
            "mac",
            str(path),
            "--p", "2", "--s", "3", "--n", "3",
            "--card", str(card), "--rank", "2", "--free-rank", "1",
        )
        assert (status, err) == (0, "")
        assert json.loads(out) == [str(c) for c in weight_distribution(dual(code)).counts]

    def test_readme_example(self, capsys, tmp_path):
        # chainring mac dist.json --p 5 --s 3 --n 4 --card 15625 --rank 2 --free-rank 2
        path = tmp_path / "dist.json"
        path.write_text('["1","0","248","0","15376"]')
        status, out, err = run(
            capsys,
            "mac",
            str(path),
            "--p", "5", "--s", "3", "--n", "4",
            "--card", "15625", "--rank", "2", "--free-rank", "2",
        )
        assert (status, err) == (0, "")
        assert json.loads(out) == ["1", "0", "248", "0", "15376"]


MAC_FLAGS =("--p", "2", "--s", "2", "--n", "3", "--card", "16", "--rank", "3", "--free-rank", "1")


class TestCounts:
    """Counts are JSON ints (booleans excluded) or strings of ASCII digits."""

    @pytest.mark.parametrize(
        "entry",
        ["1.9", "1.0", "1e0", '"1_0"', '"+1"', '" 1"', '"1 "', '""', '"\\u0661"', "null", "[1]"],
        ids=[
            "float", "integral-float", "exponent", "underscore", "plus-sign", "leading-space",
            "trailing-space", "empty", "non-ascii-digit", "null", "array",
        ],
    )
    def test_mac_rejects_entry(self, capsys, tmp_path, entry):
        path = tmp_path / "dist.json"
        path.write_text(f"[{entry}, 3, 7, 5]")
        status, out, err = run(capsys, "mac", str(path), *MAC_FLAGS)
        assert status == 2
        assert out == ""
        assert "integers or decimal strings" in err

    def test_mac_accepts_ints_and_digit_strings(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('[1, "03", 7, "5"]')
        status, out, _ = run(capsys, "mac", str(path), *MAC_FLAGS)
        assert status == 0
        assert json.loads(out) == ["1", "1", "1", "1"]

    def test_mac_rejects_card_that_is_not_a_digit_string(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text("[1, 3, 7, 5]")
        flags = list(MAC_FLAGS)
        flags[flags.index("--card") + 1] = "1_6"
        status, out, err = run(capsys, "mac", str(path), *flags)
        assert status == 2
        assert out == ""
        assert "integers or decimal strings" in err

    @pytest.mark.parametrize(
        "distribution",
        [
            "1,0,2_48,0,15376",
            "+1,0,248,0,15376",
            "1,0,248.0,0,15376",
            "1,0,\u0662\u0664\u0668,0,15376",
            "1,,248,0,15376",
        ],
        ids=["underscore", "plus-sign", "float", "non-ascii-digits", "empty"],
    )
    def test_check_distribution_rejects_entry(self, capsys, c1_file, distribution):
        status, out, err = run(
            capsys, "check", c1_file, "--identity", "new", "--nu", "3",
            "--distribution", distribution,
        )
        assert status == 2
        assert out == ""
        assert "integers or decimal strings" in err

    @pytest.mark.parametrize(
        "known, message",
        [
            ("2=1_2", "integers or decimal strings"),
            ("2=\u0661\u0662", "integers or decimal strings"),
            ("2=+12", "integers or decimal strings"),
            ("2=248.0", "integers or decimal strings"),
            ("2=", "integers or decimal strings"),
            ("+2=248", "index=count"),
            ("\u0662=248", "index=count"),
            ("0_2=248", "index=count"),
            ("=248", "index=count"),
            ("2:248", "index=count"),
            ("2=248,02=12", "given twice"),
        ],
        ids=[
            "value-underscore", "value-non-ascii-digits", "value-plus-sign", "value-float",
            "value-empty", "index-plus-sign", "index-non-ascii-digit", "index-underscore",
            "index-empty", "no-equals-sign", "index-twice",
        ],
    )
    def test_solve_rejects_known(self, capsys, c1_file, known, message):
        status, out, err = run(
            capsys, "wdist", c1_file, "--method", "solve", "--known", known, "--d", "2"
        )
        assert status == 2
        assert out == ""
        assert message in err
        assert err.count("error:") == 1

    # The c1 code has A_2 = 248: A_2 = 0, given or solved, denies --d 2.
    @pytest.mark.parametrize("known", ["2=0", "4=15128"])
    def test_solve_rejects_zero_count_at_distance(self, capsys, c1_file, known):
        status, out, err = run(
            capsys, "wdist", c1_file, "--method", "solve", "--known", known, "--d", "2"
        )
        assert status == 2
        assert out == ""
        assert err.splitlines() == ["error: A_2 = 0 contradicts minimum distance 2"]

    def test_solve_accepts_padded_known(self, capsys, c1_file):
        status, out, _ = run(
            capsys, "wdist", c1_file, "--method", "solve", "--known", " 2 = 248 ,", "--d", "2"
        )
        assert status == 0
        assert json.loads(out) == ["1", "0", "248", "0", "15376"]

    def test_check_distribution_accepts_padded_digit_strings(self, capsys, c1_file):
        status, _, _ = run(
            capsys, "check", c1_file, "--identity", "new", "--nu", "3",
            "--distribution", "1, 0, 248, 0, 15376",
        )
        assert status == 0


class TestCheck:
    def test_new_all_nu_on_c1(self, capsys, c1_file):
        status, out, _ = run(capsys, "check", c1_file, "--identity", "new", "--all-nu")
        payload = json.loads(out)
        assert status == 0
        assert payload["d_dual"] == 2
        held = [r["nu"] for r in payload["results"] if r["holds"]]
        assert held == [3, 4]
        required = [r["nu"] for r in payload["results"] if r["required"]]
        assert required == [3, 4]
        assert payload["all_required_hold"] is True

    def test_doublecount_all_nu(self, capsys, reference_file):
        status, out, _ = run(
            capsys, "check", reference_file, "--identity", "doublecount", "--all-nu"
        )
        payload = json.loads(out)
        assert status == 0
        assert all(r["holds"] for r in payload["results"])

    def test_pless_all_nu(self, capsys, c1_file):
        status, out, _ = run(capsys, "check", c1_file, "--identity", "pless", "--all-nu")
        payload = json.loads(out)
        assert status == 0
        assert [r["nu"] for r in payload["results"]] == [0, 1]

    def test_power_single_nu(self, capsys, c1_file):
        status, out, _ = run(capsys, "check", c1_file, "--identity", "power", "--nu", "1")
        payload = json.loads(out)
        assert status == 0
        assert payload["results"][0]["lhs"] == "62000"

    def test_subtypes(self, capsys, c1_file):
        status, out, _ = run(
            capsys, "check", c1_file, "--identity", "subtypes", "--all-nu"
        )
        payload = json.loads(out)
        assert status == 0
        by_nu = {r["nu"]: r for r in payload["results"]}
        assert by_nu[3]["required"] is True
        assert by_nu[3]["holds"] is True
        assert by_nu[3]["types"] == [{"profile": [2, 0, 0], "count": 4}]

    @pytest.mark.parametrize("identity", ["doublecount", "subtypes"])
    def test_all_nu_skips_nu_over_subset_cap(self, capsys, c1_file, identity):
        # n = 4: comb(4, 2) = 6 is the only subset count above 4
        status, out, _ = run(
            capsys, "check", c1_file, "--identity", identity, "--all-nu",
            "--subset-cap", "4",
        )
        payload = json.loads(out)
        assert status == 0
        assert payload["skipped_nu"] == [2]
        first = 0 if identity == "doublecount" else 1
        assert [r["nu"] for r in payload["results"]] == [nu for nu in range(first, 5) if nu != 2]

    @pytest.mark.parametrize("identity", ["doublecount", "subtypes"])
    def test_single_nu_over_subset_cap_exits_3(self, capsys, c1_file, identity):
        status, out, err = run(
            capsys, "check", c1_file, "--identity", identity, "--nu", "2",
            "--subset-cap", "4",
        )
        assert status == 3
        assert out == ""
        assert "6 column subsets exceed the cap of 4" in err

    @pytest.mark.parametrize("identity", ["doublecount", "subtypes"])
    def test_all_nu_with_every_nu_over_subset_cap_exits_3(self, capsys, reference_file, identity):
        status, out, err = run(
            capsys, "check", reference_file, "--identity", identity, "--all-nu",
            "--subset-cap", "0",
        )
        assert status == 3
        assert out == ""
        assert err.splitlines() == ["error: every nu exceeds the subset cap of 0"]

    @pytest.mark.parametrize("identity", ["doublecount", "subtypes"])
    def test_negative_subset_cap_exits_2(self, capsys, reference_file, identity):
        status, out, err = run(
            capsys, "check", reference_file, "--identity", identity, "--all-nu",
            "--subset-cap", "-1",
        )
        assert status == 2
        assert out == ""
        assert "--subset-cap must be nonnegative" in err

    def test_subtypes_enumerates_only_the_dual(self, capsys, tmp_path, monkeypatch):
        # |C| = 64 is over the cap, |C_dual| = 4 is not: subtypes reads only H
        # and d_dual, so the capped run must print what the uncapped one does.
        path = tmp_path / "z4.json"
        path.write_text(json.dumps({
            "ring": {"p": 2, "s": 2, "backend": "int"},
            "n": 4,
            "generators": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
        }))
        argv = ("check", str(path), "--identity", "subtypes", "--all-nu")
        uncapped = run(capsys, *argv)
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "16")
        assert run(capsys, *argv) == uncapped
        assert uncapped[0] == 0

    def test_subtypes_rejects_nu_zero(self, capsys, c1_file):
        status, _, err = run(capsys, "check", c1_file, "--identity", "subtypes", "--nu", "0")
        assert status == 2
        assert "nu >= 1" in err

    def test_subtypes_all_nu_on_length_zero_exits_2(self, capsys, tmp_path):
        for status, out, err in run_length_zero_twins(
            capsys, tmp_path, "check", "--identity", "subtypes", "--all-nu"
        ):
            assert status == 2
            assert out == ""
            assert err.splitlines() == [
                "error: subtypes needs nu >= 1, and a code of length 0 has none"
            ]

    def test_doublecount_poly_length_zero_matches_int_twin(self, capsys, tmp_path):
        int_run, poly_run = run_length_zero_twins(
            capsys, tmp_path, "check", "--identity", "doublecount", "--all-nu"
        )
        assert poly_run == int_run
        assert int_run[0] == 0
        assert json.loads(int_run[1])["results"][0]["lhs"] == "1"

    def test_wrong_distribution_fails_required_check(self, capsys, c1_file):
        status, out, _ = run(
            capsys,
            "check", c1_file,
            "--identity", "new", "--all-nu",
            "--distribution", "1,0,249,0,15375",
        )
        payload = json.loads(out)
        assert status == 1
        assert payload["all_required_hold"] is False

    def test_nu_required(self, capsys, c1_file):
        status, _, err = run(capsys, "check", c1_file, "--identity", "new")
        assert status == 2
        assert "--nu" in err

    @pytest.mark.parametrize("counts", ["1,0,18,24,21", "1,2,3,4,5"], ids=["true", "bad-total"])
    def test_subtypes_refuses_distribution(self, capsys, tmp_path, counts):
        # subtypes reads no distribution of C: even the true one (first) is an
        # input error, and a malformed one is refused for the same reason.
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(Z4_DOC))
        status, out, err = run(
            capsys, "check", str(path), "--identity", "subtypes", "--all-nu",
            "--distribution", counts,
        )
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            "error: --identity subtypes reads no weight distribution; drop --distribution"
        ]

    @pytest.mark.parametrize("identity", ["new", "pless", "power", "doublecount", "subtypes"])
    @pytest.mark.parametrize("nu", ["1", "9"])
    def test_nu_with_all_nu_exits_2(self, capsys, c1_file, identity, nu):
        status, out, err = run(
            capsys, "check", c1_file, "--identity", identity, "--all-nu", "--nu", nu
        )
        assert status == 2
        assert out == ""
        assert err.splitlines() == ["error: check takes --nu N or --all-nu, not both"]


class TestRandom:
    def test_byte_identical_runs(self, capsys):
        args = ["random", "--p", "2", "--s", "2", "--n", "4", "--rows", "2", "--seed", "7"]
        status1, out1, _ = run(capsys, *args)
        status2, out2, _ = run(capsys, *args)
        assert status1 == status2 == 0
        assert out1 == out2

    def test_output_parses_as_code_document(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "random", "--p", "3", "--s", "2", "--n", "5", "--rows", "2",
            "--seed", "11", "--backend", "poly",
        )
        payload = json.loads(out)
        assert payload["ring"] == {"p": 3, "s": 2, "backend": "poly"}
        path = tmp_path / "rand.json"
        path.write_text(out)
        status, out2, _ = run(capsys, "card", str(path))
        assert status == 0
        assert json.loads(out2)["cardinality"] == payload["cardinality"]

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "random", "--p", "2", "--s", "2", "--n", "4",
                         "--rows", "2", "--seed", "1")
        _, out2, _ = run(capsys, "random", "--p", "2", "--s", "2", "--n", "4",
                         "--rows", "2", "--seed", "2")
        assert out1 != out2

    @pytest.mark.parametrize("flag", ["--n", "--rows"])
    def test_negative_size_exits_2(self, capsys, flag):
        sizes = {"--n": "3", "--rows": "2"}
        sizes[flag] = "-2"
        args = ["random", "--p", "2", "--s", "1", "--seed", "0"]
        for name, value in sizes.items():
            args += [name, value]
        status, out, err = run(capsys, *args)
        assert status == 2
        assert out == ""
        assert err == f"error: {flag} must be nonnegative, got -2\n"


class TestExitCodes:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        status, _, err = run(capsys, "card", str(path))
        assert status == 2
        assert "malformed" in err

    def test_unknown_backend(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ring": {"p": 2, "s": 2, "backend": "x"},
                                    "n": 1, "generators": []}))
        status, _, err = run(capsys, "card", str(path))
        assert status == 2
        assert "unknown backend" in err

    @pytest.mark.parametrize(
        ("doc", "message"),
        [
            ({"ring": {"p": 2, "s": True}, "n": 1, "generators": [[1]]}, "integer 's'"),
            ({"ring": {"p": True, "s": 1}, "n": 1, "generators": [[1]]}, "integer 'p'"),
            ({"ring": {"p": 2, "s": 2}, "n": 3, "generators": [[True, 0, 1]]}, "must be an int"),
            (
                {"ring": {"p": 2, "s": 2, "backend": "poly"}, "n": 1, "generators": [[[1, False]]]},
                "coefficient array",
            ),
            ({"ring": {"p": 2, "s": 2}, "n": True, "generators": [[1]]}, "'n' must be"),
        ],
        ids=["ring-s", "ring-p", "int-element", "poly-coefficient", "n"],
    )
    def test_json_booleans_are_not_integers(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(capsys, "card", str(path))
        assert status == 2
        assert out == ""
        assert message in err

    def test_mac_rejects_boolean_counts(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text("[true, 3, 7, 5]")
        status, out, err = run(
            capsys,
            "mac",
            str(path),
            "--p", "2", "--s", "2", "--n", "3",
            "--card", "16", "--rank", "3", "--free-rank", "1",
        )
        assert status == 2
        assert out == ""
        assert "integers or decimal strings" in err

    @pytest.mark.parametrize("command", ["card", "mac"])
    def test_deeply_nested_json(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        flags = MAC_FLAGS if command == "mac" else ()
        status, out, err = run(capsys, command, str(path), *flags)
        assert status == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "nested too deeply" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "card", "/nonexistent/code.json")
        assert status == 2

    def test_cap_exceeded(self, capsys, c1_file, monkeypatch):
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "100")
        status, _, err = run(capsys, "wdist", c1_file)
        assert status == 3
        assert "cap" in err

    def test_invariant_error_exits_4_without_traceback(self, capsys, c1_file, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("message space size differs from the cardinality formula")

        monkeypatch.setattr(chainring.cli, "weight_distribution", broken)
        status, out, err = run(capsys, "wdist", c1_file)
        assert status == 4
        assert out == ""
        assert err.splitlines() == [
            "error: internal invariant violated: "
            "message space size differs from the cardinality formula"
        ]
        assert "Traceback" not in err

    def test_non_orthogonal_parity_check_exits_4(self, capsys, reference_file, monkeypatch):
        # (1, 1, 1) is not orthogonal to the generator (1, 0, 1) over Z/4.
        monkeypatch.setattr(
            chainring.code, "_systematic_parity_rows", lambda code: [[1] * code.n]
        )
        status, out, err = run(capsys, "paritycheck", reference_file)
        assert status == 4
        assert out == ""
        assert err.splitlines() == [
            "error: internal invariant violated: "
            "generator and parity-check rows are not orthogonal"
        ]

    def test_usage_error(self, capsys):
        # The parser's own errors keep the contract: exit 2, one error: line.
        required = "the following arguments are required"
        for argv, message in [
            (["wdist"], f"{required}: file"),
            (["wdist", "-", "--d", "x"], "argument --d: invalid int value: 'x'"),
            (["mac"], f"{required}: file, --p, --s, --n, --card, --rank, --free-rank"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.splitlines() == [f"error: {message}"]

    def test_internal_error_exits_4_without_traceback(self, capsys, c1_file, monkeypatch):
        def broken(*args, **kwargs):
            return 1 // 0

        monkeypatch.setattr(chainring.cli, "weight_distribution", broken)
        status, out, err = run(capsys, "wdist", c1_file)
        assert status == 4
        assert out == ""
        assert err.splitlines() == [
            "error: internal error: ZeroDivisionError: integer division or modulo by zero"
        ]
        assert "Traceback" not in err

    def test_unserializable_payload_exits_4(self, capsys, c1_file, monkeypatch):
        monkeypatch.setitem(chainring.cli._HANDLERS, "card", lambda args: ({1j}, 0))
        status, out, err = run(capsys, "card", c1_file)
        assert status == 4
        assert out == ""
        assert err.splitlines() == [
            "error: internal error: TypeError: Object of type set is not JSON serializable"
        ]



# Z/4, [1500, 1]: C_dual has 4**1499 words, and its parity-check matrix 1500
# rows of 1500 entries.
WIDE_DOC = {"ring": {"p": 2, "s": 2}, "n": 1500, "generators": [[1] + [0] * 1499]}


class TestDualOverTheCap:
    """Every subcommand that enumerates C_dual sizes it from the code's type
    and refuses it over the cap before C_dual (or H) is built; the double
    count refuses a nu over the subset cap before H is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["wdist", "--method", "solve"],
            *(["check", "--identity", identity, "--all-nu"]
              for identity in ("new", "pless", "power", "subtypes")),
        ],
        ids=" ".join,
    )
    def test_refused_before_it_is_built(self, capsys, tmp_path, argv):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(WIDE_DOC))
        tracemalloc.start()
        try:
            status, out, err = run(capsys, argv[0], str(path), *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 3
        assert out == ""
        assert err.splitlines() == [
            f"error: code has {4**1499} words, above the enumeration cap {enumeration_cap()}"
        ]
        assert peak < 1 << 20, peak

    def test_doublecount_refuses_over_the_subset_cap_before_h_is_built(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(WIDE_DOC))
        tracemalloc.start()
        try:
            status, out, err = run(
                capsys, "check", str(path), "--identity", "doublecount", "--nu", "2"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 3
        assert out == ""
        assert err.splitlines() == ["error: 1124250 column subsets exceed the cap of 1000000"]
        assert peak < 1 << 20, peak


# What `python -m chainring` runs, after the card handler is broken.
BROKEN_CARD = """
import runpy
import chainring.cli
chainring.cli._HANDLERS["card"] = lambda args: (1 // 0, 0)
runpy.run_module("chainring", run_name="__main__", alter_sys=True)
"""


def run_module(stdin, *argv, broken=False):
    src = str(Path(chainring.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = ["-c", BROKEN_CARD] if broken else ["-m", "chainring"]
    return subprocess.run(
        [sys.executable, *command, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )


class TestModuleEntry:
    """The same exit codes through ``python -m chainring`` and ``entry()``."""

    def test_valid_document_exits_0(self):
        done = run_module(json.dumps(C1_DOC), "wdist", "-")
        assert (done.returncode, done.stdout, done.stderr) == (
            0, '["1","0","248","0","15376"]\n', ""
        )

    def test_malformed_document_exits_2(self):
        done = run_module("{}", "card", "-")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: code file is missing the 'ring' descriptor\n"

    def test_internal_error_exits_4(self):
        done = run_module(json.dumps(C1_DOC), "card", "-", broken=True)
        assert done.returncode == 4
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: internal error: ZeroDivisionError: integer division or modulo by zero"
        ]


# -- malformed documents -----------------------------------------------------

FUZZ_INT_DOC = {
    "ring": {"p": 2, "s": 2, "backend": "int"},
    "n": 3,
    "generators": [[1, 0, 1], [0, 2, 0]],
}
FUZZ_POLY_DOC = {
    "ring": {"p": 3, "s": 2, "backend": "poly"},
    "n": 2,
    "generators": [[[1, 0], [0, 2]]],
}
_DELETE = object()


def _edited(doc, path, value):
    """A deep copy of doc with the entry at path replaced, or deleted."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def _at(doc, paths, values):
    return st.tuples(paths, values).map(lambda edit: _edited(doc, *edit))


# JSON values that are not integers (booleans and integral floats included)
NOT_INT = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
NOT_LIST = st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.none(), st.booleans())
NOT_STR = st.one_of(st.integers(), st.booleans(), st.lists(st.text(), max_size=1))
RAGGED_ROW = st.lists(st.integers(0, 3), max_size=6).filter(lambda row: len(row) != 3)
BAD_POLY_ELEMENT = st.one_of(
    NOT_LIST,
    st.lists(NOT_INT, min_size=1, max_size=2),
    st.lists(st.integers(0, 2), min_size=3, max_size=5),  # more coefficients than s = 2
)
INT_ELEMENT = st.tuples(st.just("generators"), st.integers(0, 1), st.integers(0, 2))
POLY_ELEMENT = st.tuples(st.just("generators"), st.just(0), st.integers(0, 1))
MISSING = st.sampled_from([("ring",), ("n",), ("generators",), ("ring", "p"), ("ring", "s")])
ROW = st.sampled_from([("generators", 0), ("generators", 1)])
BAD_P = st.sampled_from([-3, 0, 1, 4, 9, 2**31 + 11, 2**61 - 1])
BAD_S = st.sampled_from([-1, 0, 32, 10**9])
BAD_BACKEND = st.text(max_size=4).filter(lambda b: b not in ("int", "poly"))

MALFORMED_DOCUMENTS = st.one_of(
    # wrong JSON types
    st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=3), st.none()),
    _at(FUZZ_INT_DOC, st.sampled_from([("ring",), ("generators",)]), NOT_LIST),
    _at(FUZZ_INT_DOC, st.sampled_from([("ring", "p"), ("ring", "s"), ("n",)]), NOT_INT),
    _at(FUZZ_INT_DOC, st.just(("name",)), NOT_STR),
    # missing keys
    _at(FUZZ_INT_DOC, MISSING, st.just(_DELETE)),
    # ragged rows
    _at(FUZZ_INT_DOC, ROW, NOT_LIST | RAGGED_ROW),
    # out-of-range rings and lengths
    _at(FUZZ_INT_DOC, st.just(("ring", "p")), BAD_P),
    _at(FUZZ_INT_DOC, st.just(("ring", "s")), BAD_S),
    _at(FUZZ_INT_DOC, st.just(("ring", "backend")), BAD_BACKEND),
    _at(FUZZ_INT_DOC, st.just(("n",)), st.integers(max_value=-1)),
    # elements: booleans, floats and other non-integers; poly arrays too long
    _at(FUZZ_INT_DOC, INT_ELEMENT, NOT_INT),
    _at(FUZZ_POLY_DOC, POLY_ELEMENT, BAD_POLY_ELEMENT),
)
FUZZ_COMMANDS = (
    ["card", "-"],
    ["wdist", "-"],
    ["check", "-", "--identity", "doublecount", "--nu", "1"],
)


class TestMalformedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(MALFORMED_DOCUMENTS)
    def test_exit_2_with_one_error_line(self, doc):
        # Integer-backend elements outside 0..q-1 are not malformed: they are
        # reduced modulo q (see ChainRing.encode).
        text = json.dumps(doc)
        for argv in FUZZ_COMMANDS:
            status, out, err = run_stdin(text, *argv)
            assert status == 2, (argv, text)
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "Traceback" not in err


# -- every count known, unread inputs, closed stdout --------------------------


class TestSolveWithEveryCountKnown:
    """``--d 2`` fills A_0 and A_1; the knowns give the rest, so nothing is unknown."""

    def test_consistent_counts_come_back(self, capsys, c1_file):
        status, out, err = run(
            capsys, "wdist", c1_file, "--method", "solve", "--d", "2",
            "--known", "2=248,3=0,4=15376",
        )
        assert (status, out, err) == (0, '["1","0","248","0","15376"]\n', "")

    def test_inconsistent_counts_exit_2(self, capsys, c1_file):
        status, out, err = run(
            capsys, "wdist", c1_file, "--method", "solve", "--d", "2",
            "--known", "2=248,3=1,4=15375",
        )
        assert (status, out) == (2, "")
        assert err.splitlines() == [
            "error: inconsistent inputs: the supplied values satisfy no common solution"
        ]


class TestUnreadInputs:
    """A flag the chosen identity or method never reads exits 2, naming the flag."""

    def test_empty_distribution_is_a_malformed_count_list(self, capsys, c1_file):
        status, out, err = run(
            capsys, "check", c1_file, "--identity", "new", "--all-nu", "--distribution", ""
        )
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: counts must be integers or decimal strings, got ''"]

    def test_subtypes_refuses_empty_distribution(self, capsys, c1_file):
        status, out, err = run(
            capsys, "check", c1_file, "--identity", "subtypes", "--all-nu", "--distribution", ""
        )
        assert (status, out) == (2, "")
        assert err.splitlines() == [
            "error: --identity subtypes reads no weight distribution; drop --distribution"
        ]

    @pytest.mark.parametrize("cap", ["3", "-1"])
    @pytest.mark.parametrize("identity", ["new", "pless", "power"])
    def test_subset_cap_without_a_scan_exits_2(self, capsys, c1_file, identity, cap):
        status, out, err = run(
            capsys, "check", c1_file, "--identity", identity, "--all-nu", "--subset-cap", cap
        )
        assert (status, out) == (2, "")
        assert err.splitlines() == [
            f"error: --identity {identity} scans no column subsets; drop --subset-cap"
        ]

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--known", "2=5"], "--known"),
            (["--d", "3"], "--d"),
            (["--known", "2=5", "--d", "3"], "--known"),
            (["--method", "mds", "--d", "2"], "--d"),
        ],
    )
    def test_wdist_hints_without_solve_exit_2(self, capsys, c1_file, extra, flag):
        status, out, err = run(capsys, "wdist", c1_file, *extra)
        assert (status, out) == (2, "")
        assert err.splitlines() == [f"error: {flag} is read only by --method solve; drop it"]


def run_into_closed_pipe(stdin, *argv):
    """``python -m chainring`` with stdout a pipe whose read end is already closed."""
    src = str(Path(chainring.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "chainring", *argv],
            input=stdin, stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
    finally:
        os.close(write_end)


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["card", "-"],
            # Output longer than the stream's buffer.
            ["random", "--p", "5", "--s", "3", "--n", "400", "--rows", "40", "--seed", "1"],
        ],
    )
    def test_exits_2_with_one_line_and_no_traceback(self, argv):
        done = run_into_closed_pipe(json.dumps(C1_DOC), *argv)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output: "), lines
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


class TestEmptyKnown:
    """An empty --known entry is malformed, as an empty --distribution is."""

    @pytest.mark.parametrize("known", ["", ",", " , ", "2=248,,", ",2=248"])
    def test_empty_entry_refused(self, capsys, tmp_path, known):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"ring": {"p": 2, "s": 2}, "n": 2, "generators": [[1, 1]]}))
        status, out, err = run(
            capsys, "wdist", str(path), "--method", "solve", "--d", "2", "--known", known
        )
        assert status == 2
        assert out == ""
        assert err.splitlines() == ["error: known entry '' is not of the form index=count"]


class TestCommaLists:
    """--known and --distribution split alike: one trailing comma after an
    entry is allowed, any other empty entry exits 2."""

    @pytest.fixture
    def rep_file(self, tmp_path):
        # The Z/4 repetition code: distribution 1, 0, 3.
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"ring": {"p": 2, "s": 2}, "n": 2, "generators": [[1, 1]]}))
        return str(path)

    def test_known_is_parsed_before_the_dual_is_enumerated(self, capsys, rep_file, monkeypatch):
        # C_dual has 4 words: above a cap of 1, the refusal of --known still wins.
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "1")
        status, out, err = run(
            capsys, "wdist", rep_file, "--method", "solve", "--d", "2", "--known", ","
        )
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: known entry '' is not of the form index=count"]

    @pytest.mark.parametrize("distribution", ["1,0,3,", " 1 , 0 , 3 , "])
    def test_distribution_accepts_one_trailing_comma(self, capsys, rep_file, distribution):
        status, out, _ = run(
            capsys, "check", rep_file, "--identity", "new", "--all-nu",
            "--distribution", distribution,
        )
        assert status == 0
        assert json.loads(out)["all_required_hold"] is True

    @pytest.mark.parametrize("distribution", ["", ",", "1,,0", "1,0,3,,", ",1,0,3"])
    def test_distribution_refuses_other_empty_entries(self, capsys, rep_file, distribution):
        status, out, err = run(
            capsys, "check", rep_file, "--identity", "new", "--all-nu",
            "--distribution", distribution,
        )
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: counts must be integers or decimal strings, got ''"]


# -- the exit-code contract over every subcommand ------------------------------


@st.composite
def corpus_document(draw):
    """A document of a seed-corpus family: its ring, one of its shapes and any
    seed, with from no rows (the zero code) up to one row more than the shape."""
    p, s, backend, _, shapes = draw(st.sampled_from(PRIMARY_FAMILIES + EXTENDED_FAMILIES))
    n, nrows = draw(st.sampled_from(shapes))
    ring = ChainRing(p, s, backend)
    nrows = draw(st.integers(0, nrows + 1))
    rows = random_generator_rows(ring, n, nrows, draw(st.integers(0, 10**6)))
    return CodeDocument(ring=ring, n=n, generators=rows)


def _count_list(draw, counts) -> list[int]:
    """The code's counts, the same with one word moved to another weight (a
    required identity can fail), or any short list."""
    counts = list(counts)
    i, j = draw(st.integers(0, len(counts) - 1)), draw(st.integers(0, len(counts) - 1))
    moved = counts[:]
    if moved[i]:
        moved[i] -= 1
        moved[j] += 1
    other = draw(st.lists(st.integers(0, 40), max_size=len(counts) + 1))
    return draw(st.sampled_from([counts, moved, moved, other]))


@st.composite
def contract_call(draw):
    """(stdin text, argv) for one subcommand, typed as the parser wants.

    Each call gets at most one drawn fault, so that most calls reach the
    library: a flag value out of range, a flag the subcommand does not read,
    or a hint or count list that no code has.
    """
    doc = draw(corpus_document())
    code, n, text = doc.to_code(), doc.n, json.dumps(doc.to_obj())
    with mock.patch.dict(os.environ):
        os.environ.pop(ENUMERATION_CAP_ENV, None)
        counts = weight_distribution(code).counts
    d = next((w for w in range(1, n + 1) if counts[w]), None)
    fault = draw(st.booleans()) and draw(st.booleans())
    command = draw(st.sampled_from(sorted(chainring.cli._HANDLERS)))
    argv = [command, "-"]
    if command == "wdist":
        method = draw(st.sampled_from(["enumerate", "solve", "solve", "mds"]))
        argv += ["--method", method]
        if method == "solve" or fault:
            heavy = [w for w in range(n + 1) if counts[w]][-2:]
            known = {w: counts[w] for w in heavy if draw(st.booleans())}
            if fault:
                known[draw(st.integers(0, n + 1))] = draw(st.integers(0, 10**5))
            if known:
                argv += ["--known", ",".join(f"{i}={v}" for i, v in known.items())]
            hint = draw(st.integers(-1, n + 2)) if fault or d is None else d
            argv += draw(st.sampled_from([[], ["--d", str(hint)]]))
        argv += draw(st.sampled_from([[], ["--poly"]]))
    elif command == "check":
        identity = draw(st.sampled_from(["new", "pless", "power", "doublecount", "subtypes"]))
        argv += ["--identity", identity]
        nus = [["--all-nu"], ["--nu", str(draw(st.integers(0, n)))]]
        if fault:
            nus = [[], ["--nu", "-1"], ["--nu", str(n + 1)], ["--nu", "0", "--all-nu"]]
        argv += draw(st.sampled_from(nus))
        if identity in ("doublecount", "subtypes") or fault:
            argv += draw(st.sampled_from([[], ["--subset-cap", str(draw(st.integers(-1, 300)))]]))
        if identity != "subtypes" or fault:
            if draw(st.booleans()):
                argv += ["--distribution", ",".join(map(str, _count_list(draw, counts)))]
    elif command in ("mac", "random"):
        # flag: (good values, bad values)
        if command == "mac":
            text = json.dumps(_count_list(draw, counts))
            p, card, rank = doc.ring.p, code.cardinality, code.rank
            values = {
                "--p": ([p], [0, 1, 4]),
                "--s": ([doc.ring.s], [0, 40]),
                "--n": ([n], [n - 1, -1]),
                "--card": ([card], [0, card * p]),
                "--rank": ([rank], [-1, n + 1]),
                "--free-rank": ([code.free_rank], [-1, rank + 1]),
            }
        else:
            argv = [command, "--seed", str(draw(st.integers(0, 10**6)))]
            argv += ["--backend", draw(st.sampled_from(["int", "poly"]))]
            values = {
                "--p": ([2, 3, 5], [0, 1, 4]),
                "--s": ([1, 2, 3], [0, 40]),
                "--n": ([0, 3, 5], [-1]),
                "--rows": ([0, 1, 3], [-1]),
            }
        faulty = draw(st.sampled_from(sorted(values))) if fault else None
        for flag, (good, bad) in values.items():
            argv += [flag, str(draw(st.sampled_from(bad if flag == faulty else good)))]
    return text, argv


class TestExitCodeContract:
    """Every subcommand, on seed-corpus documents with valid and invalid flag
    values, under the default enumeration cap and a small one."""

    @settings(max_examples=300, deadline=None)
    @given(contract_call(), st.sampled_from([None, "50"]))
    def test_exit_code_and_streams(self, call, cap):
        text, argv = call
        with mock.patch.dict(os.environ):
            os.environ.pop(ENUMERATION_CAP_ENV, None)
            if cap is not None:
                os.environ[ENUMERATION_CAP_ENV] = cap
            status, out, err = run_stdin(text, *argv)
        assert status in (0, 1, 2, 3), (argv, text, err)
        assert "Traceback" not in err
        if status in (0, 1):
            assert err == "", (argv, text)
            json.loads(out)
        else:
            assert out == "", (argv, text)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, text, lines)
