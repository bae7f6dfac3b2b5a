"""CLI behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import chainring.cli
import chainring.code
from chainring import ChainRing, code_from_generators, dual, weight_distribution
from chainring.cli import main
from chainring.enumeration import ENUMERATION_CAP_ENV
from chainring.errors import InvariantError

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


def run_length_zero_twins(capsys, tmp_path, *argv):
    """Run argv on the int and the poly code of length 0 over Z/4, F_2[u]/(u^2)."""
    results = []
    for backend in ("int", "poly"):
        path = tmp_path / f"{backend}.json"
        doc = {"ring": {"p": 2, "s": 2, "backend": backend}, "n": 0, "generators": []}
        path.write_text(json.dumps(doc))
        results.append(run(capsys, argv[0], str(path), *argv[1:]))
    return results


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

    def test_classify_full_space_has_no_dual_distance(self, capsys, tmp_path):
        doc = {
            "ring": {"p": 2, "s": 2, "backend": "int"},
            "n": 2,
            "generators": [[1, 0], [0, 1]],
        }
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc))
        status, out, _ = run(capsys, "classify", str(path))
        payload = json.loads(out)
        assert status == 0
        assert payload["label"] == "MDS"
        assert payload["d_dual"] is None
        assert payload["sigma"] is None

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
        with pytest.raises(SystemExit) as exc:
            main(["wdist"])  # missing file argument
        assert exc.value.code == 2


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
            out, err = io.StringIO(), io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = main(argv)
            finally:
                sys.stdin = saved
            assert status == 2, (argv, text)
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "Traceback" not in err.getvalue()
