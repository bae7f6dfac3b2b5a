"""CLI behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

import chainring.cli
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


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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

    def test_subtypes_rejects_nu_zero(self, capsys, c1_file):
        status, _, err = run(capsys, "check", c1_file, "--identity", "subtypes", "--nu", "0")
        assert status == 2
        assert "nu >= 1" in err

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

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wdist"])  # missing file argument
        assert exc.value.code == 2
