"""Command-line surface: commands, report embedding, exit codes."""

import json
import math
from argparse import Namespace

import pytest

from juryconv import ConvMatrix, SeriesDivergenceError, cli
from juryconv import partitions as partitions_mod
from juryconv.cli import main, parse_alpha_grid, parse_h_grid
from juryconv.numerics import ScalarError

from helpers import normwise_error, power_reference


@pytest.fixture
def matrix_files(tmp_path):
    a = {"rows": 2, "cols": 2, "scalar": "rational",
         "data": [["1/1", "2/1"], ["3/1", "4/1"]]}
    b = {"rows": 2, "cols": 2, "scalar": "rational",
         "data": [["5/1", "6/1"], ["7/1", "8/1"]]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return pa, pb


class TestConvCommand:
    def test_truncated(self, matrix_files, tmp_path, capsys):
        pa, pb = matrix_files
        out = tmp_path / "out.json"
        assert main(["conv", str(pa), str(pb), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["data"] == [["5/1", "16/1"], ["22/1", "60/1"]]

    def test_padded_shape(self, matrix_files, capsys):
        pa, pb = matrix_files
        assert main(["conv", str(pa), str(pb), "--padded"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 3 and payload["cols"] == 3

    def test_malformed_json_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 1, "cols": 1, "data": [[1]]}')
        code = main(["conv", str(bad), str(bad)])
        assert code == 2
        assert "scalar" in capsys.readouterr().err

    def test_missing_file(self, matrix_files, capsys):
        pa, _ = matrix_files
        assert main(["conv", str(pa), "/definitely/not/here.json"]) == 2


class TestTransformCommand:
    def test_exp_smooth(self, tmp_path, capsys):
        m = {"rows": 2, "cols": 2, "scalar": "complex",
             "data": [[0.0, 1.0], [1.0, 0.0]]}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(m))
        assert main(["transform", str(p), "--function", '{"kind":"exp"}']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "smooth"
        data = payload["result"]["data"]
        assert all(abs(entry[0] - 1.0) < 1e-12 for row in data for entry in row)

    def test_exp_past_factorial_float_range(self, tmp_path, capsys):
        # Orders up to 199: l! leaves float range from l = 171, the Taylor coefficients do not.
        p = tmp_path / "m.json"
        p.write_text(ConvMatrix.floats([[1.0] * 200]).to_json())
        assert main(["transform", str(p), "--function", '{"kind":"exp"}']) == 0
        data = json.loads(capsys.readouterr().out)["result"]["data"][0]
        assert data[0] == data[1] == [math.e, 0.0]
        assert all(math.isfinite(re) and re > 0 for re, _ in data)

    def test_power_past_factorial_float_range(self, tmp_path, capsys):
        # Orders up to 199 of x^0.5, whose derivatives at 1 leave float range from order 172.
        a = ConvMatrix.floats([[1.0] * 200])
        p = tmp_path / "m.json"
        p.write_text(a.to_json())
        assert main(["transform", str(p), "--function", '{"kind":"power","alpha":0.5}']) == 0
        got = ConvMatrix.from_json_dict(json.loads(capsys.readouterr().out)["result"])
        want = power_reference(a, 0.5)
        assert normwise_error(got, want) <= 1e-13
        assert (abs(got.to_numpy() - want) <= 1e-12 * abs(want)).all()

    def test_stepped_needs_h(self, matrix_files, capsys):
        pa, _ = matrix_files
        code = main(["transform", str(pa), "--function", '{"kind":"exp"}',
                     "--mode", "stepped"])
        assert code == 2

    def test_square_polynomial(self, matrix_files, capsys):
        pa, _ = matrix_files
        assert main(["transform", str(pa), "--function",
                     '{"kind":"poly","coeffs":[0,0,1]}']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["data"] == [["1/1", "4/1"], ["6/1", "20/1"]]

    def test_domain_error_exit(self, tmp_path, capsys):
        m = {"rows": 2, "cols": 2, "scalar": "complex",
             "data": [[-1.0, 0.5], [0.5, 0.5]]}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(m))
        code = main(["transform", str(p), "--function",
                     '{"kind":"power","alpha":0.5}'])
        assert code == 2


class TestMalformedFields:
    """Well-formed JSON with a field of the wrong type: exit 2, one error line."""

    @staticmethod
    def _exits_two(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @staticmethod
    def _matrix_file(tmp_path, **fields):
        m = {"rows": 2, "cols": 2, "scalar": "complex", "data": [[1.0, 0.5], [0.5, 1.0]]}
        m.update(fields)
        p = tmp_path / "m.json"
        p.write_text(json.dumps(m))
        return str(p)

    def test_float_rows(self, tmp_path, capsys):
        p = self._matrix_file(tmp_path, rows=2.0)
        self._exits_two(["conv", p, p], capsys)

    def test_null_alpha(self, tmp_path, capsys):
        self._exits_two(["transform", self._matrix_file(tmp_path), "--function",
                         '{"kind":"power","alpha":null}'], capsys)

    def test_scalar_series_coeffs(self, tmp_path, capsys):
        self._exits_two(["transform", self._matrix_file(tmp_path), "--function",
                         '{"kind":"series","coeffs":5,"radius":1}'], capsys)

    def test_null_series_coefficient(self, tmp_path, capsys):
        self._exits_two(["transform", self._matrix_file(tmp_path), "--function",
                         '{"kind":"series","coeffs":[1,null],"radius":1}'], capsys)

    def test_string_max_order(self, tmp_path, capsys):
        self._exits_two(["transform", self._matrix_file(tmp_path), "--function",
                         '{"kind":"power","alpha":0.5,"max_order":"x"}'], capsys)


class TestArithmeticErrors:
    """Overflow and division by zero inside a transform: exit 2, one error line."""

    @staticmethod
    def _transform(tmp_path, capsys, scalar, data, *argv):
        m = {"rows": len(data), "cols": len(data[0]), "scalar": scalar, "data": data}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(m))
        TestMalformedFields._exits_two(["transform", str(p), *argv], capsys)

    def test_exp_overflow(self, tmp_path, capsys):
        self._transform(tmp_path, capsys, "rational", [["1000/1", "1/1"]],
                        "--function", '{"kind":"exp"}')

    def test_stepped_exp_overflow(self, tmp_path, capsys):
        self._transform(tmp_path, capsys, "rational", [["1000/1", "1/1"]],
                        "--function", '{"kind":"exp"}', "--mode", "stepped", "--h", "0.5")

    def test_negative_power_of_subnormal(self, tmp_path, capsys):
        self._transform(tmp_path, capsys, "complex", [[1e-320, 1.0]],
                        "--function", '{"kind":"power","alpha":-2}')

    def test_derivative_beyond_float_range(self, tmp_path, capsys):
        # a00^alpha = 1e600 is past float range: the float power raises OverflowError.
        self._transform(tmp_path, capsys, "complex", [[1e200, 1.0]],
                        "--function", '{"kind":"power","alpha":3}')

    def test_overflow_in_a_real_chain(self, tmp_path, capsys):
        # Real entries are stored and multiplied in float64; G <> G still overflows to exit 2.
        self._transform(tmp_path, capsys, "complex", [[0.5, 1e200], [1e200, 1e200]],
                        "--function", '{"kind":"exp"}')

    def test_step_power_underflow(self, tmp_path, capsys):
        self._transform(tmp_path, capsys, "complex", [[1.0] * 200],
                        "--function", '{"kind":"exp"}', "--mode", "stepped", "--h", "0.001")


class TestMinpolyCommand:
    def test_output(self, matrix_files, capsys):
        pa, _ = matrix_files
        assert main(["minpoly", str(pa)]) == 0
        out = capsys.readouterr().out
        assert "(z - 1)^3" in out and "witness" in out

    def test_float_power_near_threshold(self, tmp_path, capsys):
        x = math.sqrt(0.75e-10)
        p = tmp_path / "near.json"
        p.write_text(ConvMatrix.floats([[1.0, x], [x, 0.0]]).to_json())
        assert main(["minpoly", str(p)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1

    def test_float_small_nilpotent_part(self, tmp_path, capsys):
        x = 1e-11
        p = tmp_path / "small.json"
        p.write_text(ConvMatrix.floats([[1.0, x], [x, 0.0]]).to_json())
        assert main(["minpoly", str(p)]) == 0
        assert "^3" in capsys.readouterr().out

    def test_never_enumerates_partitions(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("partition enumeration on the minimal-polynomial path")

        monkeypatch.setattr(partitions_mod, "enumerate_partitions", refuse)
        p = tmp_path / "row0.json"
        p.write_text(ConvMatrix.rational([[2] + [1] * 9] + [[0] * 10 for _ in range(9)]).to_json())
        assert main(["minpoly", str(p)]) == 0
        assert capsys.readouterr().out.startswith("(z - 2)^10")


class TestBruhatCommand:
    def test_payload(self, capsys):
        assert main(["bruhat", "--perm", "3 1 2", "--perm", "3 2 1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["leq"] is True
        assert payload["geq"] is False
        assert payload["incomparable"] is False
        assert "rank_matrices" in payload

    def test_needs_two_perms(self, capsys):
        assert main(["bruhat", "--perm", "1 2"]) == 2


class TestProbSumCommand:
    def test_sum(self, tmp_path, capsys):
        d = {"kind": "distribution", "rows": 2, "cols": 1, "scalar": "rational",
             "data": [["1/2"], ["1/2"]]}
        p = tmp_path / "d.json"
        p.write_text(json.dumps(d))
        assert main(["prob-sum", str(p), str(p)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "distribution"
        assert payload["data"] == [["1/4"], ["1/2"], ["1/4"]]


class TestPartitionsCommand:
    def test_listing(self, capsys):
        assert main(["partitions", "--rows", "2", "--cols", "2",
                     "--ell", "2", "--target", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "(0,1)^1 (1,0)^1" in out
        assert "# 1 partitions" in out

    def test_cap_overrun_exits_two(self, monkeypatch, capsys):
        # An empty cache, so the cap is reached whatever other tests enumerated first.
        monkeypatch.setattr(partitions_mod, "_cache", {})
        monkeypatch.setattr(partitions_mod, "PARTITION_CAP", 50)
        code = main(["partitions", "--rows", "6", "--cols", "6",
                     "--ell", "5", "--target", "5,5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGridParsing:
    def test_h_grid(self):
        grid = parse_h_grid("1:0.1:0.5")
        assert grid == (1.0, 0.5, 0.25, 0.125)

    def test_h_grid_rejects_bad_spec(self):
        for bad in ("1:2", "1:2:0.5", "0.1:1:0.5", "1:0.1:2"):
            with pytest.raises(ScalarError):
                parse_h_grid(bad)

    def test_alpha_grid(self):
        assert parse_alpha_grid("0.3, 1.7,2.5") == (0.3, 1.7, 2.5)


class TestSuites:
    def test_prob_suite_passes(self, capsys):
        assert main(["suite", "prob"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["config"]["seed"] == 0
        assert payload["expectation"]

    def test_ch_suite_small(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["suite", "ch", "--trials", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["report"]["two_by_two_table_ok"] is True

    def test_fh_suite_expected_counterexample(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["suite", "fh", "--n", "2", "--trials", "20",
                     "--alpha-grid=-0.5,2.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        rows = {row["alpha"]: row for row in payload["report"]["rows"]}
        assert rows[-0.5]["found_violation"] is True
        assert rows[2.0]["violations"] == 0

    @pytest.mark.parametrize("n", ["16", "24"])
    def test_fh_suite_past_twelve(self, n, capsys):
        # Float x^alpha stays Hermitian within is_psd's tolerance at these sizes.
        assert main(["suite", "fh", "--n", n, "--trials", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_violated_expectation_exits_one(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.SUITES, "prob", lambda cfg: ({"forced": True}, False))
        args = Namespace(name="prob", n=4, trials=5, seed=0,
                         tol=1e-8, alpha_grid=None, h_grid=None, out=None)
        assert cli.cmd_suite(args) == 1

    def test_series_divergence_exits_two(self, monkeypatch, capsys):
        def diverge(cfg):
            raise SeriesDivergenceError("series did not settle within 10 terms")

        monkeypatch.setitem(cli.SUITES, "prob", diverge)
        assert main(["suite", "prob"]) == 2
        err = capsys.readouterr().err
        assert err == "error: series did not settle within 10 terms\n"

    @pytest.mark.parametrize("name", sorted(cli.SUITES))
    @pytest.mark.parametrize("extra", [["--n", "0"], ["--n", "-2"],
                                       ["--trials", "0"], ["--tol", "-1"]])
    def test_out_of_range_arguments_keep_exit_contract(self, name, extra, capsys):
        def reject(constant):
            raise ValueError(f"report holds {constant}, which is not JSON")

        code = main(["suite", name, *extra])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if captured.out:
            json.loads(captured.out, parse_constant=reject)
        if code == 2:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_negative_or_nan_tol_names_the_flag(self, capsys):
        for tol in ("-1", "nan"):
            assert main(["suite", "prob", "--tol", tol]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --tol") and err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(cli.SUITES))
    def test_counts_below_one_name_the_flag(self, name, capsys):
        # A suite run on no size or no trial would report success after checking nothing.
        for flag, value in (("--n", "0"), ("--n", "-2"), ("--trials", "0")):
            assert main(["suite", name, flag, value]) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert captured.err == f"error: {flag} must be >= 1, got {value}\n"

    def test_seed_recorded_in_report(self, capsys):
        assert main(["suite", "bruhat", "--n", "3", "--seed", "77"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 77
