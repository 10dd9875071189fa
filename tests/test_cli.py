"""Front-end: document validation, subcommand outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from cbilab.cli import load_document, main, parse_scenario
from cbilab.cumulant import closed_form_quadratic
from cbilab.errors import ValidationError

SCENARIOS = "scenarios"


def write_doc(tmp_path, name="doc.json", **changes):
    doc = {
        "schema_version": 1,
        "name": "cli-test",
        "dimension": 1,
        "mechanism": {"b": [1.0], "c": [1.0]},
        "immigration": {"beta": [2.0]},
        "initial": {"mu": [2.0], "nu": [1.0]},
        "times": [0.5, 1.0],
        "sim": {"n_samples": 400, "dt": 0.01, "seed": 5},
    }
    doc.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestDocumentValidation:
    def test_unknown_top_level_field(self, tmp_path):
        path = write_doc(tmp_path, extra_knob=1)
        with pytest.raises(ValidationError, match="unknown fields"):
            load_document(path)

    def test_unknown_sim_field(self, tmp_path):
        path = write_doc(tmp_path, sim={"n_samples": 10, "dt": 0.1, "threads": 4})
        with pytest.raises(ValidationError, match="unknown fields in sim"):
            load_document(path)

    def test_missing_required_field(self, tmp_path):
        doc = json.loads(write_doc(tmp_path).read_text())
        del doc["times"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="missing fields"):
            load_document(path)

    def test_wrong_schema_version(self, tmp_path):
        path = write_doc(tmp_path, schema_version=99)
        with pytest.raises(ValidationError, match="schema_version"):
            load_document(path)

    def test_unknown_jump_kind(self, tmp_path):
        path = write_doc(tmp_path, mechanism={
            "b": [1.0], "c": [1.0],
            "jumps": [[{"kind": "levy-flight", "u": [1.0], "weight": 1.0}]]})
        with pytest.raises(ValidationError, match="unknown jump kind"):
            parse_scenario(load_document(path))

    def test_dimension_mismatch(self, tmp_path):
        path = write_doc(tmp_path, dimension=2)
        with pytest.raises(ValidationError, match="dimension"):
            parse_scenario(load_document(path))

    def test_flag_overrides(self, tmp_path):
        doc = load_document(write_doc(tmp_path))
        sc = parse_scenario(doc, {"seed": 77, "samples": 123, "dt": 0.5, "epsilon": 0.2})
        assert sc.cfg.seed == 77
        assert sc.cfg.n_samples == 123
        assert sc.cfg.dt == 0.5
        assert sc.cfg.jump_threshold == 0.2
        # zero is a valid threshold and must not fall back to the document
        assert parse_scenario(doc, {"epsilon": 0.0}).cfg.jump_threshold == 0.0
        assert parse_scenario(doc, {"seed": None}).cfg.seed == 5
        assert parse_scenario(doc, {"seed": 0}).cfg.seed == 0
        bad_seeds = (1.5, -1, True, "7")
        for key, bad in (("samples", 0), ("dt", 0), ("dt", math.inf),
                         *(("seed", s) for s in bad_seeds)):
            with pytest.raises(ValidationError, match="must be"):
                parse_scenario(doc, {key: bad})
        for bad in bad_seeds:
            path = write_doc(tmp_path, sim={"n_samples": 400, "dt": 0.01, "seed": bad})
            with pytest.raises(ValidationError, match="seed must be"):
                parse_scenario(load_document(path))
        assert main(["mech-info", str(path)]) == 2
        assert main(["mech-info", str(write_doc(tmp_path)), "--samples", "0"]) == 2
        assert main(["mech-info", str(write_doc(tmp_path)), "--seed", "-1"]) == 2

    def test_dimension_must_be_a_positive_integer(self, tmp_path, capsys):
        for bad in (True, 1.0, 0, "1"):
            path = write_doc(tmp_path, dimension=bad)
            with pytest.raises(ValidationError, match="dimension must be an integer"):
                parse_scenario(load_document(path))
        assert main(["mech-info", str(path)]) == 2
        assert "dimension must be an integer" in capsys.readouterr().err

    def test_non_standard_json_constant_rejected(self, tmp_path):
        path = write_doc(tmp_path)
        path.write_text(path.read_text().replace('"seed": 5', '"seed": NaN'))
        with pytest.raises(ValidationError, match="NaN"):
            load_document(path)

    def test_bundled_documents_parse(self):
        for name in ("ref_d1_quadratic", "ref_d2_folded", "ref_d1_stable",
                     "negative_control"):
            sc = parse_scenario(load_document(f"{SCENARIOS}/{name}.json"))
            assert sc.name == name


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["mech-info", "no-such-file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mech-info", str(bad)]) == 2

    def test_unknown_field_is_input_error(self, tmp_path, capsys):
        assert main(["mech-info", str(write_doc(tmp_path, extra=1))]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_blow_up_is_numeric_error(self, tmp_path, capsys):
        # linear supercritical flow grows like e^{2t}; past the solver
        # ceiling this must surface as exit 3, not a traceback
        path = write_doc(tmp_path, mechanism={"b": [-2.0], "c": [0.0]},
                         immigration={"beta": [0.0]})
        assert main(["cumulant", str(path), "--lam", "1", "--t", "20",
                     "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestCumulant:
    def test_csv_matches_closed_form(self, tmp_path, capsys):
        path = write_doc(tmp_path)
        assert main(["cumulant", str(path), "--lam", "1", "--t", "2",
                     "--grid", "9", "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "cumulant.csv", delimiter=",", skiprows=1)
        for t, v in data:
            assert v == pytest.approx(closed_form_quadratic(1.0, 1.0, 1.0, t), rel=1e-8)
        out = capsys.readouterr().out
        assert "vbar(" in out  # Grey holds for the quadratic mechanism

    def test_lambda_zero_gives_zero_columns(self, tmp_path):
        path = write_doc(tmp_path)
        assert main(["cumulant", str(path), "--lam", "0", "--t", "1",
                     "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "cumulant.csv", delimiter=",", skiprows=1)
        assert np.all(data[:, 1] == 0.0)

    def test_vbar_message_when_grey_fails(self, tmp_path, capsys):
        path = write_doc(tmp_path, mechanism={"b": [1.0], "c": [0.0]})
        assert main(["cumulant", str(path), "--lam", "1", "--t", "1",
                     "--vbar", "--out", str(tmp_path)]) == 0
        assert "Grey's condition fails" in capsys.readouterr().out


class TestSmallCommands:
    def test_mech_info_reports_rates(self, tmp_path, capsys):
        assert main(["mech-info", str(write_doc(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "beta_star: 1" in out
        assert "stationary mean: [2.0]" in out

    def test_moments_csv(self, tmp_path):
        path = write_doc(tmp_path)
        assert main(["moments", str(path), "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "moments.csv", delimiter=",", skiprows=1)
        # row at t: e^{-t} mu + 2(1 - e^{-t})
        for t, m in data:
            assert m == pytest.approx(2.0 * math.exp(-t) + 2.0 * (1 - math.exp(-t)))

    def test_simulate_single_row(self, tmp_path):
        path = write_doc(tmp_path)
        assert main(["simulate", str(path), "--samples", "1", "--t", "1",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "samples.csv").read_text().strip().split("\n")
        assert lines[0] == "x_1"
        assert len(lines) == 2

    def test_couple_equal_starts_zero_cost(self, tmp_path):
        path = write_doc(tmp_path, initial={"mu": [1.5], "nu": [1.5]})
        assert main(["couple", str(path), "--t", "1", "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "couple.csv", delimiter=",", skiprows=1)
        assert np.all(data[:, 2] == 0.0)
        np.testing.assert_array_equal(data[:, 0], data[:, 1])

    def test_stationary_needs_immigration(self, tmp_path, capsys):
        doc = json.loads(write_doc(tmp_path).read_text())
        del doc["immigration"]
        path = tmp_path / "noimm.json"
        path.write_text(json.dumps(doc))
        assert main(["stationary", str(path), "--out", str(tmp_path)]) == 2

    def test_stationary_writes_samples(self, tmp_path, capsys):
        path = write_doc(tmp_path)
        assert main(["stationary", str(path), "--samples", "2000",
                     "--out", str(tmp_path)]) == 0
        x = np.loadtxt(tmp_path / "stationary.csv", delimiter=",", skiprows=1)
        assert x.mean() == pytest.approx(2.0, abs=0.15)
        assert "analytic mean: [2.0]" in capsys.readouterr().out


class TestDistance:
    def test_identical_files_zero(self, tmp_path):
        path = write_doc(tmp_path)
        main(["simulate", str(path), "--samples", "60", "--t", "1",
              "--out", str(tmp_path)])
        f = str(tmp_path / "samples.csv")
        assert main(["distance", f, f]) == 0

    def test_known_w1_value(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x_1\n0\n0\n3\n")
        b.write_text("x_1\n1\n1\n1\n")
        assert main(["distance", str(a), str(b), "--metric", "w1"]) == 0
        out = capsys.readouterr().out
        assert f"w1 = {4 / 3:.12g}" in out

    def test_quantile_fallback_past_assignment_cap(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x_1\n" + "\n".join(f"{v}" for v in rng.exponential(1, 2100)) + "\n")
        b.write_text("x_1\n" + "\n".join(f"{v}" for v in rng.exponential(1, 2100)) + "\n")
        assert main(["distance", str(a), str(b), "--metric", "w1"]) == 0
        assert "(quantile)" in capsys.readouterr().out


class TestVerifyCommand:
    def test_negative_control_exits_1(self, tmp_path):
        assert main(["verify", f"{SCENARIOS}/negative_control.json",
                     "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert all(r["verdict"] == "fail" for r in report["rows"])

    def test_reference_document_end_to_end(self, tmp_path, capsys):
        code = main(["verify", f"{SCENARIOS}/ref_d1_quadratic.json",
                     "--samples", "4000", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 fail" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["metadata"]["n_samples"] == 4000
        # scenario echo round-trips through the parser
        echo = report["metadata"]["scenario_document"]
        assert echo == json.loads(open(f"{SCENARIOS}/ref_d1_quadratic.json").read())
        sc = parse_scenario(echo)
        assert sc.name == "ref_d1_quadratic"
        # plot-ready series exist for the time-indexed checks
        series = tmp_path / "series_wasserstein_sandwich.csv"
        assert series.exists()
        header = series.read_text().split("\n")[0]
        assert header == "t,lower,upper,empirical,ci"
        data = np.loadtxt(series, delimiter=",", skiprows=1)
        assert data.shape[0] == 5

    def test_seed_determinism_byte_identical_modulo_runtime(self, tmp_path):
        doc = write_doc(tmp_path, checks=["laplace", "tv_sandwich"])
        for sub in ("one", "two"):
            assert main(["verify", str(doc), "--seed", "42",
                         "--out", str(tmp_path / sub)]) == 0
        csv_one = (tmp_path / "one" / "report.csv").read_bytes()
        csv_two = (tmp_path / "two" / "report.csv").read_bytes()
        assert csv_one == csv_two
        a = json.loads((tmp_path / "one" / "report.json").read_text())
        b = json.loads((tmp_path / "two" / "report.json").read_text())
        a["metadata"].pop("runtime_s")
        b["metadata"].pop("runtime_s")
        assert a == b

    def test_nameless_documents_named_by_file_stem(self, tmp_path, capsys):
        paths = []
        for stem in ("first", "second"):
            doc = json.loads(write_doc(tmp_path, checks=["lipschitz_contraction"]).read_text())
            del doc["name"]
            paths.append(tmp_path / f"{stem}.json")
            paths[-1].write_text(json.dumps(doc))
        assert main(["verify", *map(str, paths), "--out", str(tmp_path / "batch")]) == 0
        for stem in ("first", "second"):
            report = json.loads((tmp_path / "batch" / stem / "report.json").read_text())
            assert report["scenario"] == stem

    def test_shared_output_name_refused_before_running(self, tmp_path, capsys):
        a = write_doc(tmp_path, name="a.json")
        b = write_doc(tmp_path, name="b.json")  # both carry name "cli-test"
        assert main(["verify", str(a), str(b), "--out", str(tmp_path / "batch")]) == 2
        assert "cli-test" in capsys.readouterr().err
        assert not (tmp_path / "batch").exists()

    def test_name_must_be_one_path_component(self, tmp_path, capsys):
        # write_doc's `name` is the file name, so the field is set afterwards
        doc = json.loads(write_doc(tmp_path, checks=["lipschitz_contraction"]).read_text())
        for bad in ("", ".", "..", "../escaped", "a/b", "a\\b", 7):
            with pytest.raises(ValidationError, match="single path component"):
                parse_scenario(doc | {"name": bad})
        a = write_doc(tmp_path, name="a.json", checks=["lipschitz_contraction"])
        b = tmp_path / "b.json"
        b.write_text(json.dumps(doc | {"name": "../escaped"}))
        out = tmp_path / "runs" / "inner"
        assert main(["verify", str(a), str(b), "--out", str(out)]) == 2
        assert "single path component" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_multiple_documents_with_workers(self, tmp_path):
        doc_a = write_doc(tmp_path, name="a.json", checks=["laplace"])
        doc_b = write_doc(tmp_path, name="b.json", checks=["extinction_atom"])
        # distinct scenario names so the outputs land in separate folders
        for p, nm in ((doc_a, "scen-a"), (doc_b, "scen-b")):
            d = json.loads(p.read_text())
            d["name"] = nm
            p.write_text(json.dumps(d))
        assert main(["verify", str(doc_a), str(doc_b), "--workers", "2",
                     "--out", str(tmp_path / "batch")]) == 0
        assert (tmp_path / "batch" / "scen-a" / "report.json").exists()
        assert (tmp_path / "batch" / "scen-b" / "report.json").exists()
