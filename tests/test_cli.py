"""Front-end: document validation, subcommand outputs, exit codes."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from cbilab import coupling
from cbilab.cli import build_parser, load_document, main, parse_scenario
from cbilab.coupling import jordan_decompose
from cbilab.cumulant import FLOW_TOL, mean_vector
from cbilab.distance import TV_BINS
from cbilab.errors import ValidationError
from cbilab.simulate import JUMP_THRESHOLD
from cbilab.verify import run_scenario, share_cpus
from closed_forms import closed_form_quadratic

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

    def test_defaults_are_the_library_constants(self, tmp_path):
        # a setting the front end wrote out again could drift from the library's
        parser = build_parser()
        assert parser.parse_args(["cumulant", "doc.json"]).tolerance == FLOW_TOL
        assert parser.parse_args(["distance", "a.csv", "b.csv"]).bins == TV_BINS
        doc = load_document(write_doc(tmp_path))
        assert "epsilon" not in doc["sim"]
        assert parse_scenario(doc).cfg.jump_threshold == JUMP_THRESHOLD

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
        # malformed numbers are refused, never coerced
        bad_numbers = [("samples", v) for v in (400.7, "400", True)]
        bad_numbers += [(k, v) for k in ("dt", "epsilon") for v in ("0.01", True, math.nan)]
        bad_numbers += [("epsilon", math.inf)]
        for key, bad in bad_numbers:
            with pytest.raises(ValidationError, match="must be"):
                parse_scenario(doc, {key: bad})
            sim_key = {"samples": "n_samples"}.get(key, key)
            path = write_doc(tmp_path, sim={"n_samples": 400, "dt": 0.01} | {sim_key: bad})
            with pytest.raises(ValidationError, match="must be|non-standard JSON constant"):
                parse_scenario(load_document(path))
        for bad in ("5", True, None):
            with pytest.raises(ValidationError, match="tamper must be a finite number"):
                parse_scenario(doc | {"tamper": bad})
        for bad in (["1.0"], [0.5, True], "1", 1.0, []):
            with pytest.raises(ValidationError, match="time"):
                parse_scenario(doc | {"times": bad})
        assert main(["mech-info", str(path)]) == 2
        assert main(["simulate", str(write_doc(tmp_path)), "--samples", "0", "--out", str(tmp_path)]) == 2
        assert main(["simulate", str(write_doc(tmp_path)), "--seed", "-1", "--out", str(tmp_path)]) == 2

    def test_dimension_must_be_a_positive_integer(self, tmp_path, capsys):
        for bad in (True, 1.0, 0, "1"):
            path = write_doc(tmp_path, dimension=bad)
            with pytest.raises(ValidationError, match="dimension must be an integer"):
                parse_scenario(load_document(path))
        assert main(["mech-info", str(path)]) == 2
        assert "dimension must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, field", [
        ({"mechanism": {"b": 1.0, "c": [1.0]}}, "mechanism.b"),
        ({"mechanism": {"b": [1.0], "c": [1.0], "jumps": 5}}, "mechanism.jumps"),
        ({"mechanism": {"b": [1.0], "c": ["a"]}}, "mechanism.c"),
        ({"initial": {"mu": "abc"}}, "initial.mu"),
        ({"lambda_probe": ["x"]}, "lambda_probe"),
        ({"schema_version": True}, "schema_version"),
    ])
    def test_wrongly_typed_value_names_field(self, tmp_path, capsys, changes, field):
        path = write_doc(tmp_path, **changes)
        with pytest.raises(ValidationError, match=re.escape(field)):
            parse_scenario(load_document(path))
        assert main(["mech-info", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_non_standard_json_constant_rejected(self, tmp_path):
        path = write_doc(tmp_path)
        path.write_text(path.read_text().replace('"seed": 5', '"seed": NaN'))
        with pytest.raises(ValidationError, match="NaN"):
            load_document(path)

    def test_repeated_check_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = write_doc(tmp_path, checks=["lipschitz_contraction", "lipschitz_contraction"])
        with pytest.raises(ValidationError, match="more than once"):
            parse_scenario(load_document(path))
        out = tmp_path / "out"
        assert main(["verify", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "checks listed more than once: ['lipschitz_contraction']" in captured.err
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "{doc}", "--t", "nan"], "--t"),
        (["simulate", "{doc}", "--t", "-1"], "--t"),
        (["couple", "{doc}", "--t", "nan"], "--t"),
        (["simulate", f"{SCENARIOS}/ref_d1_stable.json", "--t", "inf"], "--t"),
        (["cumulant", "{doc}", "--lam", "abc"], "--lam"),
        (["cumulant", "{doc}", "--grid", "-1"], "--grid"),
        (["verify", "{doc}", "--workers", "0"], "--workers"),
        (["verify", "{doc}", "--workers", "-3"], "--workers"),
        (["distance", "{csv}", "{csv}"], "bad.csv"),
        (["distance", "{good}", "{good}", "--bins", "0"], "--bins"),
        (["cumulant", "{doc}", "--tolerance", "1e-300", "--t", "1", "--grid", "3"], "--tolerance"),
        (["cumulant", "{doc}", "--tolerance", "inf"], "--tolerance"),
        (["simulate", f"{SCENARIOS}/ref_d1_stable.json", "--dt", "1e-300", "--samples", "1",
          "--t", "1"], "dt = 1e-300"),
        (["cumulant", "{doc}", "--t", "0"], "--t"),
    ])
    def test_bad_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, flag):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x_1\nabc\n")
        good_csv = tmp_path / "good.csv"
        good_csv.write_text("x_1\n1.0\n2.0\n")
        doc = write_doc(tmp_path)
        argv = [a.format(doc=doc, csv=bad_csv, good=good_csv) for a in argv]
        out = tmp_path / "out"
        if argv[0] != "distance":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        *(("mech-info", flag) for flag in ("--seed", "--samples", "--dt", "--epsilon", "--out")),
        *((command, flag) for command in ("cumulant", "moments")
          for flag in ("--seed", "--samples", "--dt", "--epsilon")),
    ])
    def test_flag_a_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, str(write_doc(tmp_path)), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_each_command_takes_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        options = {name: {a.option_strings[-1] for a in p._actions if a.option_strings} - {"--help"}
                   for name, p in sub.choices.items()}
        sim = {"--seed", "--samples", "--dt", "--epsilon", "--out"}
        assert options == {
            "mech-info": set(),
            "cumulant": {"--out", "--tolerance", "--lam", "--t", "--grid"},
            "moments": {"--out"},
            "simulate": sim | {"--t"},
            "couple": sim | {"--t"},
            "distance": {"--metric", "--bins"},
            "stationary": sim,
            "verify": sim | {"--workers"},
        }
        assert sum(map(len, options.values())) == 31

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
                     "--out", str(tmp_path)]) == 0
        assert "vbar(1) not available: Grey's condition fails" in capsys.readouterr().out


    def test_vbar_message_when_an_envelope_route_fails(self, tmp_path, capsys):
        # the envelope's ladder does not stabilize for this mechanism: the
        # command still writes its flow and says why vbar is missing
        path = write_doc(tmp_path, mechanism={"b": [1.0], "c": [0.0], "jumps": [[
            {"kind": "stable", "axis": 0, "alpha": 0.5, "scale": 1.0},
            {"kind": "point", "u": [0.5], "weight": 1.0}]]}, times=[1.0])
        assert main(["cumulant", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "cumulant.csv").exists()
        out = capsys.readouterr().out
        assert "vbar(1) not available: extinction envelope ladder failed to stabilize" in out

class TestSmallCommands:
    def test_mech_info_reports_rates(self, tmp_path, capsys):
        assert main(["mech-info", str(write_doc(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "beta_star: 1" in out
        assert "moment decay rate: 1\n" in out
        assert "Grey's condition: holds" in out
        assert "stationary mean: [2.0]" in out
        path = write_doc(tmp_path, mechanism={"b": [1.0], "c": [0.0]})
        assert main(["mech-info", str(path)]) == 0
        assert "Grey's condition fails" in capsys.readouterr().out

    def test_failed_write_leaves_existing_file(self, tmp_path, monkeypatch):
        path = write_doc(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--samples", "5", "--out", str(out)]) == 0
        before = (out / "samples.csv").read_bytes()
        savetxt = np.savetxt

        def interrupted(fname, X, *args, **kwargs):
            savetxt(fname, X[:1], *args, **kwargs)  # part of the file, then a crash
            raise RuntimeError("interrupted")

        monkeypatch.setattr(np, "savetxt", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["simulate", str(path), "--samples", "7", "--seed", "8", "--out", str(out)])
        assert (out / "samples.csv").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["samples.csv"]

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

    def test_couple_with_immigration_writes_the_marginal_legs(self, tmp_path):
        # `couple` is the one caller that draws the shared influx: its legs
        # are the marginals with immigration, and the digest pins the CSV
        # bytes at this seed, so a change to the coupling's stream shows
        doc = f"{SCENARIOS}/ref_d1_quadratic.json"
        assert main(["couple", doc, "--t", "1", "--samples", "2000", "--seed", "9",
                     "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "couple.csv").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == \
            "06d41c5d662cca812d59fb3e627194917660e87848c452b231ffdbfa2bf08dfc"
        left, right, cost = np.loadtxt(tmp_path / "couple.csv", delimiter=",", skiprows=1).T
        sc = parse_scenario(load_document(doc))
        for leg, start in ((left, sc.mu), (right, sc.nu)):
            target = float(mean_vector(sc.mech, start, 1.0, sc.imm)[0])
            assert abs(leg.mean() - target) <= 4 * leg.std() / math.sqrt(len(leg))
        np.testing.assert_allclose(cost, np.abs(left - right), rtol=0,
                                   atol=1e-11 * max(left.max(), right.max()))

    @pytest.mark.parametrize("name, digest", [
        ("ref_d1_quadratic", "0b6b36b0c35df8e8f9cfa4c1dd3f8ce92e2ee97ad7d609dcf83fa365fa7d3e44"),
        ("ref_d1_stable", "6f767605b257cc87bc6164911657bbccad5ecde92b940cb3ca687f8d325742b3"),
    ], ids=["ref_d1_quadratic", "ref_d1_stable"])
    def test_couple_keeps_its_bytes_at_the_shipped_seed_and_n(self, tmp_path, name, digest):
        # the full coupling draws the meet path, the Jordan pieces and the
        # influx on one stream in that order; these are the bytes of that
        # order on the exact and the stepped stable route
        assert main(["couple", f"{SCENARIOS}/{name}.json", "--t", "1",
                     "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "couple.csv").read_bytes()).hexdigest() == digest

    def test_couple_draws_the_meet_then_the_pieces_then_the_influx(self, tmp_path, monkeypatch):
        # cost guard, counted: `couple` writes the marginal legs, so it
        # draws the meet path that `verify` leaves out, and the shared influx
        calls, real = [], coupling.sample_path

        def recording(x0, mech, times, cfg, rng, imm=None):
            calls.append((np.array(x0, dtype=float), imm is not None))
            return real(x0, mech, times, cfg, rng, imm=imm)

        monkeypatch.setattr(coupling, "sample_path", recording)
        doc = f"{SCENARIOS}/ref_d1_stable.json"  # mu 1.5, nu 0.5: the three starts differ
        assert main(["couple", doc, "--t", "1", "--samples", "200", "--out", str(tmp_path)]) == 0
        sc = parse_scenario(load_document(doc))
        meet, pos, neg = jordan_decompose(sc.mu, sc.nu)
        expected = [(meet, False), (pos, False), (neg, False), (np.zeros(1), True)]
        assert len(calls) == len(expected)
        for (start, with_imm), (want, want_imm) in zip(calls, expected):
            assert np.array_equal(start, want) and with_imm == want_imm

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

    def test_histogram_past_the_cell_cap_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("x_1,x_2\n1,2\n3,0.5\n0,0\n")
        assert main(["distance", str(a), str(a), "--bins", "100000"]) == 2
        captured = capsys.readouterr()
        assert "100000 bins per axis in d = 2" in captured.err
        assert captured.out == ""

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
        # the shipped document as is: 20000 samples, seed 1
        code = main(["verify", f"{SCENARIOS}/ref_d1_quadratic.json", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "total: 44 pass, 0 fail, 0 skipped" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["metadata"]["n_samples"] == 20000
        assert report["metadata"]["seed"] == 1
        assert [r["verdict"] for r in report["rows"]] == ["pass"] * 44
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
        for report in (a, b):  # the timing fields
            report["metadata"].pop("runtime_s")
            report["metadata"].pop("check_s")
        assert a == b

    def test_an_absent_seed_is_zero(self, tmp_path):
        doc = write_doc(tmp_path, sim={"n_samples": 200, "dt": 0.01},
                        checks=["laplace", "tv_sandwich"])
        for command, csv in (("simulate", "samples.csv"), ("couple", "couple.csv"),
                             ("stationary", "stationary.csv")):
            for sub in ("one", "two"):
                assert main([command, str(doc), "--out", str(tmp_path / sub)]) == 0
            assert (tmp_path / "one" / csv).read_bytes() == (tmp_path / "two" / csv).read_bytes()
        assert main(["verify", str(doc), "--out", str(tmp_path / "report")]) == 0
        assert json.loads((tmp_path / "report" / "report.json").read_text())["metadata"]["seed"] == 0
        seedless = load_document(doc)
        zero = seedless | {"sim": seedless["sim"] | {"seed": 0}}
        assert run_scenario(parse_scenario(seedless)).rows == run_scenario(parse_scenario(zero)).rows

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

    def test_workers_capped_at_document_count(self, tmp_path, monkeypatch):
        # a pool starts all of its workers up front, so verify asks for no
        # more than it has documents, and each worker takes its share of the
        # CPUs for its replicates; the recording pool starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                assert (initializer, initargs) == (share_cpus, (max_workers,))
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("cbilab.cli.ProcessPoolExecutor", RecordingPool)
        docs = [write_doc(tmp_path, name=f"{nm}.json", checks=["laplace"])
                for nm in ("a", "b")]
        for p, nm in zip(docs, ("scen-a", "scen-b")):
            p.write_text(json.dumps(json.loads(p.read_text()) | {"name": nm}))
        assert main(["verify", *map(str, docs), "--workers", "64",
                     "--out", str(tmp_path / "batch")]) == 0
        assert sizes == [2]
        assert main(["verify", str(docs[0]), "--workers", "64",
                     "--out", str(tmp_path / "one")]) == 0
        assert sizes == [2]  # one document runs in this process
