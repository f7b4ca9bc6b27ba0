import dataclasses
import json
import typing

import pytest

import ipgm.cli
import ipgm.harness
from ipgm.cli import _assemble_config, _build_parser, main
from ipgm.harness import (
    ExperimentConfig,
    cmd_compare,
    cmd_sweep_gamma3,
    cmd_verify,
    config_from_mapping,
    load_config_file,
)
from ipgm.linalg import EigenSolverError, IncrementalEigen
from ipgm.solver import constant_alpha_from_gamma


def small_cfg(**kw):
    base = dict(n=24, m=48, omega=4, seed=11, gamma3=(0.0, 0.2), tol=1e-4)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.m == 2 * cfg.n
        assert cfg.resolved_density() > 0

    def test_smallest_instance_takes_its_default_density(self):
        cfg = ExperimentConfig(n=2, m=3)
        assert cfg.resolved_density() == 1.0
        assert cfg.make_instance().a.shape == (3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, m=5)
        with pytest.raises(ValueError):
            ExperimentConfig(beta=())
        with pytest.raises(ValueError):
            ExperimentConfig(gamma3=())
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_mapping({"algo": "constant"})
        with pytest.raises(ValueError):
            ExperimentConfig(gamma3=(0.6,))
        with pytest.raises(ValueError):
            ExperimentConfig(beta=(2.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(schedule="exp")

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "n = 24\n"
            "m = 48\n"
            "omega = 4\n"
            "beta = 0.0,0.5\n"
            "gamma3 = 0.0,0.1\n"
            "max-iter = 500\n"
            "strict = true\n")
        mapping = load_config_file(path)
        cfg = config_from_mapping(mapping)
        assert cfg.n == 24 and cfg.m == 48
        assert cfg.beta == (0.0, 0.5)
        assert cfg.max_iter == 500
        assert cfg.strict is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"turbo": 1})

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(n=50, m=25)


@pytest.fixture(scope="module")
def sweep_report():
    return cmd_sweep_gamma3(small_cfg())


class TestSweep:
    @pytest.fixture()
    def report(self, sweep_report):
        return sweep_report

    def test_columns_cover_reference_table(self, report):
        for col in ("gamma3", "f", "it", "time_s", "alpha"):
            assert col in report.columns

    def test_alpha_matches_rule(self, report):
        inst = small_cfg().make_instance()
        for row in report.rows:
            expected = constant_alpha_from_gamma(inst.lipschitz_L,
                                                 row["gamma3"])
            assert row["alpha"] == pytest.approx(expected, abs=1e-15)

    def test_alpha_decreases_with_gamma3(self, report):
        alphas = [row["alpha"] for row in report.rows]
        assert all(alphas[i] > alphas[i + 1] for i in range(len(alphas) - 1))

    def test_monitors_pass(self, report):
        assert all(row["monitors"] == "pass" for row in report.rows)

    def test_csv_deterministic_except_time(self, report):
        again = cmd_sweep_gamma3(small_cfg())
        head = report.to_csv().splitlines()[0].split(",")
        t_ix = head.index("time_s")
        for a, b in zip(report.to_csv().splitlines(),
                        again.to_csv().splitlines()):
            a_tok = [t for i, t in enumerate(a.split(",")) if i != t_ix]
            b_tok = [t for i, t in enumerate(b.split(",")) if i != t_ix]
            assert a_tok == b_tok

    def test_phi_selection(self):
        report = cmd_sweep_gamma3(small_cfg(phi="phi2", gamma3=(0.0,)))
        assert report.rows[0]["monitors"] == "pass"
        with pytest.raises(ValueError):
            small_cfg(phi="phi9")


class TestCompare:
    def test_grid_rows(self):
        report = cmd_compare(small_cfg(beta=(0.0, 0.5)))
        assert len(report.rows) == 2
        row = report.rows[0]
        for tag in ("con", "arm"):
            for proj in ("inexact", "exact"):
                assert f"{tag}_{proj}_f" in row
        fs = [row[f"{t}_{p}_f"] for t in ("con", "arm")
              for p in ("inexact", "exact")]
        assert (max(fs) - min(fs)) / max(abs(max(fs)), 1e-12) < 1e-3
        assert row["monitors"] == "pass"
        assert row["con_inexact_p_mean"] is not None


class TestVerify:
    def test_all_checks_pass(self):
        checks = cmd_verify(small_cfg())
        assert checks, "no checks emitted"
        for name, chk in checks.items():
            assert chk["passed"], f"{name}: {chk}"
        assert "boxqp.contraction" in checks
        assert "projection.contract" in checks
        assert checks["projection.contract"]["checked"] > 0


# a non-default value per config field, as a flag or config file spells it
FIELD_VALUES = {
    "proj": "exact", "n": "24", "m": "500", "omega": "4", "density": "0.2",
    "seed": "3", "beta": "0.0,0.5", "gamma3": "0.1", "schedule": "harmonic",
    "bbar": "50", "phi": "phi2", "tol": "1e-3", "max_iter": "7",
    "strict": "true", "out": "report",
}


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["sweep-gamma3", "--algo", "bogus"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep-gamma3", "--beta", ","],
        ["verify", "--beta", ","],
        ["compare", "--beta", ","],
        ["sweep-gamma3", "--gamma3", ","],
    ])
    def test_empty_value_list_is_a_usage_error(self, argv, capsys):
        assert main(argv + ["--n", "24", "--m", "48", "--omega", "4"]) == 1
        assert "at least one value" in capsys.readouterr().err

    def test_sweep_to_stdout(self, capsys):
        code = main(["sweep-gamma3", "--n", "24", "--m", "48", "--omega", "4",
                     "--seed", "11", "--gamma3", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("gamma3,f,it,time_s,alpha")

    def test_compare_reports(self, tmp_path, capsys):
        base = tmp_path / "report"
        assert main(["compare", "--n", "24", "--m", "48", "--omega", "4",
                     "--seed", "11", "--beta", "0.0",
                     "--out", str(base)]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["command"] == "compare"
        assert (tmp_path / "report.csv").read_text().startswith("n,m,omega,beta")

    def test_verify_json(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--n", "24", "--m", "48", "--omega", "4",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        checks = json.loads(out.read_text())
        assert all(v["passed"] for v in checks.values())

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_config_field_is_a_flag(self, name, tmp_path):
        raw = FIELD_VALUES[name]
        argv = ["sweep-gamma3", "--" + name.replace("_", "-")]
        if name != "strict":  # the one flag without a value
            argv.append(raw)
        from_flag = _assemble_config(_build_parser().parse_args(argv))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{name} = {raw}\n")
        parsed = load_config_file(cfgfile)
        from_file = config_from_mapping(parsed)
        assert getattr(from_flag, name) == getattr(from_file, name)
        assert getattr(from_flag, name) != getattr(ExperimentConfig(), name)
        # parsed from either source, the value has the field's annotated type
        hint = typing.get_type_hints(ExperimentConfig)[name]
        assert isinstance(parsed[name], hint)
        assert isinstance(getattr(from_flag, name), hint)

    def test_config_file_with_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 24\nm = 48\nomega = 4\nseed = 11\n"
                           "gamma3 = 0.0,0.2\n")
        code = main(["sweep-gamma3", "--config", str(cfgfile),
                     "--gamma3", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # header plus the single overridden gamma3
        assert lines[1].startswith("0.1,")


class TestFailureRows:
    """Solver failures become error rows; programming errors propagate."""

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken solver call")

        monkeypatch.setattr(ipgm.harness, "solve_constant", broken)
        with pytest.raises(TypeError, match="broken solver call"):
            cmd_sweep_gamma3(small_cfg(gamma3=(0.0,)))
        with pytest.raises(TypeError, match="broken solver call"):
            cmd_compare(small_cfg(beta=(0.0,)))

    def test_eigensolver_failure_is_an_error_row(self, monkeypatch, capsys):
        def failing(self, k):
            raise EigenSolverError("injected failure", best_residual=1.0)

        monkeypatch.setattr(IncrementalEigen, "top", failing)
        report = cmd_compare(small_cfg(beta=(0.0,)))
        assert report.rows[0]["monitors"] == "error:SolverError;error:SolverError"
        assert report.rows[0]["con_exact_it"] > 0
        assert main(["compare", "--n", "24", "--m", "48", "--omega", "4",
                     "--seed", "11", "--beta", "0.0"]) == 2


SMALL = ["--n", "24", "--m", "48", "--omega", "4", "--seed", "11"]


class TestExitCodes:
    """``main`` returns 2 on a run failure and 3 on a monitor violation
    under ``--strict``; without it a violation is reported but exits 0."""

    @pytest.mark.parametrize("argv", [
        ["sweep-gamma3", "--gamma3", "0.0"],
        ["compare", "--beta", "0.0"],
    ])
    def test_monitor_failure_is_strict_only(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(ipgm.harness, "_run_monitors",
                            lambda result: "fail(1)")
        assert main(argv + SMALL + ["--strict"]) == 3
        assert main(argv + SMALL) == 0
        assert "fail(1)" in capsys.readouterr().out

    def test_verify_failed_check(self, monkeypatch, capsys):
        checks = {"constant.descent-inequality": {"passed": True},
                  "projection.contract": {"passed": False}}
        monkeypatch.setattr(ipgm.cli, "cmd_verify", lambda config: checks)
        assert main(["verify"] + SMALL + ["--strict"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "failed checks: projection.contract\n"
        assert main(["verify"] + SMALL) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == checks
        assert captured.err == "failed checks: projection.contract\n"

    def test_sweep_solver_error_is_an_error_row(self, monkeypatch, capsys):
        def failing(self, k):
            raise EigenSolverError("injected failure", best_residual=1.0)

        monkeypatch.setattr(IncrementalEigen, "top", failing)
        report = cmd_sweep_gamma3(small_cfg(gamma3=(0.0,)))
        assert report.rows[0]["monitors"] == "error:SolverError"
        assert report.monitor_failures == 1
        assert main(["sweep-gamma3", "--gamma3", "0.0"] + SMALL) == 2
        assert "error:SolverError" in capsys.readouterr().out

    def test_unexpected_exception_is_a_run_failure(self, monkeypatch,
                                                   capsys):
        def broken(*args, **kwargs):
            raise TypeError("broken solver call")

        monkeypatch.setattr(ipgm.harness, "solve_constant", broken)
        assert main(["sweep-gamma3", "--gamma3", "0.0"] + SMALL) == 2
        assert capsys.readouterr().err == "run failed: broken solver call\n"
