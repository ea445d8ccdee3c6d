import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import qlsm
from qlsm.basis import hermite
from qlsm.errors import ConfigError
from qlsm.harness.cli import EXIT_BOUNDS, EXIT_CONFIG, EXIT_OK, main
from qlsm.harness.config import BasisConfig, ExperimentConfig, PayoffConfig
from qlsm.harness.experiments import (_hermite_weighted_integral, _lognormal_tail_integral,
                                      dump_oracle, run_price, run_scaling,
                                      validate_bounds)


def reference_config(**overrides):
    base = dict(model="brownian", dimension=1, horizon=3, grid_size=4,
                grid_radius=2.0, algorithm="both", epsilon=0.05, delta=0.1,
                trials=3, seed=0)
    base.update(overrides)
    return ExperimentConfig.from_json(base)


class TestConfig:
    def test_round_trip(self):
        cfg = reference_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.to_json() == cfg.to_json()

    def test_field_validation_messages(self):
        with pytest.raises(ConfigError, match="epsilon"):
            reference_config(epsilon=2.0)
        with pytest.raises(ConfigError, match="payoff.strike"):
            ExperimentConfig.from_json({"payoff": {"strike": -1.0}})
        with pytest.raises(ConfigError, match="model"):
            reference_config(model="heston")
        with pytest.raises(ConfigError, match="chain_file"):
            reference_config(model="custom-json")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_json({"volatility": 0.3})

    def test_builders(self):
        cfg = reference_config(basis=BasisConfig(kind="hermite", degree=2,
                                                 cube_radius=6.0).__dict__)
        chain = cfg.build_chain()
        basis = cfg.build_basis()
        assert chain.horizon == 3
        assert basis.size == 3

    def test_custom_chain_file(self, tmp_path):
        from qlsm.chain import discretize_brownian

        chain = discretize_brownian(1, 2, 3, 2.0)
        path = tmp_path / "chain.json"
        path.write_text(chain.to_json())
        cfg = reference_config(model="custom-json", chain_file=str(path),
                               algorithm="oracle")
        loaded = cfg.build_chain()
        assert loaded.to_json() == chain.to_json()


class TestPriceRuns:
    def test_oracle_mode(self):
        report = run_price(reference_config(algorithm="oracle"))
        assert report.exact_value is not None
        assert report.summary["value"] == report.exact_value

    def test_constant_payoff_exact_for_both(self):
        cfg = reference_config(algorithm="both",
                               payoff=PayoffConfig(name="constant", strike=1.0).__dict__,
                               basis=BasisConfig(kind="constant").__dict__,
                               trials=2)
        report = run_price(cfg)
        assert report.exact_value == pytest.approx(1.0)
        for row in report.rows:
            assert row["estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_price_past_the_enumeration_cap_reports_errors(self):
        # 8^7 = 2,097,152 paths, twice the enumeration cap: the oracle's
        # induction enumerates nothing, so every row carries its error.
        cfg = reference_config(horizon=7, grid_size=8, grid_radius=2.2, trials=1,
                               basis=BasisConfig(kind="constant").__dict__,
                               path_count=2000)
        assert cfg.build_chain().path_space_size() == 2_097_152
        report = run_price(cfg)
        assert math.isfinite(report.exact_value)
        assert {row["algorithm"] for row in report.rows} == {"classical", "quantum"}
        for row in report.rows:
            assert row["abs_error"] == abs(row["estimate"] - report.exact_value)
        for algo in ("classical", "quantum"):
            assert report.summary[algo]["exceed_epsilon_rate"] in (0.0, 1.0)

    def test_determinism_byte_identical(self):
        cfg = reference_config(trials=2)
        a = run_price(cfg).to_json()
        b = run_price(cfg).to_json()
        assert a == b

    def test_summary_recomputable_from_rows(self):
        cfg = reference_config(trials=4, algorithm="classical")
        report = run_price(cfg)
        rows = [r for r in report.rows if r["algorithm"] == "classical"]
        rate = np.mean([r["abs_error"] > cfg.epsilon for r in rows])
        assert report.summary["classical"]["exceed_epsilon_rate"] == pytest.approx(rate)

    def test_report_files(self, tmp_path):
        report = run_price(reference_config(trials=2))
        json_path, csv_path = report.write(tmp_path)
        doc = json.loads(json_path.read_text())
        assert doc["kind"] == "price"
        header = csv_path.read_text().splitlines()[0]
        assert "estimate" in header


class TestScaling:
    def test_requires_four_points(self):
        with pytest.raises(ConfigError, match="at least 4"):
            run_scaling(reference_config(), [0.1, 0.05])

    def test_epsilon_above_sigma_rejected(self):
        cfg = reference_config(basis=BasisConfig(kind="constant").__dict__)
        with pytest.raises(ConfigError, match="sigma_min"):
            run_scaling(cfg, [0.9, 0.4, 0.2, 0.1])

    def test_reference_instance_slopes(self):
        cfg = reference_config(algorithm="both", trials=1,
                               basis=BasisConfig(kind="constant").__dict__)
        grid = [2.0**-k for k in range(3, 7)]
        report = run_scaling(cfg, grid)
        assert abs(report.summary["quantum_slope"] - 1.0) <= 0.15
        assert abs(report.summary["classical_slope"] - 2.0) <= 0.2
        assert report.summary["ratio_monotone_increasing"]


class TestValidateBounds:
    def test_all_checks_pass(self):
        report = validate_bounds(reference_config())
        assert report.summary["all_passed"], report.summary["failed"]
        assert len(report.rows) > 50

    def test_rows_carry_margins(self):
        report = validate_bounds(reference_config())
        for row in report.rows:
            assert row["margin"] == pytest.approx(row["rhs"] - row["lhs"])


class TestClosedFormTails:
    """The closed-form tail integrals validate_bounds uses, against quadrature
    with only a relative tolerance (the default absolute one, 1.5e-8, is
    above several of these integrals)."""

    @pytest.mark.parametrize("lam", [2.0, 4.0, 6.0])
    def test_hermite_tail_matches_quad(self, lam):
        for k in range(7):
            for l in range(7):
                val, _ = quad(lambda x: hermite(k, x) * hermite(l, x) * math.exp(-x * x),
                              lam, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
                assert _hermite_weighted_integral(k, l, lam) == pytest.approx(val, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_lognormal_tail_matches_quad(self, t):
        for k in range(5):
            for factor in (1.05, math.e):
                lam = math.exp(t * (k - 0.5)) * factor
                val, _ = quad(lambda u: math.exp(k * u - (u + t / 2) ** 2 / (2 * t))
                              / math.sqrt(2 * math.pi * t),
                              math.log(lam), np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
                assert _lognormal_tail_integral(k, lam, t) == pytest.approx(val, rel=1e-10, abs=0.0)


class TestDumpOracle:
    def test_collected_matches_value(self):
        report = dump_oracle(reference_config())
        assert report.summary["expected_collected"] == pytest.approx(
            report.summary["value"], abs=1e-12)
        assert math.isclose(sum(r["probability"] for r in report.rows), 1.0,
                            abs_tol=1e-10)


class TestCli:
    def test_price_exit_zero(self, tmp_path, capsys):
        code = main(["price", "--trials", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle value" in out

    def test_bad_config_exit_two(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"epsilon": 5.0}))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_malformed_json_exit_two(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text("{not json")
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_validate_bounds_strict(self, tmp_path, monkeypatch, capsys):
        code = main(["validate-bounds", "--strict", "--out", str(tmp_path)])
        assert code == EXIT_OK
        # A doctored failing check must flip the exit code under --strict.
        from qlsm.harness import cli as cli_mod

        class FakeReport:
            rows = [{"check": "doctored", "lhs": 1.0, "rhs": 0.0,
                     "margin": -1.0, "passed": False, "note": ""}]
            summary = {"all_passed": False, "failed": ["doctored"]}

            def write(self, out):
                report = validate_bounds(reference_config())
                return report.write(out)

        monkeypatch.setattr(cli_mod, "validate_bounds", lambda cfg: FakeReport())
        code = main(["validate-bounds", "--strict", "--out", str(tmp_path)])
        assert code == EXIT_BOUNDS

    def test_dump_oracle(self, tmp_path):
        code = main(["dump-oracle", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "oracle.json").exists()
        assert (tmp_path / "oracle.csv").exists()

    def test_scaling_subcommand(self, tmp_path, capsys):
        code = main(["scaling", "--out", str(tmp_path),
                     "--epsilons", "0.125", "0.0625", "0.03125", "0.015625"])
        assert code == EXIT_OK
        assert "quantum slope" in capsys.readouterr().out
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert len(doc["rows"]) == 4

    def test_query_cap_is_a_run_error(self, tmp_path, capsys):
        # The README config at epsilon 1e-10 needs more AE queries than the cap.
        config = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                             / "cli_reference.json").read_text())
        config.update(algorithm="quantum", epsilon=1e-10, trials=1)
        cfg_file = tmp_path / "cap.json"
        cfg_file.write_text(json.dumps(config))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("run error: accuracy budget")
        assert "amplitude-estimation queries" in err and "Traceback" not in err

    def test_seed_override_changes_report(self, tmp_path):
        main(["price", "--trials", "1", "--seed", "1", "--out", str(tmp_path / "a")])
        main(["price", "--trials", "1", "--seed", "1", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "price.json").read_text()
        b = (tmp_path / "b" / "price.json").read_text()
        assert a == b


class TestRuntimeWithoutScipy:
    def test_every_module_and_command_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only. With sys.modules["scipy"] = None
        # any "import scipy..." raises, so an import of it anywhere on these
        # paths fails the run.
        config = Path(__file__).resolve().parents[1] / "perfbench" / "cli_reference.json"
        script = textwrap.dedent(f"""
            import importlib, pkgutil, sys
            sys.modules["scipy"] = None
            import qlsm
            for info in pkgutil.walk_packages(qlsm.__path__, "qlsm."):
                importlib.import_module(info.name)
            from qlsm.harness.cli import main
            codes = [main(["price", "--config", {str(config)!r}, "--out", {str(tmp_path / "price")!r}]),
                     main(["validate-bounds", "--strict", "--out", {str(tmp_path / "bounds")!r}])]
            print("exit codes", codes)
            sys.exit(max(codes))
        """)
        src = str(Path(qlsm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "exit codes [0, 0]" in done.stdout
        assert (tmp_path / "price" / "price.json").exists()
        assert (tmp_path / "bounds" / "bounds.json").exists()


class TestRuntimeWithoutReference:
    COMMANDS = [["price"], ["scaling"], ["validate-bounds", "--strict"], ["dump-oracle"]]

    def run_cli(self, out, blocked):
        """Every subcommand on the README config, in a fresh interpreter, with
        qlsm.reference blocked (sys.modules entry None) or not. Prints the exit
        codes and whether qlsm.reference was loaded after `import qlsm,
        qlsm.harness.cli` and after the commands."""
        config = Path(__file__).resolve().parents[1] / "perfbench" / "cli_reference.json"
        script = textwrap.dedent(f"""
            import importlib, pkgutil, sys
            if {blocked!r}:
                sys.modules["qlsm.reference"] = None
            import qlsm, qlsm.harness.cli
            print("reference after import", "qlsm.reference" in sys.modules)
            for info in pkgutil.walk_packages(qlsm.__path__, "qlsm."):
                if info.name != "qlsm.reference":
                    importlib.import_module(info.name)
            codes = [qlsm.harness.cli.main(cmd + ["--config", {str(config)!r},
                                                  "--out", {str(out)!r} + "/" + cmd[0]])
                     for cmd in {self.COMMANDS!r}]
            print("reference after commands", "qlsm.reference" in sys.modules)
            print("exit codes", codes)
        """)
        src = str(Path(qlsm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        return done.stdout

    def test_runtime_needs_no_reference_code(self, tmp_path):
        # The register replay and the dense AE laws only cross-check the
        # runtime: with qlsm.reference blocked every other module imports and
        # every subcommand writes the report it writes unblocked, byte for byte.
        blocked = self.run_cli(tmp_path / "blocked", True)
        assert "exit codes [0, 0, 0, 0]" in blocked, blocked
        plain = self.run_cli(tmp_path / "plain", False)
        assert "exit codes [0, 0, 0, 0]" in plain, plain
        reports = sorted((tmp_path / "plain").glob("*/*.json"))
        assert [r.parent.name for r in reports] == \
            ["dump-oracle", "price", "scaling", "validate-bounds"]
        for report in reports:
            twin = tmp_path / "blocked" / report.parent.name / report.name
            assert twin.read_bytes() == report.read_bytes(), report.parent.name
        # Unblocked, no runtime module loads it either.
        assert "reference after import False" in plain, plain
        assert "reference after commands False" in plain, plain
