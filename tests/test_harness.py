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
from qlsm.basis import hermite, hermite_basis
from qlsm.chain import discretize_brownian
from qlsm.dp import snell_envelope
from qlsm.errors import ConfigError
from qlsm.harness import experiments
from qlsm.harness.cli import EXIT_BOUNDS, EXIT_CONFIG, EXIT_OK, build_parser, main
from qlsm.harness.config import BasisConfig, ExperimentConfig, PayoffConfig
from qlsm.harness.experiments import (_hermite_weighted_integral, dump_oracle, run_price,
                                      run_scaling, validate_bounds)
from qlsm.lsm_classical import choose_sample_count, classical_cost_units, run_classical_lsm
from qlsm.lsm_quantum import oracle_sigma_min, run_quantum_lsm
from qlsm.payoff import put_payoff
from qlsm.qsim.ledger import CostWeights


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
        chain = discretize_brownian(1, 2, 3, 2.0)
        path = tmp_path / "chain.json"
        path.write_text(chain.to_json())
        cfg = reference_config(model="custom-json", chain_file=str(path), horizon=2)
        loaded = cfg.build_chain()
        assert loaded.to_json() == chain.to_json()


class TestPriceRuns:
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

    def test_sigma_min_resolved_once_per_report(self, monkeypatch):
        calls = []

        def counted(basis, chain):
            calls.append(None)
            return oracle_sigma_min(basis, chain)

        monkeypatch.setattr(experiments, "oracle_sigma_min", counted)
        report = run_price(reference_config(algorithm="quantum", trials=3))
        assert len(calls) == 1
        assert [row["trial"] for row in report.rows] == [0, 1, 2]

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

    def test_requires_four_distinct_points(self, tmp_path, capsys):
        # Four runs at one epsilon fitted a slope (1.925 +- 0.000) to a
        # single point of the grid.
        with pytest.raises(ConfigError, match="at least 4 distinct"):
            run_scaling(reference_config(), [0.1, 0.05, 0.05, 0.025])
        code = main(["scaling", "--out", str(tmp_path / "out"),
                     "--epsilons", "0.01", "0.01", "0.01", "0.01"])
        assert code == EXIT_CONFIG
        assert "at least 4 distinct points, got [0.01]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


REPO = Path(__file__).resolve().parents[1]
GBM_CONFIG = {"model": "gbm", "dimension": 1, "payoff": {"name": "call", "strike": 1.0},
              "basis": {"kind": "gbm", "degree": 1, "cube_radius": 20.0}}
END_TO_END_ROWS = ["classical-error-bound(single-run)", "quantum-error-bound(single-run)"]


class TestValidateBounds:
    def test_all_checks_pass(self):
        # The audit reports the configured instance: the lemma bounds its
        # basis uses, at its own parameters, then the end-to-end bounds.
        hermite_rows = [f"{name}(lam=4.0)" for name in
                        ("hermite-tail<=exact-form", "hermite-tail<=simplified",
                         "exact-form<=simplified")]
        gbm_rows = [f"sigma-min-{form}(q=1,d=1,t={t})" for t in (1, 2)
                    for form in ("sharp", "simple")]
        cases = [(json.loads((REPO / "perfbench" / "cli_reference.json").read_text()),
                  hermite_rows), (GBM_CONFIG, gbm_rows), ({}, [])]
        for doc, lemma_rows in cases:
            report = validate_bounds(ExperimentConfig.from_json(doc))
            assert report.summary["all_passed"], report.summary["failed"]
            assert [r["check"] for r in report.rows] == lemma_rows + END_TO_END_ROWS, doc

    def test_rows_carry_margins(self):
        report = validate_bounds(reference_config())
        for row in report.rows:
            assert row["margin"] == pytest.approx(row["rhs"] - row["lhs"])


class TestClosedFormTails:
    """The closed-form Hermite tail integral validate_bounds uses, against
    quadrature with only a relative tolerance (the default absolute one,
    1.5e-8, is above several of these integrals)."""

    @pytest.mark.parametrize("lam", [2.0, 4.0, 6.0])
    def test_hermite_tail_matches_quad(self, lam):
        for k in range(7):
            for l in range(7):
                val, _ = quad(lambda x: hermite(k, x) * hermite(l, x) * math.exp(-x * x),
                              lam, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
                assert _hermite_weighted_integral(k, l, lam) == pytest.approx(val, rel=1e-10, abs=0.0)


class TestDumpOracle:
    def test_collected_matches_value(self):
        cfg = reference_config()
        report = dump_oracle(cfg)
        summary, rows = report.summary, report.rows
        assert set(summary) == {"value", "continuation0", "expected_collected",
                                "stop_time_law"}
        assert summary["expected_collected"] == pytest.approx(summary["value"], abs=1e-12)
        assert summary["value"] == report.exact_value
        assert math.isclose(sum(summary["stop_time_law"]), 1.0, abs_tol=1e-12)
        # One row per (step, state): the start point, then grid_size per step.
        assert len(rows) == 1 + cfg.horizon * cfg.grid_size
        assert rows[0]["mass"] == 1.0 and rows[0]["value"] == summary["value"]
        assert rows[0]["continuation"] == summary["continuation0"]
        for t, law in enumerate(summary["stop_time_law"]):
            step = [r for r in rows if r["step"] == t]
            assert [r["state"] for r in step] == list(range(len(step)))
            assert math.isclose(sum(r["mass"] for r in step), 1.0, abs_tol=1e-12)
            assert sum(r["stop_mass"] for r in step) == pytest.approx(law, abs=1e-15)
            for r in step:
                assert r["stop_mass"] <= r["mass"] + 1e-15
                assert r["stop"] or r["stop_mass"] == 0.0
                if t == cfg.horizon:
                    assert r["stop"] and r["continuation"] is None
                    assert r["value"] == r["payoff"]
                else:
                    assert r["value"] == (r["payoff"] if r["stop"] else r["continuation"])

    def test_past_the_enumeration_cap(self):
        # 8^10 = 1.07e9 paths, which the path-by-path report refused.
        cfg = reference_config(horizon=10, grid_size=8, grid_radius=2.2)
        report = dump_oracle(cfg)
        assert len(report.rows) == 81
        assert report.summary["expected_collected"] == pytest.approx(
            report.summary["value"], abs=1e-12)
        assert math.isclose(sum(report.summary["stop_time_law"]), 1.0, abs_tol=1e-12)


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

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, case):
        # A directory or a file that is not UTF-8 used to end in a traceback.
        cfg = tmp_path / "cfg.json"
        if case == "directory":
            cfg.mkdir()
        elif case == "not-utf-8":
            cfg.write_bytes(b"\xff\xfe")
        code = main(["price", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and (case == "not-utf-8" or str(cfg) in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [
        {"horizon": 3.5}, {"grid_size": 4.0}, {"trials": 2.5}, {"horizon": True},
        {"grid_size": 1}, ["abc"], {"basis_query_cost": "x"}, {"grid_radius": math.inf},
        {"grid_radius": 10**400}, {"grid_radius": True}, {"sigma_min_oracle": "false"},
        {"sample_step_cost": -1.0},
        {"path_count": 2, "basis": {"kind": "hermite", "degree": 2, "cube_radius": 4.0},
         "algorithm": "classical"},
        {"algorithm": "oracle"}, {"model": "gbm", "grid_size": 1},
    ], ids=["float-horizon", "float-grid-size", "float-trials", "bool-horizon",
            "brownian-grid-size-1", "not-an-object", "string-cost", "infinite-grid-radius",
            "huge-int-grid-radius", "bool-grid-radius", "string-oracle-flag", "negative-cost",
            "paths-below-basis-size", "oracle-algorithm", "gbm-grid-size-1"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, doc):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(doc))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("case", ["missing", "not-json", "no-horizon", "law-sums-to-1.1"])
    def test_bad_chain_file_exit_two(self, tmp_path, capsys, case):
        # Each used to end in a traceback (exit 1): FileNotFoundError,
        # JSONDecodeError, KeyError and ValueError.
        chain_file = tmp_path / "chain.json"
        doc = json.loads(discretize_brownian(1, 2, 3, 2.0).to_json())
        if case == "not-json":
            chain_file.write_text("{not json")
        elif case == "no-horizon":
            del doc["horizon"]
            chain_file.write_text(json.dumps(doc))
        elif case == "law-sums-to-1.1":
            doc["initial_distribution"][0] += 0.1
            chain_file.write_text(json.dumps(doc))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": "custom-json", "chain_file": str(chain_file),
                                        "trials": 1}))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and str(chain_file) in err
        assert not (tmp_path / "out").exists()

    def test_basket_price_matches_library_runs(self, tmp_path):
        # A 2-d basket put from a config; the CLI seeds trial k with
        # SeedSequence(seed).spawn(trials)[k], and both algorithms share it.
        cfg_file = tmp_path / "basket.json"
        cfg_file.write_text(json.dumps({
            "model": "brownian", "dimension": 2, "horizon": 4, "grid_size": 5,
            "grid_radius": 2.2, "payoff": {"name": "put", "strike": 1.0},
            "basis": {"kind": "hermite", "degree": 2, "cube_radius": 4.0},
            "algorithm": "both", "epsilon": 0.02, "trials": 1, "seed": 3}))
        assert main(["price", "--config", str(cfg_file), "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "price.json").read_text())
        chain = discretize_brownian(2, 4, 5, 2.2)
        payoff = put_payoff(1.0)
        basis = hermite_basis(2, 2, 4, 4.0)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        classical = run_classical_lsm(chain, payoff, basis,
                                      choose_sample_count(basis.size, 0.02, 0.1), seed)
        quantum = run_quantum_lsm(chain, payoff, basis, 0.02, 0.1,
                                  sigma_min_lower=oracle_sigma_min(basis, chain), seed=seed)
        assert doc["exact_value"] == snell_envelope(chain, payoff).value0
        rows = {row["algorithm"]: row for row in doc["rows"]}
        assert rows["classical"]["estimate"] == classical.estimate
        assert rows["classical"]["cost_units"] == classical_cost_units(classical, CostWeights())
        assert rows["quantum"]["estimate"] == quantum.estimate
        assert rows["quantum"]["cost_units"] == quantum.ledger.total_units(4, CostWeights())

    @pytest.mark.parametrize("payoff", [{"name": "put"}, {"name": "constant"}])
    def test_custom_chain_dimension_mismatch_exit_two(self, tmp_path, capsys, payoff):
        # A 2-d chain file under the default dimension 1: a put used to end in
        # a traceback, a constant payoff in a basis on the first coordinate.
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(discretize_brownian(2, 2, 3, 2.0).to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "custom-json", "chain_file": str(chain_file), "payoff": payoff,
            "basis": {"kind": "hermite", "degree": 1}, "trials": 1}))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "dimension" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["price", "scaling", "validate-bounds", "dump-oracle"])
    def test_custom_chain_horizon_mismatch_exit_two(self, tmp_path, capsys, command):
        # A horizon-5 chain file under the default horizon 3 used to price the
        # 5-step chain with a basis built for 3 steps and report horizon 3.
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(discretize_brownian(1, 5, 4, 2.0).to_json())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": "custom-json", "chain_file": str(chain_file),
                                        "basis": {"kind": "gbm", "degree": 1}, "trials": 1}))
        code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and "horizon 5" in err and "horizon is 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["price", "dump-oracle"])
    def test_basis_norm_bound_overflow_exit_two(self, tmp_path, capsys, command):
        # exp(q^2 T d / 2) = exp(1500) overflows: price ended in a traceback.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "gbm", "dimension": 3, "horizon": 10,
            "basis": {"kind": "gbm", "degree": 10, "cube_radius": 20.0}, "trials": 1}))
        code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error") and "OverflowError" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["scaling", "--trials", "2"], ["validate-bounds", "--trials", "2"],
        ["dump-oracle", "--trials", "2"], ["dump-oracle", "--seed", "1"],
    ], ids=["scaling-trials", "bounds-trials", "oracle-trials", "oracle-seed"])
    def test_flags_no_command_reads_exit_two(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_command_lines_that_stay(self):
        parser = build_parser()
        args = parser.parse_args(["price", "--config", "c.json", "--seed", "3", "--trials", "2",
                                  "--out", "o"])
        assert (args.config, args.seed, args.trials, args.out) == (Path("c.json"), 3, 2, Path("o"))
        args = parser.parse_args(["scaling", "--seed", "3", "--epsilons", "0.1", "0.05"])
        assert (args.seed, args.epsilons) == (3, [0.1, 0.05])
        args = parser.parse_args(["validate-bounds", "--seed", "3", "--strict"])
        assert (args.seed, args.strict) == (3, True)
        args = parser.parse_args(["dump-oracle", "--config", "c.json", "--out", "o"])
        assert (args.config, args.out) == (Path("c.json"), Path("o"))

    @pytest.mark.parametrize("command", ["price", "dump-oracle"])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, command):
        # --out naming an existing file ended in a FileExistsError traceback.
        out = tmp_path / "afile"
        out.write_text("taken")
        code = main([command, "--trials", "1", "--out", str(out)] if command == "price"
                    else [command, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error") and str(out) in err
        assert out.read_text() == "taken"

    def test_scaling_refuses_without_sigma_min(self, tmp_path, capsys):
        # As price does: with the oracle off, sigma_min_lower must be given.
        cfg_file = tmp_path / "no-oracle.json"
        cfg_file.write_text(json.dumps({"sigma_min_oracle": False}))
        code = main(["scaling", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                     "--epsilons", "0.125", "0.0625", "0.03125", "0.015625"])
        assert code == EXIT_CONFIG
        assert "sigma_min_lower is required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_quantum_price_refuses_without_sigma_min(self, tmp_path, capsys):
        cfg_file = tmp_path / "no-oracle.json"
        cfg_file.write_text(json.dumps({"sigma_min_oracle": False, "algorithm": "quantum"}))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "sigma_min_lower is required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scaling_refuses_all_zero_cost_weights(self, tmp_path, capsys):
        # All-zero weights make every cost 0 and the cost ratio 0/0.
        cfg_file = tmp_path / "zero-weights.json"
        cfg_file.write_text(json.dumps(
            {"sample_step_cost": 0, "payoff_query_cost": 0, "basis_query_cost": 0}))
        code = main(["scaling", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                     "--epsilons", "0.125", "0.0625", "0.03125", "0.015625"])
        assert code == EXIT_CONFIG
        assert "must not all be 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert err.startswith("run error: entry 'basis_product[t=1,0,1]' needs more than the "
                              "cap of 1073741824 amplitude-estimation queries at its epsilon "
                              "3.33e-11; the entries of its batch before its first other "
                              "failure fit the cap at an epsilon of at least 1.65e-08, though a "
                              "later entry or batch can still need more")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, algorithm", [
        ("price", "quantum"), ("price", "classical"), ("validate-bounds", "quantum")])
    def test_underflowing_epsilon_is_a_run_error(self, tmp_path, capsys, command, algorithm):
        # epsilon^2 underflows to 0, so no classical path count meets it.
        cfg_file = tmp_path / "tiny-epsilon.json"
        cfg_file.write_text(json.dumps({"epsilon": 1e-300, "algorithm": algorithm,
                                        "trials": 1}))
        code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "epsilon" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ({"epsilon": 1e-300}, "needs an epsilon of at least"),
        ({"payoff": {"name": "constant", "strike": 1000}}, "range is +-(2^8 - 2^-24)")],
        ids=["rounding-shift", "out-of-range"])
    def test_fixed_format_errors_name_what_a_config_sets(self, tmp_path, capsys, doc, message):
        # No config field or flag sets the fixed-point format, so the error
        # names the epsilon or the values the format cannot hold.
        cfg_file = tmp_path / "fixed-format.json"
        cfg_file.write_text(json.dumps(dict(doc, algorithm="quantum", trials=1)))
        code = main(["price", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err and "widen" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
