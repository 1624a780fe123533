import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berknash import (
    BanditConfig,
    ConfigError,
    SoftPlanConfig,
    ZoomConfig,
    benchmark3,
    best_response_policy,
    config_from_dict,
    entropy_bn_select,
    induced_kernel,
    load_config,
    mixture_kernel,
    run_experiment,
    soft_best_response,
    softmax_policy,
    stationary_distribution,
    validate_instance,
)
from berknash import harness
from berknash.cli import main as cli_main
from berknash.harness import LambdaGridConfig, _fmt, _write_csv
from berknash.soft_planning import TEMPERATURE_RANGE


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def run_and_report(tmp_path, capsys, config):
    """``berknash run`` on ``config``, then ``berknash report`` on its directory.

    The report must list the manifest's artifacts and then print the run's
    ``summary.txt`` verbatim. Returns the run directory and the summary text.
    """
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({**config, "output_dir": str(out_dir)}))
    assert cli_main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["report", str(out_dir)]) == 0
    out = capsys.readouterr().out
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    artifacts = json.loads((out_dir / "manifest.json").read_text())["artifacts"]
    listing = "".join(f"  {name}: {fname}\n" for name, fname in artifacts.items())
    assert out.split("\n", 2)[2] == listing + summary
    return out_dir, summary


INLINE_MDP = {
    "kernel": [[[0.5, 0.5], [0.9, 0.1]], [[0.3, 0.7], [0.5, 0.5]]],
    "rewards": [[1.0, 0.0], [0.5, 2.0]],
    "discount": 0.9,
    "initial_dist": [0.5, 0.5],
}


class TestBenchmark3:
    def test_instance_validates(self):
        m, cs = benchmark3()
        validate_instance(m)
        assert len(cs) == 4
        assert [q.param for q in cs] == [0.05, 0.15, 0.30, 0.45]

    def test_irreducible_under_both_deterministic_policies(self):
        m, _ = benchmark3()
        for a in (0, 1):
            pi = np.eye(2)[[a] * 3]
            mu = stationary_distribution(induced_kernel(m, pi))
            assert mu.min() > 0.0

    def test_aggressive_action_has_higher_reward_variance(self):
        m, _ = benchmark3()
        assert np.var(m.rewards[:, 1]) > np.var(m.rewards[:, 0])

    def test_conservative_rows_concentrate_on_current_state(self):
        m, _ = benchmark3()
        for x in range(3):
            assert np.argmax(m.kernel[x, 0]) == x
            assert m.kernel[x, 0, x] > 0.9

    def test_selection_objective_ordered_in_eps(self):
        m, cs = benchmark3()
        best, values = entropy_bn_select(m, cs, 0.1)
        assert best == 0
        assert np.all(np.diff(values) > 0)

    def test_best_response_structure(self):
        m, _ = benchmark3()
        actions = np.argmax(best_response_policy(m), axis=1)
        np.testing.assert_array_equal(actions, [0, 0, 1])


class TestLoadConfig:
    def test_minimal_case_study_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "case-study", "mdp": "benchmark3"}))
        cfg = load_config(path)
        assert cfg.instance.discount == 0.95
        assert cfg.soft.temperature == 0.1
        assert cfg.bandit.horizon == 1500
        assert len(cfg.conjectures) == 4

    def test_bad_exploration_names_section(self):
        with pytest.raises(ConfigError, match="bandit"):
            config_from_dict(
                {"experiment": "case-study", "bandit": {"exploration": 1.5}}
            )

    def test_inline_mdp_round_trips_validation(self):
        data = {
            "experiment": "duality-audit",
            "mdp": {
                "kernel": [[[0.5, 0.5], [0.9, 0.1]], [[0.3, 0.7], [0.5, 0.5]]],
                "rewards": [[1.0, 0.0], [0.5, 2.0]],
                "discount": 0.9,
                "initial_dist": [0.5, 0.5],
            },
            "conjectures": {"epsilons": [0.1, 0.4]},
        }
        cfg = config_from_dict(data)
        validate_instance(cfg.instance)
        assert cfg.instance.num_states == 2

    def test_broken_inline_mdp_reports_row(self):
        data = {
            "experiment": "duality-audit",
            "mdp": {
                "kernel": [[[0.5, 0.48], [0.9, 0.1]], [[0.3, 0.7], [0.5, 0.5]]],
                "rewards": [[1.0, 0.0], [0.5, 2.0]],
                "discount": 0.9,
                "initial_dist": [0.5, 0.5],
            },
        }
        with pytest.raises(ConfigError, match="x=0, a=0"):
            config_from_dict(data)

    def test_parse_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "case-study",\n  "seed": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unknown_experiment_kind(self):
        with pytest.raises(ConfigError, match="experiment"):
            config_from_dict({"experiment": "telepathy"})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"experiment": "case-study", "bandits": {}})

    def test_readme_config_block_is_the_default_config(self, monkeypatch):
        monkeypatch.delenv("BERKNASH_OUTPUT_DIR", raising=False)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        documented = json.loads(re.sub(r"//.*", "", block))
        # every section lists exactly the parser's keys, each at its default
        assert documented == config_from_dict({"experiment": documented["experiment"]}).resolved

    def test_missing_mdp_fields_listed(self):
        with pytest.raises(ConfigError, match="missing fields"):
            config_from_dict({"experiment": "case-study", "mdp": {"kernel": []}})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, field, value", [
    (SoftPlanConfig, "temperature", NAN),
    (SoftPlanConfig, "temperature", INF),
    (BanditConfig, "learning_rate", NAN),
    (BanditConfig, "learning_rate", INF),
    (BanditConfig, "rollout_smoothing", NAN),
    (BanditConfig, "loss_scale", NAN),
    (ZoomConfig, "alpha0", NAN),
    (ZoomConfig, "delta0", NAN),
    (ZoomConfig, "rho0", NAN),
    (ZoomConfig, "uncertainty_scale", NAN),
    (ZoomConfig, "bounds", (0.0, INF)),
    (LambdaGridConfig, "min", NAN),
    (LambdaGridConfig, "max", INF),
    pytest.param(lambda temperature: softmax_policy(np.zeros((1, 2)), temperature),
                 "temperature", NAN, id="softmax_policy-temperature-nan"),
], ids=lambda p: getattr(p, "__name__", str(p)))
def test_api_rejects_non_finite_parameters(make, field, value):
    with pytest.raises(ValueError, match=field):
        make(**{field: value})


class TestRunExperiment:
    def _cfg(self, tmp_path, kind, extra=None):
        data = {"experiment": kind, "output_dir": str(tmp_path / kind), "seed": 11}
        if extra:
            data.update(extra)
        return config_from_dict(data)

    def test_case_study_artifacts(self, tmp_path):
        cfg = self._cfg(tmp_path, "case-study",
                        {"bandit": {"horizon": 300}})
        artifacts = run_experiment(cfg)
        freq = read_csv(artifacts.csv_paths["frequencies"])
        assert len(freq) == 4
        total = sum(float(r["frequency"]) for r in freq)
        assert total == pytest.approx(1.0, abs=1e-12)
        trace = read_csv(artifacts.csv_paths["loss_trace"])
        assert len(trace) == 300
        assert all(0.0 <= float(r["loss"]) <= 1.0 for r in trace)
        manifest = json.loads(artifacts.manifest_path.read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["bandit"]["horizon"] == 300
        written = sorted(p.name for p in artifacts.output_dir.iterdir())
        assert written == ["frequencies.csv", "loss_trace.csv", "manifest.json", "summary.txt"]

    def test_case_study_frequencies_normalized_any_seed(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "case-study",
            "output_dir": str(tmp_path / "seed42"),
            "seed": 42,
            "bandit": {"horizon": 100},
        })
        artifacts = run_experiment(cfg)
        rows = read_csv(artifacts.csv_paths["frequencies"])
        assert len(rows) == 4
        assert sum(float(r["frequency"]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_case_study_reruns_byte_identical(self, tmp_path):
        cfg1 = self._cfg(tmp_path / "a", "case-study", {"bandit": {"horizon": 120}})
        cfg2 = self._cfg(tmp_path / "b", "case-study", {"bandit": {"horizon": 120}})
        a1 = run_experiment(cfg1)
        a2 = run_experiment(cfg2)
        for name in a1.csv_paths:
            assert a1.csv_paths[name].read_bytes() == a2.csv_paths[name].read_bytes()

    def test_lambda_sweep_temperature_limits(self, tmp_path):
        cfg = self._cfg(tmp_path, "lambda-sweep", {"lambda_grid": {"points": 17}})
        artifacts = run_experiment(cfg)
        rows = read_csv(artifacts.csv_paths["sweep"])
        by_lambda = {}
        for r in rows:
            by_lambda.setdefault(float(r["lambda"]), {})[
                (int(r["state"]), int(r["action"]))
            ] = float(r["pi"])
        lams = sorted(by_lambda)
        assert lams[0] == pytest.approx(1e-4)
        assert lams[-1] == pytest.approx(1e4)
        hot = by_lambda[lams[-1]]
        assert abs(hot[(0, 0)] - 0.5) <= 1e-3
        cold = by_lambda[lams[0]]
        assert max(cold[(0, 0)], cold[(0, 1)]) >= 1.0 - 1e-3

    def test_lambda_sweep_rows_match_direct_best_response(self, tmp_path):
        # every temperature of the sweep plans exactly as a direct call does
        cfg = self._cfg(tmp_path, "lambda-sweep")
        rows = iter(read_csv(run_experiment(cfg).csv_paths["sweep"]))
        m_theta = cfg.instance.with_kernel(cfg.conjectures.members[0].kernel)
        for lam in cfg.lambda_grid.values():
            pi, v_soft, _ = soft_best_response(m_theta, SoftPlanConfig(temperature=float(lam)))
            for x in range(m_theta.num_states):
                for a in range(m_theta.num_actions):
                    row = next(rows)
                    assert (row["lambda"], row["pi"], row["v_soft"]) == tuple(
                        format(float(v), ".17g") for v in (lam, pi[x, a], v_soft[x])
                    ), f"lambda={lam:g}, x={x}, a={a}"
        assert next(rows, None) is None

    def test_duality_audit_gaps(self, tmp_path):
        cfg = self._cfg(tmp_path, "duality-audit")
        artifacts = run_experiment(cfg)
        rows = read_csv(artifacts.csv_paths["duality"])
        assert len(rows) == 4
        for r in rows:
            assert float(r["primal_gap"]) <= 1e-12
            assert float(r["dual_gap"]) <= 1e-12
            assert float(r["max_slackness_violation"]) <= 1e-8
            assert r["occupation_policy_greedy"] == "true"

    def test_duality_audit_ignores_unvisited_states(self, tmp_path):
        # state 1 is never reached from state 0, so the optimal occupation
        # gives it no mass; its non-greedy action 1 must not fail the check
        mdp = {"kernel": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
               "rewards": [[0.5, 0.5], [1.0, 0.0]], "discount": 0.9,
               "initial_dist": [1.0, 0.0]}
        cfg = self._cfg(tmp_path, "duality-audit",
                        {"mdp": mdp, "conjectures": {"epsilons": [0.0]}})
        [row] = read_csv(run_experiment(cfg).csv_paths["duality"])
        assert float(row["primal_gap"]) <= 1e-12
        assert float(row["dual_gap"]) <= 1e-12
        assert row["occupation_policy_greedy"] == "true"

    def test_equilibrium_report(self, tmp_path):
        cfg = self._cfg(tmp_path, "equilibrium-report")
        artifacts = run_experiment(cfg)
        rows = read_csv(artifacts.csv_paths["equilibria"])
        assert {r["mode"] for r in rows} == {"hard", "soft"}
        accepted = [r for r in rows if r["accepted"] == "true"]
        assert all(r["model_index"] == "0" for r in accepted)
        summary = artifacts.csv_paths["summary"].read_text()
        assert "equilibrium" in summary

    def test_zooming_artifacts(self, tmp_path):
        cfg = self._cfg(tmp_path, "zooming",
                        {"bandit": {"horizon": 400}})
        artifacts = run_experiment(cfg)
        trace = read_csv(artifacts.csv_paths["param_trace"])
        assert len(trace) == 400
        sizes = read_csv(artifacts.csv_paths["set_size"])
        assert all(int(r["num_arms"]) >= 1 for r in sizes)
        final = read_csv(artifacts.csv_paths["final_set"])
        assert all(0.0 <= float(r["param"]) <= 0.5 for r in final)
        events = read_csv(artifacts.csv_paths["zoom_events"])
        assert len(events) == 4

    def test_tabular_kernels_case_study(self, tmp_path):
        m, _ = benchmark3()
        uniform = np.full(m.kernel.shape, 1.0 / m.num_states)
        cfg = self._cfg(tmp_path, "case-study", {
            "bandit": {"horizon": 200},
            "conjectures": {"kernels": [
                {"kernel": m.kernel.tolist(), "label": "truth"},
                {"kernel": uniform.tolist(), "label": "uniform"},
            ]},
        })
        artifacts = run_experiment(cfg)
        freq = read_csv(artifacts.csv_paths["frequencies"])
        assert [r["label"] for r in freq] == ["truth", "uniform"]
        assert all(r["param"] == "" for r in freq)
        counts = [int(r["count"]) for r in freq]
        assert sum(counts) == 200
        assert float(freq[0]["oracle_loss"]) == 0.0
        assert counts[0] == max(counts)
        trace = read_csv(artifacts.csv_paths["loss_trace"])
        assert all(r["param"] == "" for r in trace)

    def test_labels_are_csv_quoted(self, tmp_path):
        m, _ = benchmark3()
        uniform = np.full(m.kernel.shape, 1.0 / m.num_states)
        cfg = self._cfg(tmp_path, "case-study", {
            "bandit": {"horizon": 300},
            "conjectures": {"kernels": [
                {"kernel": m.kernel.tolist(), "label": "k0"},
                {"kernel": uniform.tolist(), "label": 'k,1"q'},
            ]},
        })
        artifacts = run_experiment(cfg)
        freq = artifacts.csv_paths["frequencies"].read_text().splitlines()
        assert re.fullmatch(r'1,"k,1""q",,\d+,[^,"]+,[^,"]+', freq[2])
        trace = artifacts.csv_paths["loss_trace"].read_text().splitlines()
        pulls = [line for line in trace[1:] if line.split(",")[1] == "1"]
        assert pulls
        assert all(re.fullmatch(r'\d+,1,"k,1""q",,[^,"]+(,[^,"]+){3}', line) for line in pulls)

    def test_labels_with_line_breaks_read_back(self, tmp_path, capsys):
        m, _ = benchmark3()
        uniform = np.full(m.kernel.shape, 1.0 / m.num_states)
        labels = ["a\rb", "c,d", 'e"f', "g\nh"]
        cfg = self._cfg(tmp_path, "case-study", {
            "bandit": {"horizon": 100},
            "conjectures": {"kernels": [
                {"kernel": (w * m.kernel + (1 - w) * uniform).tolist(), "label": label}
                for w, label in zip((1.0, 0.7, 0.4, 0.1), labels)
            ]},
        })
        artifacts = run_experiment(cfg)
        with open(artifacts.csv_paths["frequencies"], newline="") as fh:
            assert [r["label"] for r in csv.DictReader(fh)] == labels
        assert cli_main(["report", str(artifacts.output_dir)]) == 0
        assert "frequency" in capsys.readouterr().out

    def test_report_prints_escaped_labels_on_one_line(self, tmp_path, capsys):
        m, _ = benchmark3()
        labels = ["a\rb", "c\\rd", "g\nh", "été"]
        _, summary = run_and_report(tmp_path, capsys, {
            "experiment": "case-study", "bandit": {"horizon": 20},
            "conjectures": {"kernels": [{"kernel": m.kernel.tolist(), "label": label}
                                        for label in labels]},
        })
        lines = summary.splitlines()
        assert len(lines) == 5  # one per arm, then the oracle-loss gap
        shown = [re.fullmatch(r"arm \d \((.*)\): frequency [0-9.]+", line)[1]
                 for line in lines[:4]]
        assert shown == ["a\\rb", "c\\\\rd", "g\\nh", "été"]

    def test_zooming_without_zoom_event_writes_header_only(self, tmp_path):
        cfg = self._cfg(tmp_path, "zooming",
                        {"bandit": {"horizon": 50}, "zoom": {"zoom_interval": 100}})
        events = run_experiment(cfg).csv_paths["zoom_events"].read_text()
        assert events == ("t,incumbent_param,num_kept,num_pruned_suboptimal,"
                          "num_pruned_converged,num_added\n")

    @pytest.mark.parametrize("kind, extra", [
        ("case-study", {"bandit": {"horizon": 50, "learning_rate": 0.25}}),
        ("lambda-sweep", {"lambda_grid": {"points": 3, "max": 10.0}}),
        ("zooming", {"bandit": {"horizon": 60}, "zoom": {"zoom_interval": 20}}),
        ("equilibrium-report", {"equilibrium": {"mode": "hard"}}),
        ("duality-audit", {"soft": {"temperature": 0.5}}),
    ], ids=["case-study", "lambda-sweep", "zooming", "equilibrium-report", "duality-audit"])
    def test_manifest_config_reloads_to_equal_config(self, tmp_path, kind, extra):
        cfg = self._cfg(tmp_path, kind, extra)
        echo = json.loads(run_experiment(cfg).manifest_path.read_text())["config"]
        again = config_from_dict(echo)
        assert again.resolved == echo
        for name in ("kind", "seed", "output_dir", "soft", "bandit", "zoom",
                     "lambda_grid", "equilibrium"):
            assert getattr(again, name) == getattr(cfg, name)

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        override = tmp_path / "forced"
        monkeypatch.setenv("BERKNASH_OUTPUT_DIR", str(override))
        cfg = config_from_dict({"experiment": "duality-audit", "output_dir": "ignored"})
        artifacts = run_experiment(cfg)
        assert artifacts.output_dir == override
        assert (override / "manifest.json").exists()


def test_fmt_cells():
    for x in (0.1, 1 / 3, 1e-300, -2.5e17, 0.0, 1.0, float("inf")):
        assert _fmt(x) == format(x, ".17g")
    assert _fmt(0.1) == "0.10000000000000001"
    assert [_fmt(v) for v in (True, False)] == ["true", "false"]
    assert [_fmt(v) for v in (7, -3, 0)] == ["7", "-3", "0"]
    assert [_fmt(v) for v in ("eps=0.25", "")] == ["eps=0.25", ""]
    # a numpy scalar would print with numpy's own repr, so it must not get through
    for v in (np.float64(0.1), np.int64(7), np.bool_(True), None):
        with pytest.raises(TypeError):
            _fmt(v)


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "bad.csv", {"a": [1, 2], "b": [0.5]})


def _write_csv_reference(path, columns):
    """The writer before row templates: ``csv.writer`` over ``_fmt`` of every cell."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in zip(*cells, strict=True))


def _assert_same_bytes(tmp_path, columns):
    _write_csv(tmp_path / "new.csv", columns)
    _write_csv_reference(tmp_path / "ref.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_matches_reference_on_default_pipelines(tmp_path, monkeypatch):
    captured = []

    def capture(path, columns):
        captured.append(columns)
        write_csv(path, columns)

    write_csv = harness._write_csv
    monkeypatch.setattr(harness, "_write_csv", capture)
    for kind in harness.EXPERIMENT_KINDS:
        run_experiment(config_from_dict(
            {"experiment": kind, "seed": 11, "output_dir": str(tmp_path / kind)}))
    assert len(captured) == 9
    for columns in captured:
        _assert_same_bytes(tmp_path, columns)


_CELLS = {
    "float": st.floats(allow_subnormal=True) | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308]),
    "int": st.integers(),
    "bool": st.booleans(),
    # csv.writer leaves a bare \r unquoted, where _write_csv quotes it
    "str": st.text(st.characters(min_codepoint=1, max_codepoint=127,
                                 blacklist_characters="\r"), max_size=6)
    | st.sampled_from(["", ",", '"', "\n", 'a,"b"\nc']),
}


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 6))
    kinds = [*_CELLS.values(), st.one_of(*_CELLS.values())]  # one type, or mixed
    return {f"c{j}": draw(st.lists(draw(st.sampled_from(kinds)), min_size=rows, max_size=rows))
            for j in range(draw(st.integers(2, 5)))}


@settings(max_examples=200, deadline=None)
@given(columns=_tables())
def test_write_csv_matches_reference_on_mixed_tables(tmp_path_factory, columns):
    _assert_same_bytes(tmp_path_factory.mktemp("csv"), columns)


def test_write_csv_mixed_column_writes_cells_as_fmt(tmp_path):
    cells = ["", 0.0, -0.0, True, 1, 1.0, math.nan]
    _write_csv(tmp_path / "mixed.csv", {"i": range(len(cells)), "v": cells})
    lines = (tmp_path / "mixed.csv").read_text().splitlines()
    assert lines == ["i,v", "0,", "1,0", "2,-0", "3,true", "4,1", "5,1", "6,nan"]


@pytest.mark.parametrize("bad", [np.float64(0.1), np.int64(7), None])
@pytest.mark.parametrize("mixed", [False, True], ids=["alone", "mixed"])
def test_write_csv_rejects_non_python_cells(tmp_path, bad, mixed):
    with pytest.raises(TypeError):
        _write_csv(tmp_path / "bad.csv", {"a": [1, 2], "b": [0.5 if mixed else bad, bad]})


def test_write_csv_zero_rows_writes_header_only(tmp_path):
    _write_csv(tmp_path / "empty.csv", {"a": [], "b": range(0), "c": np.array([])})
    assert (tmp_path / "empty.csv").read_text() == "a,b,c\n"


class TestCLI:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        cfg_path.write_text(json.dumps({
            "experiment": "case-study",
            "output_dir": str(out_dir),
            "bandit": {"horizon": 150},
        }))
        assert cli_main(["run", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert "frequencies" in captured.out
        assert cli_main(["report", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "case-study" in captured.out

    def test_benchmark3_dump_is_valid_json(self, capsys):
        assert cli_main(["benchmark3", "--dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conjectures"]["epsilons"] == [0.05, 0.15, 0.30, 0.45]
        kernel = np.asarray(payload["mdp"]["kernel"])
        np.testing.assert_allclose(kernel.sum(axis=2), np.ones((3, 2)), atol=1e-12)

    def test_benchmark3_summary(self, capsys):
        assert cli_main(["benchmark3"]) == 0
        assert "3 states" in capsys.readouterr().out

    def test_report_duality_audit_prints_worst_gaps(self, tmp_path, capsys):
        out_dir, summary = run_and_report(tmp_path, capsys, {"experiment": "duality-audit"})
        rows = read_csv(out_dir / "duality.csv")
        for title, column in (("max primal gap", "primal_gap"), ("max dual gap", "dual_gap"),
                              ("max slack abuse", "max_slackness_violation")):
            worst = max(float(r[column]) for r in rows)
            assert re.search(rf"^{title}: +{re.escape(f'{worst:.3e}')}$", summary, re.M)

    def test_report_zooming_prints_median_of_last_tenth(self, tmp_path, capsys):
        out_dir, summary = run_and_report(tmp_path, capsys, {
            "experiment": "zooming", "bandit": {"horizon": 200}, "zoom": {"zoom_interval": 50},
        })
        final = sorted(float(r["param"]) for r in read_csv(out_dir / "final_set.csv"))
        assert f"final params: {[round(p, 6) for p in final]}\n" in summary
        params = [float(r["param"]) for r in read_csv(out_dir / "param_trace.csv")]
        tail = params[-(len(params) // 10):]
        assert f"median selected param, last 10%: {np.median(tail):.6g}\n" in summary

    def test_report_case_study_prints_oracle_loss_gap(self, tmp_path, capsys):
        out_dir, summary = run_and_report(tmp_path, capsys, {
            "experiment": "case-study", "bandit": {"horizon": 30},
        })
        losses = sorted(float(r["oracle_loss"]) for r in read_csv(out_dir / "frequencies.csv"))
        gap = losses[1] - losses[0]
        assert f"oracle-loss gap, best to second-best arm: {gap:.6g}\n" in summary
        assert f"{gap:.6g}" == "0.198724"

    def test_report_lambda_sweep_prints_entropy_bonus_at_grid_ends(self, tmp_path, capsys):
        out_dir, summary = run_and_report(tmp_path, capsys, {
            "experiment": "lambda-sweep", "lambda_grid": {"points": 3},
        })
        rows = read_csv(out_dir / "sweep.csv")
        m, _ = benchmark3()
        for lam in (1e-4, 1e4):
            bonus = max(float(r["v_soft"]) - float(r["v_reward"])
                        for r in rows if float(r["lambda"]) == lam)
            assert f"lambda {lam:g}: max entropy bonus over states {bonus:.9g}\n" in summary
            # at most lam * log A / (1 - beta), reached where the policy is uniform
            bound = lam * math.log(m.num_actions) / (1.0 - m.discount)
            assert 0.0 <= bonus <= bound * (1 + 1e-12)
        assert f"{bonus:.9g}" == f"{bound:.9g}" == "138629.436"

    def test_temperature_range_endpoints_accepted(self, tmp_path):
        lo, hi = TEMPERATURE_RANGE
        assert (lo, hi) == (1e-6, 1e4)
        for temperature in (lo, hi):
            cfg = config_from_dict({"experiment": "case-study", "soft": {"temperature": temperature},
                                    "lambda_grid": {"min": lo, "max": hi}})
            assert cfg.soft.temperature == temperature

    def test_equilibrium_report_names_kl_tied_models(self, tmp_path):
        # benchmark3's true kernel twice: each copy is accepted at margin 0
        m, _ = benchmark3()
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "ties"
        cfg_path.write_text(json.dumps({
            "experiment": "equilibrium-report", "output_dir": str(out_dir),
            "conjectures": {"kernels": [
                {"kernel": m.kernel.tolist(), "label": "truth-a"},
                {"kernel": m.kernel.tolist(), "label": "truth-b"},
                {"kernel": mixture_kernel(m, 0.3).kernel.tolist(), "label": "eps=0.3"},
            ]},
        }))
        assert cli_main(["run", str(cfg_path)]) == 0
        rows = read_csv(out_dir / "equilibria.csv")
        assert [(r["mode"], r["model_index"]) for r in rows if r["accepted"] == "true"] == [
            ("hard", "0"), ("hard", "1"), ("soft", "0"), ("soft", "1")]
        summary = (out_dir / "summary.txt").read_text()
        note = ": beliefs mixing the tied models are not searched\n"
        for mode in ("hard", "soft"):
            assert (f"mode={mode}: 2 equilibrium(ia)\n"
                    "  model 0 (truth-a), kl_margin=0, divergence=0\n"
                    f"    tied in KL with model 1 (truth-b){note}"
                    "  model 1 (truth-b), kl_margin=0, divergence=0\n"
                    f"    tied in KL with model 0 (truth-a){note}") in summary
        assert "eps=0.3" not in summary

    def test_equilibrium_report_one_model(self, tmp_path, capsys):
        # with no rival model the margin is inf, in the CSV and in the summary
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "one"
        cfg_path.write_text(json.dumps({
            "experiment": "equilibrium-report", "output_dir": str(out_dir),
            "conjectures": {"epsilons": [0.1]},
        }))
        assert cli_main(["run", str(cfg_path)]) == 0
        rows = read_csv(out_dir / "equilibria.csv")
        assert [(r["mode"], r["accepted"], r["kl_margin"]) for r in rows] == [
            ("hard", "true", "inf"), ("soft", "true", "inf")]
        assert (out_dir / "summary.txt").read_text().count("kl_margin=inf,") == 2

    def test_report_equilibria_prints_accepted_models(self, tmp_path, capsys):
        m, _ = benchmark3()
        noisy = 0.8 * m.kernel + 0.2 / 3
        out_dir, summary = run_and_report(tmp_path, capsys, {
            "experiment": "equilibrium-report",
            "conjectures": {"kernels": [{"kernel": noisy.tolist(), "label": "g\nh"},
                                        {"kernel": m.kernel.tolist(), "label": "a\rb"}]},
        })
        rows = read_csv(out_dir / "equilibria.csv")
        margins = {r["mode"]: float(r["kl_margin"]) for r in rows if r["accepted"] == "true"}
        assert set(margins) == {"hard", "soft"}
        assert len(summary.splitlines()) == 4  # the escaped label splits no line
        for mode, margin in margins.items():
            assert (f"mode={mode}: 1 equilibrium(ia)\n"
                    f"  model 1 (a\\rb), kl_margin={margin:.6g}, divergence=") in summary

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{not json", "line 1"),
            (json.dumps({"experiment": "case-study",
                         "conjectures": {"kernels": [{"kernel": [[[1.0]]]}]}}),
             "conjectures.kernels[0]"),
            (json.dumps({"experiment": "case-study", "conjectures": {"kernels": 5}}),
             "conjectures.kernels"),
            (json.dumps({"experiment": "zooming", "zoom": {"bounds": 5}}), "zoom.bounds"),
            (json.dumps({"experiment": "lambda-sweep", "lambda_grid": {"points": "x"}}),
             "lambda_grid.points"),
            (json.dumps({"experiment": "case-study", "seed": True}), "seed"),
            (json.dumps({"experiment": "lambda-sweep", "lambda_grid": {"pointz": 3}}),
             "lambda_grid.pointz"),
            (json.dumps({"experiment": "equilibrium-report",
                         "equilibrium": {"mdoe": "hard"}}), "equilibrium.mdoe"),
            (json.dumps({"experiment": "equilibrium-report", "equilibrium": {"tol": "x"}}),
             "equilibrium.tol"),
            (json.dumps({"experiment": "duality-audit", "output_dir": 5}), "output_dir"),
            (json.dumps({"experiment": "case-study", "bandit": {"horizon": 2.5}}),
             "bandit.horizon"),
            (json.dumps({"experiment": "case-study", "bandit": {"rollout_horizon": 100.5}}),
             "bandit.rollout_horizon"),
            (json.dumps({"experiment": "zooming", "zoom": {"grid_size": 2.5}}),
             "zoom.grid_size"),
            (json.dumps({"experiment": "case-study", "soft": {"max_iters": 1e6}}),
             "soft.max_iters"),
            (json.dumps({"experiment": "case-study", "bandit": {"horizon": True}}),
             "bandit.horizon"),
            (json.dumps({"experiment": "equilibrium-report", "equilibrium": {"tol": True}}),
             "equilibrium.tol"),
            (json.dumps({"experiment": "zooming", "zoom": {"zoom_interval": 10.5}}),
             "zoom.zoom_interval"),
            (json.dumps({"experiment": "case-study", "bandit": {"rng_seed": 3}}),
             "bandit.rng_seed"),
            (json.dumps({"experiment": "case-study", "bandit": {"learning_rate": "fast"}}),
             "bandit.learning_rate"),
            (json.dumps({"experiment": "zooming", "zoom": {"initial_grid": 2.0}}),
             "zoom.initial_grid"),
            (json.dumps({"experiment": "case-study", "soft": [1]}), "soft"),
            (json.dumps({"experiment": "case-study",
                         "mdp": {**INLINE_MDP, "discount": "0.9"}}), "mdp.discount"),
            (json.dumps({"experiment": "case-study",
                         "mdp": {**INLINE_MDP, "rewards": [["0.4", True], [0.5, 2.0]]}}),
             "mdp.rewards"),
            (json.dumps({"experiment": "case-study", "mdp": {**INLINE_MDP, "kernel": 5}}),
             "mdp: kernel must have shape"),
            (json.dumps({"experiment": "case-study", "conjectures": {"epsilons": ["0.1"]}}),
             "conjectures.epsilons"),
            (json.dumps({"experiment": "case-study", "conjectures": {"epsilons": [True, 0.2]}}),
             "conjectures.epsilons"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP,
                         "conjectures": {"kernels": [{"kernel": [[["0.5", 0.5], [0.9, 0.1]],
                                                                 [[0.3, 0.7], [0.5, 0.5]]]}]}}),
             "conjectures.kernels[0]: kernel"),
            (json.dumps({"experiment": "case-study", "bandit": {"learning_rate": float("inf")}}),
             "bandit.learning_rate"),
            (json.dumps({"experiment": "lambda-sweep", "lambda_grid": {"max": float("inf")}}),
             "lambda_grid.max"),
            (json.dumps({"experiment": "case-study", "soft": {"temperature": float("nan")}}),
             "soft.temperature"),
            (json.dumps({"experiment": "case-study",
                         "mdp": {**INLINE_MDP, "rewards": [[float("nan"), 0.0], [0.5, 2.0]]}}),
             "mdp.rewards"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "param": {"a": 1}}]}}),
             "conjectures.kernels[0].param"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "param": [0.1, 0.2]}]}}),
             "conjectures.kernels[0].param"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "param": "0.1"}]}}),
             "conjectures.kernels[0].param"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "param": True}]}}),
             "conjectures.kernels[0].param"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "param": float("nan")}]}}),
             "conjectures.kernels[0].param"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "label": 7}]}}),
             "conjectures.kernels[0].label"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "lable": "a"}]}}),
             "conjectures.kernels[0].lable"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "epsilons": [0.1], "kernels": [{"kernel": INLINE_MDP["kernel"]}]}}),
             "conjectures: provide either 'epsilons' or 'kernels', not both"),
            (json.dumps({"experiment": "case-study", "conjectures": {"kernels": ["ab"]}}),
             "conjectures.kernels[0]: expected an object"),
            (json.dumps({"experiment": "duality-audit",
                         "conjectures": {"epsilons": [0.1], "labels": ["x"]}}),
             "unknown fields: conjectures.labels"),
            (json.dumps({"experiment": "duality-audit", "mdp": {**INLINE_MDP, "rewardz": 1}}),
             "unknown fields: mdp.rewardz"),
            ('{"experiment": "case-study", "seed": -1}', "seed: must be a non-negative"),
            (json.dumps({"experiment": "zooming", "zoom": {"bounds": [0.0, 2.0]}}),
             "zoom.bounds"),
            (json.dumps({"experiment": "zooming",
                         "zoom": {"bounds": [0.0, 1.3], "initial_grid": 1}}), "zoom.bounds"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"label": "a"}]}}),
             "conjectures.kernels[0]: missing field 'kernel'"),
            (json.dumps({"experiment": "case-study", "bandit": {"horizon": 2**32}}),
             "bandit: horizon must lie in [1, 2**32), got 4294967296"),
            (json.dumps({"experiment": "case-study", "soft": {"temperature": 5e-324}}),
             "soft.temperature: must lie in the supported range [1e-06, 10000], got 5e-324"),
            (json.dumps({"experiment": "zooming", "soft": {"temperature": 1.7e308}}),
             "soft.temperature: must lie in the supported range"),
            (json.dumps({"experiment": "lambda-sweep", "lambda_grid": {"min": 5e-324}}),
             "lambda_grid.min: must lie in the supported range"),
            (json.dumps({"experiment": "lambda-sweep", "lambda_grid": {"max": 1.7e308}}),
             "lambda_grid.max: must lie in the supported range"),
            (json.dumps({"experiment": "case-study", "conjectures": {"kernels": []}}),
             "conjectures.kernels: conjecture set must be nonempty"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"], "label": "a"},
                            {"kernel": INLINE_MDP["kernel"], "label": "a"}]}}),
             "conjectures.kernels: conjecture labels must be unique"),
            (json.dumps({"experiment": "case-study", "mdp": INLINE_MDP, "conjectures": {
                "kernels": [{"kernel": INLINE_MDP["kernel"]},
                            {"kernel": INLINE_MDP["kernel"], "label": "model-0"}]}}),
             "conjectures.kernels: conjecture labels must be unique"),
            (json.dumps({"experiment": "case-study", "bandit": {"loss_estimator": "rollout"}}),
             "bandit: rollout mode requires an explicit loss_scale"),
            (json.dumps({"experiment": "case-study", "output_dir": "runs/a\u0000b"}),
             "output_dir: a path cannot hold a NUL character"),
        ],
        ids=["bad-json", "kernel-shape", "kernels-not-list", "zoom-bounds",
             "lambda-points", "bool-seed", "lambda-typo", "equilibrium-typo",
             "equilibrium-tol-str", "output-dir-int", "horizon-float",
             "rollout-horizon-float", "grid-size-float", "max-iters-float",
             "horizon-bool", "equilibrium-tol-bool", "zoom-interval-float",
             "bandit-rng-seed", "learning-rate-str", "initial-grid-float",
             "soft-not-object", "discount-str", "rewards-str-bool", "kernel-scalar",
             "epsilons-str", "epsilons-bool", "kernels-str", "learning-rate-inf",
             "lambda-max-inf", "temperature-nan", "rewards-nan", "param-object",
             "param-list", "param-str", "param-bool", "param-nan", "label-int",
             "kernel-item-typo", "epsilons-and-kernels", "kernel-item-str",
             "conjectures-typo", "mdp-typo", "negative-seed", "zoom-bounds-above-one",
             "zoom-bounds-unreached", "kernel-item-missing-kernel", "horizon-2**32",
             "temperature-subnormal", "temperature-huge", "lambda-min-subnormal",
             "lambda-max-huge", "kernels-empty", "kernels-same-label",
             "kernels-default-label-taken", "rollout-no-loss-scale", "output-dir-nul"],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch, text, field):
        monkeypatch.delenv("BERKNASH_OUTPUT_DIR", raising=False)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli_main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert field in err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "case-study",
            "bandit": {"exploration": 2.0},
        }))
        assert cli_main(["run", str(cfg_path)]) == 2

    def test_duality_audit_drift_names_model_and_discount(self, tmp_path, capsys, monkeypatch):
        # near beta = 1 the simplex's answer misses its rows by more than
        # OPT_TOL; that is a validation failure of one model's LP (exit 3)
        monkeypatch.delenv("BERKNASH_OUTPUT_DIR", raising=False)
        m, _ = benchmark3()
        mdp = {"kernel": m.kernel.tolist(), "rewards": m.rewards.tolist(),
               "discount": 1 - 1e-8, "initial_dist": m.initial_dist.tolist()}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "duality-audit", "mdp": mdp,
                                        "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "model 'eps=0.3' at discount 0.99999999: " in err
        assert "(tableau drift)" in err

    POSIX_LOCALE = {"LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @staticmethod
    def _cli(args, env_locale):
        """``berknash`` in a fresh interpreter under ``env_locale``."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH"))
            if p))
        env.pop("BERKNASH_OUTPUT_DIR", None)
        return subprocess.run([sys.executable, "-m", "berknash.cli", *map(str, args)],
                              env={**env, **env_locale}, capture_output=True, timeout=120)

    @staticmethod
    def _labelled_config():
        m, _ = benchmark3()
        return {
            "experiment": "case-study",
            "bandit": {"horizon": 30},
            "conjectures": {"kernels": [{"kernel": m.kernel.tolist(), "label": "été"},
                                        {"kernel": m.kernel.tolist(), "label": "q→1"}]},
        }

    def test_run_writes_utf8_under_posix_locale(self, tmp_path):
        written = {}
        for name, env_locale in (("posix", self.POSIX_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
            out = tmp_path / name
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({**self._labelled_config(), "output_dir": str(out)},
                                           ensure_ascii=False), encoding="utf-8")
            proc = self._cli(["run", cfg_path], env_locale)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            written[name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert written["posix"] == written["utf8"]
        assert "été".encode() in written["posix"]["frequencies.csv"]

    def test_report_escapes_what_an_ascii_stdout_cannot_encode(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self._labelled_config(), "output_dir": str(out)}))
        assert self._cli(["run", cfg_path], {"PYTHONUTF8": "1"}).returncode == 0
        proc = self._cli(["report", out], self.POSIX_LOCALE)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stderr == b""
        shown = proc.stdout.decode("ascii").splitlines()
        assert shown[-3:-1] == ["arm 0 (\\xe9t\\xe9): frequency 0.5333",
                                "arm 1 (q\\u21921): frequency 0.4667"]

    def test_output_dir_the_file_system_cannot_encode_names_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "case-study",
                                        "output_dir": str(tmp_path / "réun")}))
        proc = self._cli(["run", cfg_path], self.POSIX_LOCALE)
        assert proc.returncode == 2, proc.stderr.decode(errors="replace")
        assert proc.stderr.startswith(b"config error: output_dir: ")
        assert not (tmp_path / "réun").exists()

    def test_config_not_utf8_names_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"experiment": "case-study", "output_dir": "été"}'.encode("latin-1"))
        assert cli_main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err

    def test_report_missing_rundir(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("text", ["{}", "[]", "{not json"],
                             ids=["empty-object", "list", "not-json"])
    def test_report_malformed_manifest(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert cli_main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(manifest) in err

    @pytest.mark.parametrize("artifacts", [["frequencies.csv"], {"frequencies": 5}],
                             ids=["artifacts-list", "artifacts-not-names"])
    def test_report_mismatched_artifacts(self, tmp_path, capsys, artifacts):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "experiment": "case-study", "seed": 11, "versions": {}, "artifacts": artifacts,
        }))
        assert cli_main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"{manifest}: artifacts" in err

    @pytest.mark.parametrize("bad", ["manifest.json", "summary.txt"])
    def test_report_not_utf8_names_file(self, tmp_path, capsys, bad):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "experiment": "case-study", "seed": 11, "versions": {},
            "artifacts": {"summary": "summary.txt"},
        }))
        (tmp_path / "summary.txt").write_text("arm 0 (a): frequency 1.0000\n")
        (tmp_path / bad).write_bytes(b"\xff")
        assert cli_main(["report", str(tmp_path)]) == 2
        assert f"{tmp_path / bad}: not UTF-8 text" in capsys.readouterr().err

    def test_report_lists_a_directory_artifact_without_summary(self, tmp_path, capsys):
        # a listed summary.txt that is missing prints nothing after the listing
        (tmp_path / "duality.csv").mkdir()
        (tmp_path / "manifest.json").write_text(json.dumps({
            "experiment": "duality-audit", "seed": 11, "versions": {},
            "artifacts": {"duality": "duality.csv", "summary": "summary.txt"},
        }))
        assert cli_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.split("\n", 2)[2] == "  duality: duality.csv\n  summary: summary.txt\n"
