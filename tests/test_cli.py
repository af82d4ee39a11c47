import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import netsir.phase_type
from netsir import allocator, cli, gp, simulator
from netsir.cli import ConfigError, ExperimentConfig, main

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args):
    """Run `python *args` in a fresh interpreter that imports this
    checkout's netsir."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def two_node_graph(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n")
    return path


@pytest.fixture
def sim_config(tmp_path, two_node_graph):
    doc = {"graph": str(two_node_graph), "initially_infected": [0],
           "beta": 0.2, "delta": 0.5, "replicas": 30_000, "seed": 11,
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def opt_config(tmp_path, two_node_graph):
    doc = {"graph": str(two_node_graph), "initially_infected": [0],
           "beta_box": [0.05, 0.5], "delta_box": [0.2, 1.0], "budget": 2.0,
           "replicas": 5_000, "seed": 3,
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg_opt.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_round_trip_lossless(self, sim_config):
        cfg = ExperimentConfig.load(str(sim_config))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"graph": "g.txt", "bogus": 1})

    def test_epsilon_is_not_a_field(self, tmp_path, capsys):
        # the certificate margin is bound.DEFAULT_SLACK, not a setting
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": "g.txt", "epsilon": 1e-6}))
        assert main(["optimize", "--config", str(config)]) == 4
        assert "unknown config fields: ['epsilon']" in capsys.readouterr().err

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"graph": "g.txt", "mode": "sideways"})

    def test_missing_graph_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"mode": "plain"})

    @pytest.mark.parametrize("doc", ["5", "null", '["graph"]', '"graph"'])
    def test_non_object_config_is_exit_4(self, tmp_path, capsys, doc):
        config = tmp_path / "config.json"
        config.write_text(doc)
        assert main(["validate", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: config must be a JSON object, got ") \
            and err.count("\n") == 1

    def test_string_replicas_is_exit_4(self, sim_config, capsys):
        doc = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(doc, replicas="10")))
        assert main(["validate", "--config", str(sim_config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: replicas") and err.count("\n") == 1

    def test_zero_replicas_override_is_exit_4(self, sim_config, capsys):
        assert main(["validate", "--config", str(sim_config),
                     "--replicas", "0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: replicas") and err.count("\n") == 1

    def test_misordered_box_is_exit_4(self, opt_config, capsys):
        doc = json.loads(opt_config.read_text())
        opt_config.write_text(json.dumps(dict(doc, beta_box=[0.5, 0.05])))
        assert main(["optimize", "--config", str(opt_config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: beta_box") and err.count("\n") == 1

    @pytest.mark.parametrize("command, fields, field", [
        ("bound", {"mode": "isolation", "gamma": -1.0}, "gamma"),
        ("simulate", {"mode": "isolation", "gamma": "x"}, "gamma"),
        ("validate", {"mode": "isolation", "gamma": [1.0, 2.0, 3.0]},
         "gamma"),
        ("optimize", {"mode": "isolation", "delta": -0.1}, "delta"),
        ("optimize", {"mode": "isolation", "delta": "x"}, "delta"),
        ("bound", {"initially_infected": {"random": "x"}},
         "initially_infected"),
        ("simulate", {"initially_infected": "abc"}, "initially_infected"),
        ("validate", {"initially_infected": [[0]]}, "initially_infected"),
        ("bound", {"initially_infected": 5}, "initially_infected"),
        ("bound", {"graph": 0}, "graph"),
        ("simulate", {"out_dir": ["out"]}, "out_dir"),
        ("optimize", {"beta_box": 5}, "beta_box"),
        ("optimize", {"beta_box": ["a", "b"]}, "beta_box"),
        ("optimize", {"beta_box": [0.05]}, "beta_box"),
        ("compare", {"gamma_box": [0.5, True]}, "gamma_box"),
        ("compare", {"delta_box": [0.2, math.inf]}, "delta_box"),
        ("simulate", {"seed": 2 ** 128}, "seed"),
        ("simulate", {"replicas": 2 ** 40}, "replicas"),
        ("bound", {"initially_infected": {"random": 2, "sed": 7}},
         "initially_infected"),
        ("bound", {"initially_infected": {"random": True}},
         "initially_infected"),
        ("bound", {"initially_infected": {"random": 1.9}},
         "initially_infected"),
        ("bound", {"initially_infected": {"random": 1, "seed": 2.5}},
         "initially_infected"),
        ("bound", {"initially_infected": [1.9]}, "initially_infected"),
        ("validate", {"initially_infected": [0, True]}, "initially_infected"),
    ], ids=["gamma-negative", "gamma-string", "gamma-length",
            "delta-negative", "delta-string", "random-string",
            "infected-string", "infected-nested", "infected-int",
            "graph-int", "out-dir-list", "box-number", "box-strings",
            "box-short", "box-bool", "box-infinite", "seed-2-128",
            "replicas-2-40",
            "random-misspelled-key", "random-bool", "random-float",
            "random-seed-float", "infected-float", "infected-bool"])
    def test_malformed_rate_or_infected_is_exit_4(self, tmp_path,
                                                  two_node_graph, capsys,
                                                  command, fields, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict({
            "graph": str(two_node_graph), "initially_infected": [0],
            "beta": 0.2, "delta": 0.5, "gamma": 2.0, "erlang_shape": 2,
            "beta_box": [0.05, 0.5], "gamma_box": [0.5, 4.0], "budget": 2.0,
            "replicas": 100, "out_dir": str(tmp_path / "out")}, **fields)))
        assert main([command, "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1

    @pytest.mark.parametrize("command, mode, field, literal, start", [
        ("validate", "plain", "beta", "1e400",
         "beta and delta must be finite"),
        ("validate", "plain", "delta", "1e400",
         "beta and delta must be finite"),
        ("bound", "isolation", "gamma", "1e400", "Pi must be invertible"),
        ("validate", "isolation", "gamma", "1e400", "Pi must be invertible"),
        ("bound", "isolation", "gamma", "1e-320", "Pi must be finite"),
        ("validate", "isolation", "gamma", "1e-320", "Pi must be finite"),
        ("optimize", "isolation", "delta", "1e400", "delta must be finite"),
    ], ids=["beta-inf", "delta-inf", "gamma-inf-bound", "gamma-inf-validate",
            "gamma-tiny-bound", "gamma-tiny-validate",
            "optimize-delta-inf"])
    def test_non_finite_rate_is_exit_4(self, tmp_path, capsys, command, mode,
                                       field, literal, start):
        """A rate written as 1e400 reads as inf, and a gamma of 1e-320
        makes the Erlang phase rate p/gamma overflow: each is refused
        with one error line."""
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        doc = {"graph": str(graph), "initially_infected": [0],
               "mode": mode, "beta": 0.2, "delta": 0.5, "gamma": 2.0,
               "erlang_shape": 2, "beta_box": [0.05, 0.5],
               "gamma_box": [0.5, 4.0], "budget": 4.0, "replicas": 100,
               "out_dir": str(tmp_path / "out")}
        doc[field] = "<rate>"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc).replace('"<rate>"', literal))
        assert main([command, "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and err.count("\n") == 1

    def test_out_of_memory_is_exit_4(self, sim_config, capsys,
                                     monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array "
                              "with shape (100000000000,) and data type "
                              "int64")

        monkeypatch.setattr(simulator, "replica_infections", exhausted)
        assert main(["simulate", "--config", str(sim_config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") \
            and err.count("\n") == 1

    def test_out_of_range_infected_is_exit_4(self, sim_config, capsys):
        doc = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(doc, initially_infected=[5])))
        assert main(["validate", "--config", str(sim_config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: initially infected") \
            and err.count("\n") == 1


class TestSimulate:
    def test_writes_outputs(self, sim_config, tmp_path):
        assert main(["simulate", "--config", str(sim_config)]) == 0
        out = tmp_path / "out"
        counts = (out / "counts.csv").read_text().splitlines()
        assert counts[0] == "t,sigma_S,sigma_I,sigma_R"
        doc = json.loads((out / "lambda.json").read_text())
        assert abs(doc["mean"] - 0.2 / 0.7) <= 4 * doc["std_error"]

    def test_reruns_are_byte_identical(self, sim_config, tmp_path):
        main(["simulate", "--config", str(sim_config)])
        first = (tmp_path / "out" / "counts.csv").read_bytes()
        first_lambda = (tmp_path / "out" / "lambda.json").read_bytes()
        main(["simulate", "--config", str(sim_config)])
        assert (tmp_path / "out" / "counts.csv").read_bytes() == first
        assert (tmp_path / "out" / "lambda.json").read_bytes() == first_lambda

    def test_worker_count_keeps_bytes(self, sim_config, tmp_path,
                                      monkeypatch):
        """The same files with one thread as with the default pool; at
        256 replicas a chunk the run has 118 chunks."""
        monkeypatch.setattr(simulator, "_CHUNK", 1 << 10)
        outputs = []
        for workers in (simulator._WORKERS, 1):
            monkeypatch.setattr(simulator, "_WORKERS", workers)
            out = tmp_path / f"out{workers}"
            assert main(["simulate", "--config", str(sim_config),
                         "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("lambda.json", "counts.csv")])
        assert outputs[0] == outputs[1]

    def test_seed_override_changes_trajectory(self, sim_config, tmp_path):
        main(["simulate", "--config", str(sim_config)])
        base = (tmp_path / "out" / "counts.csv").read_text()
        main(["simulate", "--config", str(sim_config), "--seed", "99",
              "--out", str(tmp_path / "out2")])
        other = (tmp_path / "out2" / "counts.csv").read_text()
        assert base != other

    def test_missing_config_is_exit_4(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 4

    def test_missing_graph_is_exit_4(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"graph": str(tmp_path / "missing.txt"),
                                   "initially_infected": [0],
                                   "beta": 0.1, "delta": 0.1}))
        assert main(["simulate", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize("content, where", [
        (b"0 x\n", "line 1:"), (b"0 1\n2 2\n", "line 2:"),
        (b"n 2\n0 1\nn 3\n", "line 3:"), (b"0 1\n\xff\n", "'utf-8'"),
        (b"n 10000000000\n0 1\n", "line 1: node count 10000000000 exceeds")],
        ids=["endpoint", "self-loop", "late-header", "not-utf8",
             "huge-header"])
    def test_malformed_graph_is_exit_4(self, tmp_path, capsys, content,
                                       where):
        graph = tmp_path / "g.txt"
        graph.write_bytes(content)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"graph": str(graph),
                                   "initially_infected": [0],
                                   "beta": 0.1, "delta": 0.1}))
        assert main(["simulate", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: graph {graph}: {where}") \
            and err.count("\n") == 1


class TestBound:
    def test_bound_json(self, sim_config, tmp_path):
        assert main(["bound", "--config", str(sim_config)]) == 0
        doc = json.loads((tmp_path / "out" / "bound.json").read_text())
        assert doc["hurwitz"] is True
        assert doc["lambda_bound"] == pytest.approx(0.4, abs=1e-9)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A graph file and a config that start with a UTF-8 byte order
        mark, as some editors write them, read as they do without it."""
        text = "n 4\n0 1\n1 2\n2 3\n0 2\n"
        for tag, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            graph = tmp_path / f"{tag}.txt"
            graph.write_bytes(bom + text.encode())
            cfg = tmp_path / f"{tag}.json"
            cfg.write_bytes(bom + json.dumps(
                {"graph": str(graph), "initially_infected": [0],
                 "beta": 0.3, "delta": 0.6,
                 "out_dir": str(tmp_path / tag)}).encode())
            assert main(["bound", "--config", str(cfg)]) == 0
        assert (tmp_path / "bom" / "bound.json").read_bytes() \
            == (tmp_path / "plain" / "bound.json").read_bytes()

    def test_one_erlang_per_distinct_gamma(self, tmp_path, monkeypatch):
        """Isolation bound builds one Erlang law for a scalar gamma, and
        one per distinct value of a gamma vector, as one stack of
        generators."""
        calls = []
        generators = netsir.phase_type._erlang_generators

        def counted(p, means):
            calls.extend(means.tolist())
            return generators(p, means)
        monkeypatch.setattr(netsir.phase_type, "_erlang_generators", counted)
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        cfg = tmp_path / "c.json"
        for gamma, built in ((1.5, [1.5]), ([2.0, 1.0, 2.0, 1.0], [1.0, 2.0])):
            calls.clear()
            cfg.write_text(json.dumps({
                "graph": str(graph), "initially_infected": [0],
                "mode": "isolation", "beta": 0.3, "delta": 0.2,
                "gamma": gamma, "erlang_shape": 3,
                "out_dir": str(tmp_path / "out")}))
            assert main(["bound", "--config", str(cfg)]) == 0
            assert calls == built


    def test_refused_call_then_bound_matches_fresh_process(
            self, tmp_path):
        """The parser is built once per process; a call it refuses leaves
        it as it was, so the next call writes what a fresh process does."""
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n2 3\n0 2\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "graph": str(graph), "initially_infected": [1],
            "mode": "isolation", "beta": 0.3, "delta": 0.2, "gamma": 1.5,
            "erlang_shape": 2}))
        with pytest.raises(SystemExit) as refused:
            main(["bound", "--mode", "sideways", "--config", str(cfg)])
        assert refused.value.code == 2
        assert main(["bound", "--config", str(cfg),
                     "--out", str(tmp_path / "here")]) == 0
        assert cli._parser() is cli._parser()
        fresh_python("-m", "netsir.cli", "bound", "--config", str(cfg),
                     "--out", str(tmp_path / "fresh"))
        assert (tmp_path / "here" / "bound.json").read_bytes() \
            == (tmp_path / "fresh" / "bound.json").read_bytes()


def test_cli_import_loads_no_heavy_scipy():
    """`import netsir.cli` is all a command's start-up pays for; none of
    these scipy subpackages loads with it."""
    loaded = fresh_python("-c", "import sys, netsir.cli; "
                          "print(' '.join(sorted(sys.modules)))").split()
    heavy = {"scipy.optimize", "scipy.stats", "scipy.integrate",
             "scipy.interpolate", "scipy.sparse.csgraph"}
    assert "netsir.cli" in loaded and heavy.isdisjoint(loaded)


class TestValidate:
    def test_two_node_passes(self, sim_config, tmp_path):
        assert main(["validate", "--config", str(sim_config)]) == 0
        doc = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert doc["bound_ok"] and doc["mc_ok"]
        assert doc["exact_lambda"] == pytest.approx(2 / 7, abs=1e-9)
        assert doc["certified_bound"] == pytest.approx(0.4, abs=1e-9)

    def test_edgeless_passes(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("n 3\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "graph": str(graph), "initially_infected": [0], "beta": 0.2,
            "delta": 0.5, "replicas": 500, "seed": 0,
            "out_dir": str(tmp_path / "out")}))
        assert main(["validate", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert doc["exact_lambda"] == 0.0
        assert doc["mc_lambda"] == 0.0


class TestOptimize:
    def test_allocation_files(self, opt_config, tmp_path):
        assert main(["optimize", "--config", str(opt_config)]) == 0
        out = tmp_path / "out"
        doc = json.loads((out / "allocation.json").read_text())
        assert doc["total_cost"] <= 2.0 + 1e-8
        assert doc["lambda_bar"] <= 0.05 + 1e-4
        csv = (out / "allocation.csv").read_text().splitlines()
        assert csv[0] == "node,degree,prevention_cost,correction_cost"
        assert len(csv) == 3

    def test_infeasible_budget_is_exit_2(self, tmp_path, two_node_graph):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "graph": str(two_node_graph), "initially_infected": [0],
            "beta_box": [0.05, 0.5], "delta_box": [0.2, 1.0],
            "budget": 1e-6, "lambda_cap": 0.05, "solver_tol": 1e-6,
            "out_dir": str(tmp_path / "out")}))
        assert main(["optimize", "--config", str(cfg)]) == 2

    def test_unconverged_solve_is_exit_3(self, opt_config, monkeypatch,
                                         capsys):
        monkeypatch.setattr(gp, "solve_compiled", lambda problem, tol: gp.GpSolution(
            point={}, objective_value=math.nan, status="max_iter",
            kkt_residual=math.inf))
        assert main(["optimize", "--config", str(opt_config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_loose_solver_tol_optimizes(self, tmp_path, two_node_graph):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(
            _BASE, graph=str(two_node_graph), solver_tol=10,
            out_dir=str(tmp_path / "out"))))
        assert main(["optimize", "--config", str(cfg)]) == 0

    def test_one_fit_per_distinct_delta(self, tmp_path, monkeypatch):
        """Isolation optimize fits the monomial decay bound once for a
        scalar delta, and once per distinct value of a delta vector."""
        calls = []
        fit = allocator.fit_monomial_bound

        def counted(delta, x_range):
            calls.append(delta)
            return fit(delta, x_range)
        monkeypatch.setattr(allocator, "fit_monomial_bound", counted)
        graph = tmp_path / "path.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        cfg = tmp_path / "c.json"
        for delta, fitted in ((0.1, [0.1]),
                              ([0.3, 0.1, 0.3, 0.1], [0.1, 0.3])):
            calls.clear()
            cfg.write_text(json.dumps({
                "graph": str(graph), "initially_infected": [0],
                "mode": "isolation", "delta": delta, "erlang_shape": 2,
                "beta_box": [0.05, 0.5], "gamma_box": [0.5, 4.0],
                "budget": 4.0, "out_dir": str(tmp_path / "out")}))
            assert main(["optimize", "--config", str(cfg)]) == 0
            assert calls == fitted

    def test_random_infected_selection(self, tmp_path, two_node_graph):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "graph": str(two_node_graph),
            "initially_infected": {"random": 1, "seed": 5},
            "beta_box": [0.05, 0.5], "delta_box": [0.2, 1.0], "budget": 2.0,
            "out_dir": str(tmp_path / "out")}))
        assert main(["optimize", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "allocation.json").read_text())
        assert len(doc["infected"]) == 1


class TestCompare:
    def test_three_strategies(self, opt_config, tmp_path):
        assert main(["compare", "--config", str(opt_config)]) == 0
        lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        assert lines[0] == \
            "strategy,lambda_mean,lambda_stderr,relative_improvement"
        strategies = [row.split(",")[0] for row in lines[1:]]
        assert strategies == ["optimized", "uniform", "sis_spectral"]

    def test_edgeless_all_tie_at_zero(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("n 3\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "graph": str(graph), "initially_infected": [0],
            "beta_box": [0.05, 0.5], "delta_box": [0.2, 1.0], "budget": 3.0,
            "replicas": 400, "seed": 1,
            "out_dir": str(tmp_path / "out")}))
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        for row in lines[1:]:
            assert float(row.split(",")[1]) == 0.0

    def test_isolation_mode_compare(self, tmp_path, two_node_graph):
        cfg = tmp_path / "c.json"
        for delta in (0.1, 0.0):   # 0.0: removal by isolation only
            cfg.write_text(json.dumps({
                "graph": str(two_node_graph), "initially_infected": [0],
                "mode": "isolation", "delta": delta, "erlang_shape": 2,
                "beta_box": [0.05, 0.5], "gamma_box": [0.5, 4.0],
                "budget": 2.0, "replicas": 2_000, "seed": 1,
                "out_dir": str(tmp_path / "out")}))
            assert main(["compare", "--config", str(cfg)]) == 0
            lines = (tmp_path / "out" / "comparison.csv").read_text() \
                .splitlines()
            strategies = [row.split(",")[0] for row in lines[1:]]
            assert strategies == ["optimized", "uniform"]


_GRAPHS = st.one_of(
    st.sampled_from([b"0 1\n", b"0 1\n1 2\n2 0\n", b"n 3\n0 1\n", b"n 1\n",
                     b"0 1\r\n1 2\r\n", b"# a path\n0\x1f1\n1 2\n"]),
    st.sampled_from([b"", b"# nothing\n", b"0 x\n", b"1 1\n", b"n 0\n",
                     b"n 2\n0 5\n", b"0 1\n\xff\n", b"0 1 2\n",
                     b"n 99999999999\n0 1\n", b"0 99999999999999999999\n",
                     b"0\xc2\xa01\n"]))
_BASE = {"initially_infected": [0], "beta": 0.2, "delta": 0.5,
         "gamma": 2.0, "erlang_shape": 2, "beta_box": [0.05, 0.5],
         "delta_box": [0.2, 1.0], "gamma_box": [0.5, 4.0], "budget": 2.0,
         "replicas": 20, "seed": 1, "solver_tol": 1e-6}
_MISSING = object()
_JUNK = st.sampled_from([
    _MISSING, None, "x", "", math.nan, math.inf, -math.inf, 0, 0.0, -1,
    1e-320, 1e300, 2 ** 62, 2 ** 70, True, [], {}, [1.0], [math.nan, 1.0],
    [1.0, 0.0], [0, 1, 2, 3], {"random": 1}, {"random": 2 ** 70},
    {"random": 0, "seed": -1}])


class TestErrorContract:
    @pytest.mark.parametrize("command", ["optimize", "compare", "simulate",
                                         "bound", "validate"])
    def test_erlang_shape_past_any_array_is_exit_4(self, tmp_path,
                                                   two_node_graph, capsys,
                                                   command):
        for shape in (2 ** 62, 2 ** 70):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(dict(
                _BASE, graph=str(two_node_graph), mode="isolation",
                erlang_shape=shape, out_dir=str(tmp_path / "out"))))
            assert main([command, "--config", str(cfg)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "erlang_shape" in err

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(cli._COMMANDS)),
           st.sampled_from(["plain", "isolation"]), _GRAPHS,
           st.dictionaries(st.sampled_from(sorted(_BASE) + ["graph", "mode",
                                                            "lambda_cap",
                                                            "out_dir"]),
                           _JUNK, max_size=2))
    def test_any_config_exits_with_one_line(self, command, mode, graph,
                                            junk):
        """Malformed graphs and config values of the wrong type, NaN,
        infinite, huge, zero or missing, over the five commands: every
        run ends in a documented exit code with at most one line on
        stderr, and nothing escapes as a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_bytes(graph)
            doc = dict(_BASE, graph=str(path), mode=mode)
            for field, value in junk.items():
                doc[field] = value
            doc = {k: v for k, v in doc.items() if v is not _MISSING}
            cfg = Path(tmp) / "c.json"
            cfg.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg),
                             "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        assert err.getvalue().count("\n") <= 1, err.getvalue()
        assert "Traceback" not in err.getvalue()
