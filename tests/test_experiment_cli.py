"""Experiment runner, emitters, config files, and CLI exit codes."""

import importlib.util
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contamclt.cli as cli
from contamclt import analytic, experiment
from contamclt.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, SETTINGS, main
from contamclt.experiment import (
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_json,
    emit_svg,
    load_tabular_scheme,
    run_experiment,
)
from contamclt.model import ContaminationScheme, SchemeKind

# light grids keep runner tests fast while satisfying grid preconditions
FAST_N_GRID = tuple(500 * 2 ** j for j in range(6))
FAST_EPS_GRID = tuple(float(x) for x in np.geomspace(1e-3, 10.0, 16))


def fast_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0),
        n=200,
        reps=200,
        n_grid=FAST_N_GRID,
        eps_grid=FAST_EPS_GRID,
        formats=(),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_report() -> ExperimentReport:
    return run_experiment(fast_config())


def test_report_contents(small_report):
    rep = small_report
    assert rep.classification is not None
    assert rep.classification.lindeberg_index == pytest.approx(2 / 7, abs=1e-12)
    assert 0.0 <= rep.lindeberg_index_estimate <= 1.0
    assert 0.0 <= rep.lindeberg_upper_bound <= 1.0
    assert set(rep.conditions) == {"A", "B", "C"}
    assert len(rep.qq) == 199
    assert rep.s_n > 0 and 0.0 <= rep.ks_statistic <= 1.0
    assert list(rep.stage_seconds) == ["walk", "conditions", "index estimate", "bound",
                                       "replicate", "qq", "emit"]
    assert all(t >= 0.0 for t in rep.stage_seconds.values())
    assert sum(rep.stage_seconds.values()) > 0.0
    assert rep.assumptions


def test_json_roundtrip_equal(small_report):
    # every float is written at full precision and reads back bit for bit
    data = small_report.to_dict()
    assert json.loads(json.dumps(data)) == data


def test_run_experiment_walks_the_grid_once(monkeypatch):
    # conditions, bound and index estimate share one chunk-aligned walk, so
    # the grid's weights are fetched exactly once per chunk; then the
    # Lindeberg rows (the top half of the grid) fetch the top row once, in one
    # call, and the replicate loop fetches row n = 100 for its draws and then
    # for s_n
    n_grid = tuple(9000 * 2 ** j for j in range(6))  # top 288000: five chunks
    calls = []
    weights = ContaminationScheme.weights

    def counted(self, n, start=1):
        calls.append((start, n))
        return weights(self, n, start)

    monkeypatch.setattr(ContaminationScheme, "weights", counted)
    config = fast_config(n=100, reps=20, n_grid=n_grid, dist="uniform")
    run_experiment(config)
    chunk, top = analytic._CHUNK, n_grid[-1]
    walk = [(lo + 1, min(lo + chunk, top)) for lo in range(0, top, chunk)]
    assert len(walk) == 5
    assert calls == walk + [(1, top)] + [(1, config.n), (1, config.n)]


def test_emit_json_streams_the_report(small_report, tmp_path):
    # a 32 000-row table echoes as about 1.6 MB of JSON; the encoder's chunks
    # go straight to the file instead of into one string of that size
    rng = np.random.default_rng(32000)
    table = ContaminationScheme.tabular(rng.random(32000), 1.0 + 99.0 * rng.random(32000))
    report = replace(small_report, config=replace(small_report.config, scheme=table))
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        emit_json(report, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1.5e6
    assert path.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"
    assert peak < 2 ** 20


@pytest.mark.parametrize("rows", [1, experiment._EchoedColumn.SLICE - 1,
                                  experiment._EchoedColumn.SLICE,
                                  experiment._EchoedColumn.SLICE + 1])
def test_emit_json_echoes_a_table_across_slice_boundaries(rows, small_report, tmp_path):
    rng = np.random.default_rng(rows)
    table = ContaminationScheme.tabular(rng.random(rows), 1.0 + 99.0 * rng.random(rows))
    report = replace(small_report, config=replace(small_report.config, scheme=table))
    path = tmp_path / "report.json"
    emit_json(report, str(path))
    assert path.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_uncontaminated_report_has_no_classification(tmp_path):
    rep = run_experiment(fast_config(scheme=ContaminationScheme.uncontaminated()))
    assert rep.classification is None
    assert rep.lindeberg_index_estimate <= 1e-6
    for est in rep.conditions.values():
        assert est.trend.value == "converging-to-zero"


def test_emit_csv_exact_shape(small_report, tmp_path):
    path = tmp_path / "qq.csv"
    emit_csv(small_report, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 200
    assert lines[0] == "t,theoretical,empirical"
    t, theo, emp = (float(tok) for tok in lines[1].split(","))
    assert (t, theo, emp) == (small_report.qq[0].t, small_report.qq[0].theoretical,
                              small_report.qq[0].empirical)


def test_emit_svg_contains_scatter_line_and_annotation(small_report, tmp_path):
    path = tmp_path / "qq.svg"
    emit_svg(small_report, str(path))
    body = path.read_text()
    root = ET.fromstring(body)  # well-formed XML
    assert root.tag.endswith("svg")
    assert body.count("<circle") == 199
    assert body.count("<line") == 1
    assert "Lindeberg index: 0.2857" in body


@pytest.mark.parametrize("exists", [False, True])
@pytest.mark.parametrize("fails", ["write", "replace"])
def test_write_atomic_leaves_nothing_behind_when_it_fails(fails, exists, tmp_path, monkeypatch):
    # the temporary .part file goes, and the target is not created or keeps its bytes
    target = tmp_path / "report.json"
    if exists:
        target.write_bytes(b"old bytes")

    def chunks():
        yield "new bytes"
        if fails == "write":
            raise OSError("disk full")

    def refuse(src, dst):
        raise OSError("replace refused")

    if fails == "replace":
        monkeypatch.setattr(experiment.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full" if fails == "write" else "replace refused"):
        experiment._write_atomic(str(target), chunks(), force=True)
    assert [path.name for path in tmp_path.iterdir()] == (["report.json"] if exists else [])
    if exists:
        assert target.read_bytes() == b"old bytes"


def test_emitters_refuse_overwrite(small_report, tmp_path):
    path = tmp_path / "out.json"
    emit_json(small_report, str(path))
    with pytest.raises(FileExistsError):
        emit_json(small_report, str(path))
    emit_json(small_report, str(path), force=True)


def test_run_experiment_writes_all_formats(tmp_path):
    cfg = fast_config(reps=60, formats=("csv", "svg", "json"),
                      out=str(tmp_path / "out"))
    run_experiment(cfg)
    for name in ("qq.csv", "qq.svg", "report.json"):
        assert (tmp_path / "out" / name).exists()


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg1 = fast_config(reps=60, formats=("csv", "json"), out=str(out1))
    cfg2 = fast_config(reps=60, formats=("csv", "json"), out=str(out2))
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert (out1 / "qq.csv").read_bytes() == (out2 / "qq.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_run_experiment_fails_fast_on_collision(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("{}")
    cfg = fast_config(reps=60, formats=("json",), out=str(out))
    with pytest.raises(FileExistsError):
        run_experiment(cfg)
    # the stale file is untouched
    assert (out / "report.json").read_text() == "{}"


def test_config_validation_errors():
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        fast_config(n=0).validated()
    with pytest.raises(ValueError, match=r"^reps must be >= 1, got 0$"):
        fast_config(reps=0).validated()
    with pytest.raises(ValueError, match=r"^unknown base distribution 'cauchy'; choose from "
                                         r"\['laplace', 'normal', 'uniform'\]$"):
        fast_config(dist="cauchy").validated()
    for mu in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=rf"^mu must be finite, got {mu}$"):
            fast_config(mu=mu).validated()
    with pytest.raises(ValueError, match=r"^unknown output formats \['pdf'\]; "
                                         r"choose from \('csv', 'svg', 'json'\)$"):
        fast_config(formats=("pdf",)).validated()
    with pytest.raises(ValueError, match=r"^n grid needs at least 6 points, got 2$"):
        fast_config(n_grid=(10, 20)).validated()
    short = ContaminationScheme.tabular([0.1] * 10, [2.0] * 10)
    with pytest.raises(ValueError,
                       match=r"^tabular scheme holds 10 entries but the run needs 16000$"):
        fast_config(scheme=short).validated()


# ---------------------------------------------------------------------------
# tabular scheme files
# ---------------------------------------------------------------------------

def test_load_tabular_scheme(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("p_k,sigma2_k\n0.5,2.0\n0.25,3.0\n")
    scheme = load_tabular_scheme(str(path))
    assert scheme.kind is SchemeKind.TABULAR
    p, s2 = scheme.weights(2)
    assert (p.tolist(), s2.tolist()) == ([0.5, 0.25], [2.0, 3.0])


def test_load_tabular_scheme_bad_header(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("a,b\n0.5,2.0\n")
    with pytest.raises(ValueError,
                       match=r"scheme\.csv: expected header 'p_k,sigma2_k', got \['a', 'b'\]$"):
        load_tabular_scheme(str(path))


def test_load_tabular_scheme_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("p_k,sigma2_k\n0.5,2\n" + "1" * 200_000 + ",2\n")
    with pytest.raises(ValueError, match=r"scheme\.csv:3: field larger than field limit"):
        load_tabular_scheme(str(path))


def test_load_tabular_scheme_bad_row(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("p_k,sigma2_k\n0.5\n")
    with pytest.raises(ValueError, match=r"scheme\.csv:2: malformed row \['0\.5'\]$"):
        load_tabular_scheme(str(path))
    # a quoted field holding a newline spans two file lines, so "bad,4" is
    # the fourth record but sits on line 5
    path.write_text('p_k,sigma2_k\n"0.1\n",2\n0.2,3\nbad,4\n')
    with pytest.raises(ValueError, match=r"scheme\.csv:5: malformed row \['bad', '4'\]"):
        load_tabular_scheme(str(path))


def test_cli_names_a_tabular_weight_out_of_range(tmp_path, capsys):
    table = tmp_path / "scheme.csv"
    table.write_text("p_k,sigma2_k\n0.5,2.0\n1.5,3.0\n")
    assert main(["--scheme", "tabular", "--tabular", str(table)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {table}: p_k out of [0, 1] at index 2: 1.5\n"


def test_load_tabular_scheme_skips_blank_rows(tmp_path):
    # rows with no cells or blank cells only, anywhere after the header
    plain, blanks = tmp_path / "plain.csv", tmp_path / "blanks.csv"
    plain.write_text("p_k,sigma2_k\n0.5,2.0\n0.25,3.0\n0.125,4.0\n")
    blanks.write_text("p_k,sigma2_k\n\n0.5,2.0\n   \n, \n0.25,3.0\n\t,\n\n0.125,4.0\n \n")
    want, got = (load_tabular_scheme(str(path)) for path in (plain, blanks))
    assert (got.p_table, got.sigma2_table) == (want.p_table, want.sigma2_table)


def test_load_tabular_scheme_skips_a_byte_order_mark(tmp_path):
    # as Excel's "CSV UTF-8" writes it
    path = tmp_path / "scheme.csv"
    path.write_bytes(b"\xef\xbb\xbfp_k,sigma2_k\r\n0.5,2.0\r\n0.25,3.0\r\n")
    p, s2 = load_tabular_scheme(str(path)).weights(2)
    assert (p.tolist(), s2.tolist()) == ([0.5, 0.25], [2.0, 3.0])


def test_load_tabular_scheme_holds_16_bytes_a_row(tmp_path):
    rows = 10 ** 5
    rng = np.random.default_rng(7)
    path = tmp_path / "scheme.csv"
    path.write_text("p_k,sigma2_k\n" + "".join(
        f"{p!r},{s!r}\n" for p, s in zip(rng.random(rows).tolist(),
                                          (1.0 + 99.0 * rng.random(rows)).tolist())))
    tracemalloc.start()
    try:
        scheme = load_tabular_scheme(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scheme.length == rows
    assert peak <= 32 * rows
    assert len(pickle.dumps(scheme)) <= 16 * rows + 1024


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _grid_args():
    return [
        "--n-grid", ",".join(str(n) for n in FAST_N_GRID),
        "--eps-grid", ",".join(repr(e) for e in FAST_EPS_GRID),
    ]


def test_cli_happy_path(tmp_path, capsys):
    code = main([
        "--scheme", "powerlaw", "--p", "0.1", "--a", "1", "--s2", "4", "--b", "1",
        "--n", "100", "--reps", "50", "--out", str(tmp_path / "out"),
        "--workers", "1", *_grid_args(),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "case3-bounded" in out
    # the stage times follow the wall clock line; they are never written out
    lines = out.splitlines()
    clock = next(i for i, line in enumerate(lines) if line.startswith("wall clock:"))
    assert [line.split(":")[0].strip() for line in lines[clock + 1:]] == [
        "walk", "conditions", "index estimate", "bound", "replicate", "qq", "emit"]
    assert "walk" not in (tmp_path / "out" / "report.json").read_text()
    assert (tmp_path / "out" / "qq.svg").exists()
    assert (tmp_path / "out" / "qq.csv").exists()


def test_cli_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "scheme = powerlaw\n"
        "p = 0.1\na = 1\ns2 = 4\nb = 1\n"
        "n = 100\nreps = 40\n"
        f"out = {tmp_path / 'file-out'}\n"
        "formats = json\n"
    )
    # flag overrides the file's reps and out dir
    code = main(["--config", str(cfg), "--reps", "30",
                 "--out", str(tmp_path / "flag-out"), "--workers", "1", *_grid_args()])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "flag-out" / "report.json").read_text())
    assert report["config"]["reps"] == 30
    assert report["config"]["n"] == 100  # from file


def test_cli_validation_exit_code(capsys):
    # a bad scheme parameter, grid, worker count or seed: exit 2 and one line
    # naming the fault
    for flags, message in ((["--p", "1.5"], "power-law weight p must lie in (0, 1), got 1.5"),
                           (["--p", "0.1", "--n-grid", "10,20"],
                            "n grid needs at least 6 points, got 2"),
                           (["--p", "0.1", "--workers", "0"], "workers must be >= 1, got 0"),
                           (["--p", "0.1", "--seed=-1"],
                            "seed must be an unsigned 64-bit integer, got -1"),
                           (["--p", "0.1", "--seed", str(2 ** 64)],
                            "seed must be an unsigned 64-bit integer, got 18446744073709551616")):
        code = main(["--scheme", "powerlaw", "--a", "1", "--s2", "4", "--b", "1", *flags])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("p,s2,b", [("0.5", "1e300", "2"), ("0.1", "4", "200")])
def test_cli_refuses_a_power_law_that_overflows(p, s2, b, tmp_path, capsys):
    # sigma_k^2 = s2*k**b, or s_k^2 through the factor p*s2*k**(b - a), would
    # be inf at the default grid's top k = 128000: a message naming s2, b and
    # k, not a RuntimeWarning from the walk and a threshold error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--scheme", "powerlaw", "--p", p, "--a", "1", "--s2", s2, "--b", b,
                     "--n", "10", "--reps", "5", "--workers", "1", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"s2={float(s2)}" in err and f"b={float(b)}" in err and "k=128000" in err


def test_cli_names_eps_when_a_lindeberg_threshold_overflows(tmp_path, capsys):
    # eps * s_n is inf at the largest eps, whose column is evaluated first
    eps_grid = ",".join(f"1e{k}" for k in range(300, 309))
    code = main(["--config", str(Path(__file__).resolve().parent.parent / "configs" / "fig3.cfg"),
                 "--eps-grid", eps_grid, "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "eps=1e+308" in err and "n=16000" in err


def test_cli_out_of_memory_is_a_validation_error(monkeypatch, capsys):
    # numpy raises a MemoryError that names the size; nothing is allocated here
    def refuse(config):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type float64")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    assert main(["--scheme", "none", "--n", "100000000000"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: Unable to allocate 745. GiB for an array with shape (100000000000,) "
        "and data type float64\n")


def test_cli_import_loads_no_process_pool_module():
    # a --workers 1 run never needs the pool, so montecarlo loads
    # concurrent.futures.process (and with it multiprocessing) only for a pool
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    code = ("import sys, contamclt.cli; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# Sets a 3 GB address-space limit and then becomes ``python -m contamclt.cli``;
# exec keeps the limit, and no code runs between fork and exec.
_LIMITED_CLI = ("import os, resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, 3 * 10 ** 9)); "
                "os.execv(sys.executable, [sys.executable, '-m', 'contamclt.cli', *sys.argv[1:]])")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [10 ** 9, 10 ** 11])
def test_cli_refuses_an_n_too_large_to_hold_at_once(n, workers, tmp_path):
    # a row of n = 10**9 needs 8 GB: its weights must fail to allocate before
    # s_n's walk over k = 1..n, which takes minutes to hours at these n.  One
    # BLAS thread keeps the child's address space at import the same on any
    # machine; its own session lets a timeout kill the pool workers with it.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", _LIMITED_CLI, "--config", str(root / "configs" / "fig3.cfg"),
         "--n", str(n), "--reps", "10", "--workers", str(workers), "--formats", "json",
         "--out", str(tmp_path)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"n={n} was not refused within 10 s")
    assert proc.returncode == EXIT_VALIDATION, err
    assert err.count("error:") == 1 and "Unable to allocate" in err, err


def test_cli_missing_parameters_exit_code(capsys):
    code = main(["--scheme", "powerlaw", "--p", "0.1"])
    assert code == EXIT_VALIDATION


def test_cli_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_IO


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["--config", str(cfg)]) == EXIT_VALIDATION


def test_cli_config_line_without_equals_sign(tmp_path, capsys):
    # every config line is `key = value`; a space-separated pair is an error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = none\nn 1000\n")
    assert main(["--config", str(cfg)]) == EXIT_VALIDATION
    assert f"{cfg}:2:" in capsys.readouterr().err


def test_cli_config_key_given_twice(tmp_path, capsys):
    # a repeated key is an error at the repeat, not a silent override
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = none\nn = 100\n# n = 5\n\nn = 200\n")
    assert main(["--config", str(cfg)]) == EXIT_VALIDATION
    assert f"{cfg}:5:" in capsys.readouterr().err


def test_cli_refuses_overwrite_then_force(tmp_path, capsys):
    args = ["--scheme", "none", "--n", "50", "--reps", "20",
            "--out", str(tmp_path / "out"), "--workers", "1", *_grid_args()]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_IO
    # force = no in a file refuses too, and the --force flag overrides it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("force = no\n")
    capsys.readouterr()
    assert main(["--config", str(cfg), *args]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: refusing to overwrite"), err
    assert main(["--config", str(cfg), *args, "--force"]) == EXIT_OK
    assert main(args + ["--force"]) == EXIT_OK


def test_cli_numeric_failure_exit_code(monkeypatch, capsys):
    import contamclt.cli as cli_mod

    def boom(config):
        raise ArithmeticError("synthetic overflow")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    code = main(["--scheme", "none", "--n", "10", "--reps", "5", "--workers", "1",
                 *_grid_args()])
    assert code == EXIT_NUMERIC


def test_cli_tabular_roundtrip(tmp_path, capsys):
    rows = "\n".join(f"0.01,{1.0 + 0.001 * k}" for k in range(1, 16001))
    table = tmp_path / "scheme.csv"
    table.write_text("p_k,sigma2_k\n" + rows + "\n")
    code = main(["--scheme", "tabular", "--tabular", str(table),
                 "--n", "60", "--reps", "25", "--out", str(tmp_path / "out"),
                 "--workers", "1", *_grid_args()])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classification"] is None
    assert report["config"]["scheme"]["kind"] == "tabular"
    assert report["config"]["scheme"]["source"] == str(table)


def test_cli_non_utf8_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"scheme = none\nn = 5\xff\n")
    assert main(["--config", str(cfg)]) == EXIT_VALIDATION
    assert f"error: {cfg}" in capsys.readouterr().err


def test_cli_config_file_with_a_byte_order_mark(tmp_path, capsys):
    # as Notepad writes a UTF-8 file
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfscheme = none\nn = 50\nreps = 20\nformats = json\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "1",
                 *_grid_args()])
    assert code == EXIT_OK
    assert json.loads((tmp_path / "out" / "report.json").read_text())["config"]["n"] == 50


def test_cli_non_utf8_tabular_file(tmp_path, capsys):
    table = tmp_path / "scheme.csv"
    table.write_bytes(b"p_k,sigma2_k\n0.5,2.0\xff\n")
    assert main(["--scheme", "tabular", "--tabular", str(table)]) == EXIT_VALIDATION
    assert f"error: {table}" in capsys.readouterr().err


# Hostile text for any setting: blanks, signs and specials, numerals that
# int() and float() accept too, empty list items, control characters, a
# number past int()'s digit limit, a field past csv's size limit, a lone
# surrogate (not UTF-8 once written to a file) and valid names and grids.
HOSTILE = (
    "", " ", "-", ".", "nan", "-inf", "1e400", "1e308", "5e-324", "-0", "0", "-1", "1",
    "2", "0.5", "2.5", "0x10", "1_0", "\uff11\uff12", "\u0663", "1,2", ",,", "true",
    "csv,,json", "json,pdf", "\x00", "\t3\n", "3 # 4", "\u00e9", "\udc80", "9" * 5000,
    "1" * 200_000, "powerlaw", "tabular", "none", "laplace", "uniform",
    "100,200,400,800,1600,3200", "0.001,0.01,0.1,1,10,100,1000,10000",
)
# a small valid run that the drawn settings override, key by key
FUZZ_BASE = {"scheme": "powerlaw", "p": "0.1", "a": "1", "s2": "4", "b": "1", "n": "8",
             "reps": "8", "workers": "1", "n_grid": "100,200,400,800,1600,3200",
             "eps_grid": "0.001,0.01,0.1,1,10,100,1000,10000"}
# valid values drawn as often as hostile ones, so that runs go deeper
FUZZ_VALID = {"scheme": ("tabular", "none"), "dist": ("laplace", "uniform"),
              "workers": ("2",), "formats": ("svg", ""), "force": ("yes",)}


def _small_or_not_int(text: str, cap: int = 16) -> bool:
    try:
        return int(text) <= cap
    except ValueError:
        return True


def _fuzz_value(key: str):
    hostile = st.sampled_from(HOSTILE)
    if key in ("n", "reps"):
        hostile = hostile.filter(_small_or_not_int)
    return hostile | st.sampled_from(FUZZ_VALID[key]) if key in FUZZ_VALID else hostile


@st.composite
def _hostile_settings(draw):
    """Some settings, each with a hostile value and a route: config file or flag."""
    keys = draw(st.lists(st.sampled_from(list(SETTINGS)), unique=True, max_size=6))
    return {key: (draw(_fuzz_value(key)), draw(st.booleans())) for key in keys}


@given(_hostile_settings())
@example({"scheme": ("tabular", True), "tabular": ("1" * 200_000, False)})  # csv's field limit
@settings(max_examples=60, deadline=None)
def test_cli_hostile_settings_end_in_one_error_line(drawn):
    # any mix of hostile values, from a config file or as flags, ends with
    # exit 0, 2 or 3, one "error:" line on failure and no warning; n and
    # reps stay small, and every path stays inside a temporary directory
    with tempfile.TemporaryDirectory() as tmp:
        config = {**FUZZ_BASE, "out": f"{tmp}/o"}
        argv = []
        for key, (value, in_file) in drawn.items():
            if key == "out":
                value = f"{tmp}/o{value}"
            elif key == "tabular":  # the value is the table's first row
                value = f"{tmp}/t.csv"
                with open(value, "w", encoding="utf-8", errors="surrogateescape") as handle:
                    handle.write(f"p_k,sigma2_k\n{drawn[key][0]}\n" + "0.1,4\n" * 3200)
            if in_file:
                config[key] = value
            else:
                argv.append("--force" if key == "force" else f"--{key.replace('_', '-')}={value}")
        cfg = Path(tmp, "run.cfg")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                       encoding="utf-8", errors="surrogateescape")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(["--config", str(cfg), *argv])
            except SystemExit as exc:  # argparse's own refusals
                code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO), (code, err.getvalue())
    assert len(errors) == (code != EXIT_OK), err.getvalue()
    assert not caught, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# the settings table is the single schema for flags, files and the docs
# ---------------------------------------------------------------------------

# one value per setting, each different from what BASE_LINES resolves to
SAMPLE_VALUES = {
    "scheme": "none", "p": "0.2", "a": "1.5", "s2": "9", "b": "0.5",
    "tabular": "weights.csv", "dist": "laplace", "mu": "-2.5", "n": "77",
    "reps": "33", "seed": "12345", "workers": "3", "out": "elsewhere",
    "formats": "csv, json", "n_grid": "100,200,400,800,1600,3200",
    "eps_grid": "0.01,0.1,1", "force": "true",
}
BASE_LINES = "scheme = powerlaw\np = 0.1\na = 1\ns2 = 4\nb = 1\nworkers = 1\n"
# the ExperimentConfig field each setting lands in, where the names differ
FIELD_OF = {"p": "scheme", "a": "scheme", "s2": "scheme", "b": "scheme"}


class _Captured(Exception):
    pass


def _config_from_main(monkeypatch, argv):
    """The config ``main`` hands to ``run_experiment`` for ``argv``."""
    seen = []

    def capture(config):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured):
        main(argv)
    return seen[0]


@pytest.mark.parametrize("key", list(SETTINGS))
def test_config_file_line_and_flag_give_the_same_config(key, tmp_path, monkeypatch):
    value = SAMPLE_VALUES[key]
    base_cfg = tmp_path / "base.cfg"
    base_cfg.write_text(BASE_LINES)
    keyed_cfg = tmp_path / "keyed.cfg"
    # a key may appear once per file, so the keyed line replaces its base line
    kept = [line for line in BASE_LINES.splitlines() if line.split(" = ")[0] != key]
    keyed_cfg.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    flag = ["--force"] if key == "force" else ["--" + key.replace("_", "-"), value]

    base = _config_from_main(monkeypatch, ["--config", str(base_cfg)])
    via_file = _config_from_main(monkeypatch, ["--config", str(keyed_cfg)])
    via_flag = _config_from_main(monkeypatch, ["--config", str(base_cfg), *flag])
    # == skips the execution fields, so compare every field
    assert vars(via_file) == vars(via_flag)
    changed = {name for name, v in vars(via_file).items() if v != vars(base)[name]}
    assert changed == {FIELD_OF.get(key, key)}


def test_readme_lists_the_settings_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"keys mirror the flags\s*\(`([^`]*)`\)", section).group(1)
    assert listed.split() == list(SETTINGS)


def test_run_figures_writes_under_the_repo_root(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("run_figures", root / "scripts" / "run_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "cli_main", lambda argv: calls.append(argv) or EXIT_OK)
    monkeypatch.setattr("sys.argv", ["run_figures.py"])
    monkeypatch.chdir(tmp_path)
    assert script.run() == EXIT_OK
    assert len(calls) == len(list((root / "configs").glob("fig*.cfg"))) > 0
    for argv in calls:
        out = Path(argv[argv.index("--out") + 1])
        assert out.is_absolute() and out.parent == root / "out"
        assert out.name == Path(argv[argv.index("--config") + 1]).stem


def _bench_pair_script():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_pair", root / "scripts" / "bench_pair.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_pair_refuses_blas_thread_variables(monkeypatch, capsys):
    # both benchmarked sides inherit the environment, so a BLAS thread
    # setting there would override what each side's CLI chooses
    script = _bench_pair_script()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
        # --pairs 0 is refused too, so a missing check cannot start a run
        with pytest.raises(SystemExit) as stop:
            script.main(["--label", "x", "--base", "HEAD", "--workload", "figures",
                         "--pairs", "0"])
        assert stop.value.code == 2 and name in capsys.readouterr().err
        monkeypatch.delenv(name)


def test_bench_pair_summary_reads_medians_quartiles_and_wins():
    # a claim needs the pairs won and the median gap against the base's IQR
    def pair(base, change):
        return {side: {"result": {"metrics": {"wall_s": {"value": v}, "cpu_s": {"value": 1.0}}}}
                for side, v in (("base", base), ("change", change))}

    base = [2.0, 2.4, 2.2, 2.1, 2.3, 2.6, 2.0, 2.2, 2.5, 2.1]
    change = [1.5, 1.6, 1.4, 2.2, 1.5, 1.7, 1.6, 2.3, 1.4, 1.5]
    medians, quartiles, wins = _bench_pair_script().summary(
        [pair(b, c) for b, c in zip(base, change)])
    assert medians == {"base": {"wall_s": 2.2, "cpu_s": 1.0},
                       "change": {"wall_s": 1.55, "cpu_s": 1.0}}
    # inclusive quartiles: order statistics 3.25 and 7.75 of 10, counted from 1
    assert quartiles["base"]["wall_s"] == pytest.approx([2.1, 2.375])
    assert quartiles["change"]["wall_s"] == pytest.approx([1.5, 1.675])
    assert quartiles["base"]["cpu_s"] == [1.0, 1.0]
    assert wins == {"wall_s": 8, "cpu_s": 0}  # two pairs lost, and no tie is a win
    # one pair: both quartiles are its value
    _, single, _ = _bench_pair_script().summary([pair(3.0, 2.0)])
    assert single == {"base": {"wall_s": [3.0, 3.0], "cpu_s": [1.0, 1.0]},
                      "change": {"wall_s": [2.0, 2.0], "cpu_s": [1.0, 1.0]}}


def test_bench_pair_within_bounds_reads_each_metric_against_its_bound():
    # the no-regression check: the change's median may be worse than the
    # base's by at most the bound, a fraction of the base's median
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "cpu_s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                  {"name": "rate", "better": "higher", "bound": 0.1}]
    medians = {"base": {"wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 60.0, "rate": 10.0},
               "change": {"wall_s": 2.5, "cpu_s": 2.6, "peak_rss_mb": 54.0, "rate": 8.9}}
    assert _bench_pair_script().within_bounds(medians, end_to_end) == {
        "wall_s": True, "cpu_s": False, "peak_rss_mb": True, "rate": False}
