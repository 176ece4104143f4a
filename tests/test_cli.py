"""End-to-end command line tests, driven in process through cli.main."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wmvlab
from wmvlab import counting, runner, torusgrid
from wmvlab.cli import main, parse_alpha
from wmvlab.phase import SCALE
from wmvlab.runcache import CSV_HEADER


def run_cli(*argv):
    return main(list(argv))


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_alpha_accepts_hex_fraction_and_decimal():
    assert parse_alpha("0x" + "0" * 32).frac == 0
    assert parse_alpha("1/4").frac == SCALE // 4
    assert parse_alpha("0.25").frac == SCALE // 4
    assert parse_alpha(" 3/8 ").frac == 3 * SCALE // 8
    with pytest.raises(ValueError):
        parse_alpha(hex(SCALE))  # one past the top of the range


def test_count_moment_and_brute(capsys):
    assert run_cli("count", "--X", "5", "--s", "2") == 0
    assert "moment_count(X=5, s=2) = 5" in capsys.readouterr().out

    assert run_cli("count", "--X", "4", "--s", "4", "--op", "brute") == 0
    out = capsys.readouterr().out
    assert f"= {counting.brute_force_moment(4, 4)}" in out


def test_count_brute_writes_its_record_and_replays_it(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "d"

    def run(out):
        assert run_cli("count", "--X", "6", "--s", "4", "--op", "brute",
                       "--out", str(out), "--cache-dir", str(cache)) == 0
        assert "brute_force_moment(X=6, s=4) = 66" in capsys.readouterr().out
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == CSV_HEADER
        return [row[1:] for row in rows[1:]]  # all but run_id

    first = run(tmp_path / "f.csv")
    assert [row[:-1] for row in first] == [
        ["brute_force_moment", "6", "4", "", "", "", "66", "", "true"]]

    def refuse(X, s):
        raise AssertionError("brute force recomputed")

    monkeypatch.setattr(counting, "brute_force_moment", refuse)
    assert run(tmp_path / "g.csv") == first


def test_count_vinogradov_writes_csv(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run_cli("count", "--X", "3", "--s", "6", "--op", "vinogradov",
                   "--out", str(out)) == 0
    # closed form 6X^3 - 9X^2 + 4X at X = 3
    assert "vinogradov_count(X=3, s=6) = 93" in capsys.readouterr().out
    rows = _csv_rows(out)
    assert rows[0] == CSV_HEADER
    assert rows[1][1] == "vinogradov_count"
    assert rows[1][7] == "93"


def test_grid_reports_exactness(capsys):
    assert run_cli("grid", "--X", "4", "--s", "4") == 0
    out = capsys.readouterr().out
    assert "moment_estimate(X=4, s=4)" in out
    assert "exact=True" in out


def test_an_unconverged_ladder_is_a_failed_check_cold_and_warm(tmp_path, monkeypatch, capsys):
    # with the points guard at 2^21 the X = 8 ninth moment stops short of tol
    monkeypatch.setattr(torusgrid, "GRID_POINTS_GUARD", 1 << 21)
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    argv = ["grid", "--X", "8", "--s", "9", "--tol", "1e-17",
            "--out", str(out), "--cache-dir", str(cache)]
    assert run_cli(*argv) == 2
    cold = capsys.readouterr().out
    assert cold.startswith("moment_estimate(X=8, s=9) = ")
    assert cold.endswith(" exact=False converged=False\n")
    listing = sorted(os.listdir(cache))
    assert run_cli(*argv) == 2  # replayed from the cache, still failed
    assert capsys.readouterr().out == cold
    assert sorted(os.listdir(cache)) == listing
    rows = _csv_rows(out)
    assert rows[0] == CSV_HEADER and len(rows) == 3
    assert [r[1:-1] for r in rows[1:]] == [rows[1][1:-1]] * 2
    assert rows[1][CSV_HEADER.index("exact")] == "false"

    plan = tmp_path / "plan.ini"
    plan.write_text("[grid-sweep]\nx = 8\ns = 9\ntol = 1e-17\n")
    for _ in range(2):
        assert run_cli("run", "--config", str(plan), "--cache-dir", str(cache)) == 2
        assert capsys.readouterr().out == "1 records, exit status 2\n"
    argv = ["restricted", "--X", "8", "--s", "9", "--Q", "2,4", "--tol", "1e-17"]
    assert run_cli(*argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith(" converged=False") for line in lines)

    # converged lines carry no such note and pass
    assert run_cli("grid", "--X", "8", "--s", "9", "--tol", "1e-6") == 0
    assert capsys.readouterr().out.endswith(" exact=False\n")
    assert run_cli("restricted", "--X", "8", "--s", "9", "--Q", "2") == 0
    assert "converged" not in capsys.readouterr().out


def test_grid_past_the_guards_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(X, spec, j):
        raise AssertionError("grid work started")

    monkeypatch.setattr(torusgrid, "amplitude_row", refuse)
    # I12 at X = 150 is exact on 21,233,664 x 906: 76 folded rows, 1.6e9 points
    refusal = "first grid level 21,233,664 x 906 exceeds the 2^28 Malpha or 2^30 points guard"
    assert run_cli("grid", "--X", "150", "--s", "12") == 1
    assert refusal in capsys.readouterr().err

    plan = tmp_path / "plan.ini"
    plan.write_text("[grid-sweep]\nx = 150\ns = 12\n")
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    assert run_cli("run", "--config", str(plan), "--out", str(out),
                   "--cache-dir", str(cache)) == 1
    assert refusal in capsys.readouterr().err
    assert not out.exists()
    assert not cache.exists() or not any(cache.iterdir())


def test_nan_tol_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(X, spec, j):
        raise AssertionError("grid work started")

    monkeypatch.setattr(torusgrid, "amplitude_row", refuse)
    plan = tmp_path / "plan.ini"
    plan.write_text("[grid-sweep]\nx = 2\ns = 3\ntol = nan\n")
    for argv in (["grid", "--X", "2", "--s", "3", "--tol", "nan"],
                 ["restricted", "--X", "4", "--s", "4", "--Q", "2", "--tol", "nan"],
                 ["run", "--config", str(plan)]):
        assert run_cli(*argv) == 1
        assert "tol must be positive" in capsys.readouterr().err


def test_restricted_prints_each_cutoff(capsys):
    assert run_cli("restricted", "--X", "6", "--s", "4", "--Q", "2,4") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert "Q=2" in out[0] and "Q=4" in out[1]


def test_arcs_classify_labels(capsys):
    assert run_cli("arcs", "classify", "--alpha", "1/3", "--Q", "5", "--X", "10") == 0
    first = capsys.readouterr().out
    assert first.startswith("Major(a=1, q=3")

    assert run_cli("arcs", "classify",
                   "--alpha", "0.41421356237309515", "--Q", "2", "--X", "10") == 0
    assert capsys.readouterr().out.strip() == "Minor"


def test_bounds_compare_single_angle(capsys):
    assert run_cli("bounds", "compare", "--k", "6", "--X", "64",
                   "--eps", "0.05", "--alpha", "1/7") == 0
    out = capsys.readouterr().out
    for label in ("thm13", "hb15", "classical", "actual"):
        assert label in out
    assert "a/q = 1/7" in out


def test_bounds_compare_sampled_trials(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run_cli("bounds", "compare", "--X", "32", "--trials", "2",
                   "--seed", "9", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert printed.count("bound_values") == 2
    assert "bound_calibration" in printed
    rows = _csv_rows(out)
    assert len(rows) == 4  # header + 2 samples + calibration


def test_bounds_compare_single_angle_refuses_out_and_cache_dir(tmp_path, capsys):
    # one angle's bound table does not fit the CSV schema, so nothing is written
    out, cache = tmp_path / "b.csv", tmp_path / "cache"
    for flags in (["--out", str(out)], ["--cache-dir", str(cache)],
                  ["--out", str(out), "--cache-dir", str(cache)]):
        assert run_cli("bounds", "compare", "--X", "64", "--alpha", "1/7", *flags) == 1
        captured = capsys.readouterr()
        assert "CSV schema cannot hold" in captured.err
        assert captured.out == ""
    assert not out.exists()
    assert not cache.exists()


def test_bounds_compare_single_angle_refuses_trials_and_seed(capsys):
    # one given angle samples nothing, so the sampling flags are refused by name
    for flags, named in ((["--trials", "5"], "--trials"), (["--seed", "3"], "--seed"),
                         (["--trials", "5", "--seed", "3"], "--trials")):
        assert run_cli("bounds", "compare", "--X", "64", "--alpha", "1/7", *flags) == 1
        captured = capsys.readouterr()
        assert f"takes no {named}" in captured.err
        assert captured.out == ""
    # without --alpha the defaults still sample 20 angles from seed 0
    assert run_cli("bounds", "compare", "--X", "16") == 0
    default = capsys.readouterr().out
    assert default.count("bound_values") == 20
    assert run_cli("bounds", "compare", "--X", "16", "--trials", "20", "--seed", "0") == 0
    assert capsys.readouterr().out == default


def test_lists_past_the_value_cap_are_refused(capsys):
    assert run_cli("bounds", "curves", "--theta", "0:3:1e-12") == 1
    assert "theta grid of 3,000,000,000,001 values exceeds the 1,000,000 cap" \
        in capsys.readouterr().err
    # a grid that runs backwards is refused, not printed as a bare header
    assert run_cli("bounds", "curves", "--theta", "3:0:0.1") == 1
    captured = capsys.readouterr()
    assert "theta grid lo = 3.0 exceeds hi = 0.0" in captured.err
    assert captured.out == ""
    assert run_cli("bounds", "curves", "--theta", "3:3:0.1") == 0
    assert len(capsys.readouterr().out.splitlines()) == 2  # header + theta = 3
    assert run_cli("restricted", "--X", "8", "--Q", "1..1000000000") == 1
    assert "1,000,000,000 values exceeds the 1,000,000 cap" in capsys.readouterr().err


def test_bounds_curves_stdout_and_file(tmp_path, capsys):
    assert run_cli("bounds", "curves", "--k", "6", "--theta", "0:3:0.5") == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["theta", "exp_classical", "exp_hb", "exp_thm13"]
    assert len(rows) == 8  # header + 7 grid points
    assert float(rows[-1][0]) == 3.0
    # at theta = 3 the two refined exponents coincide
    assert float(rows[-1][2]) == pytest.approx(float(rows[-1][3]), abs=1e-15)
    # 0.1 + 29 * 0.1 rounds past k/2 = 3; the last point is 3 itself
    assert run_cli("bounds", "curves", "--k", "6", "--theta", "0.1:3:0.1") == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 31  # header + 30 grid points
    assert float(rows[-1][0]) == 3.0

    path = tmp_path / "curves.csv"
    assert run_cli("bounds", "curves", "--k", "8", "--theta", "0:1:0.25",
                   "--out", str(path)) == 0
    assert "wrote 5 rows" in capsys.readouterr().out
    saved = _csv_rows(path)
    assert len(saved) == 6


def test_identity_passes_and_fails_by_tolerance(tmp_path, capsys, monkeypatch):
    assert run_cli("identity", "--X", "10", "--trials", "4", "--seed", "2") == 0
    out = capsys.readouterr().out
    assert "4 identity checks, 0 failures" in out

    assert run_cli("identity", "--X", "5", "--trials", "0") == 0
    assert capsys.readouterr().out == \
        "0 identity checks, 0 failures, worst relative deviation 0\n"
    # a negative count of trials is refused by name, from a plan or a flag
    plan, cache = tmp_path / "plan.ini", tmp_path / "cache"
    for kind in ("lemma22-identity", "bounds-compare"):
        plan.write_text(f"[{kind}]\nx = 5\ntrials = -3\n")
        assert run_cli("run", "--config", str(plan), "--cache-dir", str(cache)) == 1
        assert f"{kind} option 'trials': -3 lies outside" in capsys.readouterr().err
        assert not cache.exists()
    for argv in (["identity", "--trials", "-2"],
                 ["bounds", "compare", "--X", "5", "--trials", "-2"]):
        assert run_cli(*argv) == 1
        assert "option 'trials': -2 lies outside" in capsys.readouterr().err

    monkeypatch.setattr(runner, "IDENTITY_REL_TOL", -1.0)
    assert run_cli("identity", "--X", "5", "--trials", "2") == 2
    assert "2 failures" in capsys.readouterr().out


def test_fit_powerlaw_and_segre_from_csv(tmp_path, capsys):
    cubic = tmp_path / "cubic.csv"
    with open(cubic, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["X", "value"])
        for x in (10, 20, 40, 80):
            writer.writerow([x, x ** 3])
    assert run_cli("fit", "powerlaw", "--in", str(cubic)) == 0
    out = capsys.readouterr().out
    assert "slope = 3.000000" in out
    assert "r_squared = 1.000000" in out

    import math
    segre = tmp_path / "segre.csv"
    with open(segre, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["X", "value"])
        for x in (50, 100, 200, 400):
            writer.writerow([x, 6 * x ** 3 + 2 * x ** 2 * math.log(x) ** 5])
    assert run_cli("fit", "segre", "--in", str(segre)) == 0
    out = capsys.readouterr().out
    assert "a = 6.000000" in out
    assert "b = 2.000000" in out


def test_fit_rejects_csv_without_required_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,total\n1,2\n")
    assert run_cli("fit", "powerlaw", "--in", str(bad)) == 1
    assert "error" in capsys.readouterr().err


def test_run_executes_plan_and_reports_status(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[i6-sweep]\nx = 2,4\n")
    out = tmp_path / "r.csv"
    assert run_cli("run", "--config", str(plan), "--out", str(out),
                   "--cache-dir", str(tmp_path / "cache")) == 0
    assert "2 records, exit status 0" in capsys.readouterr().out
    rows = _csv_rows(out)
    assert [r[7] for r in rows[1:]] == [str(counting.moment_count(2, 6)),
                                        str(counting.moment_count(4, 6))]


def test_run_with_unknown_experiment_is_an_execution_error(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[warp-sweep]\nx = 2\n")
    assert run_cli("run", "--config", str(plan)) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert run_cli("no-such-command") == 1
    assert run_cli("count") == 1  # --X is required
    assert run_cli("grid", "--X", "not-a-number") == 1
    assert run_cli("count", "--X", "5", "--seed", "1") == 1  # only sampling commands take --seed
    # arcs, fit and `bounds curves` write no records and reuse no cache
    assert run_cli("arcs", "classify", "--alpha", "1/3", "--Q", "5", "--X", "10",
                   "--out", "x.csv") == 1
    assert run_cli("arcs", "classify", "--alpha", "1/3", "--Q", "5", "--X", "10",
                   "--cache-dir", "c") == 1
    for name in ("powerlaw", "segre"):
        assert run_cli("fit", name, "--in", "x.csv", "--out", "y.csv") == 1
        assert run_cli("fit", name, "--in", "x.csv", "--cache-dir", "c") == 1
    assert run_cli("bounds", "curves", "--cache-dir", "c") == 1
    capsys.readouterr()


def test_execution_errors_exit_1(capsys):
    # grid rejects odd moments above the supported exact range
    assert run_cli("count", "--X", "4", "--s", "3") == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("wmvlab") is None,
                    reason="wmvlab console script not on PATH; "
                           "`pip install -e .` puts it there")
def test_console_script_is_installed():
    proc = subprocess.run(["wmvlab", "count", "--X", "5", "--s", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "moment_count(X=5, s=2) = 5" in proc.stdout


def test_declared_entry_point_runs_without_install():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]", 1)[1]
    assert 'wmvlab = "wmvlab.cli:main"' in scripts.split("\n[", 1)[0]

    env = dict(os.environ, PYTHONPATH=str(Path(wmvlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wmvlab.cli", "count", "--X", "5", "--s", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "moment_count(X=5, s=2) = 5" in proc.stdout
