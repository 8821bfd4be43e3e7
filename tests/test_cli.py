import json
import math

import numpy as np
import pytest

from simplexcs.cli import load_observations, main


def test_load_observations_categories(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("1\n2\n1\n3\n")
    obs = load_observations(str(p))
    assert obs.shape == (4, 3)
    assert np.array_equal(obs.sum(axis=0), [2, 1, 1])


def test_load_observations_simplex_rows(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("0.2,0.8\n0.5,0.5\n")
    obs = load_observations(str(p))
    assert obs.shape == (2, 2)
    assert obs[0, 1] == 0.8


def test_load_observations_box(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("0.3,0.9\n")
    obs = load_observations(str(p), box=True)
    assert np.allclose(obs[0], [0.15, 0.45, 0.4])


def test_load_observations_empty(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("\n")
    with pytest.raises(ValueError):
        load_observations(str(p))


def test_wealth_subcommand_kt(tmp_path, capsys):
    p = tmp_path / "obs.csv"
    p.write_text("1\n1\n")
    rc = main(["wealth", "--method", "kt", "--obs", str(p), "--m", "0.75,0.25"])
    assert rc == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)


def test_wealth_subcommand_up(tmp_path, capsys):
    p = tmp_path / "obs.csv"
    p.write_text("0.75,0.25\n")
    rc = main(["wealth", "--method", "up", "--obs", str(p), "--m", "0.25,0.75"])
    assert rc == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(math.log(5.0 / 3.0), abs=1e-9)


def test_wealth_subcommand_wor(tmp_path, capsys):
    p = tmp_path / "obs.csv"
    p.write_text("1\n1\n")
    rc = main([
        "wealth", "--method", "ppr", "--obs", str(p),
        "--m", "0.75,0.25", "--n", "4",
    ])
    assert rc == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(math.log(0.75), abs=1e-9)
    # ppr is the only WoR wealth; argparse rejects any other name
    with pytest.raises(SystemExit) as exc:
        main(["wealth", "--method", "wor-kt", "--obs", str(p), "--m", "0.75,0.25",
              "--n", "4"])
    assert exc.value.code == 2
    assert "invalid choice: 'wor-kt'" in capsys.readouterr().err


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    svg = tmp_path / "plot.svg"
    rc = main([
        "simulate", "--mu", "0.6,0.25,0.15", "--t", "10", "--trials", "2",
        "--seed", "3", "--methods", "kt", "--grid", "10",
        "--out", str(out), "--svg", str(svg),
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "kt" in payload["final_mean_volume"]
    assert out.exists() and svg.exists()
    assert (tmp_path / "rows.csv.json").exists()


def test_wor_subcommand(capsys):
    rc = main([
        "wor", "--census", "6,3,1", "--permutations", "5", "--delta", "0.1",
        "--method", "ppr", "--seed", "2",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["N"] == 10
    assert "ppr" in summary["mean_stop"]


def test_wor_stream_subcommand(tmp_path, capsys):
    p = tmp_path / "labels.txt"
    p.write_text("1\n1\n2\n")
    rc = main([
        "wor", "--census", "3,2", "--stream", "--obs", str(p),
        "--delta", "0.2",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["t"] == 1
    assert len(first["bounds"]) == 2


def test_confset_subcommand(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("1\n1\n1\n2\n")
    out = tmp_path / "set.csv"
    rc = main([
        "confset", "--method", "kt", "--obs", str(obs), "--delta", "0.05",
        "--grid", "10", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["relative_volume"] <= 1.0
    header = out.read_text().split("\n", 1)[0]
    assert header == "m1,m2,running_max_log_wealth,active"


def test_wor_stream_stops_when_every_census_is_excluded(tmp_path, capsys):
    # at delta = 0.6 the PPR set of the census (4, 2) is empty after the
    # draws 2, 2, 1, 1, 1; the stream reports that and reads no further
    p = tmp_path / "labels.txt"
    p.write_text("2\n2\n1\n1\n1\n1\n")
    rc = main([
        "wor", "--census", "4,2", "--stream", "--obs", str(p),
        "--delta", "0.6", "--method", "ppr",
    ])
    assert rc == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().split("\n")]
    assert len(lines) == 5
    assert all(len(line["bounds"]) == 2 for line in lines[:-1])
    assert lines[-1] == {"t": 5, "active_count": 0, "bounds": None,
                         "decided": False}


@pytest.mark.parametrize("text, bad_line, reported, reason", [
    ("1\n0\n", 2, 1, "category 0 is not in 1..2"),
    ("1\n\n3\n", 3, 1, "category 3 is not in 1..2"),
    ("2\nx\n", 2, 1, "invalid literal"),
    ("1\n2\n1\n", 3, 2, "draw 3 is past N-1 = 2"),
])
def test_wor_stream_bad_line_exits_2(tmp_path, capsys, text, bad_line,
                                     reported, reason):
    # a bad label ends the stream with a one-line error naming its line,
    # after the draws before it have been reported
    p = tmp_path / "labels.txt"
    p.write_text(text)
    rc = main(["wor", "--census", "2,1", "--stream", "--obs", str(p),
               "--delta", "0.2"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert len(out.strip().split("\n")) == reported
    assert err.count("\n") == 1
    assert f"line {bad_line}:" in err and reason in err


@pytest.mark.parametrize("argv, error", [
    (["simulate", "--t", "5", "--methods", "kt,nope"],
     "simulate: unknown method 'nope'"),
    (["simulate", "--methods", "ppr"], "simulate: unknown method 'ppr'"),
    (["simulate", "--delta", "1.5"], "simulate: delta must lie in (0, 1)"),
    (["wor", "--census", "6,3,1", "--method", "nope"],
     "wor: unknown method 'nope'"),
    (["wor", "--census", "6,3,1", "--method", "kt"], "wor: unknown method 'kt'"),
    (["wor", "--census", "6,3,1", "--stream", "--obs", "unread",
      "--method", "nope"], "wor --stream: unknown WoR method 'nope'"),
    (["simulate", "--mu", "0.5,0.6", "--t", "3"],
     "simulate: mu (0.5, 0.6) is not a probability vector"),
    (["simulate", "--mu", "1", "--t", "3"],
     "simulate: mu (1.0,) is not a probability vector"),
    (["simulate", "--conc", "2,-1", "--t", "3"],
     "simulate: concentration (2.0, -1.0) needs 2 or more positive entries"),
    (["wor", "--census", "3,-2"], "wor: census (3, -2) needs 2 or more"),
    (["wor", "--census", "5"], "wor: census (5,) needs 2 or more"),
    (["wor", "--census", "0,0"], "wor: census (0, 0) needs 2 or more"),
    (["wor", "--census", "3,-2", "--stream", "--obs", "unread"],
     "wor --stream: census (3, -2) needs 2 or more"),
    (["wor", "--census", "6,3,2", "--delta", "0"],
     "wor: delta must lie in (0, 1)"),
    (["wor", "--census", "6,3,2", "--stream", "--obs", "unread", "--delta", "0"],
     "wor --stream: delta must lie in (0, 1)"),
    (["wor", "--census", "6,3,2", "--permutations", "0"],
     "wor: trials must be >= 1"),
    (["wor", "--census", "6,3,2", "--alpha", "-1"], "wor: alpha must be positive"),
    (["simulate", "--t", "3", "--alpha", "0"], "simulate: alpha must be positive"),
    (["simulate", "--t", "3", "--grid", "0"],
     "simulate: grid resolution must be >= 1"),
    (["wealth", "--method", "kt", "--obs", "unread", "--m", "0.5,0.5",
      "--alpha", "-1"], "wealth: Dirichlet prior requires positive alpha"),
    (["simulate", "--k", "5", "--grid", "300", "--trials", "1", "--t", "2"],
     "simulate: |G(5,300)| = 348881876 exceeds the grid cap"),
])
def test_rejected_config_exits_2(argv, error, capsys):
    # a method name of the wrong kind, or a bad level, mu, concentration or
    # census, ends the command with
    # a one-line error before any trial runs or any label is read
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(error)


def test_simulate_preset_fig2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"census": [6, 3, 1], "trials": 4, "seed": 2,
                               "methods": ["ppr"]}))
    out = tmp_path / "rows.csv"
    rc = main(["simulate", "--preset", "fig2", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["N"] == 10
    assert set(summary["mean_stop"]) == {"ppr"}
    assert len(out.read_text().strip().split("\n")) == 1 + 4


@pytest.mark.parametrize("argv, error", [
    (["confset", "--method", "kt", "--delta", "0.05", "--grid", "0"],
     "confset: grid resolution 0 must be >= 1"),
    (["confset", "--method", "up", "--delta", "1.5"],
     "confset: delta must lie in (0, 1)"),
    (["wealth", "--method", "kt", "--m", "0.5,0.5"],
     "wealth: category 3 is not in 1..2"),
    (["wealth", "--method", "ppr", "--m", "1,0,0", "--n", "3"],
     "wealth: ppr_log_wealth requires sum(drawn) <= N - 1"),
    (["wealth", "--method", "ppr", "--m", "0.5,0.5,0", "--n", "3"],
     "wealth: --n 3 times --m is not an integer census of 3"),
    (["wealth", "--method", "ppr", "--m", "0.5,0.5,0.5", "--n", "4"],
     "wealth: --n 4 times --m is not an integer census of 4"),
    (["confset", "--method", "kt", "--delta", "0.05", "--grid", "20000"],
     "confset: |G(3,20000)| = 200030001 exceeds the grid cap"),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, error):
    # an explicit 0 is used, not replaced by a default, and a value the
    # library rejects ends the command with a one-line error, not a
    # traceback; the observations are 4 draws of 3 categories
    obs = tmp_path / "obs.csv"
    obs.write_text("1\n2\n3\n1\n")
    argv = argv + ["--obs", str(obs)]
    if argv[0] == "confset":
        argv += ["--out", str(tmp_path / "set.csv")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(error)
