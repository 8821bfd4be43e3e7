"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Each test runs a small instance
of a workload through the program, shows that its outputs pass every
check, then corrupts one output and shows that the matching check fails.
Exits non-zero if any test does not behave so.
"""

import copy
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_program(os.getcwd())

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(os.getcwd(), "perfbench", "_out", "selftest")


class SmallSweep(workloads.Sweep):
    T = 20
    GRID = 20


class SmallUP(workloads.UPOnline):
    GRID = 8
    STEPS = 8


class SmallAudit(workloads.Audit):
    CENSUS = (60, 25, 15)
    DRAWS = 99
    CHECK_EVERY = 3
    SAMPLE = 16


def _fails(problems, what):
    assert problems, f"corrupted {what} passed the checks"


def _run(wl, r=0):
    ctx = wl.prepare(r)
    out = wl.execute(ctx)
    assert wl.check(ctx, out) == [], wl.check(ctx, out)
    return ctx, out


def _sweep_case(edit):
    """Run a small sweep, apply edit(rows) to a copy of its rows and return
    the problems check_sweep reports."""
    wl = SmallSweep(5, OUT)
    cfg, out = _run(wl)
    rows = copy.deepcopy(out.data["result"]["rows"])
    edit({(r["method"], r["t"]): r for r in rows})
    onehot = workloads.harness.gen_categorical(
        wl.MU, wl.T, workloads.harness.trial_rng(cfg.seed, 0))
    return checks.check_sweep(rows, onehot, wl.cands, wl.DELTA, wl.METHODS)


def test_kt_set_matches_closed_form():
    def edit(rows):
        rows["kt", 20]["active_count"] += 3
    _fails(_sweep_case(edit), "KT active count")


def test_up_set_equals_kt_on_one_hot():
    def edit(rows):
        rows["up", 7]["active_count"] -= 2
    _fails(_sweep_case(edit), "UP active count")


def test_cp_bonf_matches_beta_quantiles():
    def edit(rows):
        rows["cp-bonf", 12]["active_count"] += 1
    _fails(_sweep_case(edit), "Clopper-Pearson count")


def test_kt2_mix_inside_kt2_bonf():
    def edit(rows):
        rows["kt2-mix", 15]["active_count"] = rows["kt2-bonf", 15]["active_count"] + 1
    problems = _sweep_case(edit)
    assert any("larger than kt2-bonf" in p for p in problems), problems


def test_time_uniform_volume_never_increases():
    def edit(rows):
        rows["kt2-bonf", 9]["volume"] = 1.0
    problems = _sweep_case(edit)
    assert any("volume increases" in p for p in problems), problems


def test_emitted_files_parse_back():
    wl = SmallSweep(6, OUT)
    cfg, out = _run(wl)
    result = out.data["result"]
    with open(wl.csv_path) as fh:
        lines = fh.readlines()
    with open(wl.csv_path, "w") as fh:
        fh.writelines(lines[:-1])
    _fails(checks.check_emitted(wl.csv_path, wl.json_path, result, wl.METHODS,
                                1, wl.T), "CSV with a row missing")
    workloads.harness.emit(result, "csv", wl.csv_path)
    doc = copy.deepcopy(result)
    doc["rows"][3]["active_count"] += 1
    workloads.harness.emit(doc, "json", wl.json_path)
    _fails(checks.check_emitted(wl.csv_path, wl.json_path, result, wl.METHODS,
                                1, wl.T), "JSON with a changed count")


def test_up_table_mass_is_one():
    wl = SmallUP(3, OUT)
    _, out = _run(wl)
    masses = list(out.data["masses"])
    masses[4] *= 1 + 1e-7
    _fails(checks.check_masses(masses), "UP table mass")


def test_up_prefix_matches_dirichlet_moments():
    wl = SmallUP(4, OUT)
    ctx, out = _run(wl)
    for t, state in enumerate(out.data["prefix"], start=1):
        bad = state.log_wealth_many(wl.check_cands)
        i = int(np.flatnonzero(np.isfinite(bad))[5])
        bad[i] += 1e-6
        _fails(checks.check_up_prefix(bad, ctx["obs"][:t], wl.check_cands,
                                      out.data["alpha"]), f"UP wealth at t={t}")


def test_up_active_count_nonincreasing():
    wl = SmallUP(5, OUT)
    _, out = _run(wl)
    active = list(out.data["active"])
    active[-1] = active[0] + 1
    _fails(checks.check_nonincreasing("UP set", active), "UP active counts")


def _audit_case(edit, seed=8):
    wl = SmallAudit(seed, OUT)
    ctx, out = _run(wl)
    data = copy.deepcopy(out.data)
    edit(data, wl)
    return checks.check_audit(ctx["labels"], wl.census, wl.DELTA, data,
                              ctx["sample"])


def test_audit_truth_membership():
    def edit(data, wl):
        draw = min(data["members"])
        data["members"][draw][-1] = ~data["members"][draw][-1]
    _fails(_audit_case(edit), "truth membership")


def test_audit_sample_membership():
    def edit(data, wl):
        draw = min(data["members"])
        data["members"][draw][0] = ~data["members"][draw][0]
    _fails(_audit_case(edit), "sampled census membership")


def test_audit_bounds_nested():
    def edit(data, wl):
        data["bounds"][30, 1, 1] = data["bounds"][29, 1, 1] + 1
    problems = _audit_case(edit)
    assert any("not nested" in p for p in problems), problems


def test_audit_bounds_contain_truth():
    def edit(data, wl):
        data["bounds"][10:, 2, 0] = wl.census[2] + 1
        data["bounds"][10:, 2, 1] = np.maximum(data["bounds"][10:, 2, 1],
                                               wl.census[2] + 1)
    problems = _audit_case(edit)
    assert any("outside the count bounds" in p for p in problems), problems


def test_audit_bounds_no_wider_than_active_set():
    def edit(data, wl):
        draw = min(data["active_bounds"])
        data["bounds"][draw - 1:, 1, 1] += 1
    problems = _audit_case(edit)
    assert any("min and max" in p for p in problems), problems


def test_audit_bound_extremes_in_closed_form_set():
    def edit(data, wl):
        draw = max(data["extremes"])
        data["extremes"][draw][0] = [0, 0, wl.N]
    problems = _audit_case(edit)
    assert any("attaining the count bounds" in p for p in problems), problems


def test_audit_decision_true_ranking():
    def edit(data, wl):
        i = data["decided"].index(True)
        data["bounds"][i, [1, 2]] = data["bounds"][i, [2, 1]]
    problems = _audit_case(edit)
    assert any("true ranking" in p for p in problems), problems


def test_audit_decision_flag():
    def edit(data, wl):
        data["decided"][5] = not data["decided"][5]
    problems = _audit_case(edit)
    assert any("rank decision" in p for p in problems), problems


def main():
    os.makedirs(OUT, exist_ok=True)
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"PASS {name}")
    print(f"{len(tests) - failed} of {len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
