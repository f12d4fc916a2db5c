"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from speedref import SAMPLE_EVERY_S, TICK_EVERY_S, UNITS, SpeedRef  # noqa: E402
from tracer import Tracer  # noqa: E402

import tau2.cli  # noqa: E402,F401
import tau2.intlin  # noqa: E402
import tau2.randmodel  # noqa: E402
import tau2.structure  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl = workloads.build(name, 7, str(tmp_path), small=True)
    runner = run.Runner(wl, {})
    runner.run_pass(1)
    _, first = run.traced_pass(runner, Tracer())
    _, second = run.traced_pass(runner, Tracer())
    counts = {k: v for k, v in first.items() if run.is_count(k)}
    assert counts == {k: v for k, v in second.items() if run.is_count(k)}
    assert runner.failed == 0, runner.problems
    for fn in workloads.EXPECTED_CALLS[name]:
        assert counts[f"{fn}.calls"] > 0, fn


def test_uninstall_restores_every_binding():
    kernel_basis = tau2.intlin.kernel_basis
    from_vectors = tau2.intlin.LatticeBasis.__dict__["from_vectors"]
    registry = dict(tau2.randmodel.TAU2_PROPERTIES)
    tracer = Tracer()
    tracer.install()
    try:
        assert tau2.structure.kernel_basis is not kernel_basis
        assert tau2.randmodel.TAU2_PROPERTIES["regular"] is not registry["regular"]
    finally:
        tracer.uninstall()
    assert tau2.intlin.kernel_basis is kernel_basis
    assert tau2.structure.kernel_basis is kernel_basis
    assert tau2.intlin.LatticeBasis.__dict__["from_vectors"] is from_vectors
    assert tau2.randmodel.TAU2_PROPERTIES == registry


def test_outputs_differing_between_passes_fail(tmp_path):
    wl = workloads.build("exact_enum", 7, str(tmp_path), small=True)
    runner = run.Runner(wl, {})
    runner.run_pass(1)
    runner.expected["experiment"] += "extra line\n"
    runner.run_pass(1)
    assert runner.failed == 1 and runner.attempted == 2


def test_golden_digest_mismatch_fails(tmp_path):
    wl = workloads.build("dioph_window", 7, str(tmp_path), small=True)
    runner = run.Runner(wl, {"odot": "0" * 64})
    runner.run_pass(1)
    assert runner.failed == 1 and "golden" in runner.problems[0]


def test_checks_reject_wrong_outputs():
    header = workloads.CSV_HEADER
    good = f"{header}\nregular,1,exact,9,8,0.8888888888888888,8/9,0.56,0.98,7\n"
    rows = [("regular", 1, "exact", 9)]
    assert workloads._check_csv(good, rows, 7) is None
    assert workloads._check_csv(good.replace("8/9", "7/9"), rows, 7) is not None
    assert workloads._check_csv(good, rows, 8) is not None

    system = "vars X1 X2 Y1 Y2\n1*X1*Y2 + -1*X2*Y1 = 1\n"
    solved = system + "# solutions in box [-1, 1]: 1\n# solution: X1=1 X2=0 Y1=0 Y2=1\n"
    assert workloads._check_box(solved, 1, 4) is None
    assert workloads._check_box(solved.replace("Y2=1", "Y2=-1"), 1, 4) is not None
    assert workloads._check_box(solved, 1, 6) is not None
    assert workloads._check_witness(system, {"X1": 1, "X2": 0, "Y1": 0, "Y2": 1}) is None
    assert workloads._check_witness(system, {"X1": 0, "X2": 0, "Y1": 0, "Y2": 1}) is not None
    assert workloads._check_odot("PASS 25/25 window points (window 2)\n", 25, 2) is None
    assert workloads._check_odot("FAIL t1=0 t2=1: x\nFAIL 1/25 window points\n", 25, 2) is not None


def test_reference_ticks_in_proportion_to_workload_time():
    ref = SpeedRef()
    ref.after(2.4 * TICK_EVERY_S)
    assert ref.units == 2 * UNITS
    ref.after(0.7 * TICK_EVERY_S)
    assert ref.units == 3 * UNITS
    assert ref.scale() > 0


def test_sampling_interrupts_work_and_stops_after():
    ref = SpeedRef(time.perf_counter)
    start = time.perf_counter()
    with ref.sampling():
        while time.perf_counter() - start < 10 * SAMPLE_EVERY_S:
            pass
    elapsed = time.perf_counter() - start
    units = ref.units
    assert units >= 3
    assert 0 < ref.spent < elapsed
    time.sleep(3 * SAMPLE_EVERY_S)
    assert ref.units == units
