"""Tests of the benchmark itself: seeded inputs, checks that bite, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import crheat  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from worker import check  # noqa: E402
from workloads import Failed  # noqa: E402


def make(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, ROOT, str(tmp_path / f"{name}-{seed}"))
    wl.setup()
    return wl


def run(wl, cycle, pos):
    op = wl.op(cycle, pos)
    return op, op.run()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(seed, tag):
        wl = make(name, seed, tmp_path / tag)
        docs = [wl.op(c, p).params for c in range(2) for p in range(wl.cycle_ops)]
        # generated files are inputs too; their paths differ, their bytes must not
        work = Path(wl.workdir)
        files = {f.name: f.read_bytes() for f in sorted(work.iterdir())} if work.is_dir() else {}
        return json.dumps(docs, sort_keys=True).replace(wl.workdir, "WORK"), files

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")


def test_full_line_inputs_decay_both_ways(tmp_path):
    wl = workloads.DensityPencils(0, ROOT, str(tmp_path))
    count = 0
    for seed in range(40):
        wl.seed = seed
        for cycle in range(5):
            for pos, (mode, n, _t) in enumerate(wl.CYCLE):
                if mode != "full":
                    continue
                _, _, q, _, _, levi = wl.inputs(cycle, pos)
                rep = crheat.tail_decay(levi, q)
                assert rep.plus_decays and rep.minus_decays
                count += 1
    assert count == 40 * 5 * 4
    # the generated full-line CLI points as well
    for seed in range(20):
        cli = make("cli_mix", seed, tmp_path)
        for path in ("point_n2.json", "point_n3.json"):
            p = crheat.load_point(os.path.join(cli.workdir, path))
            assert crheat.tail_decay(p.levi, 1).plus_decays and crheat.tail_decay(p.levi, 1).minus_decays


def records_of(*pairs):
    return [(op, result, None) for op, result in pairs]


def test_density_check_rejects_perturbed_result(tmp_path):
    wl = make("density_pencils", 3, tmp_path)
    op, res = run(wl, 0, 0)  # delta, n=3
    wl.check_op(op, res)
    rng = np.random.default_rng(0)
    assert wl.check_sample(records_of((op, res)), rng) == []

    skew = res.matrix.copy()
    skew[0, 1] += 1e-6 * np.max(np.abs(skew))
    with pytest.raises(Failed):
        wl.check_op(op, type(res)(res.basis, skew))
    nan = res.matrix.copy()
    nan[0, 0] = np.nan
    with pytest.raises(Failed):
        wl.check_op(op, type(res)(res.basis, nan))
    scaled = type(res)(res.basis, res.matrix * (1 + 1e-6))
    wl.check_op(op, scaled)  # still Hermitian and PSD ...
    assert wl.check_sample(records_of((op, scaled)), rng)  # ... but breaks the identity


def test_group_kernel_check_rejects_perturbed_result(tmp_path):
    wl = make("group_kernel", 4, tmp_path)
    rng = np.random.default_rng(0)
    row = run(wl, 0, 0)
    point = run(wl, 0, 1)
    grid = run(wl, 0, 7)  # the theta = 0 slice, the cheapest
    good = records_of(row, point, grid)
    for op, res, _ in good:
        wl.check_op(op, res)
    assert wl.check_sample(good, rng) == []

    bad_row = (row[0], row[1] * (1 + 1e-9))
    assert {i for i, _ in wl.check_sample(records_of(bad_row), rng)} == {row[0].index}
    bad_grid = (grid[0], (grid[1][0] + 1e-5 * np.max(np.abs(grid[1][0])), grid[1][1]))
    assert {i for i, _ in wl.check_sample(records_of(bad_grid), rng)} == {grid[0].index}
    kv = point[1]
    bad_point = (point[0], type(kv)(type(kv.endo)(kv.endo.basis, kv.matrix * (1 + 1e-5))))
    assert {i for i, _ in wl.check_sample(records_of(bad_point), rng)} == {point[0].index}
    with pytest.raises(Failed):
        wl.check_op(row[0], np.where(np.arange(len(row[1])) == 3, np.inf, row[1]))


def test_morse_check_rejects_perturbed_result(tmp_path):
    wl = make("morse_descriptor", 5, tmp_path)
    rng = np.random.default_rng(0)
    morse = run(wl, 0, 0)  # n=8, delta 2
    heat = run(wl, 0, 3)  # heat trace, n=3
    good = records_of(morse, heat)
    for op, res, _ in good:
        wl.check_op(op, res)
    assert wl.check_sample(good, rng) == []

    rep = morse[1]
    weak = list(rep.per_j_weak)
    weak[int(np.argmax(weak))] *= 1 + 1e-6
    bumped = type(rep)(tuple(weak), rep.strong_partial_sums, rep.delta, rep.feasibility)
    with pytest.raises(Failed):  # strong sums no longer match the weak bounds
        wl.check_op(morse[0], bumped)
    assert wl.check_sample(records_of((morse[0], bumped)), rng)
    bad_heat = (heat[0], [[v * (1 + 1e-6) for v in vals] for vals in heat[1]])
    assert wl.check_sample(records_of(bad_heat), rng)


def test_cli_check_rejects_wrong_code_and_changed_bytes(tmp_path):
    wl = make("cli_mix", 6, tmp_path)
    by_kind = {}
    for pos in range(wl.cycle_ops):
        op = wl.op(0, pos)
        if op.kind == "validate":
            continue
        by_kind.setdefault((op.kind, op.expect["code"]), (op, op.run()))
    assert {code for _, code in by_kind} == {0, 2, 3}
    for op, res in by_kind.values():
        wl.check_op(op, res)
    op, (code, out, err) = by_kind[("density", 0)]
    with pytest.raises(Failed):
        wl.check_op(op, (1, out, err))
    changed = out.replace("0", "1", 1)
    flagged = wl.check_sample(records_of((op, (0, out, err)), (op, (0, changed, err))), None)
    assert len(flagged) == 1


def test_failures_are_reported_with_inputs(tmp_path):
    wl = make("density_pencils", 7, tmp_path)
    op, res = run(wl, 0, 0)
    failures, general = check(wl, [(op, None, "ValueError: boom")], 7)
    assert general == [] and len(failures) == 1
    assert failures[0]["reason"] == "ValueError: boom"
    assert failures[0]["inputs"]["curvature"] == op.params["curvature"]


def test_tracer_counts_nodes_rounds_and_pool_threads(monkeypatch):
    monkeypatch.setenv("CRHEAT_THREADS", "2")
    calls = []

    def f(x):
        calls.append(len(x))
        return np.sin(40.0 * x) * np.exp(-x)

    tracer = Tracer()
    tracer.install()
    try:
        for breaks in ((), tuple(np.linspace(0.5, 9.5, 10))):  # serial, then pool batches
            tracer.begin_op()
            crheat.integrate_adaptive(f, 0.0, 10.0, 1e-10, 1e-10, interior_breaks=breaks)
        crheat.density_diagonal(crheat.curvature_point(np.eye(2), np.eye(2)), 1, 1.0, 2.0)
    finally:
        tracer.uninstall()
    assert crheat.integrate_adaptive.__name__ == "integrate_adaptive"
    assert not hasattr(crheat.integrate_adaptive, "__wrapped__")
    layers, missing = tracer.summary(3, 1.0)
    assert missing == []
    assert layers["quadrature.nodes"] * 3 == pytest.approx(tracer.counts["quadrature.nodes"])
    assert tracer.counts["quadrature.nodes"] >= sum(calls)
    assert 0 < layers["quadrature.useful_node_ratio"] <= 1
    assert 0 < layers["quadrature.pool_share"] < 1
    assert layers["quadrature.rounds"] * 3 >= 3
    assert layers["density.tail_windows"] == 0 and layers["exterior.power_calls"] > 0
    # every integrand span hangs under a quadrature span, whatever thread ran it
    ids = {s[0]: s for s in tracer.spans}
    for s in tracer.spans:
        if s[2] == "quadrature.integrand":
            assert ids[s[1]][2] == "quadrature.integrate_adaptive"
    shares = sum(v for k, v in layers.items() if k.endswith(".share"))
    assert shares <= 1.0 + 1e-12


def test_rounds_and_nodes_match_an_independent_count(monkeypatch):
    """Serial rounds are one batch each; pool rounds must group to the same count."""
    def f(x):
        batches.append(len(x))
        return np.sqrt(np.abs(x - 0.3)) * np.cos(30.0 * x)

    counts = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CRHEAT_THREADS", threads)
        batches = []
        tracer = Tracer()
        tracer.install()
        try:
            crheat.integrate_adaptive(f, 0.0, 1.0, 1e-10, 1e-10)
        finally:
            tracer.uninstall()
        counts[threads] = (tracer.counts["quadrature.rounds"], tracer.counts["quadrature.nodes"], len(batches))
    (rounds, nodes, serial_batches), (pool_rounds, pool_nodes, pool_batches) = counts["1"], counts["2"]
    assert rounds == serial_batches and pool_batches > serial_batches  # the pool did split rounds
    assert (pool_rounds, pool_nodes) == (rounds, nodes)


def test_missing_function_is_reported_missing(monkeypatch):
    import crheat.exterior

    monkeypatch.delattr(crheat.exterior, "exterior_power_matrix")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    layers, missing = tracer.summary(1, 1.0)
    assert "exterior.minors" in missing and "exterior.minors" not in layers
    assert set(layers) | set(missing) == set(PER_LAYER) - {"trace.overhead"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
