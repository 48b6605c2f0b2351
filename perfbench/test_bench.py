"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

bench = run.import_bench()
from tracing import PARENT  # noqa: E402  (needs the package path set above)

TINY_CAPS = {"dam_hll_deim": (3,), "dam_mlf_sweep": (2, 3),
             "burgers_m40": (3,)}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, their own seed-0 references, and a scratch output."""
    workloads = {name: dataclasses.replace(w, n_cells=64, n_windows=2,
                                           caps=TINY_CAPS[name])
                 for name, w in bench.WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    reference = {"blas_threads": run.BLAS_THREADS, "workloads": {
        name: bench.reference_entry(
            bench.run_pass(bench.setup(w, 0), repeat=False))
        for name, w in workloads.items()}}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", path)
    return reference


def _run(capsys, *argv):
    code = run.main(["--seconds", "0", *argv])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def _declared(kind):
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(TINY_CAPS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(tiny, capsys, workload, trace,
                                            kind):
    code, result = _run(capsys, "--workload", workload, "--seed", "0",
                        "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == _declared(kind)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_perturbed_seed_passes_invariants(tiny, capsys):
    code, result = _run(capsys, "--workload", "dam_hll_deim", "--seed", "7")
    assert code == 0 and result["correct"]


def test_wrong_reference_fails_the_command(tiny, capsys, tmp_path):
    tiny["workloads"]["burgers_m40"]["points"]["3"]["l1"]["w"] *= 1.001
    run.REFERENCE.write_text(json.dumps(tiny))
    code, result = _run(capsys, "--workload", "burgers_m40", "--seed", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_traced_self_times_sum_to_each_pass(tiny, tmp_path):
    case = bench.setup(bench.WORKLOADS["dam_mlf_sweep"], 0, outdir=tmp_path)
    tracer = bench.Tracer()
    tracer.pass_id = 0
    with tracer.installed(case.model):
        bench.run_pass(case, tracer, repeat=False)
    own = tracer.self_times()
    assert min(own) >= -1e-9
    roots = [i for i, s in enumerate(tracer.spans) if s[PARENT] < 0]
    assert [tracer.spans[i][0] for i in roots] == ["pass"]
    root = tracer.spans[roots[0]]
    assert sum(own) == pytest.approx(root[2] - root[1], abs=1e-9)
    names = {s[0] for s in tracer.spans}
    assert {"fom.step", "fom.cfl", "snapshots.record", "pod.svd",
            "deim.select", "rom.assemble", "online.step", "online.contract",
            "online.refresh", "deim.online", "pod.transfer"} <= names


def test_wrappers_are_removed_after_the_traced_pass(tiny):
    import hyporom.pod
    import hyporom.rom.driver
    case = bench.setup(bench.WORKLOADS["burgers_m40"], 0)
    with bench.Tracer().installed(case.model):
        assert hyporom.rom.driver.thin_svd is not hyporom.pod.thin_svd
    assert hyporom.rom.driver.thin_svd is hyporom.pod.thin_svd
    assert "step" not in vars(case.model)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dam_hll_deim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout
