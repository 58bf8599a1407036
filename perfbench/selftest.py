"""Self-test of the benchmark at toy scale (about a minute in all).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced, each in a
fresh process, and checks that:

* the run is correct and emits every metric BENCHMARK.json names, with
  the unit BENCHMARK.json gives it, and nothing else;
* every metric name uses only letters, digits, ``_``, ``.`` and ``-``;
* in the traced run, the layer self times plus ``unattributed_s`` add
  up to the traced timed CPU.

It also checks that a wrong query reference counts as a failed
operation, and that the benchmark refuses to run, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TIMEOUT_S = 300


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed\n{proc.stderr}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"{workload}: metrics differ: {set(got) ^ set(wanted)}"
    for name, metric in got.items():
        assert NAME.match(name), f"bad metric name {name!r}"
        assert metric["unit"] == wanted[name], f"{name}: unit {metric['unit']!r}"
        assert math.isfinite(metric["value"]), f"{name}: {metric['value']}"
    return {name: metric["value"] for name, metric in got.items()}


def check_self_times(workload: str, values: dict) -> None:
    parts = sum(v for k, v in values.items() if k.startswith("self.")) \
        + values["unattributed_s"]
    assert math.isclose(parts, values["traced_cpu_s"], rel_tol=1e-6, abs_tol=1e-6), \
        f"{workload}: self times + unattributed = {parts}, timed CPU = {values['traced_cpu_s']}"


def check_wrong_reference() -> None:
    """A wrong reference answer must count as a failed operation."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import queries
    from common import Ctx
    from tracer import Tracer
    work = ROOT / ".perfbench" / "selftest" / "work"
    ctx = Ctx(workload="store_queries", seed=3, scale="toy", tracer=Tracer("selftest"),
              work_dir=work, state_file=work / "digests.json", source_key="selftest")
    try:
        state = queries.queries_setup(ctx)
        i = next(i for i, (kind, _) in enumerate(state.queries) if kind == "window")
        state.answers[i] = dict(state.answers[i], count=state.answers[i]["count"] + 1)
        queries.queries_timed(ctx, state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert ctx.ops.failed == 1, f"{ctx.ops.failed} failures for one wrong reference"


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("paper_report", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), \
        f"exit {proc.returncode}, stdout {proc.stdout!r}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
    for workload in [w["name"] for w in spec["workloads"]]:
        check_run(spec, workload, 0)
        check_self_times(workload, check_run(spec, workload, 1))
        print(f"ok  {workload}")
    check_wrong_reference()
    print("ok  a wrong query reference counts as a failed operation")
    check_refuses_without_program()
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
