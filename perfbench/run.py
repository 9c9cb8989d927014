"""skalab benchmark: seeded CLI workloads, timed end to end, with a traced pass.

    python3 perfbench/run.py --workload incidence --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program under test is the source
tree at `src/skalab` next to this directory. Each workload is a closed loop
with one client: one `python -m skalab ...` child at a time, in sequence, a
fresh process per command so every command pays its own plane enumeration.

`--trace 0` measures. It times several cold `python -m skalab --version`
launches (`setup_s`), then repeats passes over the workload's commands for
as many whole passes as fit in `--seconds` (at least two), and reports:

* `wall_s`: one pass, the sum over its commands of each command's median time;
* `setup_s`: the median launch time;
* `peak_rss_mb`: the median over passes of the largest child `ru_maxrss`.

`--trace 1` runs one untraced pass, then replays the same commands in this
process under `tracing.Tracer` and reports the per-layer metrics. The traced
outputs must equal the untraced ones byte for byte, and each workload must
leave the layers it claims to bypass at zero.

Every operation is checked: exit code, no traceback, a semantic check of its
output (see `checks.py`), and identical stdout on every repetition. The last
stdout line is the result object; the line before it holds the details
(environment, input digests, per-command times and stdout digests, spans).
Exits 2 without a result when `src/skalab` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench-work"  # relative to ROOT; removed when the run ends
SETUP_LAUNCHES = 25
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
VERSION_OP = workloads.Operation("version", "setup_s", ("--version",), checks.version)


@dataclass
class Execution:
    op: str
    seconds: float
    max_rss_mb: float
    stdout_sha256: str
    problems: list[str] = field(default_factory=list)

    def describe(self) -> dict:
        return {"seconds": self.seconds, "max_rss_mb": self.max_rss_mb,
                "stdout_sha256": self.stdout_sha256, "problems": self.problems}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SKALAB_SEED", None)  # the CLI would take it as a default seed
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, env) -> tuple[int, bytes, bytes, float, float]:
    """Run `python -m skalab argv`; return (exit code, stdout, stderr, seconds, max RSS MB)."""
    cmd = [sys.executable, "-m", "skalab", *argv]
    with tempfile.TemporaryFile(dir=ROOT / WORK_DIR) as out, \
            tempfile.TemporaryFile(dir=ROOT / WORK_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 rather than Popen.wait: it also returns this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss / 1024.0


def evaluate(op, exit_code: int, stdout: bytes, stderr: bytes,
             digests: dict[str, str]) -> list[str]:
    """Every reason this execution of `op` failed; `digests` holds the first
    stdout digest seen per operation, which later executions must repeat."""
    problems = checks.process_problems(exit_code, stderr)
    if exit_code == 0:
        try:
            problems += op.check(stdout)
        except Exception as exc:  # a checker crash on odd output is a failed check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    digest = hashlib.sha256(stdout).hexdigest()
    first = digests.setdefault(op.name, digest)
    if first != digest:
        problems.append(f"stdout {digest[:12]} differs from the first run's {first[:12]}")
    return problems


def execute(op, env, digests) -> Execution:
    code, out, err, seconds, rss = run_child(op.argv, env)
    return Execution(op.name, seconds, rss, hashlib.sha256(out).hexdigest(),
                     evaluate(op, code, out, err, digests))


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            env["git_sha"] = head.stdout.strip()
            env["git_dirty"] = bool(git("status", "--porcelain").stdout.strip())
    return env


@contextlib.contextmanager
def work_dir(files):
    """The run's scratch directory inside the checkout, with the halve inputs."""
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    try:
        workloads.write_inputs(ROOT, files)
        yield
    finally:
        shutil.rmtree(ROOT / WORK_DIR, ignore_errors=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, toy: bool = False):
    """Untraced run; return (result, details)."""
    ops, files = workloads.build(workload, seed, f"{WORK_DIR}/in", toy)
    env = child_env()
    digests: dict[str, str] = {}
    with work_dir(files):
        execute(VERSION_OP, env, digests)  # warm-up: the first launch may write bytecode caches
        setup = [execute(VERSION_OP, env, digests) for _ in range(SETUP_LAUNCHES)]
        passes: list[list[Execution]] = []
        start = time.perf_counter()
        elapsed = 0.0
        # stop before a pass that would end past `seconds`, judged by the mean pass
        while len(passes) < MIN_PASSES or elapsed * (len(passes) + 1) / len(passes) <= seconds:
            passes.append([execute(op, env, digests) for op in ops])
            elapsed = time.perf_counter() - start
    per_op = {
        op.name: statistics.median(p[i].seconds for p in passes) for i, op in enumerate(ops)
    }
    commands_s: dict[str, float] = {}
    for op in ops:
        commands_s[op.group] = commands_s.get(op.group, 0.0) + per_op[op.name]
    executions = setup + [e for p in passes for e in p]
    failed = sum(1 for e in executions if e.problems)
    metrics = {
        "wall_s": _metric(sum(per_op.values()), "s"),
        "setup_s": _metric(statistics.median(e.seconds for e in setup), "s"),
        "peak_rss_mb": _metric(statistics.median(max(e.max_rss_mb for e in p) for p in passes), "MB"),
    }
    details = {
        "workload": workload, "seed": seed, "trace": 0, "passes": len(passes),
        "environment": environment(),
        "inputs": [f.describe() for f in files],
        "commands_s": commands_s,
        "setup_launches_s": [e.seconds for e in setup],
        "operations": [
            {"name": op.name, "group": op.group, "argv": list(op.argv),
             "median_s": per_op[op.name], "stdout_sha256": digests[op.name],
             "runs": [p[i].describe() for p in passes]}
            for i, op in enumerate(ops)
        ],
        "failures": [{"op": e.op, "problems": e.problems} for e in executions if e.problems],
    }
    result = {"correct": failed == 0, "attempted": len(executions), "failed": failed,
              "metrics": metrics}
    return result, details


def load_skalab():
    """Import skalab from this checkout's source tree, nowhere else."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    modules = {layer: importlib.import_module(f"skalab.{layer}") for layer in tracing.LAYERS}
    for name, module in modules.items():
        if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"skalab.{name} imported from {module.__file__}, not {src}")
    return modules


def traced(workload: str, seed: int, toy: bool = False):
    """One untraced pass, then the same commands in process under the tracer."""
    ops, files = workloads.build(workload, seed, f"{WORK_DIR}/in", toy)
    env = child_env()
    digests: dict[str, str] = {}
    os.environ.pop("SKALAB_SEED", None)  # the in-process CLI must see what the children see
    tracer = tracing.Tracer(load_skalab())
    with work_dir(files):
        untraced = [execute(op, env, digests) for op in ops]
        traced_runs = []
        tracer.install()
        try:
            for op in ops:
                code, out, err, seconds = tracer.run_operation(op.name, op.argv)
                traced_runs.append(Execution(op.name, seconds, 0.0,
                                             hashlib.sha256(out).hexdigest(),
                                             evaluate(op, code, out, err, digests)))
        finally:
            tracer.uninstall()
    overhead = sum(e.seconds for e in traced_runs) - sum(e.seconds for e in untraced)
    values = tracer.metrics(overhead)
    isolation = tracing.isolation_problems(workload, values)
    executions = untraced + traced_runs
    failed = sum(1 for e in executions if e.problems)
    details = {
        "workload": workload, "seed": seed, "trace": 1,
        "environment": environment(),
        "inputs": [f.describe() for f in files],
        "profiler_attributed": list(tracing.PROFILER_ATTRIBUTED),
        "operations": [
            {"name": op.name, "argv": list(op.argv), "untraced": u.describe(),
             "traced": t.describe()}
            for op, u, t in zip(ops, untraced, traced_runs)
        ],
        "isolation_problems": isolation,
        "failures": [{"op": e.op, "problems": e.problems} for e in executions if e.problems],
        "spans": tracer.span_records(),
    }
    metrics = {name: _metric(values[name], unit) for name, (unit, _) in tracing.METRICS.items()}
    result = {"correct": failed == 0 and not isolation, "attempted": len(executions),
              "failed": failed, "metrics": metrics}
    return result, details


def summary(result: dict, details: dict) -> str:
    lines = [f"{details['workload']} seed={details['seed']} trace={details['trace']}: "
             f"{result['attempted']} operations, {result['failed']} failed"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for name, secs in details.get("commands_s", {}).items():
        lines.append(f"  command {name:40s} {secs:>16.6g} s")
    for failure in details["failures"]:
        lines.append(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    for problem in details.get("isolation_problems", []):
        lines.append(f"  ISOLATION {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35,
                        help="how long the untraced run repeats passes; "
                             "the traced run always makes one pass of each kind")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skalab" / "__init__.py").is_file():
        print(f"perfbench: no skalab source tree at {ROOT / 'src' / 'skalab'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # a terminated run still kills its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace:
        result, details = traced(args.workload, args.seed)
    else:
        result, details = measure(args.workload, args.seed, args.seconds)
    print(summary(result, details))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
