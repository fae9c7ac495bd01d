"""Benchmark of the `phicong` command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in
turn.  Every op is one `python3 -m phicong ...` call in a fresh
interpreter, started one after another from this process: the program's
lru_caches live for one process, as they do for a user of the CLI.  The
untraced run repeats whole rounds of the workload's op list for about S
seconds, then checks every output with checks.py (outside the timed
region) and prints one JSON line with the metrics named in
BENCHMARK.json.  With --trace 1 it runs one untraced and one traced
round instead; the traced ops run under tracer.py, and their spans and
per-layer metrics are written to perfbench/out/trace-NAME.json.

Times are reported at a fixed reference speed.  On a shared host the
speed of a vCPU changes by up to 2x within seconds, so a raw wall time
says more about the neighbours than about the program.  Before every op
a probe child runs: a fresh interpreter that
imports numpy and does a fixed mix of Fraction, big-int, dict and loop
work (PROBE), on the same CPU as the ops.  A run's speed factor is the
mean probe time over REF_S; every reported time is the raw time divided
by that factor, i.e. the time the op would take on a machine on which the
probe takes REF_S seconds.  The raw figures and the factor are printed
on the line before the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9                       # set-up samples per run
REF_S = 0.25                           # nominal time of one PROBE child
# Like an op, but none of the program's code: start-up, numpy's import,
# Fraction and big-int arithmetic, dicts and a plain loop.
PROBE = """
import numpy
from fractions import Fraction
total, counts = Fraction(0), {}
for i in range(1, 12000):
    total += Fraction(i % 97, i % 89 + 1)
    counts[i % 5003] = counts.get(i % 5003, 0) + i * i
acc = 0
for i in range(250000):
    acc += i * i % 7
"""


@dataclass
class OpRun:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    cpu_s: float


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_op(argv: List[str], env) -> OpRun:
    """Run one child to its end.  Its stdout and stderr go to unnamed
    files in OUT, so the child's own resource usage can be read with
    wait4 and no pipe can fill up."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return OpRun(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


def ref_probe(env) -> float:
    """Seconds for a fresh interpreter to run PROBE."""
    r = run_op([sys.executable, "-c", PROBE], env)
    if r.returncode:
        raise SystemExit(f"the probe failed:\n{r.stderr}")
    return r.wall_s


def import_cli(env) -> float:
    """Seconds for a fresh interpreter to start and import phicong.cli."""
    r = run_op([sys.executable, "-c", "import phicong.cli"], env)
    if r.returncode:
        raise SystemExit(f"cannot import phicong.cli:\n{r.stderr}")
    return r.wall_s


def run_round(ops, env, spans_dir: Optional[Path] = None,
              refs: Optional[List[float]] = None,
              setup: Optional[List[float]] = None) -> List[OpRun]:
    """One pass over the op list.  With spans_dir, each op runs under the
    tracer and leaves its spans there.  With refs, a probe runs before
    each op and its time is appended to refs.  With setup, an import of
    phicong.cli also runs before each op until setup holds SETUP_PROBES
    times, so that set-up is sampled between the ops."""
    runs = []
    for i, op in enumerate(ops):
        if setup is not None and len(setup) < SETUP_PROBES:
            setup.append(import_cli(env))
        if refs is not None:
            refs.append(ref_probe(env))
        if spans_dir is None:
            argv = [sys.executable, "-m", "phicong", *op.argv]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(spans_dir / f"op{i}.json"), *op.argv]
        runs.append(run_op(argv, env))
    return runs


def wall(runs: List[OpRun]) -> float:
    """Wall-clock time of one pass over the op list."""
    return sum(r.wall_s for r in runs)


def outcome(op, r: OpRun) -> Optional[str]:
    """None for a good op, "failed" for an op that did not finish as it
    should (an exit other than 0, or for an invalid-input op anything but
    exit 2 with a message), else the reason its output is wrong."""
    if op.check == "invalid":
        return None if checks.invalid_input_handled(r.returncode, r.stderr) else "failed"
    if r.returncode != 0:
        return "failed"
    try:
        checks.check(op, r.stdout)
    except checks.CheckError as exc:
        return f"{' '.join(op.argv)[:80]}: {exc}"
    return None


def judge(ops, rounds) -> Tuple[int, List[str]]:
    """(failed ops, wrong outputs) over all rounds; equal outcomes are
    checked once."""
    failed, wrong, seen = 0, [], {}
    for runs in rounds:
        for op, r in zip(ops, runs):
            key = (op.argv, r.returncode, r.stdout, r.stderr)
            if key not in seen:
                seen[key] = outcome(op, r)
                if seen[key] not in (None, "failed"):
                    wrong.append(seen[key])
            failed += seen[key] == "failed"
    return failed, wrong


def _self_times(names, spans):
    calls: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    for nid, start, end, parent in spans:
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + end - start
        if parent >= 0:
            pname = names[spans[parent][0]]
            self_ns[pname] = self_ns.get(pname, 0) - (end - start)
    return calls, self_ns


def trace_metrics(ops, traced, untraced, spans_dir: Path, trace_path: Path):
    """Per-layer metrics of a traced round; writes every span to trace_path."""
    values: Dict[str, float] = {}
    with open(trace_path, "w") as fh:
        fh.write("{\"ops\": [\n")
        for i, op in enumerate(ops):
            with open(spans_dir / f"op{i}.json") as sf:
                doc = json.load(sf)
            calls, self_ns = _self_times(doc["names"], doc["spans"])
            for name, n in calls.items():
                values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + n
                values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) \
                    + self_ns[name] / 1e9
            for name, v in doc["counters"].items():    # counts add, peaks do not
                values[name] = (max if name.endswith("_mb") else sum)(
                    (values.get(name, 0), v))
            json.dump({"op": i, "argv": list(op.argv), **doc}, fh,
                      separators=(",", ":"))
            fh.write(",\n" if i + 1 < len(ops) else "\n")
        terms = [json.loads(r.stdout)["terms"] for op, r in zip(ops, traced)
                 if op.argv[0] == "qexp" and r.returncode == 0]
        values["qexp.terms"] = sum(len(t) for t in terms)
        values["qexp.max_coeff_bits"] = max(
            (abs(int(part)).bit_length() for t in terms for term in t
             for part in term["coeff"].split("/")), default=0)
        values["proc.cpu_s"] = sum(r.cpu_s for r in untraced)
        values["trace.overhead_s"] = wall(traced) - wall(untraced)
        fh.write("], \"per_layer\": ")
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("}\n")
    return values


def _per_layer_value(name: str, values: Dict[str, float]) -> float:
    """A layer that an op list never calls reads 0."""
    if name in values or name.endswith((".calls", ".self_s")):
        return values.get(name, 0)
    raise SystemExit(f"BENCHMARK.json names an unknown per-layer metric {name!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec) -> Dict:
    ops = WORKLOADS[name](seed)
    env = child_env()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    import_cli(env)                    # fills the bytecode cache, untimed
    if trace:
        untraced = run_round(ops, env)
        with tempfile.TemporaryDirectory(dir=OUT) as spans_dir:
            traced = run_round(ops, env, Path(spans_dir))
            values = trace_metrics(ops, traced, untraced, Path(spans_dir),
                                   OUT / f"trace-{name}.json")
        rounds = [untraced, traced]
        metrics = {m["name"]: _per_layer_value(m["name"], values)
                   for m in spec["per_layer"]}
    else:
        refs: List[float] = []
        setup: List[float] = []
        rounds = []
        start = time.perf_counter()
        used = 0.0
        # whole rounds only; stop when one more would likely end past `seconds`
        while not rounds or used + (used - sum(setup)) / len(rounds) <= seconds:
            rounds.append(run_round(ops, env, refs=refs, setup=setup))
            used = time.perf_counter() - start
        setup += [import_cli(env) for _ in range(SETUP_PROBES - len(setup))]
        times: Dict[Op, List[float]] = {}
        for runs in rounds:
            for op, r in zip(ops, runs):
                times.setdefault(op, []).append(r.wall_s)
        raw = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(statistics.fmean(t) for t in times.values()),
            "max_op_s": statistics.fmean(
                next(t for op, t in times.items() if op.largest)),
        }
        factor = statistics.fmean(refs) / REF_S
        metrics = {k: v / factor for k, v in raw.items()}
        metrics["peak_rss_mb"] = max(r.maxrss_mb for runs in rounds for r in runs)
        print("raw: " + ", ".join(f"{k} {v:.4g} s" for k, v in raw.items())
              + f"; speed factor {factor:.4g} over {len(refs)} probes")
    failed, wrong = judge(ops, rounds)
    for line in wrong:
        print(f"WRONG OUTPUT {line}", file=sys.stderr)
    shown = ", ".join(f"{k} {v:.4g} {units[k]}" for k, v in metrics.items() if v)
    print(f"{name}: {shown}; attempted {len(ops) * len(rounds)}, failed {failed}, "
          f"rounds {len(rounds)}, correct {not wrong}")
    return {"correct": not wrong, "attempted": len(ops) * len(rounds),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SystemExit unwinds through run_op, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # probes and children share one CPU, so the speed factor is theirs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "phicong" / "cli.py").is_file():
        print(f"no phicong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
