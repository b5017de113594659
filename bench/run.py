"""Benchmark of bpskrx, end to end and per module.

    python3 bench/run.py --workload {cli,curves,oracle,all} --seed N \
        --seconds S --trace {0,1}

Three seeded workloads, each a closed loop with one client (bpskrx is a
single-process batch tool, not a server):

* ``cli``    repeated cold sessions of ``python -m bpskrx.cli``;
* ``curves`` warm in-process points, every receiver, CSV round trip;
* ``oracle`` warm cross-checks against the number-basis oracle, the
  Gaussian algebra and the Monte Carlo simulation.

Every timed operation is checked, and every time is scaled by the host's
speed over the run, from fixed reference work run beside the ops
(``calib.py``). With ``--trace 0`` the last line of
standard output is a JSON object whose metrics are the end-to-end ones;
with ``--trace 1`` every input block runs untraced and then traced, and
the metrics are the per-layer ones, plus the tracing overhead. Every child
process runs with one BLAS/OpenMP thread and ``src`` on ``PYTHONPATH``; the
program is byte-compiled first, as an installed package would be. Outputs
go to ``.bench_out`` in the checkout. See ``bench/README.md``.

This file uses the standard library only; ``worker.py`` does the
in-process work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calib
from inputs import CLI_SUBS, cli_session
from tracing import NULL, Tracer, tail

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
PROGRAM = ROOT / "src" / "bpskrx"
PY = sys.executable

#: The benchmark definition: workloads, metric names and units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPS = 7
#: A run fails if it has not ended this many seconds plus twice
#: ``--seconds`` after its start. Set-up, probes and import timings take
#: about 15 s of the allowance today, so a much slower program still gets
#: measured.
FIXED_ALLOWANCE_S = 110.0
#: Thread pin of every child: the plain single-threaded baseline.
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: The workload's own names for op_p50_ms, op_tail_ms and ops_per_s, with
#: the scale from ms (or 1/s) and the unit.
ALIASES = {
    "cli": (("cmd_p50_s", 1e-3, "s"), ("cmd_tail_s", 1e-3, "s"), ("cmds_per_s", 1.0, "1/s")),
    "curves": (("point_p50_us", 1e3, "us"), ("point_tail_us", 1e3, "us"), ("points_per_s", 1.0, "1/s")),
    "oracle": (("check_p50_ms", 1.0, "ms"), ("check_tail_ms", 1.0, "ms"), ("checks_per_s", 1.0, "1/s")),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Starts child processes with the pinned environment, each bounded by
    the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({var: THREADS for var in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, argv, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("run deadline passed")
        try:
            return subprocess.run(
                argv, cwd=cwd, env=env or self.env, capture_output=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise HarnessError(f"child exceeded the run deadline: {argv[:4]}") from exc

    def worker(self, *args: str, env=None) -> dict:
        """Run a worker subcommand and parse its JSON result."""
        proc = self.run([PY, str(BENCH / "worker.py"), *args], env=env)
        if proc.returncode != 0:
            raise HarnessError(f"worker {args[0]} failed:\n{proc.stderr.decode()[-2000:]}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])

    def cold_reference(self) -> float:
        """Wall seconds of one pass of the ``cold`` reference work."""
        return self.timed([PY, *calib.COLD_ARGV])

    def timed(self, argv) -> float:
        t0 = time.perf_counter()
        proc = self.run(argv)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise HarnessError(f"set-up child failed:\n{proc.stderr.decode()[-2000:]}")
        return dt


def setup_seconds(children: Children, workload: str, seed: int, out: Path) -> tuple[float, float]:
    """Median fresh-interpreter time until the first timed op could start,
    as measured and scaled to the reference host (`calib`)."""
    if workload == "cli":
        argv = [PY, "-c", "import bpskrx"]
    else:
        argv = [PY, str(BENCH / "worker.py"), "setup", "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
    times, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(children.cold_reference())
        times.append(children.timed(argv))
    refs.append(children.cold_reference())
    setup = statistics.median(times)
    return setup, setup * calib.host_speed(refs, "cold")


def program_version() -> str:
    """sha256 over the path and bytes of every source file of the program."""
    digest = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(PROGRAM).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


class CliSessions:
    """Cold CLI sessions. Each command is one timed op; its exit code is
    checked and the bytes it wrote (and printed) must equal those of the
    first session of the run and of every earlier run of the same program
    source with this seed."""

    def __init__(self, children: Children, seed: int, out: Path):
        self.children = children
        self.plan = cli_session(seed)
        self.dir = out / "cli"
        self.dir.mkdir(exist_ok=True)
        self.store_path = OUT / "cli_hashes.json"
        self.store = json.loads(self.store_path.read_text()) if self.store_path.exists() else {}
        self.earlier = self.store.setdefault(program_version(), {}).setdefault(str(seed), {})
        self.first: dict[str, str] = {}
        self.kinds: Counter = Counter()

    def command(self, sub: str, argv: list[str], outputs: list[str], tr) -> tuple[float, list[str]]:
        for name in outputs:
            (self.dir / name).unlink(missing_ok=True)
        t0 = time.perf_counter()
        with tr.span(f"cli.{sub}.cold"):
            proc = self.children.run([PY, "-m", "bpskrx.cli", *argv], cwd=self.dir)
        dt = time.perf_counter() - t0
        failures = [] if proc.returncode == 0 else [f"cli.exit{proc.returncode}"]
        digest = hashlib.sha256(proc.stdout)
        for name in outputs:
            path = self.dir / name
            if path.exists():
                digest.update(path.read_bytes())
            else:
                failures.append("cli.missing_output")
        digest = digest.hexdigest()
        if self.first.setdefault(sub, digest) != digest:
            failures.append("cli.nondeterministic")
        if self.earlier.setdefault(sub, digest) != digest:
            failures.append("cli.changed_across_runs")
        self.kinds.update(failures)
        return dt, failures

    def loop(self, seconds: float, recorders=(NULL,)) -> tuple[list[tuple[list[float], int]], float]:
        """Whole sessions until ``seconds`` have passed (at least one). Each
        session runs once per recorder, back to back. The ``cold`` reference
        work (`calib`) runs before every session and after the last. Returns,
        per recorder, (per-command seconds, failed commands), and the host's
        speed over the loop."""
        times = [[] for _ in recorders]
        failed = [0 for _ in recorders]
        refs = []
        start = time.perf_counter()
        while True:
            for k, tr in enumerate(recorders):
                refs.append(self.children.cold_reference())
                for sub, argv, outputs in self.plan:
                    tr.op_id = len(times[k])
                    dt, failures = self.command(sub, argv, outputs, tr)
                    times[k].append(dt)
                    failed[k] += bool(failures)
            if time.perf_counter() - start >= seconds:
                refs.append(self.children.cold_reference())
                return list(zip(times, failed)), calib.host_speed(refs, "cold")

    def save(self) -> None:
        self.store_path.write_text(json.dumps(self.store, indent=1, sort_keys=True))


def import_times(children: Children, reps: int = 3) -> dict[str, float]:
    """init.* from ``python -X importtime -c "import bpskrx"``: the whole
    import, the outermost numpy and scipy imports under it, and the self
    time of bpskrx's own modules. Median of ``reps`` interpreters, in ms."""
    runs = []
    for _ in range(reps):
        proc = children.run([PY, "-X", "importtime", "-c", "import bpskrx"])
        if proc.returncode != 0:
            raise HarnessError(proc.stderr.decode()[-2000:])
        entries = []  # (depth, name, self_us, cumulative_us), children first
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, cum_us, raw = line[len("import time:"):].split("|")
            name = raw.strip()
            entries.append(((len(raw) - len(raw.lstrip()) - 1) // 2, name, int(self_us), int(cum_us)))
        totals = dict.fromkeys(("import_ms", "import_numpy_ms", "import_scipy_ms", "import_self_ms"), 0.0)
        stack = []  # (depth, top-level package) of the ancestors
        for depth, name, self_us, cum_us in reversed(entries):  # parents first
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            if top in ("numpy", "scipy") and (not stack or stack[-1][1] != top):
                totals[f"import_{top}_ms"] += cum_us / 1e3
                if top == "numpy" and any(t == "scipy" for _, t in stack):
                    totals["import_scipy_ms"] -= cum_us / 1e3  # scipy pulled numpy in
            if top == "bpskrx":
                totals["import_self_ms"] += self_us / 1e3
                if depth == 0:
                    totals["import_ms"] += cum_us / 1e3
            stack.append((depth, top))
        runs.append(totals)
    return {f"init.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run. Returns (result object, details for the log lines)."""
    children = Children(time.monotonic() + FIXED_ALLOWANCE_S + 2.0 * seconds)
    out = OUT / f"{workload}-{seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    proc = children.run([PY, "-m", "compileall", "-q", str(PROGRAM)])
    if proc.returncode != 0:
        raise HarnessError(f"byte-compiling the program failed:\n{proc.stdout.decode()[-2000:]}")

    setup_raw, setup_s = setup_seconds(children, workload, seed, out)
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    layers = {}
    if workload == "cli":
        sessions = CliSessions(children, seed, out)
        details["timer"] = "wall clock around each command's process"
        if trace:
            tr = Tracer()
            ((plain, failed), (traced, failed_traced)), speed = sessions.loop(seconds, (NULL, tr))
            layers["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
            times, failed = plain + traced, failed + failed_traced
        else:
            ((times, failed),), speed = sessions.loop(seconds)
        sessions.save()
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Every CLI failure is a new one: there is no known CLI defect.
        attempted, defective, unknown, kinds = len(times), failed, failed, sessions.kinds
        env = children.worker("env")
        if trace:
            probe = children.worker("probes", "--seed", str(seed), "--out", str(out))
            unknown += probe["probe_tally"]["unknown"]
            layers = {**probe["layers"], **layers}
            tr.dump(out / "spans-cli.jsonl")
            cold = tr
    else:
        res = children.worker(
            "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(out),
        )
        times, speed, peak_kb, env = res["times"], res["speed"], res["maxrss_kb"], res["env"]
        wall_p50, wall_tail = statistics.median(res["wall"]), tail(res["wall"])[0]
        details["timer"] = (
            f"CPU time of the worker process (wall clock: p50 {wall_p50 * 1e3:.6g} ms,"
            f" tail {wall_tail * 1e3:.6g} ms)"
        )
        attempted, defective, failed = res["attempted"], res["defective"], res["failed"]
        unknown, kinds = res["unknown"], res["kinds"]
        if trace:
            layers = res["layers"]
            cold = Tracer()
            probe = CliSessions(children, seed, out)
            probe.loop(0.0, (cold,))
            unknown += sum(probe.kinds.values())
            kinds = {**kinds, **{f"probe.{k}": n for k, n in probe.kinds.items()}}

    details.update(env=env, failure_kinds=kinds, unknown_failures=unknown)
    if trace:
        layers.update(import_times(children))
        layers.update({f"cli.{sub}.cold_s": cold.median(f"cli.{sub}.cold") for sub in CLI_SUBS})
        unpinned = {k: v for k, v in children.env.items() if k not in THREAD_VARS}
        layers["fock.dim64_ms.default_threads"] = children.worker("fock-dim64", env=unpinned)["ms"]
        missing = [name for name, _ in PER_LAYER if name not in layers]
        if missing:
            raise HarnessError(f"per-layer metrics not measured: {missing}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        scaled = [t * speed for t in times]
        tail_s, pct, n = tail(scaled)
        details.update(
            tail_percentile=pct, samples=n, failed_frac=defective / attempted, defective=defective,
            measured=(setup_raw, statistics.median(times), tail(times)[0], len(times) / sum(times)),
            host_speed=speed,
        )
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "ok_frac": 1.0 - defective / attempted,
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ops_per_s": len(scaled) / sum(scaled),
        }
        missing = [name for name, _ in END_TO_END if name not in values]
        if missing:
            raise HarnessError(f"end-to-end metrics not measured: {missing}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if not trace:
        shutil.rmtree(out)  # a traced run keeps its spans
    result = {"correct": unknown == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def report(result: dict, details: dict) -> None:
    """Log lines a person reads, then the JSON result as the last line."""
    wl = details["workload"]
    m = result["metrics"]
    print(f"# workload={wl} seed={details['seed']} seconds={details['seconds']} trace={details['trace']}")
    print(f"# env {json.dumps(details['env'], sort_keys=True)}")
    if "op_p50_ms" in m:
        for (alias, scale, unit), key in zip(ALIASES[wl], ("op_p50_ms", "op_tail_ms", "ops_per_s")):
            print(f"{alias} = {m[key]['value'] * scale:.6g} {unit}")
        print(f"tail percentile = p{details['tail_percentile']:.2f} of {details['samples']} samples")
        print(f"op timer = {details['timer']}")
        print(
            f"failed_frac = {details['failed_frac']:.6g} ({details['defective']} of {result['attempted']} ops,"
            " known defects included)"
        )
        setup_raw, p50, tail_raw, rate = details["measured"]
        print(
            f"as measured, before scaling by host speed {details['host_speed']:.4g}: setup_s = {setup_raw:.6g} s,"
            f" op_p50_ms = {p50 * 1e3:.6g} ms, op_tail_ms = {tail_raw * 1e3:.6g} ms, ops_per_s = {rate:.6g} 1/s"
        )
    for name, v in m.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    print(f"failures by kind = {json.dumps(details['failure_kinds'], sort_keys=True)}")
    print(f"failures outside the known defects = {details['unknown_failures']} ({result['failed']} ops)")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PROGRAM / "__init__.py").is_file():
        print(f"error: no program to measure at {PROGRAM}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        for wl in WORKLOADS if args.workload == "all" else (args.workload,):
            report(*measure(wl, args.seed, args.seconds, bool(args.trace)))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
