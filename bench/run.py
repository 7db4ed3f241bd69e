"""Benchmark of the skelattack pipeline: one workload per invocation.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

The package is imported from the checkout's own src/ directory.  With
--trace 0 the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric instead.  A record of the run (environment, per-round
figures, check results) is written under bench/out/.  See README.md.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MODULES = ("autodiff", "optim", "data", "models", "attack", "evaluation", "cli")


class Operations:
    """Attempted and failed operation counts; a failed check is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def done(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, fn, *args, **kwargs) -> None:
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except CheckFailed as exc:
            self.failed += 1
            self.problems.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)


def import_package() -> types.SimpleNamespace:
    """Fresh import of the package from SRC; returns its modules by name."""
    for name in [n for n in sys.modules if n == "skelattack" or n.startswith("skelattack.")]:
        del sys.modules[name]
    package = importlib.import_module("skelattack")
    if Path(package.__file__).resolve().parent != SRC / "skelattack":
        raise ImportError(f"skelattack imported from {package.__file__}, not from {SRC}")
    modules = {m: importlib.import_module(f"skelattack.{m}") for m in MODULES}
    return types.SimpleNamespace(package=package, all_modules=[package, *modules.values()],
                                 **modules)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    """Set up, run whole rounds for `seconds`, check every round; returns the result."""
    workload = workloads.WORKLOADS[workload_name](seed, quick, OUT / f"work-{workload_name}")
    setups = []
    for _ in range(1 if quick else workload.setup_repeats):
        started = time.perf_counter()
        sk = import_package()
        workload.setup(sk)
        setups.append(time.perf_counter() - started)

    ops = Operations()
    samples: dict[str, list[float]] = {}
    layer_rounds: list[dict] = []
    walls: list[float] = []
    tracer = tracing.Tracer() if trace else None
    untraced_wall = None
    rounds = 0
    began = time.perf_counter()
    while True:
        traced = tracer is not None and untraced_wall is not None
        if traced:
            tracer.install(sk)
            tracer.reset()
        started = time.perf_counter()
        try:
            round_samples = workload.round(sk, ops)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - started
        rounds += 1
        if traced:
            layer_rounds.append(tracer.round_metrics())
            walls.append(wall)
        elif tracer is not None:
            untraced_wall = wall
        else:
            for name, values in round_samples.items():
                samples.setdefault(name, []).extend(values)
        workload.check(sk, ops)
        elapsed = time.perf_counter() - began
        if (rounds >= workload.min_rounds and (layer_rounds or not trace)
                and elapsed + elapsed / rounds > seconds):
            break

    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed}
    if trace:
        layers = tracing.median_per_key(layer_rounds)
        tracer.install(sk)
        try:
            for arch, count in workload.graph_nodes(sk, tracer).items():
                layers[f"autodiff.nodes_per_step.{arch}"] = count
        finally:
            tracer.uninstall()
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(walls) / untraced_wall - 1.0)
        result["values"] = layers
        result["tracer"] = tracer
    else:
        # each metric is the slow end of its samples, which spread over the
        # whole run (workloads.slow_end)
        values = workload.summarise(samples)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["values"] = values
        result["samples"] = samples
    result["setups"] = setups
    result["problems"] = ops.problems
    workload.cleanup()
    return result


def report(spec: dict, workload: str, seed: int, trace: bool, result: dict) -> dict:
    """The one-line result, with each metric and unit BENCHMARK.json names."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["values"]
    missing = [m["name"] for m in section if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in section})
    if missing or extra:
        raise KeyError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "setups_s": result["setups"],
        "samples": result.get("samples"),
        "problems": result["problems"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        result["tracer"].write_spans(OUT / f"{stem}-spans.json")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short traced pass over every workload")
    args = parser.parse_args(argv)

    if not (SRC / "skelattack" / "__init__.py").is_file():
        print(f"error: no skelattack package under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            result = measure(name, args.seed, 0.0, True, quick=True)
            line = report(spec, name, args.seed, True, result)
            print(json.dumps({"workload": name, "correct": line["correct"],
                              "attempted": line["attempted"], "failed": line["failed"]}))
            ok = ok and line["correct"]
        return 0 if ok else 1

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    print(json.dumps(environment(args.seed)), file=sys.stderr)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(spec, args.workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
