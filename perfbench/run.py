"""Run one spmlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload acceptance --seed 17 --seconds 36 --trace 0

Run from the repository root; spmlab is imported from ./src. The run repeats
rounds of the workload (the same inputs each time) for about --seconds and
reports medians over rounds. A round parses each config and builds its
set-up (context and gamma estimate), then runs its ensemble. The last stdout line is one JSON object: `correct`,
`attempted` and `failed` paths, and the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1). A traced run alternates traced and
untraced rounds so that it can report the tracing overhead. A result file
with provenance goes to perfbench/out/, and a traced run also writes its
spans there.

--write-reference (at the reference seed) stores this run's outputs as the
reference that later runs are checked against. --toy shrinks every workload
for the smoke test; toy references live under perfbench/out/.
"""
import os

# One BLAS/OpenMP thread per process, set before numpy loads: the pool of
# two workers then runs two threads on two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import NAMES, make_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the end-to-end metrics; the first four are BENCHMARK.json's, the last two
# are 0 at baseline and act through `failed` and `correct` instead
UNITS = {"setup_s": "s", "paths_per_s": "paths/s", "result_s": "s", "peak_rss_mb": "MiB",
         "fail_frac": "fraction", "tau_shift_steps": "steps"}


def _import_spmlab():
    src = ROOT / "src"
    if not (src / "spmlab" / "__init__.py").is_file():
        raise SystemExit(f"spmlab sources not found under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import spmlab
    import spmlab.harness

    return spmlab


@dataclass
class Round:
    traced: bool
    setup_s: float = 0.0
    ensemble_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def result_s(self) -> float:
        return self.setup_s + self.ensemble_s


def run_round(spmlab, workload, tracer=None) -> Round:
    """Set up and run every config of the workload once, one after another."""
    rnd = Round(traced=tracer is not None)

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    for raw in workload.configs:
        rnd.attempted += raw["n_paths"]
        ensemble_id = None
        try:
            with span("bench.setup"):
                t0 = perf_counter()
                cfg = spmlab.config_from_dict(raw)
                basis = spmlab.build_basis(cfg.grid, max(cfg.K, cfg.initial.mode))
                x0 = spmlab.make_initial(cfg.initial, cfg.grid, basis)
                cfg = replace(cfg, gamma=spmlab.harness.resolve_gamma(cfg))
                rnd.setup_s += perf_counter() - t0
            with span("harness.ensemble") as ensemble_id:
                t0 = perf_counter()
                summary = spmlab.run_ensemble(cfg, workers=workload.workers)
                rnd.ensemble_s += perf_counter() - t0
        except Exception as exc:  # a failed ensemble fails all its paths; keep measuring
            rnd.failed += raw["n_paths"]
            rnd.problems.append(f"{type(exc).__name__}: {exc}")
            continue
        finally:
            if ensemble_id is not None:
                tracer.collect(ensemble_id)
        rnd.failed += summary.n_failed
        if summary.x0_norm_hm1 != spmlab.norm_hm1(x0):
            rnd.problems.append("run_ensemble started from another initial state than set-up built")
        law = cfg.model.diffusion
        comparison = spmlab.compare_with_bound(summary, summary.bound_inputs(law.alpha, law.rho))
        rnd.outputs.append(check.ensemble_outputs(summary, comparison, cfg.solver.dt, cfg.solver.t_final))
    return rnd


def measure(spmlab, workload, seconds: float, tracer=None) -> list[Round]:
    """Repeat rounds until the next one would end more than half a round
    after `seconds`.

    With a tracer, even rounds are traced and odd ones are not; at least two
    rounds run so that both kinds exist.
    """
    run_round(spmlab, make_workload(workload.name, 0, toy=True))  # warm-up, not measured
    rounds, durations = [], []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        t0 = perf_counter()
        try:
            rounds.append(run_round(spmlab, workload, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        durations.append(perf_counter() - t0)
        done = len(rounds) >= (2 if tracer else 1)
        if done and perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return rounds


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(rounds: list[Round]) -> dict:
    ensemble_s = sum(r.ensemble_s for r in rounds)
    completed = sum(r.attempted - r.failed for r in rounds)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "paths_per_s": completed / ensemble_s if ensemble_s else 0.0,
        "result_s": statistics.median(r.result_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def provenance(spmlab) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        sha = proc.stdout.strip() or "unknown"
    return {
        "git_sha": sha,
        "spmlab": spmlab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="shrunken workload, for the smoke test")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the workload's reference")
    args = ap.parse_args(argv)

    spmlab = _import_spmlab()
    workload = make_workload(args.workload, args.seed, toy=args.toy)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        if multiprocessing.get_start_method() != "fork":
            raise SystemExit("tracing pool workers needs the fork start method")
        tracer = Tracer(OUT / f"spool-{os.getpid()}")

    rounds = measure(spmlab, workload, args.seconds, tracer)

    # output check: invariants on every round, the reference at its seed,
    # and the same outputs from every round (each round repeats the inputs)
    problems = [p for r in rounds for p in r.problems]
    outputs = rounds[0].outputs
    ref_path = (OUT / "toy-reference" if args.toy else HERE / "reference") / f"{args.workload}.json"
    reference = None
    if args.seed == check.REFERENCE_SEED:
        if args.write_reference:
            check.write_reference(ref_path, args.workload, outputs)
        reference = check.load_reference(ref_path)
        if reference is None:
            problems.append(f"no reference at {ref_path.relative_to(ROOT)}")
    elif args.write_reference:
        raise SystemExit(f"references are written at seed {check.REFERENCE_SEED}")
    found, tau_shift = check.check(outputs, reference)
    problems += found
    for i, r in enumerate(rounds[1:], 1):
        if r.outputs != outputs:
            problems.append(f"round {i} gave other outputs than round 0")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    untraced = [r for r in rounds if not r.traced]
    e2e = end_to_end(untraced)
    shown = dict(e2e, fail_frac=failed / attempted, tau_shift_steps=tau_shift)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "toy": args.toy, "workers": workload.workers, "paths_per_round": workload.paths_per_round,
        "rounds": [
            {"traced": r.traced, "setup_s": r.setup_s, "ensemble_s": r.ensemble_s,
             "attempted": r.attempted, "failed": r.failed} for r in rounds
        ],
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in shown.items()},
        "provenance": provenance(spmlab),
    }
    if tracer:
        traced = [r for r in rounds if r.traced]
        overhead = (statistics.median(r.result_s for r in traced)
                    - statistics.median(r.result_s for r in untraced))
        spans = tracer.spans()
        layers, found = layer_metrics(spans, workload.workers, workload.paths_per_round, overhead)
        problems += found
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layers.items()}
        result["per_layer"] = {k: dict(m, moves=PER_LAYER[k][2]) for k, m in metrics.items()}
        tracer.save(OUT / f"trace-{tag}.npz")
        shutil.rmtree(tracer.spool, ignore_errors=True)
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    result["outputs"] = outputs
    result["problems"] = problems
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  paths/round {workload.paths_per_round}  workers {workload.workers}")
    for name, m in result["end_to_end"].items():
        value = "n/a (no reference at this seed)" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<16} {value} {m['unit']}")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
