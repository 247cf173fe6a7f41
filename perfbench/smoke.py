"""Smoke test of the benchmark itself, at toy size.

    python3 perfbench/smoke.py

For each workload it writes a toy reference at the reference seed, then
checks that an untraced and a traced run are correct and print every metric
that BENCHMARK.json names, with its unit. It then perturbs the toy
reference (one tau_hat moved by five steps, then one pass flag flipped) and
checks that the output check fails. Finally it runs the check function on a
positivity violation. Exits 0 when every check holds.
"""
import json
import subprocess
import sys
from pathlib import Path

import check
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = check.REFERENCE_SEED


def run(workload: str, trace: int = 0, write_reference: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    if write_reference:
        cmd.append("--write-reference")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list = []
    for w in NAMES:
        for trace, wanted in ((0, e2e), (1, per_layer)):
            res = run(w, trace, write_reference=trace == 0)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace={trace}: correct, no failed path", failures)
            expect(got == wanted, f"{w} trace={trace}: every metric with its unit", failures)

        ref_path = HERE / "out" / "toy-reference" / f"{w}.json"
        doc = json.loads(ref_path.read_text())
        first = doc["ensembles"][0]
        i = next(k for k, t in enumerate(first["tau_hats"]) if t is not None)
        first["tau_hats"][i] += 5 * first["dt"]
        ref_path.write_text(json.dumps(doc))
        expect(not run(w)["correct"], f"{w}: tau_hat moved 5 steps in the reference fails", failures)
        first["tau_hats"][i] -= 5 * first["dt"]
        first["passed"][0] = not first["passed"][0]
        ref_path.write_text(json.dumps(doc))
        expect(not run(w)["correct"], f"{w}: flipped pass flag in the reference fails", failures)
        ref_path.unlink()

        bad = dict(first, positivity_violations=1)
        problems, _ = check.check([bad], None)
        expect(bool(problems), f"{w}: a positivity violation fails", failures)

    print(f"{len(failures)} failed" if failures else "smoke test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
