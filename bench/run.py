"""Benchmark of convexcusp: one workload, timed, checked and reported.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-algebra --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, from a run that wraps the
calls into each module (see tracing.py) and writes its spans under
``.bench_out/``.  ``--repeat N`` runs the workload N times, on seeds
seed .. seed+N-1, and prints the median and quartiles of each metric.
See README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, one thread: BLAS must not start its own pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: set-up runs per run: this process and SETUP_SAMPLES - 1 fresh processes
SETUP_SAMPLES = 9
#: fewest passes a run makes, however short --seconds is
MIN_PASSES = 3


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import numpy and convexcusp from this checkout's src/."""
    if not (SRC / "convexcusp" / "__init__.py").is_file():
        raise ProgramMissing(f"no convexcusp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import convexcusp

    if Path(convexcusp.__file__).resolve().parent != (SRC / "convexcusp").resolve():
        raise ProgramMissing(f"convexcusp imported from {convexcusp.__file__}, not from {SRC}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# timed passes


@dataclass
class Pass:
    items: list
    results: dict
    item_s: list
    run_s: float


def run_passes(workload, seconds, min_passes, tracer=None, first=0):
    """Repeat whole passes until ``seconds`` have gone and at least
    ``min_passes`` are done; each pass is timed as one section."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        k = first + len(passes)
        items = workload.items(k)
        results, item_s = {}, []
        t0 = time.perf_counter()
        for j, item in enumerate(items):
            span = tracer.item(item.kind, k * len(items) + j) if tracer else contextlib.nullcontext()
            a = time.perf_counter()
            try:
                with span:
                    r = item.call()
            except Exception as err:  # noqa: BLE001 - a failing call is a failed item, reported below
                r = err
            item_s.append(time.perf_counter() - a)
            results[item.key] = r
        run_s = time.perf_counter() - t0
        passes.append(Pass(items, results, item_s, run_s))
    return passes


def check_passes(passes):
    """Check every item; return (attempted, failed, unexpected failures)."""
    attempted = failed = 0
    unexpected = {}
    faults = {}
    for p in passes:
        for item in p.items:
            attempted += 1
            r = p.results[item.key]
            if isinstance(r, Exception):
                why = f"{type(r).__name__}: {r}"
            else:
                try:
                    if item.check(r, p.results):
                        continue
                    why = "outside the oracle's tolerance"
                except Exception as err:  # noqa: BLE001 - an output the check cannot read is a failed item
                    why = f"check raised {type(err).__name__}: {err}"
            failed += 1
            (faults if item.fault else unexpected).setdefault(item.key, (item.fault, why))
    for key, (fault, why) in faults.items():
        print(f"known fault {fault}: {key}: {why}", file=sys.stderr)
    for key, (_, why) in unexpected.items():
        print(f"FAILED: {key}: {why}", file=sys.stderr)
    return attempted, failed, unexpected


def setup_samples(args, own_setup_s):
    """Set-up time of this process and of fresh processes doing the same."""
    samples = [own_setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def report(correct, attempted, failed, metrics, spec_metrics):
    units = {m["name"]: m["unit"] for m in spec_metrics}
    out = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(out))


def run(args):
    try:
        load_program()
    except (ProgramMissing, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if not args.trace:
            passes = run_passes(workload, args.seconds, MIN_PASSES)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted, failed, unexpected = check_passes(passes)
            metrics = {
                "run_s": statistics.median(p.run_s for p in passes),
                "item_s_p50": statistics.median(s for p in passes for s in p.item_s),
                "setup_s": statistics.median(setup_samples(args, setup_s)),
                "peak_rss_mb": peak_rss_mb,
            }
            print(
                f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(passes[0].items)} items; "
                f"run_s {metrics['run_s']:.4f}, item_s_p50 {metrics['item_s_p50']:.5f}, "
                f"setup_s {metrics['setup_s']:.4f}, peak_rss_mb {peak_rss_mb:.1f}"
            )
            report(not unexpected, attempted, failed, metrics, spec["end_to_end"])
            return 0

        # traced run: untraced passes first, then the same passes traced;
        # the difference of their medians is the tracing overhead
        plain = run_passes(workload, args.seconds / 2, 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2, 2, tracer, first=len(plain))
        finally:
            tracer.uninstall()
        attempted, failed, unexpected = check_passes(plain + traced)
        plain_s = statistics.median(p.run_s for p in plain)
        traced_s = statistics.median(p.run_s for p in traced)
        overhead = (
            f"tracing overhead: traced run_s {traced_s:.4f} - untraced run_s {plain_s:.4f} "
            f"= {traced_s - plain_s:.4f} s ({100 * (traced_s / plain_s - 1):.1f}%)"
        )
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(
            path,
            {
                "workload": args.workload, "seed": args.seed, "traced_passes": len(traced),
                "untraced_run_s": plain_s, "traced_run_s": traced_s,
            },
        )  # fmt: skip
        print(f"{args.workload} seed {args.seed}: per pass, over {len(traced)} traced passes")
        print(tracer.table(len(traced)))
        print(overhead)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {m["name"]: tracer.metric(m["name"], len(traced)) for m in spec["per_layer"]}
        report(not unexpected, attempted, failed, metrics, spec["per_layer"])
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# repeat mode


def repeat(args):
    """Run the workload on N seeds and print each metric's median and quartiles."""
    values, shares = {}, []
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{res['failed']}/{res['attempted']}")
        print(f"seed {seed}: correct={res['correct']} failed {shares[-1]} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()))  # fmt: skip
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread}
        print(f"{name:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {spread:.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "failed_shares": sorted(set(shares)), "metrics": summary}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N times on consecutive seeds and summarise")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
