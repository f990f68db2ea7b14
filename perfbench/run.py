#!/usr/bin/env python3
"""splinefit benchmark: one workload, a closed loop of CLI operations, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surface-adaptive --seed 1 --seconds 28 --trace 0

One caller runs operations back to back in this process, each one
``splinefit`` subcommand through ``splinefit.cli_io.main``, until
``--seconds`` have passed. Every operation's outputs are checked against
:mod:`oracle`. The last line of standard output is
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores shared with other tenants, and a
# second BLAS thread contends with the interpreter instead of helping at
# these sizes. Set before numpy is first imported, and inherited by probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 9
# Operation id of the spans recorded while a traced run prepares its inputs.
SETUP_OP = -1


def load_program():
    """Import splinefit from ``src/`` of this checkout; return (package, cli_io, import seconds)."""
    src = ROOT / "src"
    if not (src / "splinefit" / "__init__.py").is_file():
        print(f"perfbench: no splinefit sources at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import splinefit
    import splinefit.cli_io as cli_io

    elapsed = time.perf_counter() - start
    if Path(splinefit.__file__).resolve().parent != (src / "splinefit").resolve():
        print(f"perfbench: imported splinefit from {splinefit.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return splinefit, cli_io, elapsed


def prepare(name: str, seed: int, size: str, workdir: Path, tracer=None):
    """Load the program and write the workload's inputs, traced as SETUP_OP if a tracer is given."""
    sf, cli_io, import_s = load_program()
    import workloads

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    prepare_fn, check_fn = workloads.WORKLOADS[name]
    if tracer is not None:
        tracer.op = SETUP_OP
        tracer.install()
    try:
        inputs = prepare_fn(sf, cli_io, workdir, seed, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cli_io, inputs, check_fn, import_s


def probe(args) -> int:
    """Set-up only, in a fresh interpreter; report the import time once ready."""
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _, _, _, import_s = prepare(args.workload, args.seed, args.size, workdir)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_probe(args) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter until its inputs are ready, and its import time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return ready, json.loads(line)["import_s"]


def _bytes_out(inputs, stdout: str) -> int:
    return len(stdout.encode()) + sum(p.stat().st_size for p in inputs.outputs if p.exists())


def layer_metrics(tracer, op: int, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    from tracing import self_times

    spans = tracer.op_spans(op)
    own = self_times(spans)

    def total(*names):
        return sum(own.get(n, 0.0) for n in names)

    def results(name):
        return [s.result for _, s in spans if s.name == name and s.result is not None]

    by_index = dict(spans)
    colloc = results("hierarchical.collocation_hierarchical")
    models = results("cli_io.read_model")
    spaces = results("hierarchical.refine") + [
        fn.space for fn in models if hasattr(fn.space, "leaf_cells")]
    dofs = [B.shape[1] for B in colloc] + [s.dim for s in spaces]
    decs = results("interp_decomposition.decompose")
    subsets = sum(len(d.certificates) for d in decs)
    admissible = sum(d.num_admissible for d in decs)
    solves = [s for _, s in spans if s.name in ("wls.solve_wls", "wls.solve_penalized_wls")
              and not (s.parent is not None and by_index[s.parent].name.startswith("wls."))]
    layers = {
        "spline_core.collocation_s": total("spline_core.collocation_matrix"),
        "spline_core.evaluate_s": total("spline_core.evaluate", "spline_core.evaluate_derivative",
                                        "spline_core.evaluate_many"),
        "hierarchical.collocation_s": total("hierarchical.collocation_hierarchical"),
        "hierarchical.mark_s": total("hierarchical.mark_cells"),
        "hierarchical.refine_s": total("hierarchical.refine"),
        "wls.thin_plate_s": total("wls.assemble_thin_plate"),
        "wls.penalized_solve_s": total("wls.solve_penalized_wls"),
        "wls.solve_s": total("wls.solve_wls"),
        "fitting.self_s": total("fitting.rwls_fit", "fitting.adaptive_rwls_fit"),
        "interp_decomposition.decompose_s": total("interp_decomposition.decompose"),
        "interp_decomposition.reconstruct_s": total("interp_decomposition.reconstruct"),
        "cli_io.read_s": total("cli_io.read_point_cloud", "cli_io.read_model"),
        "cli_io.self_s": total("cli_io.main"),
    }
    counts = {
        "spline_core.evaluate_calls": sum(
            1 for _, s in spans
            if s.name in ("spline_core.evaluate", "spline_core.evaluate_derivative")),
        "hierarchical.collocation_nnz": max((B.nnz for B in colloc), default=0),
        "hierarchical.dofs": max(dofs, default=0),
        "hierarchical.leaf_cells": len(spaces[-1].leaf_cells()) if spaces else 0,
        "wls.thin_plate_mb": max(
            (P.nbytes for P in results("wls.assemble_thin_plate")), default=0) / 2**20,
        "wls.solve_calls": len(solves),
        "fitting.iterations": sum(
            r.iterations for n in ("fitting.rwls_fit", "fitting.adaptive_rwls_fit")
            for r in results(n)),
        "interp_decomposition.subsets": subsets,
        "interp_decomposition.admissible_ratio": admissible / subsets if subsets else 0.0,
        "trace.spans": len(spans),
        "trace.remainder_s": wall - sum(layers.values()),
    }
    return {**layers, **counts}


def run(args) -> tuple[dict, dict]:
    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = None
    if args.trace:
        from tracing import Tracer, self_times

        tracer = Tracer()
    cli_io, inputs, check, _ = prepare(args.workload, args.seed, args.size, workdir, tracer)
    if tracer is not None:
        setup_collocation_s = self_times(tracer.op_spans(SETUP_OP)).get(
            "spline_core.collocation_matrix", 0.0)
        tracer.drop_results()
    try:
        ready, imports, untraced, traced, per_op, problems = [], [], [], [], [], []
        attempted = failed = bytes_out = 0
        max_err = peak_rss_mb = None
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or attempted < (2 if tracer else 1):
            # Probes are spread over the run, so set-up is sampled in as many
            # phases of the machine's background load as the operations are.
            elapsed = time.perf_counter() - start
            if len(ready) < SETUP_PROBES and len(ready) * args.seconds < SETUP_PROBES * elapsed:
                for sample, into in zip(run_probe(args), (ready, imports)):
                    into.append(sample)
                continue
            op = attempted
            attempted += 1
            trace_this = tracer is not None and op % 2 == 1
            if trace_this:
                tracer.op = op
                tracer.install()
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli_io.main(list(inputs.argv))
            except Exception:
                rc = None
                traceback.print_exc()
            wall = time.perf_counter() - t0
            if trace_this:
                tracer.uninstall()
            (traced if trace_this else untraced).append(wall)
            if peak_rss_mb is None:
                # The peak so far: import, set-up and the first operation, read
                # before any check has run, so the checker's memory is left out.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if rc != 0:
                failed += 1
                print(f"operation {op} failed with exit code {rc}", file=sys.stderr)
                continue
            found, err = check(inputs, rc, buf.getvalue())
            problems += [f"operation {op}: {p}" for p in found]
            max_err = err if err is not None else max_err
            bytes_out = _bytes_out(inputs, buf.getvalue())
            if trace_this:
                per_op.append(layer_metrics(tracer, op, wall))
                tracer.drop_results()
        while len(ready) < SETUP_PROBES:
            for sample, into in zip(run_probe(args), (ready, imports)):
                into.append(sample)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(p, file=sys.stderr)

    if tracer is None:
        metrics = {
            "op_s": statistics.median(untraced),
            "setup_s": statistics.median(ready),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        if not per_op:
            raise RuntimeError("no traced operation succeeded")
        metrics = {k: statistics.fmean(m[k] for m in per_op) for k in per_op[0]}
        metrics.update({
            "cli_io.bytes_out": bytes_out,
            "cli_io.import_s": statistics.median(imports),
            "fitting.max_err": max_err or 0.0,
            "spline_core.setup_collocation_s": setup_collocation_s,
            "trace.op_s": statistics.fmean(traced),
            "trace.untraced_op_s": statistics.fmean(untraced),
            "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(untraced),
        })
        write_spans(tracer, args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    samples = {"op_s": untraced, "traced_op_s": traced, "setup_s": ready, "import_s": imports}
    return result, samples


def write_spans(tracer, args) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i, s in enumerate(tracer.spans):
            handle.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("surface-adaptive", "curve-rwls", "sample-grid", "verify-subsets"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size; 'small' is for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    result, samples = run(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": result, "samples": samples}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
