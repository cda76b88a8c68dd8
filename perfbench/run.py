#!/usr/bin/env python3
"""Benchmark of the tscatter CLI and library on fixed, seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload session-d3 --seed 1 --seconds 25 --trace 0

It builds the workload's inputs from the seed, measures set-up time in fresh
interpreters, then repeats the workload's fixed batch of jobs until
``--seconds`` have passed. Every job's output is checked. Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics: layer self times from spans recorded around each layer's
public functions, and ``trace.overhead_share``, the traced batch time
against the untraced one, both in reference units. ``--smoke`` runs tiny inputs and one set-up sample,
to test the benchmark itself.

Metrics, workloads and the reasons for them are in ``perfbench/README.md``.
"""

import os

# One BLAS thread: jobs run one at a time, and on a two-core machine a second
# OpenBLAS thread made the d=10 fit iterations about twice as slow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# what every CLI call pays before it reads its input
SETUP_CODE = "import tscatter.cli as cli; cli.build_parser()"
JOB_KINDS = ("estimate", "scatter", "check_domain", "asymptotics", "oned", "simulate", "fit")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    fits: int = 0
    unconverged: int = 0
    envelopes: int = 0
    invalid: int = 0
    times: dict = field(default_factory=lambda: {k: [] for k in JOB_KINDS})
    failures: list = field(default_factory=list)
    refusals: set = field(default_factory=set)

    def add(self, job, seconds, outcome):
        self.attempted += 1
        self.fits += outcome.fits
        self.unconverged += outcome.unconverged
        if outcome.envelope_valid is not None:
            self.envelopes += 1
            self.invalid += not outcome.envelope_valid
        if outcome.status == "failed":
            self.failed += 1
            self.failures.append(f"{job.kind}: {outcome.detail}")
        elif outcome.status == "refused":
            self.refused += 1
            self.refusals.add(f"{job.kind}: {outcome.detail}")
        if seconds is not None:
            self.times[job.kind].append(seconds)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, to test the benchmark")
    return p.parse_args(argv)


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def measure_setup(samples):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - t0)
    return times


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def envelope_validator(jsonschema):
    schema = json.loads((ROOT / "docs" / "result_schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft7Validator(schema)

    def validate(text):
        try:
            envelope = json.loads(text, parse_constant=_reject_constant)
        except ValueError:
            return False
        return validator.is_valid(envelope)

    return validate


def provenance(args, np, scipy):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_batch(workload, validate, tally, ref, tracer=None):
    """Run the batch's jobs one after another, timing the reference before and after each.

    Returns the seconds spent in the jobs, each job's time in reference
    units (against the mean of the two reference timings around it), and the
    reference timings. Outputs are checked, and edge probes run, after the
    batch.
    """
    done, refs = [], [ref.seconds(workload.ref_units)]
    if tracer is not None:
        tracer.install()
    try:
        for job in workload.jobs:
            t = perf_counter()
            raw = job.run()
            done.append((job, perf_counter() - t, raw))
            refs.append(ref.seconds(workload.ref_units))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for job, seconds, raw in done:
        # job times come from untraced batches only
        tally.add(job, None if tracer else seconds, job.check(raw, validate))
    for job in workload.probes:
        tally.add(job, None, job.check(job.run(), validate))
    wall = sum(seconds for _, seconds, _ in done)
    in_ref = [seconds / ((a + b) / 2.0) for (_, seconds, _), a, b in zip(done, refs, refs[1:])]
    return wall, in_ref, refs


def in_reference_units(batches):
    """Batch time in reference units: per job, the median over batches, summed.

    The median drops a job that met a change of machine state which the
    reference timings around it missed.
    """
    return sum(statistics.median(job) for job in zip(*batches))


def shares(tally):
    def ratio(num, den):
        return num / den if den else None
    return {
        "fail_share": ratio(tally.failed + tally.refused, tally.attempted),
        "unconverged_share": ratio(tally.unconverged, tally.fits),
        "envelope_invalid_share": ratio(tally.invalid, tally.envelopes),
    }


def job_medians(tally):
    return {f"{k}_s": (statistics.median(v) if v else None, len(v)) for k, v in tally.times.items()}


def report_lines(metrics, units, counts):
    lines = []
    for name, value in metrics.items():
        shown = "n/a (no such job here)" if value is None else f"{value:.6g} {units.get(name, '')}"
        note = f"  [{counts[name]}]" if name in counts else ""
        lines.append(f"  {name:34s} {shown}{note}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tscatter" / "__init__.py").is_file():
        return fail(f"no tscatter sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    import jsonschema
    import numpy as np
    import scipy

    import tscatter
    import tscatter.cli  # noqa: F401  (the benchmark drives the CLI through this module)

    if Path(tscatter.__file__).resolve().parent != (SRC / "tscatter").resolve():
        return fail(f"imported tscatter from {tscatter.__file__}, not from {SRC}")

    import reference
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        info = provenance(args, np, scipy)
        setup = measure_setup(1 if args.smoke else SETUP_SAMPLES)
        wl = workloads.build(args.workload, args.seed, tmp, args.smoke)
        validate = envelope_validator(jsonschema)

        warm = Tally()
        for job in wl.warmup:
            warm.add(job, None, job.check(job.run(), validate))

        tally = Tally()
        untraced, in_ref, traced, traced_in_ref, refs = [], [], [], [], []
        tracer = tracing.Tracer() if args.trace else None
        ref = reference.Reference(wl.ref_kind)
        start = perf_counter()
        while True:
            round_start = perf_counter()
            wall, job_ref, ref_s = run_batch(wl, validate, tally, ref)
            untraced.append(wall)
            in_ref.append(job_ref)
            refs += ref_s
            if tracer is not None:
                wall, job_ref, _ = run_batch(wl, validate, tally, ref, tracer)
                traced.append(wall)
                traced_in_ref.append(job_ref)
            # stop at the round whose end is nearest to --seconds
            now = perf_counter()
            if now - start + (now - round_start) / 2 >= args.seconds:
                break
        measured_s = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        medians = job_medians(tally)
        end_to_end = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced),
            "wall_ref": in_reference_units(in_ref),
            **{k: v for k, (v, _) in medians.items()},
            **shares(tally),
            "peak_rss_mb": peak_rss_mb,
        }
        counts = {"setup_s": f"median of {len(setup)}", "wall_s": f"median of {len(untraced)} batches",
                  "wall_ref": f"sum of per-job medians over {len(untraced)} batches; reference "
                              f"{statistics.median(refs):.4f} s, median of {len(refs)}"}
        counts.update({k: f"median of {c}" for k, (v, c) in medians.items() if c})
        counts["fail_share"] = f"{tally.failed} failed + {tally.refused} refused of {tally.attempted}"
        counts["unconverged_share"] = f"{tally.unconverged} of {tally.fits} fits"
        counts["envelope_invalid_share"] = f"{tally.invalid} of {tally.envelopes} envelopes"

        if tracer is not None:
            layers = tracing.layer_metrics(tracer, len(traced), statistics.mean(traced))
            layers["trace.overhead_share"] = in_reference_units(traced_in_ref) / end_to_end["wall_ref"] - 1.0
            wanted = spec["per_layer"]
            # a job kind absent from this workload reads 0 among the per-layer metrics
            values = {**{k: v or 0.0 for k, v in end_to_end.items()}, **layers}
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            layers = {}
            wanted = spec["end_to_end"]
            values = end_to_end
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

        correct = tally.failed == 0 and warm.failed == 0
        report = {"provenance": info, "correct": correct, "setup_s_samples": setup,
                  "untraced_wall_s": untraced, "untraced_job_ref": in_ref,
                  "reference_s": refs, "traced_wall_s": traced,
                  "job_seconds": tally.times, "metrics": {**end_to_end, **layers},
                  "failures": warm.failures + tally.failures, "refusals": sorted(tally.refusals)}
        (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8")

        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(untraced)} untraced + {len(traced)} traced batches in {measured_s:.1f} s")
        print("provenance: " + json.dumps(info))
        print("end-to-end (untraced):")
        print("\n".join(report_lines(end_to_end, units, counts)))
        if layers:
            wall = layers["trace.wall_s"]
            print("per layer (traced, per batch):")
            print("\n".join(report_lines(layers, units, {})))
            dc = layers["domain_check.self_s"] / wall
            solver = (layers["scatter.self_s"] + layers["symspace.self_s"]) / wall
            print(f"  share of traced wall: domain_check {dc:.1%}, scatter+symspace {solver:.1%}")
        for line in sorted(tally.refusals):
            print(f"refused: {line}")
        for line in (warm.failures + tally.failures)[:20]:
            print(f"FAILED {line}")
        print(json.dumps({"correct": correct, "attempted": tally.attempted,
                          "failed": tally.failed + warm.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
