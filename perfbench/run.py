"""Closed-loop benchmark of the caterpillar package, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-micro --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run drives the package in ``src/`` through its public API from a single
process with a single caller: each op starts when the previous one has
returned.  Ops run in float32 with the BLAS library's default threads.  The
seed derives both the weights and the data.

Workloads (names as in BENCHMARK.json):

* ``eval-mi224``: Mi preset at 224x224x3, 1000 classes; one op is an
  eval-mode ``model.forward`` of a batch of 8.  Forward-only work on large
  maps, where GELU, Linear GEMMs and the activations kept for a backward
  that never runs dominate.
* ``train-resnet18-spc``: resnet18 family, ``n_c=32``, every 3x3 conv
  replaced by the shift mixer, 32x32x3 input, 10 classes, 256 samples;
  one op is one ``train_loop`` step on a batch of 32.  SPC forward and
  backward, including the cin != cout and stride-2 cases, dominate; there
  is no GELU, Smlp or LayerNorm.
* ``train-micro``: the pyramid model of the micro overfit test (width 16,
  depths 1,1,1,1, patch 1, 16x16x3 input, 8 classes, ffn_ratio 2), 64
  samples; one op is one step on a batch of 64.  The whole mixer block
  forward and backward on small maps, where per-call overhead counts.

End-to-end metrics: ``setup_s`` is the median over fresh processes of the
time from spawning one until its model and inputs are ready (imports,
``build_model`` + ``astype``, ``synth_blobs``); ``op_s_p50`` is the median op
time after ``WARMUP_OPS`` untimed ops; ``op_s_tail`` is the highest
percentile with ``TAIL_BEYOND`` samples beyond it (percentile and count are
in the detail line); ``images_per_s`` is images processed over the timed
wall time; ``peak_rss_mb`` is the run's own ``ru_maxrss``.  Failed ops are
the result's ``failed`` out of ``attempted``.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries per-layer metrics from a run in which every other
op is traced (see layertrace.py), plus the tracing overhead.  The last line
of standard output is the result; the line before it records the
environment and the checks.  ``--smoke`` runs every workload briefly in both
modes and checks that each metric named in BENCHMARK.json is present with
its unit.

Checks.  An eval op fails if its logits are non-finite or differ from a
float64 forward of the same (float32-rounded) weights and input by more than
``EVAL_TOLERANCE`` times max(1, max |reference|); the float64 forward runs in
a child process before the timed phase, so it adds to neither the timings
nor the peak memory.  It runs the same code, so it guards float32-specific
paths and precision; the semantics are pinned by the test suite's oracles.
A train op fails if ``train_loop`` raises (it raises on a non-finite loss or
gradient), and the run is incorrect unless the last loss is at least
``LOSS_DROP`` below the first.  A traced run is incorrect unless the MACs
attributed to layers equal ``estimate_flops`` on every traced op.  An
incorrect run still prints its result, then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRIPT = os.path.abspath(__file__)

WARMUP_OPS = 2  # the first ops pay lazy imports, page faults and BLAS start-up
MIN_OPS = 2  # a traced run needs one traced and one untraced op
SETUP_REPS = 5  # setup_s is the median of this many fresh processes
TAIL_BEYOND = 10  # op_s_tail: highest percentile with this many samples beyond it
EVAL_TOLERANCE = 1e-4
LOSS_DROP = 0.25  # nats
TRAIN_STEPS = 10**6  # cosine schedule horizon; a run stops long before it
DTYPE = np.float32


@dataclass(frozen=True)
class Workload:
    kind: str  # "eval" or "train"
    batch: int
    data: tuple[int, int, int, int, int]  # synth_blobs (n, h, w, cin, k); n % batch == 0
    spec: Callable  # caterpillar package -> model spec


WORKLOADS = {
    "eval-mi224": Workload(
        "eval", 8, (8, 224, 224, 3, 8),
        lambda cp: cp.ModelSpec.preset("Mi", input=(224, 224, 3), num_classes=1000),
    ),
    "train-resnet18-spc": Workload(
        "train", 32, (256, 32, 32, 3, 10),
        lambda cp: cp.ResnetSpec(n_c=32, local_mixer="spc", num_classes=10, input=(32, 32, 3)),
    ),
    "train-micro": Workload(
        "train", 64, (64, 16, 16, 3, 8),
        lambda cp: cp.ModelSpec(
            variant="custom", base_width=16, depths=(1, 1, 1, 1), patch_size=1,
            input=(16, 16, 3), num_classes=8, block=cp.BlockConfig(ffn_ratio=2),
        ),
    ),
}


def import_package():
    """Import caterpillar from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "caterpillar", "__init__.py")):
        sys.exit(f"perfbench: no package at {SRC}/caterpillar")
    sys.path.insert(0, SRC)
    import caterpillar

    if os.path.dirname(os.path.dirname(os.path.abspath(caterpillar.__file__))) != SRC:
        sys.exit(f"perfbench: imported caterpillar from {caterpillar.__file__}, not {SRC}")
    return caterpillar


def setup(cp, name, seed):
    """Model and inputs of a workload; returns them with per-layer set-up times."""
    wl = WORKLOADS[name]
    t0 = perf_counter()
    model = cp.build_model(wl.spec(cp), seed=seed).astype(DTYPE)
    t1 = perf_counter()
    data = cp.synth_blobs(seed, *wl.data)
    images = data.images.astype(DTYPE)
    t2 = perf_counter()
    return model, images, data.labels, {"models.build_model_s": t1 - t0, "data.synth_blobs_s": t2 - t1}


def child_setup(name, seed):
    """Child process: import and set up, then report readiness on stdout."""
    setup(import_package(), name, seed)
    print("ready", flush=True)


def child_reference(name, seed):
    """Child process: float64 eval logits of the float32-rounded weights and input.

    Eval mode treats images independently, so the forward runs one image at
    a time to keep the child's memory small.
    """
    cp = import_package()
    model, images, _, _ = setup(cp, name, seed)
    model.astype(np.float64)
    logits = np.concatenate([model.forward(images[i : i + 1].astype(np.float64)) for i in range(len(images))])
    sys.stdout.buffer.write(logits.astype("<f8").tobytes())


def _child_cmd(role, name, seed):
    return [sys.executable, SCRIPT, "--workload", name, "--seed", str(seed), "--role", role]


def measure_setup(name, seed) -> list[float]:
    """Seconds from spawning a fresh process until its model and inputs are ready."""
    samples = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        with subprocess.Popen(_child_cmd("setup", name, seed), cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            proc.communicate()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
    return samples


def reference_logits(name, seed, shape):
    proc = subprocess.run(
        _child_cmd("reference", name, seed), cwd=ROOT, stdout=subprocess.PIPE, timeout=150, check=True
    )
    return np.frombuffer(proc.stdout, dtype="<f8").reshape(shape)


class Ops:
    """Timed ops of one run: durations, whether each was traced, failures."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.times: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.begin = self.end = 0.0

    def add(self, start, end, traced, ok):
        if not self.times:
            self.begin = start
        self.end = end
        self.times.append(end - start)
        self.traced.append(traced)
        self.failed += not ok

    def done(self) -> bool:
        return len(self.times) >= MIN_OPS and self.end - self.begin >= self.seconds

    def next_traced(self, tracer) -> bool:
        return tracer is not None and len(self.times) % 2 == 1

    def median(self, traced: bool) -> float:
        return statistics.median(t for t, tr in zip(self.times, self.traced) if tr == traced)


def run_eval(cp, model, images, ref, ops, tracer):
    for _ in range(WARMUP_OPS):
        model.forward(images, training=False)
    if tracer is not None:
        tracer.snapshot_retained()
    scale = max(1.0, float(np.abs(ref).max()))
    max_err = 0.0
    while not ops.done():
        traced = ops.next_traced(tracer)
        if traced:
            tracer.attach()
        start = perf_counter()
        try:
            logits = model.forward(images, training=False)
        except cp.CaterpillarError:
            logits = None
        end = perf_counter()
        if traced:
            tracer.detach()
        ok = logits is not None and bool(np.isfinite(logits).all())
        if ok:
            err = float(np.abs(logits - ref).max()) / scale
            max_err = max(max_err, err)
            ok = err <= EVAL_TOLERANCE
        ops.add(start, end, traced, ok)
    checks = {"logits_max_rel_err": max_err, "tolerance": EVAL_TOLERANCE}
    return checks, True


class _Stop(Exception):
    """Raised from the on_step hook to end train_loop when the run is over."""


def run_train(cp, model, images, labels, wl, seed, ops, tracer):
    cfg = cp.TrainConfig(total_steps=TRAIN_STEPS, batch_size=wl.batch, seed=seed)
    losses = []
    start, traced = perf_counter(), False

    def on_step(step, _model, row):
        nonlocal start, traced
        end = perf_counter()
        if traced:
            tracer.detach()
        losses.append(row[2])
        if step >= WARMUP_OPS:
            ops.add(start, end, traced, True)
            if ops.done():
                raise _Stop
        elif step == WARMUP_OPS - 1 and tracer is not None:
            tracer.snapshot_retained()
        traced = step >= WARMUP_OPS - 1 and ops.next_traced(tracer)
        if traced:
            tracer.attach()
        start = perf_counter()

    try:
        cp.train_loop(model, images, labels, cfg, on_step)
    except _Stop:
        pass
    except cp.CaterpillarError:
        if traced:
            tracer.detach()
        ops.add(start, perf_counter(), traced, False)
    dropped = len(losses) > 1 and losses[-1] <= losses[0] - LOSS_DROP
    checks = {"loss_first": losses[0] if losses else None, "loss_last": losses[-1] if losses else None,
              "loss_drop_required": LOSS_DROP, "steps": len(losses)}
    return checks, dropped


def tail(times):
    """(value, percentile, samples beyond): highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            return next((line.split()[0] for line in f if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment():
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def run(name, seed, seconds, trace):
    cp = import_package()
    wl = WORKLOADS[name]
    setup_samples = None if trace else measure_setup(name, seed)
    ref = None
    if wl.kind == "eval":
        ref = reference_logits(name, seed, (wl.batch, wl.spec(cp).num_classes))
    model, images, labels, setup_parts = setup(cp, name, seed)
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer(model)
    ops = Ops(seconds)
    if wl.kind == "eval":
        checks, run_ok = run_eval(cp, model, images, ref, ops, tracer)
    else:
        checks, run_ok = run_train(cp, model, images, labels, wl, seed, ops, tracer)
    attempted = len(ops.times)
    tail_s, tail_pct, beyond = tail(ops.times)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "dtype": np.dtype(DTYPE).name,
        "ops": attempted,
        "warmup_ops": WARMUP_OPS,
        "failed_share": ops.failed / attempted,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "checks": checks,
        "environment": environment(),
    }
    if trace:
        detail["traced_ops"] = tracer.ops
        detail["mac_checks"] = sorted(set(tracer.mac_checks))
        run_ok = run_ok and tracer.macs_reconciled()
        metrics = tracer.per_op()
        metrics.update({k: (v, "s") for k, v in setup_parts.items()})
        metrics["trace.overhead"] = (ops.median(True) / ops.median(False), "ratio")
    else:
        detail["setup_samples_s"] = setup_samples
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "op_s_p50": (statistics.median(ops.times), "s"),
            "op_s_tail": (tail_s, "s"),
            "images_per_s": (wl.batch * attempted / (ops.end - ops.begin), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    correct = run_ok and ops.failed == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def smoke():
    """Run every workload briefly in both modes; check each named metric and its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, SCRIPT, "--workload", wl["name"], "--seed", "0",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{wl['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"smoke {label}: {result['attempted']} ops, {len(got)} metrics")
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="brief run of every workload and mode")
    parser.add_argument("--role", choices=("setup", "reference"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.role == "setup":
        child_setup(args.workload, args.seed)
        return 0
    if args.role == "reference":
        child_reference(args.workload, args.seed)
        return 0
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
