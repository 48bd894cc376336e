"""Benchmark entry point: host-speed-normalized runs of three workloads.

    python3 perfbench/run.py --workload {study,interventions,sweep} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and imports the
package from ``src/``. ``--seed`` selects the workload's inputs: seed N
runs input seed ``INPUTS[workload][N % len(...)]``, each with a payload
digest pinned in ``digests.json``. ``--heldout`` runs the one pinned
input no ``--seed`` maps to, for claims that must also hold on inputs
not used while a change was written.

``--trace 0`` runs measured repetitions, one at a time and each in a
fresh child process (``child.py``), until ``--seconds`` have passed — at
least one, so a repetition longer than ``--seconds`` makes a run of one
— and reports the medians of the end-to-end metrics, all in
host-normalized time (``normalize.py``):

* ``setup_s`` — normalized seconds from the child's first ``import repro``
  to the first timed action: imports plus the median of the workload's
  back-to-back set-ups;
* ``actions_per_s`` — actions appended to the platform log in the timed
  region, per normalized second;
* ``peak_rss_mb`` — the child's peak resident set.

``--trace 1`` runs three children — untraced, observability off, and
traced — and reports the per-layer metrics of ``tracer.py``; the traced
spans go to ``.perfbench/`` in the checkout. Every child's payload
digest must equal the pinned one. Diagnostics (raw wall seconds, kernel
samples, per-step latency) print on the line before the result; the
last stdout line is the result JSON.

``--pin`` recomputes the pinned digests; ``--describe`` prints the layer
table with the end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("study", "interventions", "sweep")

#: --seed N runs input seed INPUTS[workload][N % len(INPUTS[workload])].
#: The simulator's seed sets the size of the work: on ``interventions``,
#: seeds 40-53 append 164k-439k actions and run at 13k-21k actions/s, so
#: each workload's inputs are seeds alike in actions appended and peak
#: RSS, and runs on any of them measure the same amount of work.
INPUTS = {"study": (42, 43), "interventions": (40, 41), "sweep": (42, 43)}
#: pinned, but reachable only through --heldout
HELDOUT = {"study": 7, "interventions": 51, "sweep": 7}

#: a run must end within 180 s; its children share what is left of this
RUN_BUDGET_S = 170.0

sys.path.insert(0, HERE)

import tracer  # noqa: E402  (stdlib-only at import time)


def input_seed(workload: str, seed: int, heldout: bool) -> int:
    if heldout:
        return HELDOUT[workload]
    inputs = INPUTS[workload]
    return inputs[seed % len(inputs)]


def run_child(
    workload: str,
    seed: int,
    role: str,
    workdir: str,
    deadline: float,
    spans: str | None = None,
    setup_repeats: int = 0,
) -> dict:
    """One repetition in a fresh process; its JSON result or an ``error``."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--role", role, "--workdir", workdir,
        "--setup-repeats", str(setup_repeats),
    ]
    if spans is not None:
        command += ["--spans", spans]
    # a fixed hash seed keeps dict and set layouts, and so timings, alike
    # from run to run; payloads do not depend on it
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"role": role, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"role": role, "error": f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_imports() -> None:
    """Import the workloads once, unmeasured, in a throwaway process.

    The first import after a while may read the package from disk, or
    compile its bytecode in a fresh checkout; the reference kernel does
    not see time spent waiting on disk, and a user running the program
    again pays neither, so the children's ``imports_s`` start warm.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-c", "import workloads"], cwd=HERE, env=env, check=True, timeout=60
    )


def measured_children(
    workload: str, seed: int, seconds: float, workdir: str, deadline: float
) -> list[dict]:
    """Measured repetitions, one at a time, until ``seconds`` have passed."""
    children: list[dict] = []
    start = time.monotonic()
    while True:
        children.append(run_child(workload, seed, "measure", workdir, deadline))
        elapsed = time.monotonic() - start
        if "error" in children[-1] or elapsed >= seconds:
            return children
        if time.monotonic() + 1.5 * elapsed / len(children) > deadline:
            return children


def traced_children(
    workload: str, seed: int, workdir: str, deadline: float, spans: str
) -> list[dict]:
    """Base, observability-off and traced children, each after one set-up,
    so the overhead ratios compare timed regions with alike histories."""
    return [
        run_child(workload, seed, "measure", workdir, deadline, setup_repeats=1),
        run_child(workload, seed, "obs-off", workdir, deadline, setup_repeats=1),
        run_child(workload, seed, "traced", workdir, deadline, spans=spans, setup_repeats=1),
    ]


def end_to_end(children: list[dict]) -> dict:
    setup = [child["imports_s"] + statistics.median(child["setup_runs_s"]) for child in children]
    rate = [child["actions"] / child["timed_s"] for child in children]
    rss = [child["peak_rss_mb"] for child in children]
    return {
        "actions_per_s": {"value": statistics.median(rate), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(base: dict, obs_off: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values.update(
        {
            "obs.overhead_frac": base["timed_s"] / obs_off["timed_s"] - 1.0,
            "obs.base_s": obs_off["timed_s"],
            "trace.overhead_frac": traced["timed_s"] / base["timed_s"] - 1.0,
            "trace.base_s": base["timed_s"],
            "trace.coverage_frac": traced["coverage"],
            "trace.timed_s": traced["timed_s"],
        }
    )
    return {
        name: {"value": values[name], "unit": tracer.metric_unit(name)}
        for name in tracer.per_layer_metric_names()
    }


_DIAGNOSTIC_KEYS = (
    "role", "error", "digest", "wall_s", "timed_raw_s", "timed_s", "imports_s",
    "setup_runs_s", "actions", "peak_rss_mb", "kernel", "steps", "spans",
)


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def pin(names: tuple[str, ...]) -> int:
    """Recompute the pinned payload digest of every (workload, input seed)."""
    pinned = load_digests() if os.path.exists(DIGESTS) else {}
    for name in names:
        pinned[name] = {}
        for seed in (*INPUTS[name], HELDOUT[name]):
            workdir = tempfile.mkdtemp(prefix=f"pin-{name}-", dir=OUT_DIR)
            try:
                child = run_child(name, seed, "measure", workdir, time.monotonic() + RUN_BUDGET_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if "error" in child:
                print(f"{name} seed {seed}: {child['error']}", file=sys.stderr)
                return 1
            pinned[name][str(seed)] = child["digest"]
            print(f"{name} seed {seed}: {child['digest']}", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def describe() -> dict:
    """The layer table: what each metric wraps and what it should move."""
    return {
        "layers": [
            {
                "layer": layer.layer,
                "metrics": [f"{layer.name}.{suffix}" for suffix in layer.metrics]
                + [f"setup.{layer.name}.{suffix}" for suffix in layer.metrics if layer.setup],
                "wraps": list(layer.targets),
                "moves": layer.moves,
            }
            for layer in tracer.LAYERS
        ],
        "counters": [
            {"metric": name, "definition": what, "moves": moves}
            for name, what, moves in tracer.COUNTER_METRICS
        ],
        "run": [{"metric": name, "definition": what} for name, what in tracer.RUN_METRICS],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true", help="run the held-out pinned input")
    parser.add_argument("--pin", action="store_true", help="recompute digests.json")
    parser.add_argument("--describe", action="store_true", help="print the layer table")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro package under {ROOT} to benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.pin:
        return pin((args.workload,) if args.workload else WORKLOAD_NAMES)
    if args.workload is None:
        parser.error("--workload is required")
    seed = input_seed(args.workload, args.seed, args.heldout)
    expected = load_digests().get(args.workload, {}).get(str(seed))
    deadline = time.monotonic() + RUN_BUDGET_S
    warm_imports()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{seed}.jsonl")
            children = traced_children(args.workload, seed, workdir, deadline, spans)
        else:
            children = measured_children(args.workload, seed, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [child for child in children if "error" in child or child["digest"] != expected]
    diagnostics = {
        "workload": args.workload,
        "input_seed": seed,
        "expected_digest": expected,
        "children": [
            {key: child[key] for key in _DIAGNOSTIC_KEYS if key in child} for child in children
        ],
    }
    print(json.dumps({"diagnostics": diagnostics}))
    ran = [child for child in children if "error" not in child]
    if args.trace:
        metrics = per_layer(*children) if len(ran) == len(children) else {}
    else:
        metrics = end_to_end(ran) if ran else {}
    result = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
