"""Paired benchmark runs of two revisions, written as one BENCH file.

    python tools/pairs.py --parent HEAD~1 --change HEAD --seed 2701 --out BENCH_27.json
    python tools/pairs.py --parent HEAD --change HEAD --pairs 1 --seconds 2

Each revision's `src/` and `perfbench/` are exported with `git archive` into
`.bench_build/pairs/<commit>/`, and its `perfbench/run.py` runs there as it
is, one process per run, with `--trace 0`. Pair i (from 1) uses seed
`--seed + i - 1`; the parent runs first in odd pairs and the change in even
ones, and within a pair the workloads run in a fixed order, the two sides of
each back to back. Every end-to-end metric of `BENCHMARK.json` is summarised
per side from the runs, rounded to 6 decimals first so that the summaries
recompute exactly from the recorded `runs`: median, quartiles (linear
interpolation), min, max, IQR, `change_better_pairs` (strictly better, in
the metric's direction) and `median_change` (change median over parent
median, less 1).

Decision rule, per workload and metric: a gain is claimed only with at least
MIN_PAIRS pairs, when the change is better in at least 9 of every 10 pairs
(a sign test gives p = 0.011 at 9 of 10) and its median beats the parent's
by more than the parent's IQR. A metric whose change median is worse by more
than its `bound` is a regression.

`--split` adds the in-process per-stage split of a toy decode step, one
process per side and round, sides alternating, both loading one weight file,
with the benchmark's host-speed probe kernel run after each step, and the
step's exact Python and C call counts (`step_calls`); beside it, the time of
one step of LOCKSTEP streams stepped together, timed the same way, and the
spread of each side's per-process step times (`step_us_spread`).
The file is written in full either way; the exit status is 1 if a run is not
correct or any operation failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The order the workloads run in within a pair.
WORKLOADS = ("verify_sweep", "decode_steady", "prefill_long")

#: Fewest pairs on which a gain can be claimed.
MIN_PAIRS = 10

#: Stream counts of the lockstep steps that the split times beside the one-stream step.
LOCKSTEP = (2, 4, 8)

#: The stages of a decode step that the split times, as (owner module, owner attribute or "", name).
STAGES = (("model", "GenerationSession", "_qkv"), ("cache", "RollingKvCache", "prefill_bulk"),
          ("attention", "", "window_attend"), ("model", "GenerationSession", "_residual_ffn"),
          ("tensor", "", "rope_table"))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(revision: str) -> tuple[str, Path]:
    """The commit of revision and a directory holding its src/ and perfbench/."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    tree = ROOT / ".bench_build" / "pairs" / commit[:12]
    if not (tree / "perfbench" / "run.py").is_file():
        archive = subprocess.run(["git", "archive", commit, "src", "perfbench"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return commit, tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `perfbench/run.py` run in tree."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles (linear interpolation), min, max and IQR of the runs, as recorded."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "min": round(min(values), 6),
            "max": round(max(values), 6), "iqr": round(q3 - q1, 6)}


def compare(runs: dict, better: str, bound: float) -> dict:
    """Both sides' summaries, the pair count the change wins, and the decision rule's verdicts."""
    lower = better == "lower"
    parent, change = summary(runs["parent"]), summary(runs["change"])
    wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
    gap = (parent["median"] - change["median"]) * (1 if lower else -1)  # > 0: the change is better
    pairs = len(runs["parent"])
    return {
        "parent": parent, "change": change, "change_better_pairs": wins,
        "median_change": round(change["median"] / parent["median"] - 1, 4) if parent["median"] else None,
        "gain": pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gap > parent["iqr"],
        "regression": -gap > bound * abs(parent["median"]),
    }


def measure(parent_tree: Path, change_tree: Path, pairs: int, seed: int, seconds: float, metrics: list) -> dict:
    sides = {"parent": parent_tree, "change": change_tree}
    results = {w: [] for w in WORKLOADS}
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in WORKLOADS:
            line = {side: run_once(sides[side], workload, seed + pair - 1, seconds) for side in order}
            results[workload].append(line)
            print(f"pair {pair} {workload}: " + ", ".join(
                f"{side} {line[side]['metrics']['latency_ms_p50']['value']:.4f} ms" for side in order),
                file=sys.stderr)
    out = {}
    for workload, lines in results.items():
        end_to_end = {}
        for metric in metrics:
            runs = {side: [round(line[side]["metrics"][metric["name"]]["value"], 6) for line in lines]
                    for side in sides}
            end_to_end[metric["name"]] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                                          **compare(runs, metric["better"], metric["bound"]), "runs": runs}
        out[workload] = {
            "pairs": pairs, "seeds": [seed + i for i in range(pairs)],
            "correct": all(line[side]["correct"] for line in lines for side in sides),
            "failed": {side: sum(line[side]["failed"] for line in lines) for side in sides},
            "attempted": {side: sum(line[side]["attempted"] for line in lines) for side in sides},
            "end_to_end": end_to_end,
        }
    return out


def step_calls(rw, weights, tokens) -> dict:
    """Python and C function calls of one toy decode step on a full window, as
    `sys.setprofile` sees them: exact where timings swing, though blind to
    ufunc calls and to numpy's indexing and arithmetic operators."""
    session = rw.GenerationSession(weights)
    session.prefill(tokens[:8])
    for token in tokens[8:40]:  # past the window, as the timed steps are
        session.forward_decode(token)
    counts = {"python": 0, "c": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            counts["c"] += 1

    sys.setprofile(profile)
    try:
        session.forward_decode(tokens[40])
    finally:
        sys.setprofile(None)
    return counts


def stage_split(src: Path, weight_path: Path, rounds: int = 9, steps: int = 80) -> dict:
    """Per-step microseconds of a toy decode step on a full window, in this process.

    Each step is timed as `decode_steady` times it: by `perfbench/clock.py`'s
    `Probe.time` with `decode_steady`'s probe shape, which runs the host-speed
    probe kernel after the step, so the next step starts after that work as
    in the benchmark (a back-to-back loop ranked cuts differently). The step
    is timed bare, then with each stage wrapped in a `time.perf_counter`
    accumulator. `rest` is the wrapped step less its stages and the wrappers'
    own cost, that is forward_chunk's bookkeeping, the final norm and the
    logits product. `lockstep_us` is a bare step of one session of 2, 4 and
    8 streams, whose rows share every product. `calls_per_step` is
    `step_calls`, counted before any stage is wrapped.
    """
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import importlib
    import numpy as np
    from clock import Probe
    rw = importlib.import_module("rollwin")
    if not weight_path.exists():
        rw.save_weights(rw.init_random(rw.PRESET_TOY, 1), weight_path)
    weights = rw.load_weights(weight_path)
    tokens = [int(t) for t in np.random.default_rng(0).integers(0, rw.PRESET_TOY.vocab_size, 40 + steps)]
    grid = np.random.default_rng(1).integers(0, rw.PRESET_TOY.vocab_size, (40 + steps, max(LOCKSTEP))).tolist()
    spent = {name: 0.0 for _, _, name in STAGES}
    host_probe = Probe(((1, 64, 256),), None)  # decode_steady's probe_shapes and probe_period_s

    def run(streams=1):
        inputs = tokens if streams == 1 else [row[:streams] for row in grid]  # per step: a token, or one per stream
        totals, per_stage = [], {name: [] for name in spent}
        for _ in range(rounds):
            session = rw.GenerationSession(weights, streams)
            session.prefill(inputs[:8] if streams == 1 else [list(stream) for stream in zip(*inputs[:8])])
            for step_input in inputs[8:40]:  # past the window: every step below runs on a full one
                session.forward_decode(step_input)
            spent.update(dict.fromkeys(spent, 0.0))
            total = sum(host_probe.time(session.forward_decode, step_input)[1] for step_input in inputs[40:])
            totals.append(total / steps * 1e6)
            for name in spent:
                per_stage[name].append(spent[name] / steps * 1e6)
        return statistics.median(totals), {name: statistics.median(v) for name, v in per_stage.items()}

    def timed(name, fn):
        def wrapper(*args):
            started = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - started
        return wrapper

    bare, _ = run()
    lockstep = {str(streams): round(run(streams)[0], 1) for streams in LOCKSTEP}
    calls = step_calls(rw, weights, tokens)
    for module, attribute, name in STAGES:
        owner = importlib.import_module(f"rollwin.{module}")
        owner = getattr(owner, attribute) if attribute else owner
        setattr(owner, name, timed(name, getattr(owner, name)))
    wrapped, stages = run()
    wrapped_calls = 4 * rw.PRESET_TOY.n_layers + 1
    probe, n = timed(STAGES[0][2], lambda: None), 100_000
    started = time.perf_counter()
    for _ in range(n):
        probe()
    overhead = (time.perf_counter() - started) / n * 1e6
    return {"step_us": round(bare, 1), "lockstep_us": lockstep,
            "stages_us": {k: round(v, 1) for k, v in stages.items()},
            "rest_us": round(wrapped - sum(stages.values()) - wrapped_calls * overhead, 1), "calls_per_step": calls}


def split_medians(entries: list[dict]) -> dict:
    """One side's split: the median of each figure over its processes, and their one call count."""
    out = {k: round(statistics.median(e[k] for e in entries), 1) for k in ("step_us", "rest_us")}
    for key in ("lockstep_us", "stages_us"):
        out[key] = {k: round(statistics.median(e[key][k] for e in entries), 1) for k in entries[0][key]}
    counts = [e["calls_per_step"] for e in entries]
    if any(c != counts[0] for c in counts):
        raise RuntimeError(f"call counts differ between processes of one tree: {counts}")
    out["calls_per_step"] = counts[0]
    return out


def split(parent_tree: Path, change_tree: Path, rounds: int) -> dict:
    weight_path = ROOT / ".bench_build" / "pairs" / "split-toy.mwdc"
    weight_path.unlink(missing_ok=True)
    runs = {"parent": [], "change": []}
    for i in range(rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            tree = parent_tree if side == "parent" else change_tree
            command = [sys.executable, __file__, "--stage-split", str(tree / "src"), str(weight_path)]
            runs[side].append(json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout))

    return {
        "method": stage_split.__doc__.split("\n\n")[0].strip() + " PRESET_TOY weights from one weight file "
                  "(init_random seed 1, saved once) loaded by each side's own load_weights; prefill 8 tokens, "
                  "32 warm-up steps, 80 timed steps, mean per step, median of 9 rounds per process. Each step "
                  "is timed in wall time by perfbench/clock.py's Probe.time with decode_steady's probe shape, which "
                  "runs the host-speed probe kernel after the step, as decode_steady does between its steps. "
                  "The figures are medians "
                  f"over {rounds} processes per side, sides alternating. lockstep_us is the bare step of one "
                  f"session of S streams, for S in {', '.join(map(str, LOCKSTEP))}, timed the same way over its own "
                  "tokens (default_rng(1)), one token per stream and step; a row costs lockstep_us[S] / S. "
                  "stages_us is per step: _qkv, prefill_bulk, "
                  "window_attend and _residual_ffn run once per layer (4), rope_table once per step. "
                  "calls_per_step counts the Python and C function calls of one such step with sys.setprofile "
                  "(the same in every process of a side), which does not see ufunc calls or numpy operators. "
                  "step_us_spread summarises each side's per-process step_us as the end-to-end metrics are "
                  "summarised; a step_us difference inside the parent's IQR is unresolved.",
        "parent": split_medians(runs["parent"]), "change": split_medians(runs["change"]),
        "step_us_spread": {side: summary([e["step_us"] for e in entries]) for side, entries in runs.items()},
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--split", type=int, default=0, metavar="ROUNDS", help="stage-split processes per side")
    parser.add_argument("--out", help="write the BENCH file here (default: stdout)")
    parser.add_argument("--stage-split", nargs=2, metavar=("SRC", "WEIGHTS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stage_split:
        print(json.dumps(stage_split(Path(args.stage_split[0]), Path(args.stage_split[1]))))
        return 0

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    (parent, parent_tree), (change, change_tree) = export(args.parent), export(args.change)
    import numpy as np
    report = {
        "change": git("log", "-1", "--format=%s", change),
        "parent": parent[:7], "change_commit": change[:7],
        "src_trees": {"parent": git("rev-parse", f"{parent}:src"), "change": git("rev-parse", f"{change}:src")},
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": f"tools/pairs.py: {args.pairs} pairs per workload, seeds {args.seed}-{args.seed + args.pairs - 1}, "
                    "parent first in odd pairs and change first in even pairs; each side in its own git archive "
                    f"export (src/ and perfbench/); in each pair the workloads ran in the order {', '.join(WORKLOADS)}, "
                    "the pair's two sides of each back to back. Summaries as in the tools/pairs.py docstring; "
                    f"a gain needs >= {MIN_PAIRS} pairs, >= 9/10 of them better and a median gap above the parent's IQR.",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "workloads": measure(parent_tree, change_tree, args.pairs, args.seed, seconds, benchmark["end_to_end"]),
    }
    report["claims"] = [f"{w} {m}" for w, entry in report["workloads"].items()
                        for m, e in entry["end_to_end"].items() if e["gain"]]
    report["regressions"] = [f"{w} {m}" for w, entry in report["workloads"].items()
                             for m, e in entry["end_to_end"].items() if e["regression"]]
    if args.split:
        report["decode_step_split"] = split(parent_tree, change_tree, args.split)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    bad = [w for w, e in report["workloads"].items() if not e["correct"] or any(e["failed"].values())]
    print(f"claims: {report['claims']}; regressions: {report['regressions']}; not correct or failed: {bad}",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
