"""Benchmark for connrules: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cv-clean --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

Run from anywhere; the program is imported from ``src/`` next to this
directory. One run measures one workload in this process, a closed loop with
one operation in flight. ``--trace 0`` prints the end-to-end metrics, and
``--trace 1`` records spans around calls into each layer and prints the
per-layer metrics. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of every run (environment, per-operation times, learner tasks, budget
failures) go to ``.perfbench-out/`` at the repository root. See README.md in
this directory for the workloads, the metrics and which layer moves which.
"""

from __future__ import annotations

import os

# numpy reads these when it is first imported: keep every BLAS single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostclock import MIN_SAMPLES, PROBE_REF_S, HostClock
from spans import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("cv-clean", "cv-noisy", "learn-pinned", "cli-files")
README_SEED = 7  # the README cohort: the noisy protocol and its pinned tasks
PLANTED = "2,5,2.0,low"
NOISE = 0.1
SETUP_REPEATS = 5
CLI_STEPS = ("synth", "mask", "train", "select", "build-task", "learn", "infer")
CLI_COHORTS = 10  # cli-files runs cohort seed mod 10; each has recorded outputs


@dataclass(frozen=True)
class Scale:
    n_per_class: int
    n_folds: int
    n_repeats: int


SCALES = {
    "full": Scale(100, 5, 10),
    "tiny": Scale(12, 2, 1),
}

# learner tasks of the noisy protocol, as (repeat, fold, task). learn-pinned
# solves T-heavy; T-budget (65-80 s) is reproduced by record_digests.py.
PINNED = {"T-heavy": (0, 1, 0), "T-budget": (7, 4, 0)}

# Time of one pass at full scale on a 2-core Xeon: a run makes
# max(1, round(seconds / PASS_S)) passes, so the work a run measures depends
# only on --seconds, never on the speed of the machine it runs on.
PASS_S = {"cv-clean": 7.5, "cv-noisy": 40.0, "learn-pinned": 16.0, "cli-files": 7.0}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.max": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_COUNTS = (
    "learner.enumerate_candidates.calls", "learner.candidates", "learner.learn.calls",
    "learner.nodes", "learner.nonoptimal", "forest.fit_forest.calls",
    "tree.fit_tree.calls", "cohort.load_cohort.calls", "trace.ops", "trace.spans",
)
BUSY = (
    "learner.enumerate_candidates", "learner.learn", "forest.fit_forest",
    "forest.predict_forest", "tree.fit_tree", "tree.predict_tree",
    "cohort.compute_mask", "cohort.apply_mask", "cohort.save_cohort",
    "cohort.load_cohort", "taskgen.build_examples", "taskgen.partition_tasks",
    "taskgen.context_from_weights", "taskgen.serialize_task", "taskgen.load_task",
    "selection.select_global", "inference.evaluate", "inference.predict",
    "crossval.fit_fold",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in BUSY:
        units[f"{name}.busy_s"] = "s"
    for name in PER_LAYER_COUNTS:
        units[name] = "count"
    units.update({
        "learner.search_s": "s",
        "learner.nodes_per_s": "1/s",
        "learner.nonoptimal_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for step in CLI_STEPS:
        units[f"cli.{step}_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def fold_digest(entry: dict, repeat: int) -> str:
    """Digest of one fold's report_to_obj entry, without its optimal flag,
    which learner.nonoptimal counts instead."""
    entry = dict(entry, repeat=repeat)
    del entry["optimal"]
    return sha256(json.dumps(entry, sort_keys=True))


def cohort(seed: int, n_per_class: int, noise: float):
    """The benchmark's cohort: the README's planted rule (2,5) < 2.0 -> low."""
    from connrules import PlantedEdge, edge, generate_synthetic
    return generate_synthetic(seed, n_per_class, [PlantedEdge(edge(2, 5), 2.0, "low")], noise)


def cv_config(noisy: bool, n_folds: int, n_repeats: int, base_seed: int = 0):
    """The README cross-validation protocol; the noisy one fits the
    reference tree and forest per fold."""
    from connrules.crossval import CVConfig
    from connrules.selection import SelectorConfig
    return CVConfig(
        n_repeats=n_repeats, n_folds=n_folds, base_seed=base_seed, pipeline="dt",
        selector=SelectorConfig(k_global=3), n_ad_subsets=3, keep_ratio=0.30,
        max_body_edges=2, fit_reference_models=noisy)


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

class Run:
    """State of one run: the tracer, operation times, learner outcomes and
    the output checks. Every operation is one fold, one task or one command."""

    def __init__(self, args, digests: dict):
        self.args = args
        self.workload = args.workload
        self.trace = bool(args.trace)
        self.scale = SCALES[args.scale]
        self.seed = args.seed
        self.digests = digests.get(digest_key(args))
        self.tracer = Tracer()
        self.clock = HostClock()
        self.setup_spans: list[tuple[float, float]] = []  # perf_counter intervals
        self.setup_measured: list[tuple[float, float]] = []  # (wall, reference) seconds
        self.op_spans: list[tuple[float, float]] = []
        self.op_failed: list[bool] = []
        self.pass_times: list[float] = []
        self.failures: list[str] = []
        self.tasks: list[dict] = []  # one entry per learner task solved
        self.candidates = 0
        self._solved: list = []

        self.tracer.observers["learner.learn"] = self._on_learn
        self.tracer.observers["learner.enumerate_candidates"] = self._on_enumerate

    def _on_learn(self, args, kwargs, result):
        self._solved.append((args[0], result))

    def _on_enumerate(self, args, kwargs, result):
        self.candidates += len(result)

    @property
    def op_times(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.op_spans]

    def set_up(self, build):
        self.clock.sample(MIN_SAMPLES)  # the host's speed around the set-up
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inputs = build()
            self.setup_spans.append((t0, perf_counter()))
        self.clock.sample(MIN_SAMPLES)
        return inputs

    def passes(self, run_pass) -> None:
        """Closed loop: run the pass count ``--seconds`` asks for, one
        operation in flight."""
        count = max(1, round(self.args.seconds / PASS_S[self.workload]))
        for k in range(count):
            t0 = perf_counter()
            run_pass(k)
            self.pass_times.append(perf_counter() - t0)
            self.clock.sample(MIN_SAMPLES)  # the host's speed, in traced runs too

    def end_op(self, label: str, t0: float, t1: float, problems: list[str]) -> None:
        self.op_spans.append((t0, t1))
        self.op_failed.append(bool(problems))
        self.failures += [f"{label}: {p}" for p in problems]

    def take_solved(self) -> list:
        """(task, LearnResult) of every learn call since the last take."""
        solved, self._solved = self._solved, []
        return solved

    def check_tasks(self, keys: list[tuple], solved: list) -> list[str]:
        """Record ``solved`` learner tasks under ``keys`` and check each: its
        score must recompute with learner.score, and pinned tasks must match
        the recorded outcome."""
        from connrules.learner import hypothesis_to_text, score
        problems = []
        if len(solved) != len(keys):
            return [f"expected {len(keys)} learner task(s), saw {len(solved)}"]
        specs = (self.digests or {}).get("tasks", {})
        for key, (task, res) in zip(keys, solved):
            name = ".".join(str(k) for k in key)
            entry = {"workload": self.workload, "task": name,
                     "nodes": res.nodes_expanded, "score": res.score.total,
                     "optimal": res.optimal}
            self.tasks.append(entry)
            if score(res.hypothesis, task) != res.score:
                problems.append(f"task {name}: reported score differs from learner.score")
            spec = specs.get(name, {})
            if "score" in spec and res.score.total != spec["score"]:
                problems.append(f"task {name}: score {res.score.total} != {spec['score']}")
            if "score_at_most" in spec and res.score.total > spec["score_at_most"]:
                problems.append(f"task {name}: score {res.score.total} > {spec['score_at_most']}")
            if ("hypothesis_sha256" in spec and
                    sha256(hypothesis_to_text(res.hypothesis)) != spec["hypothesis_sha256"]):
                problems.append(f"task {name}: hypothesis differs from the recorded one")
        return problems

    # -- results -----------------------------------------------------------

    def end_to_end(self, ref: bool = True) -> dict:
        """The end-to-end metrics, in reference seconds (see hostclock) or,
        with ``ref=False``, in wall seconds."""
        measure = self.clock.reference if ref else (lambda t0, t1: t1 - t0)
        ops = [measure(*span) for span in self.op_spans]
        setup = [measure(*span) for span in self.setup_spans]
        setup += [r if ref else w for w, r in self.setup_measured]
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ops) / sum(ops),
            "op_s.p50": statistics.median(ops),
            "op_s.max": max(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        t = self.tracer
        out = {f"{name}.busy_s": t.busy(name) for name in BUSY}
        for name in ("learner.enumerate_candidates", "learner.learn",
                     "forest.fit_forest", "tree.fit_tree", "cohort.load_cohort"):
            out[f"{name}.calls"] = t.calls(name)
        search = t.busy("learner.learn") - t.child_busy(
            "learner.learn", "learner.enumerate_candidates")
        nodes = sum(task["nodes"] for task in self.tasks)
        nonoptimal = sum(not task["optimal"] for task in self.tasks)
        out.update({
            "learner.candidates": self.candidates,
            "learner.search_s": search,
            "learner.nodes": nodes,
            "learner.nodes_per_s": nodes / search if search > 0 else 0.0,
            "learner.nonoptimal": nonoptimal,
            "learner.nonoptimal_ratio": nonoptimal / len(self.tasks) if self.tasks else 0.0,
        })
        for layer, own in t.layer_self().items():
            out[f"{layer}.self_s"] = own
        for step in CLI_STEPS:
            out[f"cli.{step}_s"] = t.busy(f"cli.{step}")
        wall = sum(self.op_times)
        out.update({
            "trace.wall_s": wall,
            "trace.ops": len(self.op_times),
            "trace.spans": len(t.spans),
            "trace.unattributed_s": wall - sum(t.self_times()),
        })
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def cv_workload(run: Run, noisy: bool) -> None:
    """The README cross-validation protocol, one repeat per pass, repeats in
    protocol order. The noisy run starts at repeat 0, which holds T-heavy; the
    clean one at repeat ``seed mod n_repeats``. An operation is one fold."""
    from connrules import crossval, learner

    scale = run.scale
    data = run.set_up(lambda: cohort(README_SEED, scale.n_per_class, NOISE if noisy else 0.0))
    tracer = run.tracer
    fold_starts: list[float] = []

    if run.trace:
        tracer.patch_imported(crossval)
        tracer.patch(learner, "enumerate_candidates", "learner.enumerate_candidates")
    else:
        tracer.patch(crossval, "learn", "learner.learn")  # outcomes for the checks
    tracer.patch(crossval, "fit_fold", "crossval.fit_fold")
    traced_fit_fold = crossval.fit_fold

    def fit_fold(*args, **kwargs):
        fold_starts.append(perf_counter())
        tracer.op = len(run.op_times) + len(fold_starts) - 1
        return traced_fit_fold(*args, **kwargs)

    crossval.fit_fold = fit_fold
    run_pipeline = tracer.wrap("crossval.run_pipeline", crossval.run_pipeline)
    fold_digests = (run.digests or {}).get("folds", {})

    first = 0 if noisy else run.seed % scale.n_repeats

    def one_repeat(k: int) -> None:
        r = (first + k) % scale.n_repeats
        config = cv_config(noisy, scale.n_folds, n_repeats=1, base_seed=r)
        fold_starts.clear()
        tracer.op = len(run.op_times)
        t0 = perf_counter()
        report = run_pipeline(config, data)
        t1 = perf_counter()
        bounds = [t0] + fold_starts[1:] + [t1]
        folds = crossval.report_to_obj(report)["folds"]
        solved = run.take_solved()
        for f, (fold, fr) in enumerate(zip(folds, report.folds)):
            in_fold = solved[3 * f:3 * f + 3]
            problems = run.check_tasks([(r, f, k) for k in range(3)], in_fold)
            if learner.union_hypotheses([res.hypothesis for _, res in in_fold]) != fr.hypothesis:
                problems.append("fold hypothesis is not the union of its task hypotheses")
            want = fold_digests.get(f"{r}.{f}")
            if want is not None and fold_digest(fold, r) != want:
                problems.append("report entry differs from the recorded digest")
            run.end_op(f"fold {r}.{f}", bounds[f], bounds[f + 1], problems)

    try:
        run.passes(one_repeat)
    finally:
        tracer.restore()


def build_pinned_task(scale: Scale, repeat: int, fold: int, task: int):
    """Rebuild one learner task of the noisy CV protocol through the public
    functions, exactly as crossval.fit_fold builds it."""
    from connrules import (
        TreeParams, apply_mask, build_examples, build_space, compute_mask, fit_tree,
        partition_tasks, select_global, stratified_folds, stratified_subsample,
        tree_importance)
    sub = stratified_subsample(cohort(README_SEED, scale.n_per_class, NOISE), 0.9, repeat)
    assignment = stratified_folds(sub, scale.n_folds, repeat)
    train = sub.subset([s.id for s in sub.subjects if assignment[s.id] != fold])
    mask = compute_mask(train, 0.30)
    vectors = apply_mask(train, mask)
    selected = select_global(tree_importance(fit_tree(vectors, TreeParams())), 3)
    examples = build_examples(vectors, selected, 1)
    space = build_space(selected, examples, 2)
    return partition_tasks(examples, space, 3, 1, seed=repeat).tasks[task]


def learn_pinned_workload(run: Run) -> None:
    """T-heavy, the pinned learner task of the noisy protocol, solved with
    learn at the default node budget. An operation is one solve."""
    from connrules import learner

    coords = PINNED["T-heavy"]
    task = run.set_up(lambda: build_pinned_task(run.scale, *coords))
    tracer = run.tracer
    if run.trace:
        tracer.patch(learner, "enumerate_candidates", "learner.enumerate_candidates")
    learn = tracer.wrap("learner.learn", learner.learn)

    def one_pass(_: int) -> None:
        tracer.op = len(run.op_times)
        t0 = perf_counter()
        learn(task)
        t1 = perf_counter()
        run.end_op("task " + ".".join(map(str, coords)), t0, t1,
                   run.check_tasks([coords], run.take_solved()))

    try:
        run.passes(one_pass)
    finally:
        tracer.restore()


def cli_argv(step: str, w: str, seed: int, n_per_class: int, model: str = "dt") -> list[str]:
    """The README walkthrough's command lines; the forest runs on the noisy
    cohort, where its tasks exhaust the node budget."""
    noisy = ["--noise", str(NOISE)] if model == "rf" else []
    return {
        "synth": ["synth", "--seed", str(seed), "--n-per-class", str(n_per_class),
                  "--planted", PLANTED, *noisy, "--out", w],
        "mask": ["mask", "--cohort", f"{w}/cohort.json", "--keep-ratio", "0.30",
                 "--out", f"{w}/mask.json"],
        "train": ["train", "--cohort", f"{w}/cohort.json", "--mask", f"{w}/mask.json",
                  "--model", model, "--out", f"{w}/{model}.json"],
        "select": ["select", "--mode", "global", "--model", f"{w}/{model}.json", "--k", "3",
                   "--out", f"{w}/selected.json"],
        "build-task": ["build-task", "--cohort", f"{w}/cohort.json", "--mask",
                       f"{w}/mask.json", "--selected", f"{w}/selected.json",
                       "--ad-subsets", "3", "--out-dir", f"{w}/tasks"],
        "learn": ["learn", "--task", f"{w}/tasks/task_000.las",
                  "--task", f"{w}/tasks/task_001.las", "--task", f"{w}/tasks/task_002.las",
                  "--out", f"{w}/hypothesis.json"],
        "infer": ["infer", "--hypothesis", f"{w}/hypothesis.json", "--cohort",
                  f"{w}/cohort.json", "--out-dir", f"{w}/infer"],
    }[step]


CLI_IMPORT = """
from time import perf_counter
from hostclock import MIN_SAMPLES, HostClock
clock = HostClock()
clock.sample(MIN_SAMPLES)
t0 = perf_counter()
import connrules.cli
t1 = perf_counter()
clock.sample(MIN_SAMPLES)
print(t1 - t0, clock.reference(t0, t1))
"""

# which command wrote each checked file
CLI_FILES = {
    "tasks/task_000.las": "build-task", "tasks/task_001.las": "build-task",
    "tasks/task_002.las": "build-task", "hypothesis.json": "learn",
    "infer/predictions.csv": "infer", "infer/metrics.json": "infer",
}


def cli_workload(run: Run) -> None:
    """The README CLI walkthrough, in process, into a fresh directory per
    pass. An operation is one command."""
    from connrules import cli, learner

    # Set-up is what each command of the walkthrough pays first when run from
    # a shell: a fresh interpreter importing connrules.cli, timed inside it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    run.clock.sample(MIN_SAMPLES)
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", CLI_IMPORT], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        wall, ref = map(float, out.split())
        run.setup_measured.append((wall, ref))
    tracer = run.tracer
    if run.trace:
        tracer.patch_imported(cli)
        tracer.patch(learner, "enumerate_candidates", "learner.enumerate_candidates")
    else:
        tracer.patch(cli, "learn", "learner.learn")  # outcomes for the checks
    commands = {step: tracer.wrap(f"cli.{step}", cli.main) for step in CLI_STEPS}
    work_root = OUT_DIR / f"cli-files-{os.getpid()}"
    file_digests = (run.digests or {}).get("files", {})

    def walkthrough(k: int) -> None:
        work = work_root / f"pass{k}"
        shutil.rmtree(work, ignore_errors=True)
        w = str(work)
        times, problems = {}, {step: [] for step in CLI_STEPS}
        for step in CLI_STEPS:
            tracer.op = len(run.op_times) + len(times)
            argv = cli_argv(step, w, cohort_seed(run.args), run.scale.n_per_class,
                            run.args.cli_model)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                code = commands[step](argv)
                times[step] = (t0, perf_counter())
            if step == "learn":
                solved = run.take_solved()
                problems[step] += run.check_tasks([(k, "learn", t) for t in range(3)], solved)
                if code == 3 and any(not res.optimal for _, res in solved):
                    code = 0  # budget exhausted: counted as non-optimal, not failed
                if solved:
                    union = learner.union_hypotheses([res.hypothesis for _, res in solved])
                    written = learner.hypothesis_from_json((work / "hypothesis.json").read_text())
                    if written != union:
                        problems[step].append("hypothesis.json is not the union of the tasks")
            if code != 0:
                problems[step].append(f"exit code {code}")
        for rel, want in file_digests.items():
            path = work / rel
            if not path.is_file():
                problems[CLI_FILES[rel]].append(f"{rel} missing")
            elif sha256(path.read_bytes()) != want:
                problems[CLI_FILES[rel]].append(f"{rel} differs from the recorded digest")
        for step in CLI_STEPS:
            run.end_op(f"walkthrough {k} {step}", *times[step], problems[step])
        shutil.rmtree(work, ignore_errors=True)

    try:
        run.passes(walkthrough)
    finally:
        tracer.restore()
        shutil.rmtree(work_root, ignore_errors=True)


def digest_key(args) -> str | None:
    """Key of the recorded outputs a run is checked against. The CV and
    pinned workloads run the README cohort whatever the seed; the CLI
    walkthrough runs cohort ``seed mod 10``, and only its default walkthrough
    has recorded outputs."""
    if args.workload != "cli-files":
        return f"{args.workload}/{args.scale}"
    if args.cli_model == "dt":
        return f"cli-files/{args.scale}/seed{cohort_seed(args)}"
    return None


def cohort_seed(args) -> int:
    return args.seed % CLI_COHORTS if args.workload == "cli-files" else README_SEED


def run_workload(args, digests: dict) -> int:
    run = Run(args, digests)
    # spans, not the host clock, time the traced run: probes would land in them
    with contextlib.nullcontext() if run.trace else run.clock:
        if args.workload == "cv-clean":
            cv_workload(run, noisy=False)
        elif args.workload == "cv-noisy":
            cv_workload(run, noisy=True)
        elif args.workload == "learn-pinned":
            learn_pinned_workload(run)
        else:
            cli_workload(run)

    if run.trace:
        values, units = run.per_layer(), PER_LAYER
    else:
        values, units = run.end_to_end(), END_TO_END
        wall = run.end_to_end(ref=False)
    failed = sum(run.op_failed)
    budget_failures = [t for t in run.tasks if not t["optimal"]]
    result = {
        "correct": failed == 0,
        "attempted": len(run.op_times),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "cohort_seed": cohort_seed(args),
        "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
        "cli_model": args.cli_model,
        "environment": environment(),
        "setup_times_s": [t1 - t0 for t0, t1 in run.setup_spans]
                         + [wall for wall, _ in run.setup_measured],
        "op_times_s": run.op_times,
        "op_reference_s": [run.clock.reference(*span) for span in run.op_spans],
        "mean_probe_s": run.clock.mean_probe_s(),
        "pass_times_s": run.pass_times, "failures": run.failures,
        "budget_failures": budget_failures, "learner_tasks": run.tasks, "result": result,
    }
    Path(f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if run.trace:
        run.tracer.write_jsonl(f"{stem}.spans.jsonl")

    env = details["environment"]
    print(f"# {args.workload} seed={args.seed} (cohort seed {cohort_seed(args)}) "
          f"scale={args.scale} trace={args.trace}: {len(run.op_times)} ops in "
          f"{len(run.pass_times)} pass(es); nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    if not run.trace:
        print(f"# above in reference seconds; probe {1e3 * run.clock.mean_probe_s():.3f} ms "
              f"here, {1e3 * PROBE_REF_S:.3f} ms on the reference host. In wall seconds:")
        for name in ("setup_s", "ops_per_s", "op_s.p50", "op_s.max"):
            print(f"{'wall.' + name:40s} {wall[name]:>16.6g} {END_TO_END[name]}")
    print(f"{'failed_share':40s} {failed:>7d} of {len(run.op_times)} operations")
    print(f"{'budget_failures':40s} {len(budget_failures):>7d} of {len(run.tasks)} learner tasks")
    for task in budget_failures:
        print(f"budget failure: {task['workload']} task {task['task']} "
              f"nodes={task['nodes']} score={task['score']}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Every workload, untraced then traced, each in a fresh process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    ok = True
    rows = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale, "--digests", str(args.digests),
                   "--cli-model", args.cli_model]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{workload} trace={trace}: no result (exit code {proc.returncode})")
                ok = False
                break
            results[trace] = json.loads(lines[-1])
            ok = ok and results[trace]["correct"]
        if len(results) == 2:
            # wall per operation over mean probe time, so host drift between
            # the two runs cancels
            per_op = []
            for trace in (0, 1):
                details = json.loads((OUT_DIR / (
                    f"{workload}-{args.scale}-seed{args.seed}-trace{trace}.json")).read_text())
                per_op.append(statistics.mean(details["op_times_s"]) / details["mean_probe_s"])
            rows.append((workload, per_op[1] / per_op[0] - 1))
    print("# tracing overhead: traced / untraced wall per op, each over its mean probe, - 1")
    for workload, overhead in rows:
        print(f"{workload:14s} {100 * overhead:+.2f} %")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=README_SEED,
                        help="cv-clean's first repeat and cli-files' cohort, both mod 10; "
                             "cv-noisy and learn-pinned always run the README cohort")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="sets the pass count: max(1, round(seconds / pass time))")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full",
                        help="'tiny' is for the benchmark's own smoke test")
    parser.add_argument("--digests", type=Path, default=DEFAULT_DIGESTS,
                        help="recorded outputs to check against")
    parser.add_argument("--cli-model", choices=("dt", "rf"), default="dt",
                        help="cli-files' train --model; rf runs on the noise 0.1 cohort")
    args = parser.parse_args(argv)

    if not (SRC / "connrules" / "__init__.py").is_file():
        print(f"error: no connrules source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    digests = json.loads(args.digests.read_text()) if args.digests.is_file() else {}
    return run_workload(args, digests)


if __name__ == "__main__":
    sys.exit(main())
