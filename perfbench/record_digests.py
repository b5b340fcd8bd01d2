"""Record the outputs the benchmark checks against.

    python3 perfbench/record_digests.py          # writes perfbench/digests.json

Runs each CV protocol once at full length (10 repeats x 5 folds) on the README
cohort (seed 7) through run_pipeline, the README CLI walkthrough on each of
cohort seeds 0-9, and the two pinned learner tasks of the noisy protocol,
printing T-budget's candidates, nodes and score. Takes about twelve minutes on
two cores. Re-record only when an output is meant to change, and say which
bytes changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))

from connrules import crossval, learner  # noqa: E402
from connrules.cli import main as cli_main  # noqa: E402

FULL = run.SCALES["full"]


def cv_folds(noisy: bool) -> dict:
    config = run.cv_config(noisy, FULL.n_folds, FULL.n_repeats)
    data = run.cohort(run.README_SEED, FULL.n_per_class, run.NOISE if noisy else 0.0)
    report = crossval.run_pipeline(config, data)
    obj = crossval.report_to_obj(report)
    nonoptimal = [f"{f['repeat']}.{f['fold']}" for f in obj["folds"] if not f["optimal"]]
    print(f"{'W1' if noisy else 'W2'}: {len(obj['folds'])} folds, not optimal: {nonoptimal}")
    return {f"{f['repeat']}.{f['fold']}": run.fold_digest(f, f["repeat"]) for f in obj["folds"]}


def pinned(coords) -> tuple:
    task = run.build_pinned_task(FULL, *coords)
    res = learner.learn(task)
    print(f"task {coords}: {len(learner.enumerate_candidates(task))} candidates, "
          f"{res.nodes_expanded} nodes, optimal={res.optimal}, score={res.score.total}")
    return res


def cli_files(seed: int) -> dict:
    work = run.OUT_DIR / "record-cli"
    shutil.rmtree(work, ignore_errors=True)
    for step in run.CLI_STEPS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(run.cli_argv(step, str(work), seed, FULL.n_per_class))
        if code == 3 and step == "learn":
            print(f"cli-files seed {seed}: budget exhausted in learn")
        elif code != 0:
            raise SystemExit(f"{step} exited {code}")
    out = {rel: run.sha256((work / rel).read_bytes()) for rel in run.CLI_FILES}
    shutil.rmtree(work)
    return out


def main() -> None:
    heavy = pinned(run.PINNED["T-heavy"])
    budget = pinned(run.PINNED["T-budget"])
    tasks = {
        "0.1.0": {"score": heavy.score.total,
                  "hypothesis_sha256": run.sha256(learner.hypothesis_to_text(heavy.hypothesis))},
        "7.4.0": {"score_at_most": budget.score.total},
    }
    digests = {f"cli-files/full/seed{seed}": {"files": cli_files(seed)}
               for seed in range(run.CLI_COHORTS)}
    digests.update({
        "learn-pinned/full": {"tasks": tasks},
        "cv-clean/full": {"folds": cv_folds(noisy=False)},
        "cv-noisy/full": {"folds": cv_folds(noisy=True), "tasks": tasks},
    })
    run.DEFAULT_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.DEFAULT_DIGESTS}")


if __name__ == "__main__":
    main()
