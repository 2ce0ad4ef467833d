"""A catalogue of mutants of ``src/``, each with the tests known to kill it.

    python3 tests/mutants.py               # every mutant against its killers
    python3 tests/mutants.py --full        # every mutant against all of Tier-1
    python3 tests/mutants.py ID [ID ...]   # only these mutants

A mutant replaces one exact text of one file with another. The runner copies
``src/``, ``tests/``, ``bench/``, ``pyproject.toml`` and ``BENCHMARK.json``
(which ``bench/test_bench.py`` reads) into a temporary directory, and first
checks that every mutant's old text occurs there exactly once and that every
killer (with ``--full``, every test) passes on the unmutated copy. It then
applies each mutant in turn to its copy of the file, runs pytest on it (its
killers under ``-x``, or with ``--full`` the whole suite, counting the
failures), and restores the file. A mutant survives when every test it runs
passes.

An equivalent mutant computes the same numbers as the source, so no test can
kill it; it is listed so that no one hunts for a killer again. Its text is
checked on every run, and with ``--full`` its survival too: a killed
"equivalent" mutant is not one.

It prints one line per mutant and exits 1 if a mutant's old text does not
occur exactly once, a killer is missing or fails on the unmutated tree, or a
mutant that is not equivalent survives. pytest does not collect this file
(its name does not start with ``test_``); it is not a Tier-1 step, but the
``mutants`` job of ``.github/workflows/tier1.yml`` runs it, killers only, on
every push and pull request, so a test deletion that lets a mutant survive
fails there.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    why: str
    killers: tuple[str, ...] = ()
    equivalent: bool = False


ENV, TRAINER, REWARDS, OBJECTIVE, CLI, METRICS = (
    f"src/conciserl/{m}.py" for m in ("env", "trainer", "rewards", "objective", "cli", "metrics")
)
T_ENV, T_BUDGETS, T_TRAINER = "tests/test_env.py", "tests/test_budgets.py", "tests/test_trainer.py"
T_CHOOSE = "tests/test_metrics.py::TestChooseEqualsChoiceLoop"

MUTANTS = [
    # The first chunk of a large batch, stepped a lockstep pass.
    Mutant(
        "step-state-compacted-reversed",
        ENV,
        "pcg, seeds = [a[keep] for a in pcg], None",
        "pcg, seeds = [a[keep[::-1]] for a in pcg], None",
        "the carried PCG64 states must stay aligned with the live rows they are compacted with",
        (f"{T_ENV}::TestSplitFirstChunk::test_scatter_edges[9]",),
    ),
    Mutant(
        "step-seeds-after-the-step",
        ENV,
        "            seeds = _seeds(*pcg, words[k]) if t == _FIRST_CHUNK - 1 else seeds\n"
        "            pcg[:2] = _step(*pcg)\n",
        "            pcg[:2] = _step(*pcg)\n"
        "            seeds = _seeds(*pcg, words[k]) if t == _FIRST_CHUNK - 1 else seeds\n",
        "the hand-off's seed words come from the state before pass 15's step; one step late every continued "
        "stream skips a double",
        (f"{T_ENV}::TestSplitFirstChunk::test_scatter_edges[17]",),
    ),
    Mutant(
        "step-seeds-one-pass-early",
        ENV,
        "if t == _FIRST_CHUNK - 1 else seeds",
        "if t == _FIRST_CHUNK - 2 else seeds",
        "seed words taken a pass early continue every stream one double too soon",
        (f"{T_ENV}::TestSplitFirstChunk::test_scatter_edges[17]",),
    ),
    Mutant(
        "step-seeds-not-compacted",
        ENV,
        "None if seeds is None else seeds[keep]",
        "seeds",
        "seed words taken at pass 15 must be compacted with the rollouts that finish there",
        (f"{T_ENV}::TestSplitFirstChunk::test_scatter_edges[17]",),
    ),
    Mutant(
        "step-without-increment",
        ENV,
        "    hi, lo = _mul128(hi, lo, _STEP)\n    lo += inc_lo\n    hi += inc_hi\n    hi += lo < inc_lo\n",
        "    hi, lo = _mul128(hi, lo, _STEP)\n",
        "an LCG step is M·s + inc; without inc every stepped double is wrong",
        (f"{T_ENV}::TestFirstChunk::test_equals_default_rng",),
    ),
    Mutant(
        "size-rule-every-batch-steps",
        ENV,
        "if n < _BLOCK_ROLLOUTS // 2 else (None, None)",
        "if n < 0 else (None, None)",
        "a training step's 160 or 320 rollouts draw their chunk in one call: stepping them per pass measured "
        "0.70-0.95x, and no correctness test sees it",
        (
            f"{T_ENV}::TestSampleGroup::test_blocks_are_cut_by_rollout_count_alone[16-1]",
            f"{T_ENV}::TestSplitFirstChunk::test_split_blocks_equal_token_reference[64]",
            f"{T_ENV}::TestFirstChunk::test_one_generator_per_rollout_longer_than_the_first_chunk",
        ),
    ),
    Mutant(
        "size-rule-no-batch-steps",
        ENV,
        "if n < _BLOCK_ROLLOUTS // 2 else (None, None)",
        "if n >= 0 else (None, None)",
        "a large batch must not compute the whole first chunk for rollouts that never read it",
        (
            f"{T_ENV}::TestSampleGroup::test_blocks_are_cut_by_rollout_count_alone[64-1]",
            f"{T_BUDGETS}::test_first_chunk_doubles_of_a_converged_batch_within_budget",
        ),
    ),
    Mutant(
        "size-rule-edge-inclusive",
        ENV,
        "if n < _BLOCK_ROLLOUTS // 2 else (None, None)",
        "if n <= _BLOCK_ROLLOUTS // 2 else (None, None)",
        "a batch of exactly _BLOCK_ROLLOUTS // 2 rollouts steps its streams",
        (f"{T_ENV}::TestSplitFirstChunk::test_split_blocks_equal_token_reference[8]",),
    ),
    # PCG64 seeding and output, shared by both ways of drawing the first chunk.
    Mutant(
        "seeded-increment-carry-bit-62",
        ENV,
        "(w2 << 1) | (w3 >> 63)",
        "(w2 << 1) | (w3 >> 62)",
        "the increment is the seed's last two words shifted left by one as one 128-bit number",
        (f"{T_ENV}::TestFirstChunk::test_equals_default_rng",),
    ),
    Mutant(
        "seeded-init-words-swapped",
        ENV,
        "    x_lo = words[:, 1] + inc_lo\n    return words[:, 0] + inc_hi",
        "    x_lo = words[:, 0] + inc_lo\n    return words[:, 1] + inc_hi",
        "the seed's first word is init's high word, the second its low one",
        (f"{T_ENV}::TestFirstChunk::test_equals_default_rng",),
    ),
    Mutant(
        "double-rotation-halves-xored",
        ENV,
        "    x |= shift\n",
        "    x ^= shift\n",
        "the rotation's halves are joined by or; xor differs only at a rotation of 0, where they coincide",
        (f"{T_ENV}::TestFirstChunk::test_rotation_by_zero",),
    ),
    Mutant(
        "double-shift-unmasked",
        ENV,
        "    shift &= 63\n",
        "",
        "equivalent: at a rotation of 0 the masked shift is 0, which ors x into itself, and the unmasked one 64, "
        "which numpy defines to give 0: both leave x; the mask stays so that the code does not rely on that",
        equivalent=True,
    ),
    # SeedSequence's hash of the key, run once per batch.
    Mutant(
        "seed-zero-gives-no-word",
        ENV,
        "range(0, max(k.bit_length(), 1), 32)",
        "range(0, k.bit_length(), 32)",
        "a key element of 0 is one entropy word, not none",
        (f"{T_ENV}::TestGenerators::test_edge_elements[1]",),
    ),
    Mutant(
        "seed-elements-truncated-to-one-word",
        ENV,
        "range(0, max(k.bit_length(), 1), 32)",
        "range(0, 1)",
        "a key element past 2^32 - 1 is several entropy words",
        (f"{T_ENV}::TestGenerators::test_edge_elements[1]",),
    ),
    Mutant(
        "seed-long-entropy-skips-a-word",
        ENV,
        "for word in entropy[_POOL_SIZE : len(words) + 2]:",
        "for word in entropy[_POOL_SIZE + 1 : len(words) + 2]:",
        "every entropy word past the pool's four is mixed into it",
        (f"{T_ENV}::TestGenerators::test_edge_elements[3]",),
    ),
    # The opening lockstep (whole-batch lockstep and its (problem, state) tables).
    Mutant(
        "lockstep-threshold-at-rollout-cell",
        ENV,
        "        live = u < hi[c]\n",
        "        live = u < hi[s]\n",
        "thresholds are read at the (problem, state) cell, not the (rollout, state) one",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "lockstep-problem-cell-not-advanced",
        ENV,
        "        s += work\n        c += work\n        keep = live.nonzero()[0]\n",
        "        s += work\n        keep = live.nonzero()[0]\n",
        "a WORK exit moves both the rollout's and the problem's cell",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "lockstep-no-cap-work-count",
        ENV,
        "            cw += u < edge[c]  # a WORK token at w_cap, which keeps the state\n",
        "            pass\n",
        "WORK tokens at w_cap keep the state and must still be counted",
        (f"{T_ENV}::TestFirstChunkCursor::test_filler_run_after_the_cursor_at_w_cap",),
    ),
    Mutant(
        "lockstep-cap-work-skipped-on-pass-w_cap",
        ENV,
        "if t >= n_states - 1:",
        "if t > n_states - 1:",
        "a rollout can reach w_cap on pass w_cap - 1 and make a WORK token there on pass w_cap itself",
        (f"{T_ENV}::TestSplitFirstChunk::test_scatter_edges[16]",),
    ),
    Mutant(
        "lockstep-work-test-inclusive",
        ENV,
        "        work = u < lo[c]\n",
        "        work = u <= lo[c]\n",
        "a uniform exactly on a state's WORK edge is no WORK token",
        (f"{T_ENV}::TestFirstChunkCursor::test_uniform_on_the_work_edge[0-0.0]",),
    ),
    Mutant(
        "no-cap-work-edge",
        ENV,
        "    edge[:, -1], lo[:, -1] = cum[:, -1, 0], -1.0\n",
        "    lo[:, -1] = -1.0\n",
        "at w_cap a WORK token keeps the state and is counted against its own edge",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "edge-is-lo",
        ENV,
        "cum[..., 1].reshape(-1), np.full(cum.shape[:2], -1.0)",
        "cum[..., 1].reshape(-1), cum[..., 0].copy()",
        "below w_cap the edge is -1, so a WORK exit there is never counted as a w_cap WORK token",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    # The hand-off: a stepped batch's first generator-stage chunk in numpy.
    Mutant(
        "handoff-seeds-from-the-last-state",
        ENV,
        "seeds = _seeds(hi[-2], lo[-2], inc_hi, inc_lo, words)",
        "seeds = _seeds(hi[-1], lo[-1], inc_hi, inc_lo, words)",
        "a PCG64 seeded from the state of a chunk's last double would skip the next one",
        (
            f"{T_ENV}::TestFirstChunk::test_every_handoff_width_equals_default_rng",
            f"{T_ENV}::TestSplitFirstChunk::test_handoff_chunk_widths[49-512]",
        ),
    ),
    Mutant(
        "handoff-seeds-not-filtered",
        ENV,
        "rows, part = rows[going], part[going] if rngs is None else part",
        "rows, part = rows[going], part",
        "the seed words a slice's chunk returns must be filtered with the rollouts that go on past it",
        (f"{T_ENV}::TestSplitFirstChunk::test_handoff_chunk_widths[49-512]",),
    ),
    Mutant(
        "handoff-chunk-for-every-batch",
        ENV,
        "if stepped and offset == width:",
        "if offset == width:",
        "a small batch seeds its generators at the hand-off, as before: drawing its chunk in numpy measured 0.93x "
        "on a converged desk batch, and no correctness test sees it",
        (
            f"{T_ENV}::TestFirstChunk::test_one_generator_per_rollout_longer_than_the_first_chunk",
            f"{T_ENV}::TestSampleGroup::test_blocks_are_cut_by_rollout_count_alone[8-16384]",
        ),
    ),
    # The generator stage.
    Mutant(
        "generators-for-the-whole-batch",
        ENV,
        "    for b in range(0, go.size, _BLOCK_ROLLOUTS):\n"
        "        rows, part, rngs = go[b : b + _BLOCK_ROLLOUTS], seeds[b : b + _BLOCK_ROLLOUTS], None",
        "    for b in range(0, go.size, go.size or 1):\n        rows, part, rngs = go, seeds, None",
        "_BLOCK_ROLLOUTS bounds the generators alive at once; the same streams, but 3.4 MB traced",
        (f"{T_TRAINER}::TestSampleBatchMemory::test_initial_policy_eval_batch",),
    ),
    Mutant(
        "generator-problem-cell-not-advanced",
        ENV,
        "                s += work\n                c += work\n",
        "                s += work\n",
        "a WORK exit in a generator's chunk moves the problem's cell too",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "generator-no-cap-work-count",
        ENV,
        "                cap_work[r] += ((ur < edge[c][:, None]) & (columns < j[:, None])).sum(axis=1)\n",
        "",
        "WORK tokens at w_cap in a generator's chunk must be counted",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "generator-cap-work-past-the-exit",
        ENV,
        "((ur < edge[c][:, None]) & (columns < j[:, None])).sum(axis=1)",
        "(ur < edge[c][:, None]).sum(axis=1)",
        "only the WORK tokens before a rollout's exit belong to the pass",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "generator-cap-work-at-the-exit",
        ENV,
        "(columns < j[:, None])).sum(axis=1)",
        "(columns <= j[:, None])).sum(axis=1)",
        "equivalent: the exit uniform is never below edge (-1 below w_cap; at w_cap only an answer or the "
        "2.0 sentinel exits)",
        equivalent=True,
    ),
    Mutant(
        "generator-read-uniforms-kept",
        ENV,
        "                np.copyto(ur, np.nan, where=columns <= j[more][:, None])\n",
        "",
        "a pass must not read again the uniforms earlier passes consumed",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "generator-going-on-strict",
        ENV,
        "(left[state[rows]] >= offset)",
        "(left[state[rows]] > offset)",
        "a rollout whose state's left is at the chunk's end goes on into the next chunk",
        (f"{T_ENV}::TestSampleGroup::test_every_group_size",),
    ),
    Mutant(
        "generator-more-on-the-last-column",
        ENV,
        "more = work & (j + 1 < chunk)",
        "more = work & (j + 1 <= chunk)",
        "equivalent: a WORK exit on the chunk's last column takes one more pass that reads only the sentinel, "
        "and the going-on test reads the chunk's end as it reads l_max",
        equivalent=True,
    ),
    # The walk's outcomes: eval's product, and the rule both products share.
    Mutant(
        "outcomes-length-without-answer",
        ENV,
        "    lengths = left[state] + answered\n",
        "    lengths = left[state]\n",
        "an answered rollout's length counts its answer token: the token it left its last state at, plus one",
        (
            f"{T_ENV}::TestSampleOutcomes::test_equals_sample_batch[initial-8x1]",
            f"{T_TRAINER}::TestSameNumbersAsReferences::test_desk_run_and_eval",
        ),
    ),
    Mutant(
        "outcomes-answered-inclusive",
        ENV,
        "    answered = left[state] < l_max\n",
        "    answered = left[state] <= l_max\n",
        "a rollout whose last state is left at l_max was truncated there, not answered",
        (
            f"{T_ENV}::TestSampleOutcomes::test_equals_sample_batch[initial-8x1]",
            f"{T_ENV}::TestSampleGroup::test_every_group_size",
        ),
    ),
    Mutant(
        "outcomes-truncated-is-answered",
        ENV,
        "for a in (correct, ~answered, lengths)",
        "for a in (correct, answered, lengths)",
        "eval's truncated flags are the record's: the rollouts that did not answer",
        (f"{T_ENV}::TestSampleOutcomes::test_equals_sample_batch[initial-8x1]",),
    ),
    Mutant(
        "outcomes-unchecked",
        ENV,
        "    if not 1 <= lengths.min() <= lengths.max() <= l_max or (correct & ~answered).any():\n",
        "    if False:\n",
        "eval's outcomes are checked as a record is: lengths in [1, l_max], no truncated rollout correct",
        (f"{T_ENV}::TestSampleOutcomes::test_checks_the_lengths[-1]",),
    ),
    # majority@k's draws: numpy's Generator.choice, for every row at once.
    Mutant(
        "choose-floyd-collision-keeps-the-value",
        METRICS,
        "    for i in range(1, k):\n",
        "    for i in range(1, 1):\n",
        "Floyd's sample takes j where the drawn value was drawn already",
        (f"{T_CHOOSE}::test_eval_sweep_shape[16]",),
    ),
    Mutant(
        "choose-swap-words-not-drawn",
        METRICS,
        "rows * (2 * k - 1)",
        "rows * k",
        "numpy draws the shuffle's k - 1 words after Floyd's k although the set does not depend on them; "
        "a row's words follow the row before's swap words, so at k > 1 the cut count breaks the table's shape",
        (f"{T_CHOOSE}::test_eval_sweep_shape[4]",),
    ),
    Mutant(
        "choose-held-word-not-left",
        METRICS,
        '"has_uint32": (total - held) % 2',
        '"has_uint32": 0',
        "an odd word count leaves the high half of the last 64-bit output held for the next 32-bit draw; only "
        "the generator-state check sees it, since eval seeds a fresh generator for each k",
        (f"{T_CHOOSE}::test_eval_sweep_shape[4]",),
    ),
    Mutant(
        "choose-held-word-ignored",
        METRICS,
        'held, total = saved["has_uint32"], ',
        "held, total = 0, ",
        "a generator holding the high half of its last 64-bit output draws it as its next 32-bit word",
        (f"{T_CHOOSE}::test_shapes[256-16-held]",),
    ),
    Mutant(
        "choose-no-rejection-check",
        METRICS,
        "    if ((m & 0xFFFFFFFF) < (2**32 % bound)[:, None]).any():\n",
        "    if False:\n",
        "where Lemire's method rejects a word numpy draws another, so the table must take numpy's loop",
        (f"{T_CHOOSE}::test_rejected_draw_takes_the_loop",),
    ),
    # Training and its checks.
    Mutant(
        "fold-truncated-as-correct",
        TRAINER,
        "map(Group, batch.problem_ids, batch.lengths, correct)",
        "map(Group, batch.problem_ids, batch.lengths, batch.truncated)",
        "the buffer folds the correct rollouts' lengths",
        (f"{T_TRAINER}::TestTrainStep::test_buffer_reflects_batch",),
    ),
    Mutant(
        "fold-ids-reversed",
        TRAINER,
        "map(Group, batch.problem_ids, batch.lengths, correct)",
        "map(Group, batch.problem_ids[::-1], batch.lengths, correct)",
        "each problem's row is folded into its own buffer entry",
        (f"{T_TRAINER}::TestSameNumbersAsReferences::test_desk_run_and_eval",),
    ),
    Mutant(
        "shape-threshold-exclusive",
        REWARDS,
        "batch.lengths > thr[:, None]",
        "batch.lengths >= thr[:, None]",
        "a correct rollout at the threshold is concise: the tier comparison is inclusive",
        ("tests/test_rewards.py::TestWholeBatchEqualsScalar::test_hand_built_records",),
    ),
    Mutant(
        "gradient-tie-to-clipped",
        OBJECTIVE,
        "np.where(unclipped_val <= clipped_val, unclipped_val, 0.0)",
        "np.where(unclipped_val < clipped_val, unclipped_val, 0.0)",
        "at ratio 1 the clipped and unclipped terms tie, and the gradient takes the unclipped branch",
        ("tests/test_objective.py::TestGradient::test_matches_finite_differences",),
    ),
    Mutant(
        "replay-no-solved-count-check",
        CLI,
        'if cur["solved_count"] < prev["solved_count"]:',
        "if False:",
        "replay must refuse a log whose solved_count falls",
        ("tests/test_cli.py::TestReplay::test_solved_count_falling",),
    ),
]


def copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache", ".bench_runs")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy2(ROOT / name, dst / name)


def pytest(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)


def failures(out: str) -> int:
    """The failed and errored tests of a pytest summary line."""
    summary = out.strip().splitlines()[-1] if out.strip() else ""
    return sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    parser.add_argument("--full", action="store_true", help="run the whole suite against each mutant")
    args = parser.parse_args(argv)
    by_id = {m.id: m for m in MUTANTS}
    if len(by_id) != len(MUTANTS):
        parser.error("the catalogue repeats a mutant id")
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_id[i] for i in args.ids] if args.ids else MUTANTS
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        texts = {m.file: (root / m.file).read_text() for m in chosen}
        for m in chosen:
            if texts[m.file].count(m.old) != 1:
                print(f"STALE     {m.id}: its old text occurs {texts[m.file].count(m.old)} times in {m.file}")
                bad += 1
        killers = sorted({k for m in chosen if not m.equivalent for k in m.killers})
        missing = [m.id for m in chosen if not m.equivalent and not m.killers]
        if missing:
            print(f"NO KILLER {', '.join(missing)}")
            bad += 1
        if killers or args.full:
            clean = pytest(root, [] if args.full else killers)
            if clean.returncode != 0:
                print(f"CLEAN     the tests do not all pass on the unmutated tree:\n{clean.stdout[-3000:]}")
                return 1
        if bad:
            return 1
        for m in chosen:
            path, text = root / m.file, texts[m.file]
            if m.equivalent and not args.full:
                print(f"EQUIV     {m.id}: applies; not run")
                continue
            path.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                done = pytest(root, [] if args.full else ["-x", *m.killers])
            finally:
                path.write_text(text)
            seconds = time.perf_counter() - t0
            killed = done.returncode in (1, 2)  # tests failed, or collection broke
            if done.returncode not in (0, 1, 2):
                print(f"ERROR     {m.id}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
                bad += 1
                continue
            count = f", {failures(done.stdout)} failing" if args.full else ""
            if m.equivalent:
                verdict = "EQUIV     " if not killed else "NOT EQUIV "
                bad += killed
            else:
                verdict = "killed    " if killed else "SURVIVED  "
                bad += not killed
            print(f"{verdict}{m.id} ({seconds:.1f} s{count})", flush=True)
    print(f"{len(chosen)} mutants, {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
