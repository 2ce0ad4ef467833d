"""Evaluation metrics: accuracy, token efficiency, change rates, majority
voting, length diversity, and trace analysis.

Works both on rollouts from the toy environment and on externally supplied
result files (benchmark CSVs). The sample metrics take the sampler's
(problems, samples) ``correct`` and ``lengths`` tables as they are.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

OVERTHINKING_KEYWORDS = (
    "But",
    "Wait",
    "Alternatively",
    "However",
    "Hmm",
    "Not sure",
    "Going back",
    "Backtrack",
    "Another",
)

# Case-insensitive, word-boundary anchored; multi-word entries match as
# contiguous phrases across single spaces.
_KEYWORD_PATTERNS = {
    kw: re.compile(r"\b" + re.escape(kw.lower()) + r"\b", re.IGNORECASE)
    for kw in OVERTHINKING_KEYWORDS
}


@dataclass(frozen=True)
class BenchResult:
    """(accuracy %, mean token length) for one method on one benchmark."""

    name: str
    accuracy: float
    mean_tokens: float

    def __post_init__(self) -> None:
        if not 0 <= self.accuracy <= 100:
            raise ValueError(f"accuracy must be in [0, 100], got {self.accuracy}")
        if not (math.isfinite(self.mean_tokens) and self.mean_tokens > 0):
            raise ValueError(f"mean_tokens must be finite and > 0, got {self.mean_tokens}")


@dataclass(frozen=True)
class TraceRecord:
    problem_id: str
    text: str
    answer: str
    correct: bool
    token_count: int

    def __post_init__(self) -> None:
        if self.token_count < 1:
            raise ValueError("token_count must be >= 1")


def accuracy(outcomes: np.ndarray) -> float:
    """Fraction of correct outcomes in a bool array of any shape, as a percentage."""
    outcomes = np.asarray(outcomes, dtype=bool)
    if not outcomes.size:
        raise ValueError("outcomes must be non-empty")
    return 100.0 * np.count_nonzero(outcomes) / outcomes.size


def ipt(accuracy_pct: float, mean_tokens: float) -> float:
    """Intelligence per token: accuracy gained per 1K tokens of generation."""
    if mean_tokens <= 0:
        raise ValueError("mean_tokens must be > 0")
    return accuracy_pct / (mean_tokens / 1000.0)


def change_rate(method_value: float, vanilla_value: float) -> float:
    """Relative change of a metric vs the vanilla baseline, in percent."""
    if vanilla_value == 0:
        raise ValueError("vanilla_value must be non-zero")
    return 100.0 * (method_value / vanilla_value - 1.0)


def avg_delta(pairs: Sequence[tuple[float, float]]) -> float:
    """Mean of per-dataset change rates (percent)."""
    if not pairs:
        raise ValueError("pairs must be non-empty")
    return sum(change_rate(m, v) for m, v in pairs) / len(pairs)


def majority_at_k(
    correct: np.ndarray, lengths: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[float, int]:
    """Majority-vote accuracy over k samples drawn per problem.

    Each row of the (problems, samples) tables, in order, draws the set of k
    samples ``rng.choice(samples, k, replace=False)`` would (``_choose``).
    Every wrong sample casts the same wrong vote, so a row is right when at
    least half of its k are (a tie goes to the right answer). Returns
    (accuracy in [0, 1], total tokens drawn).
    """
    correct = np.asarray(correct, dtype=bool)
    lengths = np.asarray(lengths)
    if k < 1:
        raise ValueError("k must be >= 1")
    if correct.ndim != 2 or correct.shape != lengths.shape or not len(correct):
        raise ValueError(f"need equal (problems, samples) tables, got {correct.shape} and {lengths.shape}")
    n_problems, n = correct.shape
    if n < k:
        raise ValueError(f"each problem has {n} samples, need >= {k}")
    chosen = _choose(rng, n_problems, n, k)
    if chosen is None:
        chosen = np.array([rng.choice(n, size=k, replace=False) for _ in range(n_problems)])
    votes = np.take_along_axis(correct, chosen, axis=1).sum(axis=1)
    total_tokens = int(np.take_along_axis(lengths, chosen, axis=1).sum())
    return np.count_nonzero(2 * votes >= k) / n_problems, total_tokens


def _choose(rng: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray | None:
    """The samples of ``rows`` successive ``rng.choice(n, k, replace=False)``
    draws of a PCG64 generator, each row as a set, as one ``(rows, k)``
    array, the generator left where they leave it; None, drawing nothing,
    where numpy would take another branch (another generator, n > 10,000,
    k == n) or reject a draw. numpy takes Floyd's sample over j = n - k ..
    n - 1 (a value in [0, j], or j if it was taken already), then shuffles
    it with k - 1 draws in [0, i] for i = k - 1 .. 1, which are drawn here
    but not applied. A value in [0, b) is Lemire's: the high half of a
    32-bit word times b, drawn again if the low half is below 2^32 mod b. A
    row reads 2k - 1 words of PCG64's ``next_uint32``: each 64-bit output's
    low half, then its high one, which the generator holds.
    """
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64 or n > 10_000 or k == n:
        return None
    saved = bits.state
    held, total = saved["has_uint32"], rows * (2 * k - 1)
    raw = bits.random_raw((total - held + 1) // 2)
    words = np.concatenate([np.array([saved["uinteger"]] * held, dtype="<u4"), raw.astype("<u8").view("<u4")])
    last = int(raw[-1] >> 32) if raw.size else saved["uinteger"]
    bits.state = {**bits.state, "has_uint32": (total - held) % 2, "uinteger": last}
    bound = np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)]).astype(np.uint64)
    m = words[:total].reshape(rows, 2 * k - 1).T * bound[:, None]
    if ((m & 0xFFFFFFFF) < (2**32 % bound)[:, None]).any():
        bits.state = saved
        return None
    chosen = (m[:k] >> 32).astype(np.intp)  # (k, rows): Floyd's values
    for i in range(1, k):
        chosen[i][(chosen[:i] == chosen[i]).any(axis=0)] = n - k + i
    return chosen.T


def length_cv(lengths: np.ndarray) -> float:
    """Mean over problems of the per-problem coefficient of variation
    (population std / mean) of response length, over a (problems, samples)
    table."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 2 or not len(lengths) or lengths.shape[1] < 2:
        raise ValueError(f"need a (problems, samples >= 2) table, got shape {lengths.shape}")
    mean = lengths.mean(axis=1)
    if not (mean > 0).all():
        raise ValueError(f"problem row {int(np.argmin(mean > 0))} has non-positive mean length")
    return float(np.mean(lengths.std(axis=1) / mean))


def overthinking_counts(
    traces: Sequence[TraceRecord],
) -> tuple[dict[str, int], float]:
    """Total occurrences of each overthinking keyword across traces, plus the
    mean number of double-newline-delimited reasoning segments per trace.

    Empty text counts as 0 segments; the keyword totals are invariant to
    trace ordering.
    """
    counts = {kw: 0 for kw in OVERTHINKING_KEYWORDS}
    total_segments = 0
    for t in traces:
        for kw, pat in _KEYWORD_PATTERNS.items():
            counts[kw] += len(pat.findall(t.text))
        total_segments += sum(1 for seg in t.text.split("\n\n") if seg.strip())
    mean_steps = total_segments / len(traces) if traces else 0.0
    return counts, mean_steps


def quintile_sizes(n: int) -> list[int]:
    """Five equal-as-possible contiguous bins, remainder to earlier bins."""
    if n < 5:
        raise ValueError("need at least 5 records")
    q, r = divmod(n, 5)
    return [q + 1 if i < r else q for i in range(5)]


# --- file interfaces ---

def load_results_csv(path: str | Path) -> list[BenchResult]:
    """Benchmark results CSV with header ``name,accuracy,mean_tokens``."""
    with Path(path).open(newline="") as f:
        reader = csv.DictReader(f)
        try:
            if reader.fieldnames != ["name", "accuracy", "mean_tokens"]:
                raise ValueError(f"expected header name,accuracy,mean_tokens, got {reader.fieldnames}")
            results = []
            seen = set()
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError("expected 3 cells")
                    key = split_method_benchmark(row["name"])
                    if key in seen:
                        raise ValueError(f"duplicate row for {row['name']!r}")
                    seen.add(key)
                    results.append(BenchResult(row["name"], float(row["accuracy"]), float(row["mean_tokens"])))
                except ValueError as e:
                    raise ValueError(f"line {reader.line_num}: {e}") from None
        except csv.Error as e:  # e.g. a field past csv.field_size_limit(), in the header or a row
            # DictReader updates its line_num after a row is read, its reader before
            raise ValueError(f"line {reader.reader.line_num}: {e}") from None
        return results


def split_method_benchmark(name: str) -> tuple[str, str]:
    """Row names encode method and benchmark as ``method/benchmark``; a bare
    name is a method with a single unnamed benchmark."""
    method, sep, bench = name.partition("/")
    return method, bench if sep else ""


def summarize_results(
    results: Sequence[BenchResult], vanilla_name: str
) -> dict[str, dict]:
    """Per-method IPT / delta summary against the vanilla baseline.

    Returns, per method: per-benchmark rows (accuracy, tokens, ipt, d_acc,
    d_token) and the averages (avg_ipt, d_acc, d_token). Deltas average the
    per-benchmark change rates over the benchmarks shared with vanilla; a
    benchmark where vanilla scores 0% has no accuracy change rate, so its
    ``d_acc`` is None and the ``d_acc`` average leaves it out (None when no
    benchmark has one).
    """
    by_method: dict[str, dict[str, BenchResult]] = {}
    for res in results:
        method, bench = split_method_benchmark(res.name)
        by_method.setdefault(method, {})[bench] = res
    if vanilla_name not in by_method:
        raise ValueError(f"no rows for vanilla method {vanilla_name!r}")
    vanilla = by_method[vanilla_name]
    summary: dict[str, dict] = {}
    for method, benches in by_method.items():
        rows = {}
        acc_pairs = []
        tok_pairs = []
        for bench, res in benches.items():
            row = {
                "accuracy": res.accuracy,
                "mean_tokens": res.mean_tokens,
                "ipt": ipt(res.accuracy, res.mean_tokens),
            }
            if bench in vanilla:
                base = vanilla[bench]
                row["d_acc"] = None
                if base.accuracy:
                    row["d_acc"] = change_rate(res.accuracy, base.accuracy)
                    acc_pairs.append((res.accuracy, base.accuracy))
                row["d_token"] = change_rate(res.mean_tokens, base.mean_tokens)
                tok_pairs.append((res.mean_tokens, base.mean_tokens))
            rows[bench] = row
        summary[method] = {
            "benchmarks": rows,
            "avg_ipt": float(np.mean([r["ipt"] for r in rows.values()])),
            "d_acc": avg_delta(acc_pairs) if acc_pairs else None,
            "d_token": avg_delta(tok_pairs) if tok_pairs else None,
        }
    return summary
