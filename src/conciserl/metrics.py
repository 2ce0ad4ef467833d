"""Evaluation metrics: accuracy, token efficiency, change rates, majority
voting, length diversity, and trace analysis.

Works both on rollouts from the toy environment and on externally supplied
result files (benchmark CSVs, trace JSONL).
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

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
        if self.mean_tokens <= 0:
            raise ValueError(f"mean_tokens must be > 0, got {self.mean_tokens}")


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


def accuracy(outcomes: Sequence[bool]) -> float:
    """Fraction of correct outcomes, as a percentage."""
    if not outcomes:
        raise ValueError("outcomes must be non-empty")
    return 100.0 * sum(1 for o in outcomes if o) / len(outcomes)


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
    samples: Mapping[str, Sequence[tuple[str, int]]],
    truth: Mapping[str, str],
    k: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """Majority-vote accuracy over k samples drawn per problem.

    Draws k samples without replacement (deterministic under ``rng``), takes
    the modal answer with lexicographic tie-breaking, and scores it against
    the ground truth. Returns (accuracy in [0, 1], total tokens consumed).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not samples:
        raise ValueError("samples must be non-empty")
    n_correct = 0
    total_tokens = 0
    for pid in sorted(samples):
        pool = samples[pid]
        if len(pool) < k:
            raise ValueError(f"problem {pid!r} has {len(pool)} samples, need >= {k}")
        chosen = rng.choice(len(pool), size=k, replace=False)
        counts = Counter(pool[i][0] for i in chosen)
        total_tokens += sum(pool[i][1] for i in chosen)
        top = max(counts.values())
        winner = min(a for a, c in counts.items() if c == top)
        if winner == truth[pid]:
            n_correct += 1
    return n_correct / len(samples), total_tokens


def length_cv(lengths_per_problem: Mapping[str, Sequence[float]]) -> float:
    """Mean over problems of the per-problem coefficient of variation
    (population std / mean) of response length."""
    if not lengths_per_problem:
        raise ValueError("need at least one problem")
    cvs = []
    for pid, lengths in lengths_per_problem.items():
        arr = np.asarray(lengths, dtype=float)
        if len(arr) < 2:
            raise ValueError(f"problem {pid!r} needs >= 2 samples")
        mean = arr.mean()
        if mean <= 0:
            raise ValueError(f"problem {pid!r} has non-positive mean length")
        cvs.append(arr.std() / mean)
    return float(np.mean(cvs))


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


@dataclass(frozen=True)
class QuintileStat:
    count: int
    accuracy: float       # percent
    token_change: float   # percent change of mean method tokens vs vanilla


def quintile_sizes(n: int) -> list[int]:
    """Five equal-as-possible contiguous bins, remainder to earlier bins."""
    if n < 5:
        raise ValueError("need at least 5 records")
    q, r = divmod(n, 5)
    return [q + 1 if i < r else q for i in range(5)]


def difficulty_quintiles(
    records: Sequence[tuple[float, bool, float]],
) -> list[QuintileStat]:
    """Per-quintile accuracy and token change, binned by vanilla length.

    ``records`` are (vanilla_tokens, method_correct, method_tokens); sorting
    by vanilla tokens ascending defines the difficulty ordering.
    """
    sizes = quintile_sizes(len(records))
    ordered = sorted(records, key=lambda rec: rec[0])
    stats = []
    start = 0
    for size in sizes:
        chunk = ordered[start : start + size]
        start += size
        vanilla_mean = sum(rec[0] for rec in chunk) / size
        method_mean = sum(rec[2] for rec in chunk) / size
        stats.append(
            QuintileStat(
                count=size,
                accuracy=accuracy([rec[1] for rec in chunk]),
                token_change=change_rate(method_mean, vanilla_mean),
            )
        )
    return stats


# --- file interfaces ---

def load_results_csv(path: str | Path) -> list[BenchResult]:
    """Benchmark results CSV with header ``name,accuracy,mean_tokens``."""
    with Path(path).open(newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != ["name", "accuracy", "mean_tokens"]:
            raise ValueError(
                f"expected header name,accuracy,mean_tokens, got {reader.fieldnames}"
            )
        results = []
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError("expected 3 cells")
                results.append(BenchResult(row["name"], float(row["accuracy"]), float(row["mean_tokens"])))
            except ValueError as e:
                raise ValueError(f"line {reader.line_num}: {e}") from None
        return results


def load_traces_jsonl(path: str | Path) -> list[TraceRecord]:
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        records.append(
            TraceRecord(
                problem_id=d["problem_id"],
                text=d["text"],
                answer=d["answer"],
                correct=bool(d["correct"]),
                token_count=int(d["token_count"]),
            )
        )
    return records


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
    per-benchmark change rates over the benchmarks shared with vanilla.
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
                row["d_acc"] = change_rate(res.accuracy, base.accuracy)
                row["d_token"] = change_rate(res.mean_tokens, base.mean_tokens)
                acc_pairs.append((res.accuracy, base.accuracy))
                tok_pairs.append((res.mean_tokens, base.mean_tokens))
            rows[bench] = row
        summary[method] = {
            "benchmarks": rows,
            "avg_ipt": float(np.mean([r["ipt"] for r in rows.values()])),
            "d_acc": avg_delta(acc_pairs) if acc_pairs else None,
            "d_token": avg_delta(tok_pairs) if tok_pairs else None,
        }
    return summary
