"""Persistent per-problem running minimum of correct response length.

The buffer stores, for every training problem, the shortest correct rollout
length observed so far. Entries start at the token budget ``l_max`` and only
ever decrease; the value times ``(1 + alpha)`` is the compression threshold
used by reward shaping.

Checkpoint format (``.expbuf``): a header line ``EXPBUF v1 l_max=<n>``
followed by one ``problem_id<TAB>min_correct_len`` record per line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .core import check_ids

_MAGIC = "EXPBUF"
_VERSION = "v1"


class BufferFormatError(ValueError):
    """Malformed or inconsistent .expbuf data."""


class Group(NamedTuple):
    """What the fold reads of one problem's G rollouts, such as row p of a
    ``RolloutBatch``: its id and its ``(G,)`` rows."""

    problem_id: str
    lengths: np.ndarray  # (G,) tokens per rollout
    correct: np.ndarray  # (G,) bool; update reads 0/1 integers as flags, not as indices


class ExperienceBuffer:
    """Map problem_id -> running minimum correct length."""

    __slots__ = ("_entries", "_l_max")

    def __init__(self, entries: dict[str, int], l_max: int):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        check_ids(entries)
        for pid, v in entries.items():
            # .expbuf stores each entry as an int, which a float or a bool is not
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"entry {pid!r}={v!r} is not an int")
            if not 1 <= v <= l_max:
                raise ValueError(f"entry {pid!r}={v} outside [1, {l_max}]")
        self._entries = dict(entries)
        self._l_max = int(l_max)

    @classmethod
    def init(cls, problem_ids: Iterable[str], l_max: int) -> "ExperienceBuffer":
        """Fresh buffer with every entry at the token budget ``l_max``."""
        # checked first: a dict would merge repeated ids
        return cls(dict.fromkeys(check_ids(problem_ids), l_max), l_max)

    @property
    def l_max(self) -> int:
        return self._l_max

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperienceBuffer):
            return NotImplemented
        return self._l_max == other._l_max and self._entries == other._entries

    def entry(self, problem_id: str) -> int:
        return self._entries[problem_id]

    def entries(self) -> dict[str, int]:
        return dict(self._entries)

    def update(self, group: Group) -> None:
        """Fold one problem's group into the running minimum.

        The entry becomes min(old, shortest correct length in the group); a
        group with no correct rollouts leaves the buffer unchanged. Unknown
        problem ids raise KeyError, and a correct length below 1 ValueError.
        """
        pid = group.problem_id
        if pid not in self._entries:
            raise KeyError(f"unknown problem id {pid!r}")
        correct_lengths = group.lengths[group.correct.astype(bool, copy=False)]
        if not len(correct_lengths):
            return
        if (shortest := int(correct_lengths.min())) < 1:
            raise ValueError(f"problem {pid!r} has a correct rollout of length {shortest}")
        self._entries[pid] = min(self._entries[pid], shortest)

    def threshold(self, problem_id: str, alpha: float) -> float:
        """Compression threshold: shortest-correct-so-far times (1 + alpha)."""
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if problem_id not in self._entries:
            raise KeyError(f"unknown problem id {problem_id!r}")
        return self._entries[problem_id] * (1.0 + alpha)

    def merge(self, other: "ExperienceBuffer") -> "ExperienceBuffer":
        """Element-wise minimum of two buffers over identical key sets.

        Commutative, associative, and idempotent, so parallel workers can
        fold their local deltas in any order.
        """
        if self._l_max != other._l_max:
            raise ValueError(f"l_max mismatch: {self._l_max} != {other._l_max}")
        if self._entries.keys() != other._entries.keys():
            raise ValueError("key sets differ")
        merged = {pid: min(v, other._entries[pid]) for pid, v in self._entries.items()}
        return ExperienceBuffer(merged, self._l_max)

    def stats(self) -> float:
        """Arithmetic mean of all entries (unsolved problems count at l_max)."""
        return sum(self._entries.values()) / len(self._entries)

    def solved_count(self) -> int:
        """Number of problems whose entry has moved below the l_max sentinel."""
        return sum(1 for v in self._entries.values() if v < self._l_max)

    # --- serialization ---

    def dumps(self) -> bytes:
        lines = [f"{_MAGIC} {_VERSION} l_max={self._l_max}"]
        lines.extend(f"{pid}\t{v}" for pid, v in sorted(self._entries.items()))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def loads(cls, data: bytes) -> "ExperienceBuffer":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise BufferFormatError(f"not valid utf-8: {e}") from None
        lines = text.splitlines()
        if not lines:
            raise BufferFormatError("empty stream")
        head = lines[0].split()
        if len(head) != 3 or head[0] != _MAGIC or head[1] != _VERSION or not head[2].startswith("l_max="):
            raise BufferFormatError(f"bad header: {lines[0]!r}")
        try:
            l_max = int(head[2].removeprefix("l_max="))
        except ValueError:
            raise BufferFormatError(f"bad l_max in header: {lines[0]!r}") from None
        entries: dict[str, int] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise BufferFormatError(f"line {lineno}: expected id<TAB>value")
            pid, raw = parts
            if pid in entries:
                raise BufferFormatError(f"line {lineno}: duplicate key {pid!r}")
            try:
                value = int(raw)
            except ValueError:
                raise BufferFormatError(f"line {lineno}: bad value {raw!r}") from None
            if not 1 <= value <= l_max:
                raise BufferFormatError(f"line {lineno}: value {value} outside [1, {l_max}]")
            entries[pid] = value
        return cls(entries, l_max)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "ExperienceBuffer":
        return cls.loads(Path(path).read_bytes())
