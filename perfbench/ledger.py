"""Span ledger for the traced run: where the wall time of a pass went.

The benchmark never edits the program. For a traced pass it replaces a
layer's public function (a class attribute or a module attribute) with
a wrapper that records one span per call, runs the original, and puts
the original back when the pass ends.

A span is ``(name, start, end, parent, run id)``. Spans live in flat
``array`` columns so that a traced pass of a few hundred thousand
instructions stays within a few tens of MB; they are written out once,
at the end, as one ``.npz`` file. The parent is tracked per execution
context (a :class:`contextvars.ContextVar`), so two asyncio tasks keep
separate span trees.

A span's *self time* is its duration minus the time its direct child
spans cover. Within one task the children of a span never overlap, so
the self times of a tree sum exactly to its root's duration; the root's
own self time is the time no wrapped layer accounts for.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

_clock = time.perf_counter


class Ledger:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, ident: int) -> int:
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._current.get())
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.start.append(_clock())
        return index

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(self._id(name))
        token = self._current.set(index)
        try:
            yield index
        finally:
            self._current.reset(token)
            self.end[index] = _clock()

    # ----------------------------------------------------------- wrappers

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        # A class attribute is read from ``__dict__`` so that the plain
        # function, not a bound method, is wrapped and put back.
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        ident = self._id(name)
        ledger = self
        current = self._current

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = ledger._open(ident)
            token = current.set(index)
            try:
                return original(*args, **kwargs)
            finally:
                current.reset(token)
                ledger.end[index] = _clock()

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def unwrap(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def wrapped(self, targets: Iterable[Tuple[object, str, str]]):
        """Wrap every ``(owner, attribute, span name)`` for the block."""
        try:
            for owner, attribute, name in targets:
                self.wrap(owner, attribute, name)
            yield self
        finally:
            self.unwrap()

    # ----------------------------------------------------------- analysis

    def table(self) -> "SpanTable":
        """Freeze the recorded spans into numpy columns."""
        return SpanTable(
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.run, dtype=np.int32).copy(),
        )


class _NoSpans:
    """Stands in for a :class:`Ledger` when a pass is not traced."""

    @staticmethod
    def span(name: str):
        return nullcontext()


#: Pass this where a ledger is expected to record nothing.
NO_SPANS = _NoSpans()


class SpanTable:
    """Recorded spans as columns, with self-time accounting."""

    def __init__(self, names, name_id, start, end, parent, run) -> None:
        self.names = names
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.duration = end - start
        count = len(start)
        children = parent >= 0
        covered = np.bincount(
            parent[children], weights=self.duration[children],
            minlength=count,
        )
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.start)

    def ident(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans that are ``ancestor`` spans or descend from one."""
        target = self.ident(ancestor)
        inside = np.zeros(len(self), dtype=bool)
        if target < 0:
            return inside
        # Parents are always opened before their children, so a single
        # pass in index order sees every parent's flag first.
        flags = inside
        name_id, parent = self.name_id, self.parent
        for index in range(len(self)):
            if name_id[index] == target:
                flags[index] = True
            else:
                up = parent[index]
                if up >= 0 and flags[up]:
                    flags[index] = True
        return flags

    def _select(self, name: str, mask: Optional[np.ndarray]) -> np.ndarray:
        selected = self.name_id == self.ident(name)
        return selected if mask is None else selected & mask

    def calls(self, name: str, mask: Optional[np.ndarray] = None) -> int:
        return int(self._select(name, mask).sum())

    def self_seconds(self, name: str, mask: Optional[np.ndarray] = None) -> float:
        return float(self.self_time[self._select(name, mask)].sum())

    def total_seconds(self, name: str, mask: Optional[np.ndarray] = None) -> float:
        return float(self.duration[self._select(name, mask)].sum())

    def closure(self, root: str) -> Dict[str, float]:
        """Self times of the tree under each ``root`` span, by span name.

        The values sum to the roots' total duration; the root's own
        entry is the time that no wrapped layer accounts for.
        """
        mask = self.under(root)
        ledger = np.bincount(
            self.name_id[mask], weights=self.self_time[mask],
            minlength=len(self.names),
        )
        return {
            name: float(ledger[ident])
            for ident, name in enumerate(self.names)
            if ledger[ident] != 0.0
        }

    def dump(self, path: Path, meta: Dict) -> None:
        """Write every span and ``meta`` to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            meta=np.array(json.dumps(meta, sort_keys=True)),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            run=self.run,
        )
