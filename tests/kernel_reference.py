"""Swap the vector kernels for their reference loops at every call site.

Production code always runs the batch kernels of :mod:`repro.kernels`;
:mod:`repro.kernels.reference` holds one per-access loop per kernel,
with the kernel's signature.  :func:`reference_loops` points each call
site at the loop instead, so any entry point (``run_hlatch``,
``measure_hw_rates``, a whole runner job, ...) can be replayed on the
reference semantics and compared byte for byte with the kernels.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.kernels import reference

#: Where production code looks each kernel up, as ``(module, name)``.
KERNEL_CALL_SITES = (
    ("repro.slatch.simulator", "replay_check_memory"),
    ("repro.hlatch.system", "replay_hlatch_window"),
    ("repro.hlatch.baseline", "replay_taint_cache"),
    ("repro.analysis.temporal", "duration_profile"),
    ("repro.kernels.epochs", "segment_epochs"),
    ("repro.kernels", "domains_from_extents"),
)


@contextlib.contextmanager
def reference_loops():
    """Run the block with every kernel call site on its reference loop."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in KERNEL_CALL_SITES:
            patch.setattr(f"{module}.{name}", getattr(reference, name))
        yield


def kernels(impl: str):
    """``"scalar"``: the reference loops; ``"vector"``: the kernels."""
    if impl == "scalar":
        return reference_loops()
    return contextlib.nullcontext()
