"""Ragged batches: scanning many problems of *different* sizes.

The paper's interface (and this library's core) takes uniform batches of
``G = 2^g`` problems with ``N = 2^n`` elements each. Real applications
often hold ragged collections; this extension maps them onto the uniform
primitive:

1. each problem is padded with the operator identity up to the next power
   of two (identity padding cannot change any real element's prefix);
2. problems of equal padded size are grouped into sub-batches, with the
   group count itself padded to a power of two by identity rows;
3. one batched scan per group; padding stripped on the way out.

The grouping keeps the padding overhead below 2x elements in the worst
case and turns thousands of ragged problems into a handful of batch
invocations — preserving the paper's amortisation story.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.interconnect.topology import SystemTopology
from repro.core.api import scan
from repro.core.executor import pad_rows_to_batch
from repro.core.results import ScanResult
from repro.primitives.operators import resolve_operator
from repro.util.ints import next_power_of_two


def scan_ragged(
    arrays: Sequence[np.ndarray],
    topology: SystemTopology | None = None,
    operator="add",
    inclusive: bool = True,
    **scan_kwargs,
) -> tuple[list[np.ndarray], list[ScanResult]]:
    """Scan a ragged collection of 1-D problems in few batched invocations.

    Returns per-problem scanned arrays (in input order) and the underlying
    batch results. All inputs must share one dtype.
    """
    if not arrays:
        raise ConfigurationError("scan_ragged needs at least one array")
    op = resolve_operator(operator)
    arrays = [np.asarray(a) for a in arrays]
    dtype = arrays[0].dtype
    for i, a in enumerate(arrays):
        if a.ndim != 1:
            raise ConfigurationError(f"array {i} must be 1-D, got shape {a.shape}")
        if a.size == 0:
            raise ConfigurationError(f"array {i} is empty")
        if a.dtype != dtype:
            raise ConfigurationError(
                f"array {i} has dtype {a.dtype}, expected {dtype} (uniform dtypes)"
            )
    # Group problem indices by padded size.
    groups: dict[int, list[int]] = defaultdict(list)
    for i, a in enumerate(arrays):
        groups[next_power_of_two(a.size)].append(i)

    outputs: list[np.ndarray | None] = [None] * len(arrays)
    results: list[ScanResult] = []
    for padded_n in sorted(groups):
        indices = groups[padded_n]
        batch = pad_rows_to_batch([arrays[idx] for idx in indices], padded_n,
                                  op, dtype=dtype)
        result = scan(
            batch, topology=topology, operator=op, inclusive=inclusive,
            **scan_kwargs,
        )
        results.append(result)
        for row, idx in enumerate(indices):
            outputs[idx] = result.output[row, : arrays[idx].size].copy()
    return list(outputs), results


def scan_segments(
    data: np.ndarray,
    lengths: Sequence[int],
    topology: SystemTopology | None = None,
    operator="add",
    inclusive: bool = True,
    **scan_kwargs,
) -> tuple[np.ndarray, list[ScanResult]]:
    """Scan a concatenated array of variable-length segments.

    The flat equivalent of :func:`scan_ragged`: ``data`` holds the
    segments back to back; each restarts its own scan. Returns the flat
    scanned array plus the batch results.
    """
    data = np.asarray(data)
    if data.ndim != 1:
        raise ConfigurationError(f"data must be 1-D, got shape {data.shape}")
    lengths = [int(l) for l in lengths]
    if any(l <= 0 for l in lengths):
        raise ConfigurationError("segment lengths must be positive")
    if sum(lengths) != data.size:
        raise ConfigurationError(
            f"lengths sum to {sum(lengths)}, data has {data.size} elements"
        )
    pieces = []
    offset = 0
    for l in lengths:
        pieces.append(data[offset : offset + l])
        offset += l
    scanned, results = scan_ragged(
        pieces, topology=topology, operator=operator, inclusive=inclusive,
        **scan_kwargs,
    )
    return np.concatenate(scanned), results
