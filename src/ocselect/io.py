"""Instance files: a small JSON schema for boxes and their atoms.

Schema: an object with a "boxes" list; each box is {"id": string,
"atoms": [[value, probability], ...]}.  Ids are nonempty, distinct and
free of "|", which joins them into the CLI's order ids.  Values must be
nonnegative finite numbers, probabilities positive.  Atom lists may arrive
unsorted and may repeat a value; they are sorted and merged on load.
Probabilities must sum to one within FILE_PROB_TOL (looser than the
internal tolerance, for hand-authored decimals); anything within that band
is renormalized with a warning naming the box.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

from .benchmarks import Box, Instance
from .distributions import PROB_TOL, DiscreteDistribution

FILE_PROB_TOL = 1e-9


class InstanceFormatError(ValueError):
    """The instance file is malformed; the message names the offending box."""


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not in the locale's encoding
        raise InstanceFormatError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance(text)


def parse_instance(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InstanceFormatError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "boxes" not in payload:
        raise InstanceFormatError('instance file needs a top-level "boxes" list')
    raw_boxes = payload["boxes"]
    if not isinstance(raw_boxes, list) or not raw_boxes:
        raise InstanceFormatError('"boxes" must be a nonempty list')
    boxes = []
    for position, raw in enumerate(raw_boxes):
        boxes.append(_parse_box(raw, position))
    try:
        return Instance(tuple(boxes))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def _parse_box(raw: object, position: int) -> Box:
    label = f"box #{position}"
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{label}: each box must be an object")
    box_id = raw.get("id")
    if not isinstance(box_id, str) or not box_id:
        raise InstanceFormatError(f"{label}: missing or empty id")
    label = f"box {box_id!r}"
    if "|" in box_id:
        raise InstanceFormatError(f"{label}: id must not contain '|', which joins order ids")
    atoms = raw.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise InstanceFormatError(f"{label}: missing or empty atoms")
    pairs: list[tuple[float, float]] = []
    for atom in atoms:
        if (
            not isinstance(atom, (list, tuple))
            or len(atom) != 2
            or not all(_is_number(v) for v in atom)
        ):
            raise InstanceFormatError(f"{label}: atom {atom!r} is not a [value, prob] pair")
        value, prob = map(_as_float, atom)
        if not (math.isfinite(value) and value >= 0.0):
            raise InstanceFormatError(f"{label}: value {value!r} must be finite and >= 0")
        if not (math.isfinite(prob) and 0.0 < prob <= 1.0):
            raise InstanceFormatError(f"{label}: probability {prob!r} must be in (0, 1]")
        pairs.append((value, prob))

    merged: dict[float, float] = {}
    for value, prob in pairs:
        merged[value] = merged.get(value, 0.0) + prob
    ordered = sorted(merged.items())
    total = math.fsum(p for _, p in ordered)
    if abs(total - 1.0) > FILE_PROB_TOL:
        raise InstanceFormatError(f"{label}: probabilities sum to {total!r}, not 1")
    if abs(total - 1.0) > PROB_TOL:
        warnings.warn(
            f"{label}: probabilities sum to {total!r}; renormalizing", RuntimeWarning
        )
        ordered = [(v, p / total) for v, p in ordered]
    try:
        dist = DiscreteDistribution(tuple(ordered))
    except ValueError as exc:
        raise InstanceFormatError(f"{label}: {exc}") from exc
    return Box(box_id, dist)


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_float(v: int | float) -> float:
    """v as a float; an integer too large for one reads as infinite, which no check accepts."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf
