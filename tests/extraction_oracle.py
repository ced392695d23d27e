r"""The reply parsers as they were before extraction got its one-pass fast
paths, kept verbatim as the oracle for `tests/test_extraction.py`.

Integers: each token of `re.split(r"[\s,]+", block)` parsed on its own.
Memory updates: `json.loads`, then the shape checks and the masking as
three separate walks.
"""
from __future__ import annotations

import json
import re
from typing import Optional

MASK32 = 0xFFFFFFFF




def _parse_int(token: str) -> Optional[int]:
    token = token.strip().strip(".,;:()[]")
    if not token:
        return None
    negative = token.startswith("-")
    body = token.lstrip("+-")
    try:
        value = int(body, 16) if body.lower().startswith("0x") else int(body, 10)
    except ValueError:
        return None
    return -value if negative else value


def _extract_integers(block: str) -> list[int]:
    values = []
    for token in re.split(r"[\s,]+", block):
        parsed = _parse_int(token)
        if parsed is not None:
            values.append(parsed & MASK32)
    return values


def _is_pair(x) -> bool:
    return (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in x)
    )


def _mask_pairs(pairs) -> list:
    return [[a & MASK32, w & MASK32] for a, w in pairs]


def _updates_from_doc(doc) -> Optional[list]:
    """Map one JSON document to a list of memory-update stimuli."""
    if _is_pair(doc):
        return [_mask_pairs([doc])]
    if isinstance(doc, list) and doc and all(_is_pair(e) for e in doc):
        return [_mask_pairs(doc)]
    if (
        isinstance(doc, list)
        and doc
        and all(isinstance(e, list) and e and all(_is_pair(p) for p in e) for e in doc)
    ):
        return [_mask_pairs(e) for e in doc]
    return None


def _extract_updates(block: str) -> list:
    try:
        doc = json.loads(block)
    except ValueError:
        doc = None
    if doc is not None:
        return _updates_from_doc(doc) or []
    stimuli = []
    for line in block.splitlines():
        line = line.strip().rstrip(",")
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        stimuli.extend(_updates_from_doc(doc) or [])
    return stimuli
