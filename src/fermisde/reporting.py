"""Report serialization: JSON payloads, CSV tables, atomic file writes.

Elements serialize as {"n": .., "terms": [{"mask": .., "re": .., "im": ..}]}
with the generator set packed into one arbitrary-precision integer and the
terms in canonical order, so identical elements always produce identical
bytes. Reports are written sorted-key JSON through a temp-file-then-rename
dance; a partially written report never replaces a complete one.

Wall-clock timings go to a sidecar file next to the report. The report
itself must be byte-identical across repeated runs with the same inputs
and seed, and timings never are.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import tempfile

import numpy as np

from . import _sparse as sp
from .algebra import CliffordElement

__all__ = [
    "SCHEMA_VERSION",
    "element_to_json",
    "element_from_json",
    "json_number",
    "term_errors",
    "jsonable",
    "dump_json",
    "write_json",
    "write_csv",
]

SCHEMA_VERSION = 1


def element_to_json(x):
    terms = []
    for row, amp in zip(x.masks, x.amps):
        terms.append(
            {
                "mask": sp.decode_mask(row),
                "re": float(amp.real),
                "im": float(amp.imag),
            }
        )
    return {"n": x.n, "terms": terms}


def json_number(value, integral=False):
    """(value, None) for a finite JSON number, as an int when integral
    and a float otherwise; (None, why) when it is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None, "not a number"
    if integral and isinstance(value, numbers.Integral):
        return int(value), None
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        return None, "not a finite number"
    if integral:
        if not value.is_integer():
            return None, "not an integer"
        value = int(value)
    return value, None


def term_errors(terms, n):
    """(pointer, why) for every refusal among the terms of an element
    payload on n generators: each term is an object with an integral
    mask of generators below n and finite re and im parts (absent parts
    are 0), and no other keys. Pointers start at /terms/<i>."""
    if not isinstance(terms, list):
        return [("/terms", "must be a list of terms")]
    errors = []
    for i, term in enumerate(terms):
        ptr = f"/terms/{i}"
        if not isinstance(term, dict) or "mask" not in term:
            errors.append((ptr, "must be an object with a mask"))
            continue
        mask, why = json_number(term["mask"], integral=True)
        if why is None and not 0 <= mask < 2**n:
            why = f"not a mask of {n} generators"
        if why is not None:
            errors.append((ptr + "/mask", why))
        unknown = sorted(str(k) for k in term if k not in ("mask", "re", "im"))
        if unknown:
            errors.append((ptr, "unknown keys: " + ", ".join(unknown)))
        for part in ("re", "im"):
            if part in term:
                why = json_number(term[part])[1]
                if why is not None:
                    errors.append((f"{ptr}/{part}", why))
    return errors


def element_from_json(payload, expect_n=None):
    try:
        n = payload["n"]
        raw = payload["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed element payload: {exc}") from exc
    n, why = json_number(n, integral=True)
    if why is None and n < 0:
        why = "negative"
    if why is not None:
        raise ValueError(f"malformed element payload at /n: {why}")
    if expect_n is not None and n != expect_n:
        raise ValueError(
            f"element has n={n} but the grid needs n={expect_n}"
        )
    errors = term_errors(raw, n)
    if errors:
        ptr, why = errors[0]
        raise ValueError(f"malformed element payload at {ptr}: {why}")
    w = sp.words_for(n)
    masks = np.zeros((len(raw), w), dtype=np.uint64)
    amps = np.zeros(len(raw), dtype=np.complex128)
    for i, term in enumerate(raw):
        masks[i] = sp.encode_mask(int(term["mask"]), w)
        amps[i] = complex(float(term.get("re", 0.0)),
                          float(term.get("im", 0.0)))
    return CliffordElement(n, masks, amps)


def jsonable(obj):
    """Recursively coerce numpy scalars/arrays so json can emit them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def dump_json(payload):
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, payload):
    _atomic_write(path, dump_json(payload))


def write_csv(path, header, rows):
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in jsonable(list(row))])
    _atomic_write(path, buf.getvalue())
