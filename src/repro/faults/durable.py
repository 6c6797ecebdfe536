"""Durable artifact primitives: atomic writes and checksums.

Everything Magus leaves on disk mid-run — checkpoints, packed path-loss
databases, run reports, flight-recorder dumps — must survive the
process dying at *any* instruction.  Two primitives provide that:

:func:`atomic_write`
    temp file in the destination directory + ``fsync`` +
    ``os.replace`` + directory ``fsync``: readers see either the old
    complete file or the new complete file, never a torn one.

:func:`check_schema`
    the JSON schema check every loader runs before it trusts a
    document: the first departure raises one error naming the key.

:func:`checksum_hex` / :func:`verify_checksum`
    ``"algorithm:xxxxxxxx"`` stamps, so silent bit rot in an artifact
    fails loudly at load instead of feeding the planner garbage.  New
    artifacts are stamped ``crc32:`` by the stdlib :func:`zlib.crc32`
    (C speed, GB/s).  Verification dispatches on the stamp's tag:
    ``crc32c:`` stamps — written by older builds — are checked with
    :func:`crc32c`, the Castagnoli CRC kept as a legacy read path so
    market-scale packs on disk stay loadable without a rebuild.  Small
    payloads go through a table-driven scalar loop; large ones through
    a block-parallel numpy pass (1024 interleaved CRC states updated
    in lockstep, folded with precomputed GF(2) shift operators).  Any
    other tag fails loudly.

This module deliberately imports nothing from the rest of ``repro``
(only stdlib + numpy), so the observability layer can call into it
without creating an import cycle.

**Chaos hooks.**  :func:`add_post_write_hook` registers a callable
invoked as ``hook(path, kind)`` after every completed atomic write.
This is the seam the chaos harness (:mod:`repro.faults.chaos`) uses to
bit-flip or truncate freshly written artifacts — storage faults are
injected *through the same code path real writes take*, not by tests
reaching around the API.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zlib
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "atomic_write", "atomic_write_json", "crc32", "crc32c",
    "checksum_value", "checksum_hex", "verify_checksum", "ChecksumError",
    "add_post_write_hook", "remove_post_write_hook", "CHECKSUM_ALGORITHM",
    "SUPPORTED_CHECKSUMS", "check_schema", "JSON_INT", "JSON_NUMBER",
    "JSON_TEXT",
]

#: Algorithm tag stamped into new checksum strings: ``"crc32:xxxxxxxx"``.
CHECKSUM_ALGORITHM = "crc32"
#: Tags :func:`verify_checksum` accepts; ``crc32c`` is the legacy stamp
#: of artifacts written by older builds.
SUPPORTED_CHECKSUMS = ("crc32", "crc32c")
_SUPPORTED_TEXT = ", ".join(map(repr, SUPPORTED_CHECKSUMS))

#: Payloads below this go through the scalar loop; above it the
#: block-parallel numpy pass wins (state setup costs ~1 ms).
_VECTOR_THRESHOLD = 1 << 16

#: Interleaved CRC lanes in the vectorized pass.  The python-level loop
#: runs BLOCK iterations whatever the input size, so bigger inputs just
#: widen the numpy vectors; 1024 balances loop count against per-op
#: dispatch overhead on every host we measured.
_BLOCK = 1024

_POLY = 0x82F63B78          # CRC-32C (Castagnoli), reflected


def _build_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint32)
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        table[i] = c
    return table


_TABLE = _build_table()
_TABLE_L: List[int] = [int(x) for x in _TABLE]


def _crc_raw_scalar(data: Union[bytes, memoryview], state: int) -> int:
    """Advance the raw (un-conditioned) CRC state over ``data``."""
    table = _TABLE_L
    for b in data:
        state = (state >> 8) ^ table[(state ^ b) & 0xFF]
    return state


# -- GF(2) operator algebra for combining per-lane CRCs ----------------
# Feeding one zero byte into the CRC register is a linear map over
# GF(2)^32; represent it as 32 uint32 columns and exponentiate to get
# the "shift by N bytes" operator used to stitch lane CRCs together.
def _matvec(mat: List[int], v: int) -> int:
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= mat[i]
        v >>= 1
        i += 1
    return out


def _matmul(a: List[int], b: List[int]) -> List[int]:
    return [_matvec(a, col) for col in b]


def _shift_operator(n_bytes: int) -> List[int]:
    """The GF(2) matrix advancing a CRC state past ``n_bytes`` zeros."""
    op = [((1 << i) >> 8) ^ _TABLE_L[(1 << i) & 0xFF] for i in range(32)]
    result = [1 << i for i in range(32)]          # identity
    while n_bytes:
        if n_bytes & 1:
            result = _matmul(op, result)
        op = _matmul(op, op)
        n_bytes >>= 1
    return result


def _operator_tables(op: List[int]) -> Tuple[List[int], ...]:
    """Four byte-indexed lookup tables applying ``op`` in 4 lookups."""
    return tuple([_matvec(op, byte << (8 * k)) for byte in range(256)]
                 for k in range(4))


_SHIFT_TABLES: Dict[int, Tuple[List[int], ...]] = {}


def _crc_raw_vector(arr: np.ndarray, state: int) -> int:
    """Block-parallel raw CRC over a uint8 array (same polynomial).

    The array is cut into ``lanes`` contiguous segments of ``_BLOCK``
    bytes; one numpy pass advances all lane CRCs in lockstep (the
    python loop runs ``_BLOCK`` times regardless of input size), and
    the lane results are folded left-to-right with the shift-by-_BLOCK
    operator.  The incoming ``state`` enters as lane 0's seed.
    """
    lanes = len(arr) // _BLOCK
    cols = np.ascontiguousarray(
        arr[:lanes * _BLOCK].reshape(lanes, _BLOCK).T)
    states = np.zeros(lanes, dtype=np.uint32)
    states[0] = state
    table = _TABLE
    eight = np.uint32(8)
    mask = np.uint32(0xFF)
    for j in range(_BLOCK):
        states = (states >> eight) ^ table[(states ^ cols[j]) & mask]
    tables = _SHIFT_TABLES.get(_BLOCK)
    if tables is None:
        tables = _SHIFT_TABLES[_BLOCK] = _operator_tables(
            _shift_operator(_BLOCK))
    t0, t1, t2, t3 = tables
    # Lane 0 already carries the seed; fold the rest in order.
    out = int(states[0])
    for lane_crc in states[1:].tolist():
        out = (t0[out & 0xFF] ^ t1[(out >> 8) & 0xFF]
               ^ t2[(out >> 16) & 0xFF] ^ t3[(out >> 24) & 0xFF]
               ^ lane_crc)
    return _crc_raw_scalar(memoryview(arr[lanes * _BLOCK:]).cast("B"),
                           out)


def crc32c(data, value: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data``, continuing from ``value``.

    The legacy checksum: it verifies ``crc32c:`` stamps written by
    older builds; new artifacts are stamped with :func:`crc32`.

    ``data`` is bytes-like or a contiguous uint8-viewable numpy array.
    ``crc32c(b, crc32c(a))`` equals ``crc32c(a + b)``, so callers can
    stream large payloads chunk by chunk.
    """
    if isinstance(data, np.ndarray):
        arr = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    else:
        arr = np.frombuffer(data, dtype=np.uint8)
    state = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    if len(arr) >= _VECTOR_THRESHOLD:
        state = _crc_raw_vector(arr, state)
    else:
        state = _crc_raw_scalar(arr.tobytes(), state)
    return state ^ 0xFFFFFFFF


def crc32(data, value: int = 0) -> int:
    """CRC-32 (zlib's polynomial) of ``data``, continuing from ``value``.

    Same input contract and chaining law as :func:`crc32c`; numpy
    arrays are hashed through a flat uint8 view of their bytes.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    return zlib.crc32(data, value)


class ChecksumError(ValueError):
    """An artifact's payload does not match its recorded checksum."""


def checksum_value(algorithm: str, data, value: int = 0) -> int:
    """The ``algorithm`` CRC of ``data``, continuing from ``value``.

    Raises :class:`ChecksumError` for a tag outside
    :data:`SUPPORTED_CHECKSUMS`.  Both functions are looked up at call
    time, so wrappers installed on this module see every call.
    """
    if algorithm == "crc32":
        return crc32(data, value)
    if algorithm == "crc32c":
        return crc32c(data, value)
    raise ChecksumError(
        f"unsupported checksum algorithm {algorithm!r}; this build "
        f"verifies {_SUPPORTED_TEXT}")


def checksum_hex(data, value: int = 0) -> str:
    """``"crc32:xxxxxxxx"`` — the stamp new artifacts carry on disk."""
    return f"{CHECKSUM_ALGORITHM}:{crc32(data, value):08x}"


def verify_checksum(data, stamp: str, *, what: str = "artifact") -> None:
    """Raise :class:`ChecksumError` unless ``data`` matches ``stamp``.

    The stamp's tag picks the algorithm.  Unknown tags fail loudly too
    — a file claiming a checksum we cannot verify is not a file we can
    trust.
    """
    algorithm, _, expected = stamp.partition(":")
    if algorithm not in SUPPORTED_CHECKSUMS or not expected:
        raise ChecksumError(
            f"{what}: unsupported checksum {stamp!r}; this build "
            f"verifies {_SUPPORTED_TEXT}")
    actual = f"{checksum_value(algorithm, data):08x}"
    if actual != expected:
        raise ChecksumError(
            f"{what}: checksum mismatch — recorded "
            f"{algorithm}:{expected}, computed "
            f"{algorithm}:{actual}; the file is corrupt "
            f"(torn write or bit rot)")


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
#: ``hook(path, kind)`` callables invoked after each completed write.
_POST_WRITE_HOOKS: List[Callable[[str, Optional[str]], None]] = []


#: Leaf checks for :func:`check_schema`: ``(predicate, description)``.
JSON_INT = (lambda v: type(v) is int, "an integer")          # not bool
JSON_NUMBER = (lambda v: type(v) in (int, float) and math.isfinite(v),
               "a number")
JSON_TEXT = (lambda v: type(v) is str, "a string")


def check_schema(value, schema, key: str,
                 error: Callable[[str, str], Exception]) -> None:
    """Raise ``error(key, problem)`` at the first place ``value``
    departs from ``schema``.

    A dict schema is a JSON object with (at least) its keys, a
    one-item list a JSON list of that item, a pair a leaf check
    ``(predicate, description)``.  ``key`` names ``value``'s place:
    dotted object keys and ``[i]`` list indices, empty at the root.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise error(key, "must be a JSON object")
        for name, sub in schema.items():
            where = f"{key}.{name}" if key else name
            if name not in value:
                raise error(where, "is missing")
            check_schema(value[name], sub, where, error)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise error(key, "must be a JSON list")
        for i, item in enumerate(value):
            check_schema(item, schema[0], f"{key}[{i}]", error)
    elif not schema[0](value):
        raise error(key, f"must be {schema[1]}, not {value!r:.40}")


def add_post_write_hook(hook: Callable[[str, Optional[str]], None]) -> None:
    """Register a post-write hook (the chaos harness's injection seam)."""
    _POST_WRITE_HOOKS.append(hook)


def remove_post_write_hook(hook: Callable[[str, Optional[str]], None]
                           ) -> None:
    """Deregister ``hook``; absent hooks are ignored."""
    try:
        _POST_WRITE_HOOKS.remove(hook)
    except ValueError:
        pass


def atomic_write(path: str, data: Union[bytes, str], *,
                 fsync: bool = True, kind: Optional[str] = None) -> str:
    """Write ``data`` to ``path`` so a crash never leaves a torn file.

    The payload lands in a uniquely named temp file *in the destination
    directory* (``os.replace`` must not cross filesystems), is fsynced,
    then atomically renamed over ``path``; finally the directory entry
    itself is fsynced so the rename survives a power cut.  ``kind``
    tags the artifact for post-write hooks ("checkpoint", "report",
    "flight", "trace").
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp")
    try:
        try:
            os.write(fd, data)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(directory)
    for hook in list(_POST_WRITE_HOOKS):
        hook(path, kind)
    return path


def atomic_write_json(path: str, payload, *, indent: int = 2,
                      fsync: bool = True,
                      kind: Optional[str] = None) -> str:
    """:func:`atomic_write` of ``payload`` as JSON (trailing newline)."""
    return atomic_write(path, json.dumps(payload, indent=indent) + "\n",
                        fsync=fsync, kind=kind)


def _fsync_directory(directory: str) -> None:
    """Persist a rename by fsyncing its directory (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:          # pragma: no cover — exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:          # pragma: no cover
        pass
    finally:
        os.close(fd)
