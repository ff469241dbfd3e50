"""Flat checkpoint archive with a bit-exact round-trip guarantee.

A checkpoint is a zip file holding one raw little-endian float64 blob per
named tensor plus ``manifest.json`` describing names, shapes, group tags and
any extra metadata the owner wants to carry (models store their architecture
and session-to-column map there). Blobs are written with ZIP_STORED so the
bytes on disk are exactly ``array.astype('<f8').tobytes()``. Every member
carries the same fixed timestamp, so saving the same entries twice gives the
same file bytes.
"""
from __future__ import annotations

import json
import zipfile
from typing import Iterable

import numpy as np

from .errors import ContractError

Array = np.ndarray

FORMAT_VERSION = 1

# the earliest time a zip header can hold
_MEMBER_TIME = (1980, 1, 1, 0, 0, 0)


def _member(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_MEMBER_TIME)
    info.external_attr = 0o600 << 16  # what writestr gives a named member
    return info


def save_state(path, entries: Iterable[tuple[str, Array, str]],
               extra: dict | None = None) -> None:
    entries = list(entries)
    names = [name for name, _, _ in entries]
    if len(set(names)) != len(names):
        raise ContractError("duplicate tensor name in checkpoint entries")
    manifest = {
        "format_version": FORMAT_VERSION,
        "entries": [
            {"name": name, "shape": list(arr.shape), "group": group,
             "file": f"data/{i:04d}.bin"}
            for i, (name, arr, group) in enumerate(entries)
        ],
        "extra": extra or {},
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr(_member("manifest.json"),
                    json.dumps(manifest, sort_keys=True, indent=1))
        for record, (_, arr, _) in zip(manifest["entries"], entries):
            zf.writestr(_member(record["file"]),
                        np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_state(path) -> tuple[dict[str, Array], dict[str, str], dict]:
    """Returns (name -> array, name -> group, extra); a repeated name, or a
    blob missing or not of its shape's size, is a ContractError."""
    with zipfile.ZipFile(path, "r") as zf:
        manifest = json.loads(zf.read("manifest.json"))
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ContractError("unsupported checkpoint format version")
        arrays: dict[str, Array] = {}
        groups: dict[str, str] = {}
        for record in manifest["entries"]:
            name, member, shape = record["name"], record["file"], record["shape"]
            if name in arrays:
                raise ContractError(f"{path}: entry {name} is repeated")
            if member not in zf.namelist():
                raise ContractError(f"{path}: entry {name} has no member {member}")
            raw = zf.read(member)
            if len(raw) != 8 * int(np.prod(shape)):
                raise ContractError(f"{path}: entry {name}: {len(raw)} bytes, shape {shape}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            groups[name] = record["group"]
    return arrays, groups, manifest.get("extra", {})
