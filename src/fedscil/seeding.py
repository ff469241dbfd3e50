"""Deterministic seed derivation and the one table of a run's seed streams.

Every random draw in the simulator comes from a numpy Generator seeded
through this module. A run has one master seed; component seeds are derived
from the master plus a string/int path (for example ``("client", t, r, m)``),
so per-client and per-session streams are independent of iteration order and
stable across platforms. Derivation hashes the canonical repr of the path
with SHA-256, which does not depend on Python's per-process hash salt.
:func:`seed_streams` lists every stream a run draws from its master seed; the
orchestrator draws through :func:`stream_seed`, the manifest records
:func:`seed_table`, and a component derives sub-streams by :func:`derive_seed`.
"""
from __future__ import annotations

from itertools import product

from .errors import ContractError


def derive_seed(master: int, *path: int | str) -> int:
    """Map (master, path) to a stable 63-bit seed."""
    import hashlib  # here, so that cli.main can keep OpenSSL out first
    token = repr((int(master),) + tuple(path)).encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def seed_streams(cfg) -> dict[str, tuple[range, ...]]:
    """Each stream a run of ``cfg`` draws from its master seed, with the range
    of each index. ``("genlab", t)`` is keyed by session: every round restarts
    the noise stream of the generator and student it continues."""
    every = range(cfg.data.sessions + 1)
    return {"data": (), "schedule": (), "init": (), "base": (),
            "genlab": (every,), "buffer": (every,),
            "partition": (every[1:],), "head": (every[1:],),
            "client": (every[1:], range(cfg.rounds), range(cfg.clients))}


def seed_table(cfg) -> dict[tuple, int]:
    """The seed of every path ``(name, *index)`` of :func:`seed_streams`."""
    return {(name, *index): derive_seed(cfg.seed, name, *index)
            for name, axes in seed_streams(cfg).items() for index in product(*axes)}


def stream_seed(cfg, name: str, *index: int) -> int:
    """One seed of :func:`seed_table`; a path it lacks raises ContractError."""
    axes = seed_streams(cfg).get(name)
    if (axes is None or len(index) != len(axes)
            or any(i not in axis for i, axis in zip(index, axes))):
        raise ContractError(f"no seed stream {(name, *index)!r} in the table")
    return derive_seed(cfg.seed, name, *index)
