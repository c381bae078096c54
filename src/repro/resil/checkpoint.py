"""The ``repro-ckpt/v1`` checkpoint format.

A checkpoint is the full flow state of one NF — flow table, port
bookkeeping, expiry clock, counters — as produced by
``NetworkFunction.checkpoint_state()``, wrapped in a small framed
container (the microflow cache is never part of it: a restore builds a
fresh NF behind an empty cache)::

    repro-ckpt/v1\\n            14-byte magic + version line
    >I crc32                   CRC-32 of the body
    >I length                  body length in bytes
    body                       canonical JSON (sorted keys, no spaces)

The body carries the NF's name, the configuration it ran under, the
snapshot time and the NF-specific ``state`` payload. Everything is
validated on the way *in*: bad magic, unknown version, truncation and
CRC mismatch raise :class:`CheckpointError` from :meth:`Checkpoint.from_bytes`;
name/config mismatches raise from :func:`restore`; state-level
inconsistencies (double-allocated ports, out-of-shard ports, broken
chain ordering) raise from the NF's own ``restore_state`` before any
structure is mutated.

Restore goes through the NF's monotonic-clock clamp: the restored
``last_now`` floors the NF's notion of time, so a snapshot taken at T
and restored on a host whose clock reads T' < T neither mass-expires
(expiry thresholds derive from the clamped clock) nor immortalizes
flows (once the clock passes T again, normal expiry resumes).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig

#: Magic + version line opening every checkpoint.
MAGIC = b"repro-ckpt/v1\n"

_FRAME = struct.Struct(">II")  # crc32, body length


class CheckpointError(ValueError):
    """The byte stream is not a usable ``repro-ckpt/v1`` checkpoint."""


@dataclass(frozen=True)
class Checkpoint:
    """One NF's serialized flow state plus enough context to refuse misuse."""

    nf: str
    taken_at_us: int
    config: Dict[str, int] = field(default_factory=dict)
    state: Dict = field(default_factory=dict)

    # -- wire format -------------------------------------------------------
    def to_bytes(self) -> bytes:
        body = json.dumps(
            {
                "nf": self.nf,
                "taken_at_us": self.taken_at_us,
                "config": self.config,
                "state": self.state,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return MAGIC + _FRAME.pack(zlib.crc32(body), len(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        if not data.startswith(MAGIC):
            head = bytes(data[: len(MAGIC)])
            raise CheckpointError(f"bad magic {head!r}; expected {MAGIC!r}")
        frame = data[len(MAGIC) :]
        if len(frame) < _FRAME.size:
            raise CheckpointError("truncated checkpoint: frame header incomplete")
        crc, length = _FRAME.unpack_from(frame)
        body = frame[_FRAME.size :]
        if len(body) < length:
            raise CheckpointError(
                f"truncated checkpoint: body is {len(body)} of {length} bytes"
            )
        if len(body) > length:
            raise CheckpointError(
                f"oversized checkpoint: {len(body) - length} trailing bytes"
            )
        if zlib.crc32(body) != crc:
            raise CheckpointError("checkpoint CRC mismatch: body corrupted")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"checkpoint body is not valid JSON: {exc}") from exc
        if type(payload) is not dict:
            raise CheckpointError("checkpoint body is not a JSON object")
        kinds = (("nf", str), ("taken_at_us", int), ("config", dict), ("state", dict))
        for key, kind in kinds:
            if type(payload.get(key)) is not kind:
                raise CheckpointError(
                    f"checkpoint body lacks {key!r} as a {kind.__name__}"
                )
        return cls(
            nf=payload["nf"],
            taken_at_us=payload["taken_at_us"],
            config=payload["config"],
            state=payload["state"],
        )


def _config_of(nf: NetworkFunction) -> Optional[NatConfig]:
    config = getattr(nf, "config", None)
    if config is None:
        config = getattr(getattr(nf, "inner", None), "config", None)
    return config


def snapshot(nf: NetworkFunction, now_us: int = 0) -> Checkpoint:
    """Capture ``nf``'s flow state as a :class:`Checkpoint`."""
    config = _config_of(nf)
    return Checkpoint(
        nf=nf.name,
        taken_at_us=now_us,
        config=asdict(config) if config is not None else {},
        state=nf.checkpoint_state(),
    )


def restore(nf: NetworkFunction, checkpoint: Checkpoint) -> None:
    """Adopt a checkpoint into a freshly constructed ``nf``.

    The checkpoint must come from the same NF kind running the same
    configuration — restoring a shard's state into a different shard is
    an ownership violation, caught here by config comparison and again
    (defense in depth) by the port-range cross-check inside the NF's
    ``restore_state``.
    """
    if checkpoint.nf != nf.name:
        raise CheckpointError(
            f"checkpoint is for NF {checkpoint.nf!r}, not {nf.name!r}"
        )
    config = _config_of(nf)
    ours = asdict(config) if config is not None else {}
    if checkpoint.config != ours:
        diff = {
            key: (checkpoint.config.get(key), ours.get(key))
            for key in set(checkpoint.config) | set(ours)
            if checkpoint.config.get(key) != ours.get(key)
        }
        raise CheckpointError(f"checkpoint config mismatch: {diff}")
    nf.restore_state(checkpoint.state)


#: Magic + version line opening a coordinated multi-shard checkpoint set.
SET_MAGIC = b"repro-ckpt-set/v1\n"

_SET_FRAME = struct.Struct(">II")  # crc32, manifest length


@dataclass(frozen=True)
class CheckpointSet:
    """A coordinated checkpoint: one consistent cut across all shards.

    The sharded runtimes produce one :class:`Checkpoint` per worker at a
    fenced moment (no burst in flight on any worker), and this manifest
    binds them together so a restore is all-or-nothing::

        repro-ckpt-set/v1\\n       18-byte magic + version line
        >I crc32                   CRC-32 of the manifest
        >I length                  manifest length in bytes
        manifest                   canonical JSON: taken_at_us, workers,
                                   nfs, frame_lengths
        frames                     the per-shard ``repro-ckpt/v1`` frames,
                                   concatenated in worker order

    Each inner frame keeps its own magic and CRC, so corruption is
    caught at whichever layer it strikes. Shard order in the manifest
    *is* worker order: frame ``i`` restores into worker ``i``'s NF and
    nowhere else (the per-frame config cross-check enforces that even if
    a manifest is hand-edited).
    """

    taken_at_us: int
    checkpoints: Tuple[Checkpoint, ...]

    def __post_init__(self) -> None:
        if not self.checkpoints:
            raise CheckpointError("a checkpoint set needs at least one shard")

    @property
    def workers(self) -> int:
        return len(self.checkpoints)

    def for_workers(self, count: int) -> Tuple[Checkpoint, ...]:
        """The frames in worker order, refused unless there is one each."""
        if count != self.workers:
            raise CheckpointError(
                f"checkpoint set holds {self.workers} shard(s), "
                f"runtime has {count}"
            )
        return self.checkpoints

    def to_bytes(self) -> bytes:
        frames = [ckpt.to_bytes() for ckpt in self.checkpoints]
        manifest = json.dumps(
            {
                "taken_at_us": self.taken_at_us,
                "workers": len(frames),
                "nfs": [ckpt.nf for ckpt in self.checkpoints],
                "frame_lengths": [len(frame) for frame in frames],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return (
            SET_MAGIC
            + _SET_FRAME.pack(zlib.crc32(manifest), len(manifest))
            + manifest
            + b"".join(frames)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CheckpointSet":
        if not data.startswith(SET_MAGIC):
            head = bytes(data[: len(SET_MAGIC)])
            raise CheckpointError(f"bad magic {head!r}; expected {SET_MAGIC!r}")
        rest = data[len(SET_MAGIC) :]
        if len(rest) < _SET_FRAME.size:
            raise CheckpointError("truncated checkpoint set: header incomplete")
        crc, length = _SET_FRAME.unpack_from(rest)
        manifest_bytes = rest[_SET_FRAME.size : _SET_FRAME.size + length]
        if len(manifest_bytes) < length:
            raise CheckpointError("truncated checkpoint set: manifest incomplete")
        if zlib.crc32(manifest_bytes) != crc:
            raise CheckpointError("checkpoint set CRC mismatch: manifest corrupted")
        try:
            manifest = json.loads(manifest_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"manifest is not valid JSON: {exc}") from exc
        for key in ("taken_at_us", "workers", "nfs", "frame_lengths"):
            if key not in manifest:
                raise CheckpointError(f"checkpoint set manifest missing {key!r}")
        lengths = manifest["frame_lengths"]
        if manifest["workers"] != len(lengths):
            raise CheckpointError(
                f"manifest claims {manifest['workers']} workers "
                f"but lists {len(lengths)} frames"
            )
        body = rest[_SET_FRAME.size + length :]
        if len(body) != sum(lengths):
            raise CheckpointError(
                f"checkpoint set frames are {len(body)} bytes, "
                f"manifest promises {sum(lengths)}"
            )
        checkpoints = []
        offset = 0
        for frame_length in lengths:
            checkpoints.append(
                Checkpoint.from_bytes(body[offset : offset + frame_length])
            )
            offset += frame_length
        for index, (name, ckpt) in enumerate(zip(manifest["nfs"], checkpoints)):
            if ckpt.nf != name:
                raise CheckpointError(
                    f"shard {index} frame is for NF {ckpt.nf!r}, "
                    f"manifest says {name!r}"
                )
        return cls(
            taken_at_us=int(manifest["taken_at_us"]),
            checkpoints=tuple(checkpoints),
        )


__all__ = [
    "MAGIC",
    "SET_MAGIC",
    "Checkpoint",
    "CheckpointError",
    "CheckpointSet",
    "restore",
    "snapshot",
]
