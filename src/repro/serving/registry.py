"""Persistent multi-tenant enrollment state: d-vectors and model checkpoints.

The registry is the serving layer's durable memory.  Enrollment is expensive
and happens once per speaker (the paper needs three 3-second reference clips);
a service restart must not lose it, and — more strictly — must not *change*
it: a d-vector reloaded from disk is byte-for-byte the vector the encoder
produced, and a Selector restored from its checkpoint protects bit-identically
to the instance that was saved.  ``.npz`` persistence via
:mod:`repro.nn.serialization` gives both properties for free (float64 arrays
round-trip exactly).

Layout under ``root``::

    registry.json        # format version, config geometry, tenant index
    selector.npz         # Selector parameters (save_model)
    encoder.npz          # SpectralEncoder projection buffer (save_model)
    tenants/<id>.npz     # one d-vector per enrolled tenant

A registry opened with ``root=None`` is memory-only: same API, nothing
written — the shape used by throwaway benchmarks and tests that only need the
tenant bookkeeping.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.encoder import SpeakerEncoder, SpectralEncoder
from repro.core.pipeline import NECSystem
from repro.core.selector import Selector
from repro.nn.serialization import load_model, save_arrays, save_model

PathLike = Union[str, Path]

_FORMAT_VERSION = 1
#: Tenant ids become file names; keep them to a portable, unambiguous charset.
_TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _check_tenant_id(tenant_id) -> None:
    """Ids name files under the registry root, so only safe names pass."""
    if not isinstance(tenant_id, str) or not _TENANT_ID_PATTERN.match(tenant_id):
        raise ValueError(f"invalid tenant id {tenant_id!r}: use 1-64 chars of [A-Za-z0-9._-]")


class EnrollmentRegistry:
    """Durable (or memory-only) store of tenants, d-vectors and checkpoints.

    Typical bootstrap, then a later fresh-process restore::

        registry = EnrollmentRegistry(root, config=config)
        registry.save_models(system)                 # selector + encoder
        registry.enroll("alice", refs, encoder=system.encoder)

        # ... new process ...
        registry = EnrollmentRegistry(root)          # config read from disk
        system = registry.load_system()              # bit-identical weights
        system.set_embedding(registry.embedding("alice"))
    """

    def __init__(
        self,
        root: Optional[PathLike],
        config: Optional[NECConfig] = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._embeddings: Dict[str, np.ndarray] = {}
        self._models_saved = False

        existing = self._read_metadata()
        if existing is not None:
            stored = self._config_from_metadata(existing)
            if config is not None and config != stored:
                raise ValueError(
                    "registry at "
                    f"{self.root} was created with a different NECConfig; "
                    "open it without a config or migrate it explicitly"
                )
            self.config = stored
            self._models_saved = bool(existing.get("models_saved", False))
            for tenant_id in existing.get("tenants", []):
                self._embeddings[tenant_id] = self._checked(
                    tenant_id, self._read_embedding(tenant_id)
                )
        else:
            self.config = (config or NECConfig.default()).validate()
            if self.root is not None:
                (self.root / "tenants").mkdir(parents=True, exist_ok=True)
                self._write_metadata()

    # -- paths and metadata ------------------------------------------------
    @property
    def persistent(self) -> bool:
        return self.root is not None

    def _metadata_path(self) -> Optional[Path]:
        return None if self.root is None else self.root / "registry.json"

    def _selector_path(self) -> Optional[Path]:
        return None if self.root is None else self.root / "selector.npz"

    def _encoder_path(self) -> Optional[Path]:
        return None if self.root is None else self.root / "encoder.npz"

    def _tenant_path(self, tenant_id: str) -> Optional[Path]:
        _check_tenant_id(tenant_id)
        return None if self.root is None else self.root / "tenants" / f"{tenant_id}.npz"

    def _read_metadata(self) -> Optional[Dict]:
        path = self._metadata_path()
        if path is None or not path.exists():
            return None
        with open(path) as handle:
            metadata = json.load(handle)
        if metadata.get("format") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported registry format {metadata.get('format')!r} at {path}"
            )
        return metadata

    def _write_metadata(self) -> None:
        path = self._metadata_path()
        if path is None:
            return
        payload = {
            "format": _FORMAT_VERSION,
            "config": asdict(self.config),
            "models_saved": self._models_saved,
            "tenants": sorted(self._embeddings),
        }
        temporary = path.with_suffix(".json.tmp")
        with open(temporary, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        temporary.replace(path)  # atomic on POSIX: readers never see half a file

    @staticmethod
    def _config_from_metadata(metadata: Dict) -> NECConfig:
        fields = dict(metadata["config"])
        fields["selector_dilations"] = tuple(fields["selector_dilations"])
        return NECConfig(**fields).validate()

    def _read_embedding(self, tenant_id: str) -> np.ndarray:
        path = self._tenant_path(tenant_id)
        with np.load(path) as archive:
            return np.array(archive["embedding"], copy=True)

    # -- tenants -----------------------------------------------------------
    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._embeddings)

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._embeddings

    def embedding(self, tenant_id: str) -> np.ndarray:
        """The enrolled d-vector, exactly as stored (a defensive copy)."""
        with self._lock:
            if tenant_id not in self._embeddings:
                raise KeyError(f"tenant '{tenant_id}' is not enrolled")
            return np.array(self._embeddings[tenant_id], copy=True)

    def _checked(self, tenant_id: str, embedding: np.ndarray) -> np.ndarray:
        """``embedding`` as a flat float64 d-vector, once it and the id are valid."""
        _check_tenant_id(tenant_id)
        vector = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if vector.size != self.config.embedding_dim:
            raise ValueError(
                f"expected a {self.config.embedding_dim}-dim d-vector for "
                f"tenant '{tenant_id}', got {vector.size}"
            )
        return vector

    def register(self, tenant_id: str, embedding: np.ndarray) -> np.ndarray:
        """Store a precomputed d-vector for ``tenant_id`` (persisted if rooted)."""
        vector = self._checked(tenant_id, embedding)
        with self._lock:
            path = self._tenant_path(tenant_id)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                save_arrays(path, {"embedding": vector})
            self._embeddings[tenant_id] = np.array(vector, copy=True)
            self._write_metadata()
        return vector

    def enroll(
        self,
        tenant_id: str,
        reference_audios: Sequence[AudioSignal | np.ndarray],
        encoder: SpeakerEncoder,
    ) -> np.ndarray:
        """Embed ``reference_audios`` with ``encoder`` and register the result."""
        if not reference_audios:
            raise ValueError("enrollment requires at least one reference audio")
        return self.register(tenant_id, encoder.embed(reference_audios))

    def forget(self, tenant_id: str) -> None:
        """Remove a tenant and its persisted d-vector."""
        with self._lock:
            if tenant_id not in self._embeddings:
                raise KeyError(f"tenant '{tenant_id}' is not enrolled")
            del self._embeddings[tenant_id]
            path = self._tenant_path(tenant_id)
            if path is not None and path.exists():
                path.unlink()
            self._write_metadata()

    # -- model checkpoints -------------------------------------------------
    @property
    def models_saved(self) -> bool:
        return self._models_saved

    def save_models(self, system: NECSystem) -> None:
        """Checkpoint the system's Selector and encoder weights.

        Only :class:`~repro.core.encoder.SpectralEncoder` (the default,
        training-free encoder) is persistable; other encoders must be
        reconstructed by the caller before :meth:`load_system`.
        """
        if self.root is None:
            raise RuntimeError("memory-only registry cannot persist models")
        if system.config != self.config:
            raise ValueError("system config does not match the registry config")
        save_model(system.selector, self._selector_path())
        if isinstance(system.encoder, SpectralEncoder):
            save_model(system.encoder, self._encoder_path())
        with self._lock:
            self._models_saved = True
            self._write_metadata()

    def load_system(self, seed: int = 0) -> NECSystem:
        """A fresh :class:`NECSystem` with the checkpointed weights restored.

        The returned system is un-enrolled; install a tenant's d-vector with
        :meth:`NECSystem.set_embedding` (or let
        :class:`~repro.serving.service.ProtectionService` do it per session).
        Protection through the restored system is bit-identical to the system
        that was saved — ``.npz`` round-trips float64 parameters exactly.
        """
        if self.root is None or not self._models_saved:
            raise RuntimeError("no model checkpoints saved in this registry")
        selector = load_model(Selector(self.config, seed=seed), self._selector_path())
        encoder = SpectralEncoder(self.config, seed=seed)
        encoder_path = self._encoder_path()
        if encoder_path is not None and encoder_path.exists():
            load_model(encoder, encoder_path)
        return NECSystem(self.config, encoder=encoder, selector=selector, seed=seed)
