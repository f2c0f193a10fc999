"""Deterministic part-name -> unit-vector codebook.

Each name is hashed (with the seed) into a reproducible Gaussian vector;
when the category has at most `dim` names, Gram-Schmidt is applied in
name-sorted order so pairwise dot products vanish.  The encoding is a
pure function of (name set, dim, seed) -- input order never matters.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidArgumentError, NotFoundError
from .rng import rng_from


@dataclass(frozen=True)
class PartNameCodebook:
    names: tuple          # name-sorted
    vectors: np.ndarray   # (m, dim) unit rows, aligned with names
    dim: int
    seed: int

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise NotFoundError(f"unknown part name: {name!r}") from None

    def vector(self, name: str) -> np.ndarray:
        return self.vectors[self.index(name)]

    def to_record(self) -> dict:
        return {"names": list(self.names), "dim": self.dim, "seed": self.seed,
                "vectors": self.vectors.tolist()}

    @staticmethod
    def from_record(rec: dict) -> "PartNameCodebook":
        return PartNameCodebook(tuple(rec["names"]), np.array(rec["vectors"]),
                                int(rec["dim"]), int(rec["seed"]))


def _raw_vector(name: str, dim: int, seed: int, attempt: int = 0) -> np.ndarray:
    v = rng_from(seed, "codebook", name, attempt).standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return _raw_vector(name, dim, seed, attempt + 1)
    return v / norm


def build_codebook(names, dim: int, seed: int) -> PartNameCodebook:
    """Codebook over `names`; orthonormal rows whenever len(names) <= dim."""
    names = list(names)
    if not names:
        raise InvalidArgumentError("names must be non-empty")
    if len(set(names)) != len(names):
        raise InvalidArgumentError("names must be unique")
    if dim < 2:
        raise InvalidArgumentError("dim must be >= 2")
    ordered = sorted(names)
    vectors = np.stack([_raw_vector(name, dim, seed) for name in ordered])
    if len(ordered) <= dim:
        basis = []
        for i, v in enumerate(vectors):
            attempt = 0
            w = v.copy()
            while True:
                for b in basis:
                    w -= (w @ b) * b
                norm = np.linalg.norm(w)
                if norm > 1e-9:
                    break
                attempt += 1  # near-collinear hash draw; retry
                w = _raw_vector(ordered[i], dim, seed, attempt)
            basis.append(w / norm)
        vectors = np.stack(basis)
    return PartNameCodebook(tuple(ordered), vectors, dim, seed)


def build_codebooks(vocab: dict, dim: int, seed: int) -> dict:
    """Per-category codebooks with globally consistent name vectors.

    Gram-Schmidt runs once over the sorted union of all names, then each
    category takes its subset.  This keeps a shared name (e.g. a part that
    appears in several categories) pointing at the same vector everywhere,
    which matters when one network is trained jointly across categories:
    independent per-category orthogonalization would hand the same name
    conflicting targets.
    """
    union = sorted({n for names in vocab.values() for n in names})
    base = build_codebook(union, dim, seed)
    out = {}
    for category, names in vocab.items():
        ordered = tuple(sorted(names))
        vectors = np.stack([base.vector(n) for n in ordered])
        out[category] = PartNameCodebook(ordered, vectors, dim, seed)
    return out


def query_similarity(field, codebook: PartNameCodebook, name: str) -> np.ndarray:
    """Per-point cosine similarity between the field and the named vector."""
    values = field.values if hasattr(field, "values") else np.asarray(field)
    if values.shape[1] != codebook.dim:
        raise InvalidArgumentError(
            f"field dim {values.shape[1]} != codebook dim {codebook.dim}")
    return values @ codebook.vector(name)


def save_codebooks(path, codebooks: dict) -> None:
    """JSON-lines sidecar: one record per category codebook."""
    with open(path, "w") as f:
        for category in sorted(codebooks):
            rec = {"category": category, **codebooks[category].to_record()}
            f.write(json.dumps(rec) + "\n")


def load_codebooks(path) -> dict:
    """Inverse of save_codebooks; raises FormatError naming the first bad line."""
    out = {}
    with open(path) as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                out[rec["category"]] = PartNameCodebook.from_record(rec)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise FormatError(
                    f"bad codebook record at line {i + 1}: {exc}") from exc
    return out
