"""TF-IDF, component dictionaries and embedding features for the
feature-based classifiers; token-embedding ingestion for the neural ones.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, StateError
from .text import extract_ngrams, porter_stem


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

@dataclass
class TfIdfModel:
    vocabulary: dict[str, int]
    document_frequency: dict[str, int]
    corpus_size: int

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def idf(self, gram: str) -> float:
        df = self.document_frequency[gram]
        return float(np.log((1.0 + self.corpus_size) / (1.0 + df)) + 1.0)


def tfidf_fit(documents: list[list[str]]) -> TfIdfModel:
    """Fit vocabulary and document frequencies on (stemmed) token sequences."""
    df: Counter = Counter()
    for doc in documents:
        df.update(set(extract_ngrams(doc)))
    vocab = {g: i for i, g in enumerate(sorted(df))}
    # vocabulary order, not set-iteration order, so stored models are
    # byte-identical whatever the string hash seed
    return TfIdfModel(vocab, {g: df[g] for g in vocab}, len(documents))


def tfidf_transform(model: TfIdfModel | None, documents: list[list[str]]) -> np.ndarray:
    """One row per document: raw-count tf times smoothed idf, L2-normalized;
    unseen n-grams dropped."""
    if model is None:
        raise StateError("tfidf_transform called before tfidf_fit")
    out = np.zeros((len(documents), model.dim))
    for row, tokens in enumerate(documents):
        entries = {}
        for gram, count in extract_ngrams(tokens).items():
            col = model.vocabulary.get(gram)
            if col is not None:
                entries[col] = count * model.idf(gram)
        cols = sorted(entries)
        # a sequential sum in column order: numpy's pairwise sum rounds some
        # norms differently, which shifts fitted weights in the last bits
        norm = float(np.sqrt(sum(entries[c] * entries[c] for c in cols)))
        for c in cols:
            out[row, c] = entries[c] / norm
    return out


# ---------------------------------------------------------------------------
# Component dictionaries
# ---------------------------------------------------------------------------

@dataclass
class DictionaryLexicon:
    component: str
    entries: frozenset[str]


def load_lexicon(path: str | Path, component: str) -> DictionaryLexicon:
    """One term per line, '#' comments; terms are stemmed on load so they
    match stemmed documents regardless of how the file was written."""
    entries = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        term = raw.split("#", 1)[0].strip().lower()
        if term:
            entries.add(porter_stem(term))
    if not entries:
        raise DataError(f"lexicon file {path} contains no entries")
    return DictionaryLexicon(component, frozenset(entries))


def dictionary_features(stemmed: list[str], lexicons: list[DictionaryLexicon]) -> np.ndarray:
    """Per-lexicon match count followed by per-lexicon presence flags."""
    counts = [sum(1 for t in stemmed if t in lex.entries) for lex in lexicons]
    flags = [1.0 if c > 0 else 0.0 for c in counts]
    return np.array([float(c) for c in counts] + flags)


# ---------------------------------------------------------------------------
# Word embeddings (mean-pooled) and per-token embedding sequences
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingTable:
    dimension: int
    vectors: dict[str, np.ndarray]


def load_embedding_file(path: str | Path) -> EmbeddingTable:
    """Text format: one entry per line, token then whitespace-separated decimals."""
    vectors: dict[str, np.ndarray] = {}
    dimension = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, *vals = parts
            try:
                vec = np.array([float(v) for v in vals])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric embedding value") from exc
            if not np.isfinite(vec).all():
                raise DataError(f"{path}:{lineno}: non-finite embedding value")
            if dimension is None:
                dimension = len(vec)
                if dimension == 0:
                    raise DataError(f"{path}:{lineno}: entry has no values")
            elif len(vec) != dimension:
                raise DataError(
                    f"{path}:{lineno}: expected {dimension} values, got {len(vec)}")
            vectors[token] = vec
    if dimension is None:
        raise DataError(f"embedding file {path} is empty")
    return EmbeddingTable(dimension, vectors)


def pooled_embedding_features(tokens: list[str], table: EmbeddingTable) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector when none found."""
    hits = [table.vectors[t] for t in tokens if t in table.vectors]
    if not hits:
        return np.zeros(table.dimension)
    return np.mean(hits, axis=0)


@dataclass
class TokenEmbeddingStore:
    dimension: int
    sequences: dict[str, np.ndarray]


def load_token_embedding_store(path: str | Path) -> TokenEmbeddingStore:
    """Line-oriented records: instance id, then T >= 1, then T rows of
    d >= 1 decimals."""
    sequences: dict[str, np.ndarray] = {}
    dimension = None
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        inst_id = lines[i].strip()
        try:
            T = int(lines[i + 1])
            # ragged rows make np.array raise ValueError
            mat = np.array([[float(v) for v in lines[i + 2 + t].split()] for t in range(T)])
            if mat.ndim != 2 or 0 in mat.shape:
                raise ValueError(f"a matrix of shape {mat.shape}")
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}: malformed record for id {inst_id!r}") from exc
        if not np.isfinite(mat).all():
            raise DataError(f"{path}: record {inst_id!r} holds a non-finite value")
        if dimension is None:
            dimension = mat.shape[1]
        elif mat.shape[1] != dimension:
            raise DataError(f"{path}: record {inst_id!r} has dimension {mat.shape[1]}, expected {dimension}")
        if inst_id in sequences:
            raise DataError(f"{path}: duplicate record for id {inst_id!r}")
        sequences[inst_id] = mat
        i += 2 + T
    if dimension is None:
        raise DataError(f"token embedding store {path} is empty")
    return TokenEmbeddingStore(dimension, sequences)


def hashed_token_embedding(token: str, dimension: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-embedding: a pure function of (token, seed, dimension)."""
    digest = hashlib.sha256(f"{seed}:{dimension}:{token}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return rng.standard_normal(dimension) / np.sqrt(dimension)


def resolve_token_embeddings(instances, tokenizer, store: TokenEmbeddingStore | None = None,
                             fallback_dim: int = 64, seed: int = 0) -> dict[str, np.ndarray]:
    """Per-instance T x d matrices, from the store or, for an instance the
    store lacks, hashed vectors of its ``tokenizer`` tokens.

    ``instances`` is any iterable of objects with ``id`` and ``text``. Each
    distinct token is hashed once per call.
    """
    out: dict[str, np.ndarray] = {}
    dim = store.dimension if store is not None else fallback_dim
    hashed: dict[str, np.ndarray] = {}
    for inst in instances:
        if store is not None and inst.id in store.sequences:
            out[inst.id] = store.sequences[inst.id]
            continue
        tokens = tokenizer(inst.text) or ["<empty>"]
        for t in tokens:
            if t not in hashed:
                hashed[t] = hashed_token_embedding(t, dim, seed)
        out[inst.id] = np.stack([hashed[t] for t in tokens])
    return out
