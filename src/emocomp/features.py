"""TF-IDF, component dictionaries and embedding features for the
feature-based classifiers; token-embedding ingestion for the neural ones.

This module reads every resource file: lexicons, the embeddings file, the
POS and appraisal sidecars and the token-embedding store. The line-oriented
files share two rules. A keyed line is ``key<sep>rest``, where the
separator is a tab in a sidecar and whitespace in the embeddings file;
blank lines are skipped, and a key may not repeat. A row of decimals (an
embedding, an appraisal vector, a row of a store record) holds at least
one number, each finite, and is as wide as the file's first row. Every
error in these files names its ``path:line``.
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
# Line-oriented resource files: one line rule and one row rule
# ---------------------------------------------------------------------------

def _keyed_lines(path: str | Path, key: str, sep: str | None = None):
    """Line number, key and rest of each non-blank ``key<sep>rest`` line of
    ``path``, where ``key`` names what the keys are. A None ``sep`` is the
    first whitespace, and a line that is only a key has an empty rest. A
    line without ``sep`` or a key that repeats is a data error naming
    ``path:line``."""
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            name, *rest = line.split(sep, 1)
            if sep is not None and not rest:
                raise DataError(f"{path}:{lineno}: expected {key}<TAB>values")
            if name in seen:
                raise DataError(f"{path}:{lineno}: {key} {name!r} repeats")
            seen.add(name)
            yield lineno, name, rest[0] if rest else ""


def _decimals(text: str, width: int | None, path: str | Path, lineno: int) -> np.ndarray:
    """The whitespace-separated decimals of ``text``, line ``lineno`` of
    ``path``: at least one, each finite, and ``width`` of them unless
    ``width`` is None. Anything else is a data error naming ``path:line``."""
    try:
        row = np.array([float(v) for v in text.split()])
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: non-numeric value") from exc
    if not len(row):
        raise DataError(f"{path}:{lineno}: entry has no values")
    if not np.isfinite(row).all():
        raise DataError(f"{path}:{lineno}: non-finite value")
    if width is not None and len(row) != width:
        raise DataError(f"{path}:{lineno}: expected {width} values, got {len(row)}")
    return row


def _keyed_rows(path: str | Path, key: str, sep: str | None = None) -> dict[str, np.ndarray]:
    """The row of decimals after each key of ``path``, each as wide as the first."""
    rows: dict[str, np.ndarray] = {}
    width = None
    for lineno, name, rest in _keyed_lines(path, key, sep):
        rows[name] = _decimals(rest, width, path, lineno)
        width = len(rows[name])
    return rows


def load_tagged_sidecar(path: str | Path) -> dict[str, list[str]]:
    """``id<TAB>tag tag ...`` per line."""
    return {inst_id: rest.split() for _, inst_id, rest in _keyed_lines(path, "id", "\t")}


def load_vector_sidecar(path: str | Path) -> dict[str, np.ndarray]:
    """``id<TAB>v1 v2 ...`` per line."""
    return _keyed_rows(path, "id", "\t")


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
    """Text format: one entry per line, a distinct token then whitespace-separated decimals."""
    vectors = _keyed_rows(path, "token")
    if not vectors:
        raise DataError(f"embedding file {path} is empty")
    return EmbeddingTable(len(next(iter(vectors.values()))), vectors)


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
    """Line-oriented records: a distinct instance id, then T >= 1, then T
    rows of decimals."""
    sequences: dict[str, np.ndarray] = {}
    width = None
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        for lineno, line in lines:
            inst_id = line.strip()
            if not inst_id:
                continue
            if inst_id in sequences:
                raise DataError(f"{path}:{lineno}: id {inst_id!r} repeats")
            # past the end of the file, a line reads as empty
            lineno, line = next(lines, (lineno + 1, ""))
            try:
                count = int(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: expected the row count of {inst_id!r}") from exc
            if count < 1:
                raise DataError(f"{path}:{lineno}: record {inst_id!r} needs at least one row")
            rows = []
            while len(rows) < count:
                lineno, line = next(lines, (lineno + 1, ""))
                rows.append(_decimals(line, width, path, lineno))
                width = len(rows[-1])
            sequences[inst_id] = np.array(rows)
    if width is None:
        raise DataError(f"token embedding store {path} is empty")
    return TokenEmbeddingStore(width, sequences)


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
