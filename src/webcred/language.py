"""Character-trigram language identification.

A small built-in detector replaces the external language-detection service:
the corpus filter only needs a coarse English-vs-not decision.  Each
language profile is a character-trigram frequency vector built from the
bundled snippets in :mod:`webcred._langdata`; a document is scored by
cosine similarity against every profile and assigned the best match
(Cavnar and Trenkle, 1994).

The text is normalised to its lowercased letter runs joined by single
spaces, with one space at each end, so every non-letter run is one gap.
Trigrams are counted as integers: the normalised text is read as UTF-32
code points, and each trigram's three 21-bit code points are packed into
one int64 key.  A document's keys are looked up in the sorted union of
the profile keys, so its dot product with every profile is one integer
matrix product.  Dots and squared norms stay exact integers until the
final division, so the result equals that of counting trigram strings in
a dict.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from ._langdata import PROFILE_TEXTS

MIN_TEXT_CHARS = 20

LETTER_RUNS = re.compile(r"[a-zà-öø-ÿœßñçа-яά-ώ]+")

# Every code point is below 2**21, so three fit in an int64 key.
_CODE_BITS = 21


def _trigram_counts(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct packed trigram keys of lowercased text with
    non-letters as gaps, and the count of each."""
    # The letter runs joined by single spaces and padded with one at each
    # end: each run of non-letters becomes one space, so no trigram is all
    # whitespace.
    normalized = " " + " ".join(LETTER_RUNS.findall(text.lower())) + " "
    codes = np.frombuffer(normalized.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    keys = (codes[:-2] << 2 * _CODE_BITS) | (codes[1:-1] << _CODE_BITS) | codes[2:]
    return np.unique(keys, return_counts=True)


def _norm(counts: np.ndarray) -> float:
    return math.sqrt(int(counts @ counts))


@lru_cache(maxsize=1)
def _profiles() -> tuple[list[str], np.ndarray, np.ndarray, list[float]]:
    """The languages in sorted order, the sorted union of their trigram
    keys, the count of each key in each language (one column per
    language, 0 where absent) and each language's norm."""
    langs = sorted(PROFILE_TEXTS)
    histograms = [_trigram_counts(PROFILE_TEXTS[lang]) for lang in langs]
    # The counting form of np.unique, as in _trigram_counts: the plain
    # form imports numpy.ma, about 1 MB of resident memory for nothing.
    union, _ = np.unique(np.concatenate([keys for keys, _ in histograms]), return_counts=True)
    table = np.zeros((len(union), len(langs)), dtype=np.int64)
    for j, (keys, counts) in enumerate(histograms):
        table[np.searchsorted(union, keys), j] = counts
    return langs, union, table, [_norm(counts) for _, counts in histograms]


def detect_language(text: str) -> tuple[str, float]:
    """Best-matching language code and its cosine confidence in [0, 1].

    Texts shorter than ``MIN_TEXT_CHARS`` characters (or with no letters at
    all) are reported as ("und", 0.0).
    """
    if len(text) < MIN_TEXT_CHARS:
        return "und", 0.0
    keys, counts = _trigram_counts(text)
    if not keys.size:
        return "und", 0.0
    langs, union, table, profile_norms = _profiles()
    pos = np.searchsorted(union, keys)
    # A key above every profile key matches none; clamp it into range.
    pos[pos == len(union)] = 0
    known = union[pos] == keys
    dots = counts[known] @ table[pos[known]]
    norm = _norm(counts)
    best_lang, best_sim = "und", 0.0
    for lang, dot, profile_norm in zip(langs, dots.tolist(), profile_norms):
        sim = dot / (norm * profile_norm)
        if sim > best_sim:
            best_lang, best_sim = lang, sim
    if best_sim == 0.0:
        return "und", 0.0
    return best_lang, best_sim
