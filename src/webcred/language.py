"""Character-trigram language identification.

A small built-in detector replaces the external language-detection service:
the corpus filter only needs a coarse English-vs-not decision.  Each
language profile is a character-trigram frequency vector built from the
bundled snippets in :mod:`webcred._langdata`; a document is scored by
cosine similarity against every profile and assigned the best match.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache

from ._langdata import PROFILE_TEXTS

MIN_TEXT_CHARS = 20

_NON_LETTER = re.compile(r"[^a-zà-öø-ÿœßñçа-яά-ώ]+")


def _trigram_counts(text: str) -> dict[str, int]:
    """Trigram histogram of lowercased text with non-letters as gaps."""
    # Each run of non-letters becomes one space, so no trigram is all
    # whitespace.
    normalized = " " + _NON_LETTER.sub(" ", text.lower()).strip() + " "
    return Counter([normalized[i : i + 3] for i in range(len(normalized) - 2)])


def _norm(counts: dict[str, int]) -> float:
    return math.sqrt(sum(v * v for v in counts.values()))


def _cosine(a: dict[str, int], norm_a: float, b: dict[str, int], norm_b: float) -> float:
    """Cosine of two histograms given their norms."""
    if not a or not b:
        return 0.0
    small, large = (b, a) if len(b) < len(a) else (a, b)
    dot = sum(v * large[g] for g, v in small.items() if g in large)
    return dot / (norm_a * norm_b)


@lru_cache(maxsize=1)
def _profiles() -> dict[str, tuple[dict[str, int], float]]:
    """Each language's trigram histogram and its norm."""
    profiles = {}
    for lang, text in PROFILE_TEXTS.items():
        counts = _trigram_counts(text)
        profiles[lang] = (counts, _norm(counts))
    return profiles


def detect_language(text: str) -> tuple[str, float]:
    """Best-matching language code and its cosine confidence in [0, 1].

    Texts shorter than ``MIN_TEXT_CHARS`` characters (or with no letters at
    all) are reported as ("und", 0.0).
    """
    if len(text) < MIN_TEXT_CHARS:
        return "und", 0.0
    grams = _trigram_counts(text)
    if not grams:
        return "und", 0.0
    best_lang, best_sim = "und", 0.0
    norm = _norm(grams)
    profiles = _profiles()
    for lang in sorted(profiles):
        sim = _cosine(grams, norm, *profiles[lang])
        if sim > best_sim:
            best_lang, best_sim = lang, sim
    if best_sim == 0.0:
        return "und", 0.0
    return best_lang, best_sim
