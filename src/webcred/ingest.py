"""Corpus ingestion: tweet/webpage parsing, URL normalization, inclusion filters.

Webpages arrive as already-extracted plain text (`webpages.jsonl`); the
filters reproduce the corpus-inclusion rules: English language only,
at least ``min_words`` words counted in contiguous text blocks, and
near-duplicate removal keeping the longest copy.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, TextIO
from urllib.parse import urlsplit, urlunsplit

from .errors import CorruptInputError, DataError
from .language import detect_language

DEFAULT_MIN_WORDS = 300
DEFAULT_JACCARD = 0.9
SHINGLE_SIZE = 5

# A text block only counts toward word_count when it has at least this many
# tokens; shorter blocks are treated as menu/boilerplate fragments.
MIN_BLOCK_TOKENS = 20

_PARAGRAPH_SPLIT = re.compile(r"\n[ \t]*\n+")


@dataclass(frozen=True)
class TweetTable:
    """Parsed tweets as parallel columns, one entry per kept line in input
    order: the tweet and posting user ids, the user's follower count, and
    the tuple of the tweet's normalized URLs."""

    tweet_ids: list[str]
    user_ids: list[str]
    follower_counts: list[int]
    urls: list[tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.tweet_ids)


@dataclass
class WebDocument:
    """A webpage's extracted text, keyed by its normalized URL.

    ``language`` is detected from the text on first read and cached, so
    stages that never look at it (``cv``, ``train``, ``terms``, …) run no
    detection; passing ``language=`` sets it outright.
    """

    url: str
    text: str
    word_count: int = field(default=-1)
    language: str = field(default="")

    def __post_init__(self):
        if self.word_count < 0:
            self.word_count = contiguous_word_count(self.text)

    def _get_language(self) -> str:
        if not self._language:
            self._language = detect_language(self.text)[0]
        return self._language

    def _set_language(self, value: str) -> None:
        self._language = value


# Installed after @dataclass has read the field's "" default, so the
# generated __init__, repr and eq all go through the lazy property.
WebDocument.language = property(WebDocument._get_language, WebDocument._set_language)


@dataclass
class FilterReport:
    """Per-reason rejection counts; retained + rejected = input size."""

    retained: int = 0
    non_english: int = 0
    too_short: int = 0
    duplicate: int = 0
    broken_empty: int = 0

    @property
    def rejected(self) -> int:
        return self.non_english + self.too_short + self.duplicate + self.broken_empty

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


def contiguous_word_count(text: str) -> int:
    """Word count over contiguous text blocks.

    Blocks are runs of text separated by blank lines; only blocks with at
    least ``MIN_BLOCK_TOKENS`` whitespace-delimited tokens contribute, so
    navigation fragments and one-line boilerplate do not count.
    """
    total = 0
    for block in _PARAGRAPH_SPLIT.split(text):
        n = len(block.split())
        if n >= MIN_BLOCK_TOKENS:
            total += n
    return total


def normalize_url(raw: str) -> str:
    """Canonical form of a URL for deduplication and joins.

    Lowercases scheme and host, drops the fragment and ``utm_*`` tracking
    parameters, and gives an empty path a trailing "/".  Idempotent; a
    string urlsplit cannot parse is returned unchanged (see
    :func:`normalize_url_checked` when the caller needs to know).
    """
    return normalize_url_checked(raw)[0]


def normalize_url_checked(raw: str) -> tuple[str, bool]:
    """Like :func:`normalize_url` but flags unparseable input as False."""
    if not raw:
        raise DataError("empty URL")
    try:
        parts = urlsplit(raw.strip())
    except ValueError:
        return raw, False
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    path = parts.path
    if netloc and not path:
        path = "/"
    # Filter query parameters textually (no decode/re-encode round trip,
    # which keeps normalization idempotent on oddly-escaped URLs).
    kept = [
        piece
        for piece in parts.query.split("&")
        if piece and not piece.split("=", 1)[0].lower().startswith("utm_")
    ]
    query = "&".join(kept)
    return urlunsplit((scheme, netloc, path, query, "")), True


def parse_tweets(stream: Iterable[str] | TextIO) -> tuple[TweetTable, int]:
    """Parse line-delimited tweet records; returns (table, skipped count).

    A non-blank line is kept when it is a JSON object whose ``tweet_id``
    (as a string) is new, whose ``follower_count`` is a non-negative
    integer (not a bool), whose ``urls`` is a list of non-empty strings,
    with ``user_id`` and ``is_retweet`` present, ``retweet_of`` given (not
    null) exactly when ``is_retweet`` is true, and a ``timestamp`` that
    ``_parse_timestamp`` accepts; the timestamp is checked, not kept.
    Any other line is skipped and counted.  Raises CorruptInputError when
    more than half of the non-blank lines are malformed.

    Each URL is normalized on the way in, so it matches the keys of the
    scored documents; a URL repeated across tweets is normalized once, and
    its tweets share the one normalized string.
    """
    tweet_ids: list[str] = []
    user_ids: list[str] = []
    follower_counts: list[int] = []
    url_tuples: list[tuple[str, ...]] = []
    skipped = 0
    total = 0
    seen_ids: set[str] = set()
    # Raw URL -> normalized form; only non-empty strings get in, so a hit
    # for every URL of a line means that they all pass.
    normalized: dict[str, str] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise DataError("tweet record is not an object")
            tweet_id = str(obj["tweet_id"])
            follower_count = obj["follower_count"]
            urls = obj["urls"]
            if (
                tweet_id in seen_ids
                or not isinstance(follower_count, int)
                or isinstance(follower_count, bool)
                or follower_count < 0
                or not isinstance(urls, list)
                or bool(obj["is_retweet"]) != (obj.get("retweet_of") is not None)
            ):
                raise DataError("invalid tweet record")
            user_id = str(obj["user_id"])
            _parse_timestamp(obj["timestamp"])
            try:
                normalized_urls = tuple([normalized[raw] for raw in urls])
            except (KeyError, TypeError):
                normalized_urls = _normalize_new_urls(urls, normalized)
        except (DataError, KeyError, TypeError, ValueError, RecursionError):
            skipped += 1
            continue
        seen_ids.add(tweet_id)
        tweet_ids.append(tweet_id)
        user_ids.append(user_id)
        follower_counts.append(follower_count)
        url_tuples.append(normalized_urls)
    if total and skipped * 2 > total:
        raise CorruptInputError(f"{skipped}/{total} tweet lines malformed")
    return TweetTable(tweet_ids, user_ids, follower_counts, url_tuples), skipped


def _normalize_new_urls(urls: list, normalized: dict[str, str]) -> tuple[str, ...]:
    """The normalized ``urls`` of one line, some of them not yet in
    ``normalized``, which gains them; raises DataError unless every URL is
    a non-empty string."""
    if not all(isinstance(raw, str) for raw in urls):
        raise DataError("urls must be a list of strings")
    for raw in urls:
        if raw not in normalized:
            normalized[raw] = normalize_url(raw)
    return tuple([normalized[raw] for raw in urls])


def _parse_timestamp(value: str) -> datetime:
    # Python 3.10's fromisoformat rejects a trailing "Z".
    if not isinstance(value, str):
        raise DataError("timestamp must be an ISO-8601 string")
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        # A date in year 1 or 9999 whose UTC offset moves it out of range.
        raise DataError("timestamp out of range") from None


def load_webpages(stream: Iterable[str] | TextIO) -> Iterator[WebDocument]:
    """Read webpages.jsonl ({"url","text"}), normalizing URLs on the way in.

    ``word_count`` and ``language`` are always recomputed from the text
    (``language`` when first read).
    A malformed line, or a URL that normalizes to the URL of an earlier
    line, raises DataError naming the stream (its ``name``, as for an open
    file) and the line number.
    """
    source = getattr(stream, "name", "<webpages>")
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{source}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError(
                f"{source}:{lineno}: expected a JSON object, got {type(obj).__name__}"
            )
        for key in ("url", "text"):
            if key not in obj:
                raise DataError(f"{source}:{lineno}: missing key {key!r}")
            if not isinstance(obj[key], str):
                raise DataError(f"{source}:{lineno}: {key!r} is not a string")
        try:
            url = normalize_url(obj["url"])
        except DataError as exc:
            raise DataError(f"{source}:{lineno}: {exc}") from None
        if url in first_line:
            raise DataError(
                f"{source}:{lineno}: duplicate url {url} "
                f"(first on line {first_line[url]})"
            )
        first_line[url] = lineno
        yield WebDocument(url=url, text=obj["text"])


def filter_corpus(
    docs: Iterable[WebDocument], min_words: int = DEFAULT_MIN_WORDS
) -> tuple[list[WebDocument], FilterReport]:
    """Apply the inclusion filters: non-empty, English, >= min_words words."""
    if min_words < 1:
        raise DataError("min_words must be >= 1")
    report = FilterReport()
    retained: list[WebDocument] = []
    for doc in docs:
        if not doc.text.strip():
            report.broken_empty += 1
        elif doc.language != "en":
            report.non_english += 1
        elif doc.word_count < min_words:
            report.too_short += 1
        else:
            retained.append(doc)
    report.retained = len(retained)
    return retained, report


def _shingles(text: str, size: int = SHINGLE_SIZE) -> frozenset[tuple[str, ...]]:
    # Interned, so the shingle tuples of every kept document share one
    # string object per distinct word.
    words = list(map(sys.intern, text.lower().split()))
    if len(words) < size:
        return frozenset([tuple(words)]) if words else frozenset()
    return frozenset(zip(*(words[i:] for i in range(size))))


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def dedupe_near_duplicates(
    docs: Iterable[WebDocument], jaccard_threshold: float = DEFAULT_JACCARD
) -> list[WebDocument]:
    """Drop near-duplicate documents, keeping the longest copy.

    Two documents are near-duplicates when the Jaccard similarity of their
    5-word shingle sets reaches the threshold t.  Documents are considered
    in (word_count desc, url asc) priority order and a document is kept
    only if it does not duplicate an already-kept one, so the retained set
    does not depend on input order.  Output is sorted by url.

    The comparison is an exact prefix-filtered set-similarity join
    (Bayardo et al., "Scaling Up All Pairs Similarity Search", WWW 2007;
    Xiao et al., "Efficient Similarity Joins for Near Duplicate
    Detection" (PPJoin), WWW 2008), not a scan of every kept document:

    * Order.  Each shingle set x is sorted by the shingle's ``hash``.  Its
      prefix is its first p(x) = |x| - floor(fl(t*|x|)) + 1 shingles,
      extended through hash ties, so it contains the prefix of that length
      under the total order (hash, shingle) that every document shares.
    * Bound.  If the float test ``jaccard(x, y) >= t`` passes, the
      overlap is at least t*max(|x|, |y|) up to two roundings, so it is an
      integer o >= floor(fl(t*|x|)) for |x| < 2**51; the same holds for y.
      When x and y share at least o elements, the shared element with
      o - 1 shared elements after it in the order lies within the first
      |x| - o + 1 of x and the first |y| - o + 1 of y, so the two prefixes
      meet.  Using floor rather than the textbook ceil(t*|x|) costs at
      most one token and stays safe when t*|x| rounds up past an integer
      (0.56 * 25 == 14.000000000000002).
    * Probe and index.  Only kept documents' prefixes are indexed.  A
      kept document that shares no prefix shingle with the current one
      cannot reach t and is never compared; each one that does is checked
      with the size-ratio bound and ``jaccard`` exactly as a pairwise scan
      would, so every decision is the same float comparison.

    An empty shingle set duplicates only another empty one
    (``jaccard(∅, ∅) == 1``).
    """
    if not 0.0 < jaccard_threshold <= 1.0:
        raise DataError("jaccard_threshold must be in (0, 1]")
    ordered = sorted(docs, key=lambda d: (-d.word_count, d.url))
    kept: list[WebDocument] = []
    kept_shingles: list[frozenset] = []
    kept_empty = False
    # Prefix shingle -> indexes into kept_shingles of the documents whose
    # prefix holds it.
    index: dict[tuple[str, ...], list[int]] = {}
    for doc in ordered:
        sh = _shingles(doc.text)
        if not sh:
            if not kept_empty:
                kept_empty = True
                kept.append(doc)
            continue
        ranked = sorted(sh, key=hash)
        n = len(ranked)
        end = min(n, n - math.floor(jaccard_threshold * n) + 1)
        while end < n and hash(ranked[end]) == hash(ranked[end - 1]):
            end += 1
        prefix = ranked[:end]
        candidates = {j for s in prefix for j in index.get(s, ())}
        duplicate = False
        for j in candidates:
            other = kept_shingles[j]
            # Jaccard is bounded by the size ratio; skip hopeless pairs.
            smaller, larger = sorted((n, len(other)))
            if smaller / larger < jaccard_threshold:
                continue
            if jaccard(sh, other) >= jaccard_threshold:
                duplicate = True
                break
        if not duplicate:
            for s in prefix:
                index.setdefault(s, []).append(len(kept_shingles))
            kept.append(doc)
            kept_shingles.append(sh)
    return sorted(kept, key=lambda d: d.url)


def intersect_urlsets(
    corpus_urls: set[str], reference_urls: set[str]
) -> tuple[set[str], set[str]]:
    """Exact intersection and corpus-only difference of normalized URL sets."""
    return corpus_urls & reference_urls, corpus_urls - reference_urls
