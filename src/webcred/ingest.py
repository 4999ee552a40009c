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
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Iterator, TextIO
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from .errors import CorruptInputError, DataError
from .language import detect_language

DEFAULT_MIN_WORDS = 300
DEFAULT_JACCARD = 0.9
SHINGLE_SIZE = 5

# A text block only counts toward word_count when it has at least this many
# tokens; shorter blocks are treated as menu/boilerplate fragments.
MIN_BLOCK_TOKENS = 20

_PARAGRAPH_SPLIT = re.compile(r"\n[ \t]*\n+")

# A plain ASCII URL, scheme://netloc[path][?query][#fragment], with no
# control character, space or DEL and no bracket in the netloc: the inputs
# on which urlsplit's answer can be read off the text (see
# normalize_url_checked).  Match only strings that pass str.isascii().
_PLAIN_URL = re.compile(
    r"([A-Za-z][A-Za-z0-9+.\-]*)://([^/?#\[\]\x00-\x20\x7f]+)"
    r"(/[^?#\x00-\x20\x7f]*)?(?:\?([^#\x00-\x20\x7f]*))?(?:#[^\x00-\x20\x7f]*)?"
)

# parse_tweets decodes the lines of a chunk this long in one json.loads
# call; a piece of BULK_MIN_LINES lines or fewer is decoded line by line.
BULK_LINES = 1024
BULK_MIN_LINES = 8


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
    """A webpage's extracted text, keyed by its normalized URL."""

    url: str
    text: str
    word_count: int = field(default=-1)

    def __post_init__(self):
        if self.word_count < 0:
            self.word_count = contiguous_word_count(self.text)

    @cached_property
    def language(self) -> str:
        """The text's language, detected on first read and cached, so
        stages that never look at it (``cv``, ``train``, ``terms``, …) run
        no detection."""
        return detect_language(self.text)[0]


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
    blank string, or one with nothing left once normalized (``#top``,
    ``?utm_source=x``), raises DataError, and one urlsplit cannot parse is
    returned unchanged (see :func:`normalize_url_checked` when the caller
    needs to know).

    A plain ASCII ``scheme://netloc[path][?query][#fragment]`` URL is
    normalized straight from its parts; any other string goes through
    ``urlsplit``/``urlunsplit`` (:func:`_normalize_url_split`), which gives
    the same result on plain URLs too.
    """
    return normalize_url_checked(raw)[0]


def normalize_url_checked(raw: str) -> tuple[str, bool]:
    """Like :func:`normalize_url` but flags unparseable input as False."""
    # On a plain URL urlsplit finds the scheme before the first ":", the
    # netloc up to the first "/", "?" or "#", the fragment after the first
    # "#" and the query after the first "?" before it.  It strips and
    # removes nothing (there is no whitespace or control character), and
    # checks no netloc that is ASCII and has no bracket.
    match = _PLAIN_URL.fullmatch(raw) if raw.isascii() else None
    if match is None:
        return _normalize_url_split(raw)
    scheme, netloc, path, query = match.groups()
    url = scheme.lower() + "://" + netloc.lower() + (path or "/")
    if query:
        query = _without_utm(query)
        if query:
            url += "?" + query
    return url, True


def _normalize_url_split(raw: str) -> tuple[str, bool]:
    """:func:`normalize_url_checked` on any string, through urlsplit."""
    stripped = raw.strip()
    if not stripped:
        raise DataError("empty URL")
    try:
        parts = urlsplit(stripped)
    except ValueError:
        return raw, False
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    path = parts.path
    if netloc and not path:
        path = "/"
    url = urlunsplit((scheme, netloc, path, _without_utm(parts.query), ""))
    if not url:
        raise DataError("empty URL")
    return url, True


def _without_utm(query: str) -> str:
    """``query`` without its empty and ``utm_*`` parameters.

    The parameters are filtered textually (no decode/re-encode round trip,
    which keeps normalization idempotent on oddly-escaped URLs).
    """
    return "&".join([
        piece
        for piece in query.split("&")
        if piece and not piece.split("=", 1)[0].lower().startswith("utm_")
    ])


def parse_tweets(stream: Iterable[str] | TextIO) -> tuple[TweetTable, int]:
    """Parse line-delimited tweet records; returns (table, skipped count).

    A non-blank line is kept when it is a JSON object whose ``tweet_id``
    (as a string) is new, whose ``follower_count`` is a non-negative
    integer (not a bool), whose ``urls`` is a list of non-blank strings,
    with ``user_id`` and ``is_retweet`` present, ``retweet_of`` given (not
    null) exactly when ``is_retweet`` is true, and a ``timestamp`` that
    ``_parse_timestamp`` accepts; the timestamp is checked, not kept.
    Any other line is skipped and counted, as is one whose ``tweet_id``,
    ``user_id`` or a URL holds a lone surrogate (see :func:`_is_unicode`).
    Raises CorruptInputError when more than half of the non-blank lines
    are malformed.

    Each URL is normalized on the way in, so it matches the keys of the
    scored documents; a URL repeated across tweets is normalized once, and
    its tweets share the one normalized string.

    The stripped lines are read ``BULK_LINES`` at a time and decoded with
    one ``json.loads`` call per chunk where that call is certain to give
    each line's own object (see :func:`_bulk_decode`).  A line it cannot
    vouch for is decoded alone, so every line gets the object, or the
    error, that ``json.loads(line)`` gives.
    """
    tweet_ids: list[str] = []
    user_ids: list[str] = []
    follower_counts: list[int] = []
    url_tuples: list[tuple[str, ...]] = []
    skipped = 0
    total = 0
    seen_ids: set[str] = set()
    # Raw URL -> normalized form; only non-blank strings get in, so a hit
    # for every URL of a line means that they all pass.
    normalized: dict[str, str] = {}
    for line, obj in _decoded_lines(stream):
        total += 1
        try:
            # Decoded here, not in a helper, so that a line nested close to
            # the recursion limit decodes at the depth it always did.
            if obj is _UNDECODED:
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
            # A lone surrogate can only come from a JSON escape, so a line
            # without a backslash needs no check.  A one-character test runs
            # as a memchr, several times cheaper than a test for "\u".
            if "\\" in line and not all(map(_is_unicode, (tweet_id, user_id, *urls))):
                raise DataError("tweet record is not valid Unicode")
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


# The stand-in for the object of a line that _bulk_decode leaves for
# json.loads on the line alone.
_UNDECODED = object()


def _decoded_lines(stream: Iterable[str] | TextIO) -> Iterator[tuple[str, object]]:
    """(line, object) for each stripped non-blank line of ``stream``, in
    order, its object decoded in bulk or ``_UNDECODED``."""
    chunk: list[str] = []
    for line in stream:
        line = line.strip()
        if line:
            chunk.append(line)
            if len(chunk) == BULK_LINES:
                yield from zip(chunk, _bulk_decode(chunk))
                chunk = []
    yield from zip(chunk, _bulk_decode(chunk))


def _bulk_decode(lines: list[str]) -> list:
    """Each line's JSON object, or ``_UNDECODED`` for the lines to decode
    one by one, with one ``json.loads`` call where the lines allow it.

    The lines, joined by ``",\\n"`` and bracketed, are decoded as one array
    when the joined text holds only the separators' newlines, one ``{`` and
    one ``}`` per line, and each line starts with its ``{`` and ends with
    its ``}``.  Strict JSON has no raw newline inside a string, so no
    string crosses a separator; each line's one ``}`` is then structural
    and can only close the object that its ``{`` opened, so element i is
    decoded from exactly line i's text, as ``json.loads(line)`` decodes it.
    When the lines fail that test, or the array does not decode (a bad
    line, or nesting too deep once inside the array), each half is tried
    the same way, down to ``BULK_MIN_LINES`` lines.
    """
    n = len(lines)
    if n <= BULK_MIN_LINES:
        return [_UNDECODED] * n
    try:
        joined = ",\n".join(lines)
    except TypeError:  # not str lines: bytes decode one by one
        return [_UNDECODED] * n
    if (
        joined[0] == "{"
        and joined[-1] == "}"
        and joined.count("\n") == n - 1
        and joined.count("{") == n
        and joined.count("}") == n
        and joined.count("},\n{") == n - 1
    ):
        try:
            return json.loads("[" + joined + "]")
        except (ValueError, RecursionError):
            pass
    half = n // 2
    return _bulk_decode(lines[:half]) + _bulk_decode(lines[half:])


def _normalize_new_urls(urls: list, normalized: dict[str, str]) -> tuple[str, ...]:
    """The normalized ``urls`` of one line, some of them not yet in
    ``normalized``, which gains them; raises DataError unless every URL is
    a non-blank string."""
    if not all(isinstance(raw, str) for raw in urls):
        raise DataError("urls must be a list of strings")
    for raw in urls:
        if raw not in normalized:
            normalized[raw] = normalize_url(raw)
    return tuple([normalized[raw] for raw in urls])


def _is_unicode(value: str) -> bool:
    """Whether ``value`` encodes as UTF-8: it holds no lone surrogate, as a
    JSON ``\\ud800`` escape decodes to, which no output file can hold."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
    A malformed line, a ``url`` that holds a lone surrogate (see
    :func:`_is_unicode`), or a URL that normalizes to the URL of an earlier
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
        # A lone surrogate can only come from a JSON escape.
        if "\\" in line and not _is_unicode(obj["url"]):
            raise DataError(f"{source}:{lineno}: 'url' is not valid Unicode")
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
    """The set of ``size``-word shingles of ``text``: its lowercased words'
    windows, or for a text of 1 to ``size - 1`` words its one word tuple.
    The reference for :func:`_shingle_id_sets`."""
    words = text.lower().split()
    if len(words) < size:
        return frozenset([tuple(words)]) if words else frozenset()
    return frozenset(zip(*(words[i:] for i in range(size))))


class _WordIds(dict):
    """Word -> int id, the next unused id from 1 for each new word."""

    def __missing__(self, word: str) -> int:
        self[word] = value = len(self) + 1
        return value


# The id of the words that pad a short text's one shingle; no word gets it,
# and it sorts before every word's id.
_PAD = 0

# A word id is ranked as base-2**16 digits, high digit first: numpy's
# lexsort radix-sorts 16-bit keys, where it timsorts wider ones.
_DIGIT_BITS = 16


def _shingle_id_sets(texts: Iterable[str]) -> list[np.ndarray]:
    """Each text's :func:`_shingles` as a sorted integer array of shingle ids.

    Two shingles of any of the texts get the same id exactly when they are
    the same word tuple.  Words get ids from 1, the texts' ids go into one
    array, a text of 1 to ``SHINGLE_SIZE - 1`` words padded with ``_PAD``,
    and one ``lexsort`` ranks every ``SHINGLE_SIZE``-id window of it; a
    window's id is its rank among the distinct windows.  Each word id is
    split into as many uint16 digits as the largest id needs (one below
    2**16 distinct words, else two, high digit first), so the sort keys
    are the window's ``SHINGLE_SIZE`` x digits columns and the order is
    that of the whole ids.  Windows that cross two texts get ids too,
    which no text reads.
    """
    ids = _WordIds()
    chunks: list[np.ndarray] = []
    bounds: list[tuple[int, int]] = []
    at = 0
    for text in texts:
        words = text.lower().split()
        chunk = np.fromiter(map(ids.__getitem__, words), np.int32, len(words))
        if 0 < len(words) < SHINGLE_SIZE:
            pad = np.full(SHINGLE_SIZE - len(words), _PAD, np.int32)
            chunk = np.concatenate([chunk, pad])
        chunks.append(chunk)
        bounds.append((at, at + max(len(chunk) - SHINGLE_SIZE + 1, 0)))
        at += len(chunk)
    if at == 0:
        return [np.empty(0, np.int32) for _ in bounds]
    # Each temporary is dropped once used, which keeps a call's peak near
    # 20 bytes per word below 2**16 distinct words, most of it the intp
    # sort order.
    flat = np.concatenate(chunks)
    del chunks
    # The low digit is the id cast down to its low 16 bits.
    digits = [flat.astype(np.uint16)]
    if len(ids) >= 2**_DIGIT_BITS:
        digits.insert(0, (flat >> _DIGIT_BITS).astype(np.uint16))
    del flat
    n_windows = at - SHINGLE_SIZE + 1
    columns = [digit[i : i + n_windows] for i in range(SHINGLE_SIZE) for digit in digits]
    order = np.lexsort(columns[::-1])
    # starts[k]: the k-th window in sorted order differs from the one before.
    starts = np.zeros(n_windows, bool)
    starts[0] = True
    for column in columns:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    del columns, digits, ranked
    ranks = np.cumsum(starts, dtype=np.int32 if n_windows < 2**31 else np.int64)
    del starts
    shingle_ids = np.empty_like(ranks)
    shingle_ids[order] = ranks
    del order, ranks
    sets = []
    for lo, hi in bounds:
        row = np.sort(shingle_ids[lo:hi])
        distinct = np.ones(len(row), bool)
        distinct[1:] = row[1:] != row[:-1]
        sets.append(row[distinct])
    return sets


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

    * Order.  Each shingle set x is the sorted array of its shingle ids
      (:func:`_shingle_id_sets`), one total order that every document
      shares.  Its prefix is its first p(x) = |x| - floor(fl(t*|x|)) + 1
      ids.
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
      kept document that shares no prefix id with the current one cannot
      reach t and is never compared; each one that does is checked with
      the size-ratio bound and ``jaccard`` on the two id sets exactly as a
      pairwise scan of shingle sets would, so every decision is the same
      float comparison.

    An empty shingle set duplicates only another empty one
    (``jaccard(∅, ∅) == 1``).
    """
    if not 0.0 < jaccard_threshold <= 1.0:
        raise DataError("jaccard_threshold must be in (0, 1]")
    ordered = sorted(docs, key=lambda d: (-d.word_count, d.url))
    kept: list[WebDocument] = []
    kept_shingles: list[np.ndarray] = []
    kept_empty = False
    # Prefix shingle id -> indexes into kept_shingles of the documents
    # whose prefix holds it.
    index: dict[int, list[int]] = {}
    for doc, sh in zip(ordered, _shingle_id_sets(d.text for d in ordered)):
        n = len(sh)
        if not n:
            if not kept_empty:
                kept_empty = True
                kept.append(doc)
            continue
        prefix = sh[: n - math.floor(jaccard_threshold * n) + 1].tolist()
        candidates = {j for s in prefix for j in index.get(s, ())}
        duplicate = False
        for j in candidates:
            other = kept_shingles[j]
            # Jaccard is bounded by the size ratio; skip hopeless pairs.
            smaller, larger = sorted((n, len(other)))
            if smaller / larger < jaccard_threshold:
                continue
            similarity = jaccard(frozenset(sh.tolist()), frozenset(other.tolist()))
            if similarity >= jaccard_threshold:
                duplicate = True
                break
        if not duplicate:
            for s in prefix:
                index.setdefault(s, []).append(len(kept_shingles))
            kept.append(doc)
            kept_shingles.append(sh)
    return sorted(kept, key=lambda d: d.url)
