import json
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import detect_language_oracle
from webcred._langdata import PROFILE_TEXTS
from webcred.language import MIN_TEXT_CHARS, detect_language

FIXTURE_PAGES = Path(__file__).resolve().parent.parent / "fixtures" / "webpages.jsonl"

ENGLISH = (
    "The new vaccination schedule was announced by the health department "
    "this morning, and most of the local clinics said that they would be "
    "ready to offer appointments before the end of the month."
)

FRENCH = (
    "Le ministère de la santé a annoncé ce matin le nouveau calendrier de "
    "vaccination, et la plupart des cliniques locales ont déclaré qu'elles "
    "seraient prêtes à proposer des rendez-vous avant la fin du mois."
)

SPANISH = (
    "El ministerio de salud anunció esta mañana el nuevo calendario de "
    "vacunación, y la mayoría de las clínicas locales dijeron que estarían "
    "listas para ofrecer citas antes de fin de mes."
)


def test_detects_english():
    lang, confidence = detect_language(ENGLISH)
    assert lang == "en"
    assert confidence > 0.5


def test_detects_french_as_not_english():
    lang, _ = detect_language(FRENCH)
    assert lang == "fr"


def test_detects_spanish_as_not_english():
    lang, _ = detect_language(SPANISH)
    assert lang == "es"


def test_short_text_is_undetermined():
    assert detect_language("hi") == ("und", 0.0)
    assert detect_language("") == ("und", 0.0)


def test_text_without_letters_is_undetermined():
    lang, confidence = detect_language("12345 67890 !!! ??? 000 111 222 333")
    assert lang == "und"
    assert confidence == 0.0


def test_confidence_is_higher_for_longer_english():
    _, short_conf = detect_language(ENGLISH[:40])
    _, long_conf = detect_language(ENGLISH * 3)
    assert long_conf >= short_conf


def test_mixed_but_mostly_english_detected_as_english():
    text = ENGLISH * 4 + " rendez-vous"
    lang, _ = detect_language(text)
    assert lang == "en"


PROFILE_WORDS = sorted({w for text in PROFILE_TEXTS.values() for w in text.split()})

# Pieces of text: letters inside and outside the detector's alphabet
# (including capitals whose lowercase form is longer, such as "İ"),
# digits, punctuation, whitespace runs, astral code points and whole
# profile words, so that texts reach every profile with non-zero cosines.
TEXT_PIECES = st.one_of(
    st.sampled_from(string.ascii_letters),
    st.characters(min_codepoint=0xC0, max_codepoint=0xFF),
    st.sampled_from("œŒßẞñÑçÇİ"),
    st.characters(min_codepoint=0x400, max_codepoint=0x45F),
    st.characters(min_codepoint=0x386, max_codepoint=0x3CE),
    st.sampled_from(string.digits + string.punctuation),
    st.text(alphabet=" \t\n\u00a0\u2003", min_size=1, max_size=6),
    st.characters(min_codepoint=0x1F300, max_codepoint=0x1FAFF),
    st.sampled_from(PROFILE_WORDS).map(lambda w: w + " "),
)


@settings(max_examples=500, deadline=None)
@given(text=st.lists(TEXT_PIECES, max_size=120).map("".join))
def test_matches_counter_oracle_exactly(text):
    assert detect_language(text) == detect_language_oracle(text)


def _explicit_texts() -> dict[str, str]:
    texts = {f"profile-{lang}": text for lang, text in PROFILE_TEXTS.items()}
    for i, line in enumerate(FIXTURE_PAGES.read_text(encoding="utf-8").splitlines()):
        texts[f"fixture-page-{i:03d}"] = json.loads(line)["text"]
    # Letters the detector keeps but no profile has.
    texts["cyrillic"] = "Министерство здравоохранения объявило новый график вакцинации."
    texts["greek"] = "Το υπουργείο υγείας ανακοίνωσε σήμερα το νέο πρόγραμμα εμβολιασμού."
    texts["mixed-scripts"] = ENGLISH + " " + texts["cyrillic"] + " " + texts["greek"]
    for n in (MIN_TEXT_CHARS - 1, MIN_TEXT_CHARS, MIN_TEXT_CHARS + 1):
        for name, text in (("en", ENGLISH[:n]), ("fr", FRENCH[:n]), ("e-acute", "é" * n),
                           ("a", "a" * n), ("digits", "1" * n), ("spaces", " " * n)):
            texts[f"{name}-{n}-chars"] = text
    return texts


EXPLICIT_TEXTS = _explicit_texts()


@pytest.mark.parametrize("name", EXPLICIT_TEXTS)
def test_explicit_texts_match_counter_oracle_exactly(name):
    text = EXPLICIT_TEXTS[name]
    assert detect_language(text) == detect_language_oracle(text)
