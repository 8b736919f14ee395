"""The stored text formats: frozen v1 files and the grammar they share."""

import hashlib
import re
from pathlib import Path

import pytest

from biosketch.errors import ParseError
from biosketch.quantizer import key_from_text, key_to_text
from biosketch.sketch import record_from_text, record_to_text
from biosketch.store import KeyStore, TemplateDb
from biosketch.textfile import from_text, parse_plain_int

# Written by the library before the record and key readers shared one
# module (see data/v1/README.md); any change to the v1 bytes fails here.
V1 = Path(__file__).resolve().parent / "data" / "v1"
V1_SHA256 = {
    "keys/v1-fc-m5.key": "06b9155aace445e2073d546009edf761077c9a6d21dad98fd47d82099c498191",
    "keys/v1-ss-m3.key": "17c74a4b057f0022a041c60cbafe4587d5ad2b702ff8838e85946840f0e33070",
    "templates/v1-fc-m5.rec": "fb2f4de0e59876783dcbd7bbe2187be5fc8f5ff0af89fbef81e0fe40f3be3695",
    "templates/v1-ss-m3.rec": "c0a52ce540e9d9060f9c612a0821ce9e1036c6c7ebc4f33ce82482eef5ec38fc",
}


@pytest.mark.parametrize("name", sorted(V1_SHA256))
def test_frozen_v1_file_is_pinned_and_round_trips_byte_for_byte(name):
    data = (V1 / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == V1_SHA256[name]
    text = data.decode()
    if name.endswith(".key"):
        assert key_to_text(key_from_text(text)) == text
    else:
        assert record_to_text(record_from_text(text)) == text


def test_stores_opened_on_the_frozen_v1_directory_load_every_file():
    db, keystore = TemplateDb(V1 / "templates"), KeyStore(V1 / "keys")
    assert db.subjects() == keystore.subjects() == ["v1-fc-m5", "v1-ss-m3"]
    loaded = {}
    for sid in db.subjects():
        record, key = db.load(sid), keystore.load(sid)
        assert key.count == record.params.n_bits
        loaded[sid] = (record.scheme, record.params.m, record.params.k_symbols,
                       record.params.policy.value)
    assert loaded == {"v1-fc-m5": ("fuzzy-commitment", 5, 20, "fallback"),
                      "v1-ss-m3": ("secure-sketch", 3, 3, "fallback")}


def test_field_lines_end_at_the_first_line_without_equals():
    text = " h \n\nb=2\n a=x=1 \n3\nc=4\n\n"
    assert from_text(text, "h", {"a": str, "b": int}, "thing") == (
        {"b": 2, "a": "x=1"}, ["3", "c=4"])


@pytest.mark.parametrize("text,message", [
    ("g\na=1\n", "the first line is not 'h'"),
    ("", "the first line is not 'h'"),
    ("h\na=1\nb=+2\n", "'+2' is not a plain decimal"),
    ("h\nb=2\n", "missing fields ['a']"),
])
def test_from_text_names_the_fault(text, message):
    with pytest.raises(ParseError, match=re.escape(f"malformed thing: {message}")):
        from_text(text, "h", {"a": str, "b": parse_plain_int}, "thing")


def test_record_with_a_line_after_its_fields_is_refused():
    text = (V1 / "templates" / "v1-ss-m3.rec").read_text()
    with pytest.raises(ParseError, match="malformed enrollment record"):
        record_from_text(text + "1\n")
