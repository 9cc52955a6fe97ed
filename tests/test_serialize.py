"""Tests for the LM-surrogate serialization / subword-cost emulation."""
import pytest

from repro.matching.serialize import (_COMMON_WORDS, _pieces, _words,
                                      serialize_record)

ORDER = ("name", "isin", "cusip", "valor", "sedol", "sec_type")
COMP_ORDER = ("name", "city", "region", "country_code", "short_description")


class TestPieces:
    def test_common_word_single_piece(self):
        assert _pieces("energy", "plain") == ["energy"]
        assert _pieces("energy", "ditto") == ["energy"]

    def test_oov_word_chunked(self):
        assert _pieces("zorvexika", "plain") == ["zorv", "exik", "a"]
        assert _pieces("zorvexika", "ditto") == ["zor", "vex", "ika"]

    def test_identifier_plain_whole(self):
        assert _pieces("us318077dsie", "plain") == ["us318077dsie"]

    def test_identifier_ditto_char_level(self):
        assert _pieces("us318077dsie", "ditto") == list("us318077dsie")

    def test_alpha_only_token_not_identifier(self):
        # No digit → not identifier-shaped, chunked as a normal OOV word.
        assert _pieces("abcdefgh", "plain") == ["abcd", "efgh"]


class TestWords:
    def test_lowercase_and_strip(self):
        assert _words("Acme Corp.") == ["acme", "corp"]

    def test_alnum_kept_whole(self):
        assert _words("ISIN: US12-34") == ["isin", "us12", "34"]


class TestSerializeRecord:
    SEC = {"name": "Equity Shares", "isin": "US318077DSIE",
           "cusip": "318077DSI", "valor": "109790723", "sedol": "L9HAA4",
           "sec_type": "Equity Shares"}

    def test_plain_keeps_ids_whole(self):
        s = serialize_record(self.SEC, "plain", 10**6, ORDER)
        assert "us318077dsie" in s.split()

    def test_ditto_contains_tags(self):
        s = serialize_record(self.SEC, "ditto", 10**6, ORDER).split()
        assert "[" in s and "col" in s and "val" in s and "isin" in s

    def test_ditto_longer_than_plain(self):
        p = len(serialize_record(self.SEC, "plain", 10**6, ORDER).split())
        d = len(serialize_record(self.SEC, "ditto", 10**6, ORDER).split())
        assert d > 3 * p

    def test_budget_is_half_max_len(self):
        s = serialize_record(self.SEC, "ditto", 128, ORDER)
        assert len(s.split()) <= 64

    def test_truncation_preserves_prefix(self):
        full = serialize_record(self.SEC, "ditto", 10**6, ORDER).split()
        cut = serialize_record(self.SEC, "ditto", 128, ORDER).split()
        assert cut == full[:len(cut)]

    def test_ditto128_loses_late_identifiers(self):
        """The DITTO(128) pathology: trailing identifier fields truncated."""
        full = serialize_record(self.SEC, "ditto", 10**6, ORDER).split()
        cut = serialize_record(self.SEC, "ditto", 128, ORDER).split()
        assert len(full) > len(cut)
        # The trailing fields (sedol value, sec_type) fall outside the
        # 128-token pair budget.
        assert "sec_type" in full and "sec_type" not in cut
        assert cut.count("4") < full.count("4")  # last sedol char lost

    def test_ditto256_keeps_identifiers(self):
        cut = serialize_record(self.SEC, "ditto", 256, ORDER).split()
        assert "sedol" in cut and "valor" in cut

    def test_plain128_fits_securities(self):
        full = serialize_record(self.SEC, "plain", 10**6, ORDER)
        cut = serialize_record(self.SEC, "plain", 128, ORDER)
        assert full == cut

    def test_empty_values_skipped(self):
        rec = dict(self.SEC, valor="", sedol="")
        s = serialize_record(rec, "ditto", 10**6, ORDER).split()
        assert "valor" not in s and "sedol" not in s

    def test_plain_order_respected(self):
        comp = {"name": "Zorvex Energy", "city": "Zurich", "region": "ZH",
                "country_code": "CHE",
                "short_description": "Zorvex Energy is a firm."}
        s = serialize_record(comp, "plain", 10**6, COMP_ORDER).split()
        assert s.index("zurich") > s.index("energy")

    def test_deterministic(self):
        a = serialize_record(self.SEC, "ditto", 128, ORDER)
        b = serialize_record(self.SEC, "ditto", 128, ORDER)
        assert a == b

    @pytest.mark.parametrize("scheme", ["plain", "ditto"])
    @pytest.mark.parametrize("max_len", [32, 64, 128, 256])
    def test_budget_never_exceeded(self, scheme, max_len):
        s = serialize_record(self.SEC, scheme, max_len, ORDER)
        assert len(s.split()) <= max_len // 2


class TestCommonVocab:
    def test_generator_terms_included(self):
        for w in ("energy", "networks", "inc", "ltd", "zurich", "equity"):
            assert w in _COMMON_WORDS

    def test_tags_included(self):
        assert "col" in _COMMON_WORDS and "val" in _COMMON_WORDS
