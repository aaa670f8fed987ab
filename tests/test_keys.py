"""Versions, version ranges, and resource keys."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    ResourceKey,
    UNVERSIONED,
    Version,
    VersionRange,
)
from repro.core.errors import ResourceModelError

versions = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=4
).map(lambda parts: Version(tuple(parts)))


class TestVersion:
    def test_parse_simple(self):
        assert Version.parse("6.0.18").parts == (6, 0, 18)

    def test_parse_single_component(self):
        assert Version.parse("7").parts == (7,)

    def test_parse_strips_whitespace(self):
        assert Version.parse(" 1.2 ") == Version((1, 2))

    @pytest.mark.parametrize("bad", ["", "a.b", "1.", ".5", "1..2", "1.2-rc1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ResourceModelError):
            Version.parse(bad)

    def test_ordering(self):
        assert Version.parse("5.5") < Version.parse("6.0.18")
        assert Version.parse("6.0.18") < Version.parse("6.0.29")
        assert Version.parse("6.0.29") < Version.parse("6.1")

    def test_trailing_zeros_equal(self):
        assert Version.parse("6.0") == Version.parse("6.0.0")
        assert hash(Version.parse("6.0")) == hash(Version.parse("6.0.0"))

    def test_padding_in_comparison(self):
        assert Version.parse("6.0") < Version.parse("6.0.18")
        assert not Version.parse("6.0.18") < Version.parse("6.0")

    def test_str_roundtrip(self):
        assert str(Version.parse("10.04")) == "10.4"  # integers, not text

    def test_unversioned(self):
        assert UNVERSIONED.is_unversioned()
        assert not Version.parse("1").is_unversioned()

    @given(versions, versions)
    def test_total_order(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(versions, versions, versions)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(versions)
    def test_hash_consistent_with_eq(self, v):
        padded = Version(v.parts + (0, 0))
        assert v == padded
        assert hash(v) == hash(padded)


class TestVersionRange:
    def test_default_half_open(self):
        r = VersionRange(Version.parse("5.5"), Version.parse("6.0.29"))
        assert r.contains(Version.parse("5.5"))
        assert r.contains(Version.parse("6.0.18"))
        assert not r.contains(Version.parse("6.0.29"))
        assert not r.contains(Version.parse("5.4"))

    def test_unbounded_low(self):
        r = VersionRange(hi=Version.parse("2.0"))
        assert r.contains(Version.parse("0.1"))
        assert not r.contains(Version.parse("2.0"))

    def test_unbounded_high(self):
        r = VersionRange(lo=Version.parse("2.0"))
        assert r.contains(Version.parse("99"))
        assert r.contains(Version.parse("2.0"))

    def test_exclusive_low(self):
        r = VersionRange(lo=Version.parse("1.0"), lo_inclusive=False)
        assert not r.contains(Version.parse("1.0"))
        assert r.contains(Version.parse("1.0.1"))

    def test_inclusive_high(self):
        r = VersionRange(hi=Version.parse("1.0"), hi_inclusive=True)
        assert r.contains(Version.parse("1.0"))

    def test_str(self):
        r = VersionRange(Version.parse("5.5"), Version.parse("6.0.29"))
        assert str(r) == "[5.5, 6.0.29)"

    @given(versions, versions, versions)
    def test_containment_consistent_with_order(self, lo, hi, v):
        r = VersionRange(lo=lo, hi=hi)
        if r.contains(v):
            assert not v < lo
            assert v < hi


class TestResourceKey:
    def test_parse_name_and_version(self):
        key = ResourceKey.parse("Tomcat 6.0.18")
        assert key.name == "Tomcat"
        assert key.version == Version.parse("6.0.18")

    def test_parse_name_with_spaces(self):
        key = ResourceKey.parse("Jasper Reports Server 4.2")
        assert key.name == "Jasper Reports Server"
        assert key.version == Version.parse("4.2")

    def test_parse_unversioned(self):
        key = ResourceKey.parse("Server")
        assert key.name == "Server"
        assert key.version.is_unversioned()

    def test_parse_trailing_word_not_version(self):
        key = ResourceKey.parse("Feature Collector")
        assert key.name == "Feature Collector"
        assert key.version.is_unversioned()

    def test_display_roundtrip(self):
        for text in ["Tomcat 6.0.18", "Server", "Mac-OSX 10.6"]:
            assert ResourceKey.parse(text).display() == text

    def test_empty_rejected(self):
        with pytest.raises(ResourceModelError):
            ResourceKey.parse("  ")

    def test_keys_are_ordered(self):
        a = ResourceKey.parse("Tomcat 5.5")
        b = ResourceKey.parse("Tomcat 6.0.18")
        assert a < b

    def test_keys_hashable(self):
        assert len({ResourceKey.parse("A 1"), ResourceKey.parse("A 1")}) == 1
