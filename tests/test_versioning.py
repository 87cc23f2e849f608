import pytest
from hypothesis import given, strategies as st

from pkgwatch.errors import NegativeInterval, UnknownVersion, VersionParseError
from pkgwatch.versioning import (
    SemVer,
    UpdateType,
    VersionTimeline,
    classify_update,
    parse_iso8601,
    time_between,
)


def classify(prev: str, nxt: str) -> UpdateType:
    return classify_update(SemVer.parse(prev), SemVer.parse(nxt))


def test_parse_basic():
    v = SemVer.parse("1.2.3")
    assert (v.major, v.minor, v.patch) == (1, 2, 3)
    assert v.prerelease == ()
    assert v.build == ()


def test_parse_prerelease_and_build():
    v = SemVer.parse("1.0.0-beta.2+exp.sha.5114f85")
    assert v.prerelease == ("beta", "2")
    assert v.build == ("exp", "sha", "5114f85")


@pytest.mark.parametrize("bad", [
    "1.2", "v1.2.3", "1.02.3", "1.2.3.4", "", "one.two.three", "1.2.-3",
])
def test_parse_rejects_invalid(bad):
    with pytest.raises(VersionParseError):
        SemVer.parse(bad)


@pytest.mark.parametrize("text", [
    "0.0.1", "10.20.30", "1.0.0-alpha", "1.0.0-alpha.1",
    "1.0.0-0.3.7", "1.0.0+build.1", "2.1.0-rc.1+sha.abc",
])
def test_parse_print_round_trip(text):
    assert str(SemVer.parse(text)) == text


def test_precedence_chain():
    chain = [
        "1.0.0-alpha", "1.0.0-alpha.1", "1.0.0-alpha.beta", "1.0.0-beta",
        "1.0.0-beta.2", "1.0.0-beta.11", "1.0.0-rc.1", "1.0.0",
    ]
    parsed = [SemVer.parse(v) for v in chain]
    for earlier, later in zip(parsed, parsed[1:]):
        assert earlier < later


def test_build_metadata_ignored_in_precedence():
    a, b = SemVer.parse("1.0.0+one"), SemVer.parse("1.0.0+two")
    assert not a < b and not b < a


@pytest.mark.parametrize("prev,nxt,expected", [
    ("3.1.8", "3.1.9", UpdateType.PATCH),
    ("1.4.0", "2.0.0", UpdateType.MAJOR),
    ("1.0.0", "1.0.1-beta.1", UpdateType.PRERELEASE),
    ("1.0.0", "1.1.0", UpdateType.MINOR),
    ("1.0.0", "1.0.0+build.2", UpdateType.BUILD),
    ("2.0.0", "1.0.0", UpdateType.MAJOR),  # downgrade still classifies
    ("0.0.2", "0.0.3", UpdateType.PATCH),
])
def test_classify_update(prev, nxt, expected):
    assert classify(prev, nxt) == expected


def test_identical_republish_is_patch():
    assert classify("1.0.0", "1.0.0") == UpdateType.PATCH


def test_classify_never_returns_first():
    pairs = [("1.0.0", "2.0.0"), ("1.0.0", "1.0.0"), ("0.1.0", "0.1.1-rc.0")]
    for prev, nxt in pairs:
        assert classify(prev, nxt) != UpdateType.FIRST


def test_timeline_chronological_order():
    timeline = VersionTimeline.from_entries("p", [
        ("0.0.3", 300.0), ("0.0.1", 100.0), ("0.0.2", 200.0),
    ])
    assert [v for v, _ in timeline.entries] == ["0.0.1", "0.0.2", "0.0.3"]


def test_previous_version():
    timeline = VersionTimeline.from_entries("p", [
        ("0.0.1", 100.0), ("0.0.2", 200.0), ("0.0.3", 300.0),
    ])
    assert timeline.previous_version("0.0.3") == ("0.0.2", 200.0)
    assert timeline.previous_version("0.0.1") is None
    with pytest.raises(UnknownVersion):
        timeline.previous_version("9.9.9")


def test_chronological_beats_semver_order():
    # A patch for an old major line published after a newer major.
    timeline = VersionTimeline.from_entries("p", [
        ("1.0.0", 100.0), ("2.0.0", 200.0), ("1.0.1", 300.0),
    ])
    assert timeline.previous_version("1.0.1") == ("2.0.0", 200.0)


def test_tie_break_by_semver_then_string():
    t = 1564617600.0
    timeline = VersionTimeline.from_entries("mgdb", [
        ("3.1.9", t), ("3.1.8", t),
    ])
    assert [v for v, _ in timeline.entries] == ["3.1.8", "3.1.9"]
    prev = timeline.previous_version("3.1.9")
    assert prev[0] == "3.1.8"
    assert time_between(prev[1], timeline.timestamp_of("3.1.9")) == 0.0


def test_time_between():
    assert time_between(1000.0, 1007.02) == pytest.approx(7.02)
    assert time_between(5.0, 5.0) == 0.0
    with pytest.raises(NegativeInterval):
        time_between(10.0, 9.0)


def test_parse_iso8601_z_suffix():
    assert parse_iso8601("1970-01-01T00:00:00Z") == 0.0
    assert parse_iso8601("1970-01-01T01:00:00+01:00") == 0.0
    assert parse_iso8601("2021-08-01T00:00:00.001Z") == pytest.approx(1627776000.001)


_semver_text = st.builds(
    lambda a, b, c, pre: f"{a}.{b}.{c}" + (f"-{pre}" if pre else ""),
    st.integers(0, 99), st.integers(0, 99), st.integers(0, 99),
    st.one_of(st.none(), st.sampled_from(["alpha", "beta.1", "rc.2", "0"])),
)


@given(_semver_text)
def test_round_trip_property(text):
    assert str(SemVer.parse(text)) == text


@given(_semver_text, _semver_text)
def test_classify_total_and_never_first(a, b):
    result = classify(a, b)
    assert isinstance(result, UpdateType)
    assert result != UpdateType.FIRST


def test_previous_version_forest_single_root():
    entries = [(f"0.0.{i}", 100.0 * i) for i in range(1, 8)]
    timeline = VersionTimeline.from_entries("p", entries)
    roots = [v for v, _ in timeline.entries if timeline.previous_version(v) is None]
    assert roots == ["0.0.1"]
