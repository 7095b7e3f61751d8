"""Report structure semantics."""

import json

from schubres.report import Check, EnumReport, merge_reports


def test_passed_ignores_informational():
    rep = EnumReport("x", {})
    rep.add("hard", True)
    rep.add("soft", False, informational=True)
    assert rep.passed
    rep.add("hard2", False)
    assert not rep.passed


def test_json_roundtrip_fields():
    rep = EnumReport("x", {"n": 4})
    rep.counts["points"] = 7
    rep.add("a", True, detail="d", witnesses=[[[1, 0]]])
    data = json.loads(rep.to_json())
    assert data["command"] == "x"
    assert data["config"] == {"n": 4}
    assert data["counts"] == {"points": 7}
    assert data["checks"][0]["witnesses"] == [[[1, 0]]]
    assert data["passed"] is True


def test_empty_report_passes():
    assert EnumReport("x", {}).passed


def test_merge_prefixes_checks_unites_counts_sums_times():
    a = EnumReport("a", {}, counts={"x": 1, "y": 2}, wall_time_s=0.5)
    a.add("ok", True, detail="d")
    b = EnumReport("b", {}, counts={"y": 3, "z": 4}, wall_time_s=0.25)
    b.add("soft", False, informational=True)
    merged = merge_reports("m", {"n": 1}, first=a, second=b)
    assert (merged.command, merged.config) == ("m", {"n": 1})
    assert list(merged.counts.items()) == [("x", 1), ("y", 3), ("z", 4)]
    assert [(c.name, c.passed, c.detail, c.informational) for c in merged.checks] == [
        ("first.ok", True, "d", False),
        ("second.soft", False, "", True),
    ]
    assert merged.passed
    assert merged.wall_time_s == 0.75
    assert [c.name for c in a.checks] == ["ok"]


def test_checks_without_witnesses_share_no_list():
    a, b = Check("a", True), Check("b", True)
    assert a.witnesses == b.witnesses == ()
    assert not isinstance(a.witnesses, list)
    rep = EnumReport("x", {})
    rep.add("c", True)
    rep.add("d", True, witnesses=[[[1]]])
    assert [c["witnesses"] for c in json.loads(rep.to_json())["checks"]] == [[], [[[1]]]]
