"""Report structure semantics."""

import json

from schubres.report import Check, EnumReport


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


def test_checks_without_witnesses_share_no_list():
    a, b = Check("a", True), Check("b", True)
    assert a.witnesses == b.witnesses == ()
    assert not isinstance(a.witnesses, list)
    rep = EnumReport("x", {})
    rep.add("c", True)
    rep.add("d", True, witnesses=[[[1]]])
    assert [c["witnesses"] for c in json.loads(rep.to_json())["checks"]] == [[], [[[1]]]]
