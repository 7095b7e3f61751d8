"""Report structure semantics."""

import json
import pathlib

import pytest

from schubres.exactlin import DEFAULT_BUDGET
from schubres.grassfib import make_frame
from schubres.permcomb import Permutation
from schubres.report import Check, EnumReport, frame_config, perm_config

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"


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


class TestBlock:
    def test_wall_time_is_the_blocks_elapsed_time(self):
        with EnumReport("x", {}) as rep:
            sum(range(10000))
        assert rep.wall_time_s > 0

    def test_exception_propagates_and_wall_time_is_set(self):
        rep = EnumReport("x", {})
        with pytest.raises(KeyError):
            with rep:
                raise KeyError("inside the block")
        assert rep.wall_time_s > 0

    def test_report_never_entered_keeps_zero(self):
        assert EnumReport("x", {}).wall_time_s == 0.0


class TestConfigs:
    # the layouts, key order included, that the golden reports pin
    def test_frame_config_matches_golden(self):
        golden = json.loads((REPORTS / "grass-phi-n4-beta2-4-p2.json").read_text())
        got = frame_config(make_frame(4, 2, (2, 4)), DEFAULT_BUDGET)
        assert json.dumps(got) == json.dumps(golden["config"])

    def test_perm_config_matches_golden(self):
        golden = json.loads((REPORTS / "bs-iso-3-4-1-2-p2.json").read_text())
        got = perm_config(Permutation((3, 4, 1, 2)), 2, DEFAULT_BUDGET)
        assert json.dumps(got) == json.dumps(golden["config"])
