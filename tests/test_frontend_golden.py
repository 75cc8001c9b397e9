"""``lq check`` prints, byte for byte, what ``data/frontend_golden.json``
recorded: the inferred type of every accepted program and every
diagnostic, with its location, of every rejected one."""

import json

from frontend_golden import GOLDEN, records


def test_check_output_matches_the_golden_record():
    expected = json.loads(GOLDEN.read_text("utf-8"))
    actual = records()
    assert actual.keys() == expected.keys()
    diffs = [key for key in expected if actual[key] != expected[key]]
    assert diffs == [], f"{len(diffs)} inputs differ, first {diffs[:5]}"
