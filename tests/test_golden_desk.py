"""Every desk output is byte-identical to tests/golden_desk.json, the
manifest tests/golden.py writes; verify_contour.json is checked by
test_cli's test_contour_suite, which runs the contour anyway."""

import json

import golden


def test_desk_artifacts_match_manifest(tmp_path):
    manifest = golden.load()
    made = golden.artifacts(tmp_path)
    assert sorted(made) == sorted(set(manifest["artifacts"])
                                  - {"verify_contour.json"})
    problems = [golden.mismatch(name, data, manifest)
                for name, data in made.items()]
    assert [p for p in problems if p] == []


def test_mismatch_names_first_difference():
    report = json.dumps({"a": 1, "b": {"c": [2.0, 3.0]}}).encode()
    rows = b"".join(b"%d,%d\r\n" % (i, i * i) for i in range(300))
    manifest = {"host": golden.host(), "artifacts": {
        "r.json": golden.entry("r.json", report),
        "rows.csv": golden.entry("rows.csv", rows)}}
    assert golden.mismatch("r.json", report, manifest) is None
    assert golden.mismatch("rows.csv", rows, manifest) is None
    moved = report.replace(b"3.0", b"3.0000000000000004")
    assert "first differing key 'b.c.1'" in golden.mismatch("r.json", moved,
                                                           manifest)
    assert "lines 1-4" in golden.mismatch("rows.csv", rows.replace(b"2,4", b"2,5"),
                                          manifest)
    assert "lines 297-300, which now begin b'296," in golden.mismatch(
        "rows.csv", rows[:-4], manifest)


def test_rewrite_names_changed_artifacts():
    a, b = b'{"x": 1}', b'{"x": 2}'
    old = {"artifacts": {"kept.json": golden.entry("kept.json", a),
                         "moved.json": golden.entry("moved.json", a)}}
    new = {"artifacts": {"kept.json": golden.entry("kept.json", a),
                         "moved.json": golden.entry("moved.json", b),
                         "added.json": golden.entry("added.json", a)}}
    assert golden.changed(old, new) == ["moved.json", "added.json"]
    assert golden.changed(new, new) == []
