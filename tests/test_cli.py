"""CLI surface: envelopes, serialization, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys

from ahyper import cli
from ahyper.cli import main

DEMO = '{"A": [[1,1,1,1],[0,0,1,2],[0,1,1,0]]}'
NORMAL3 = '{"A": [[1,0,0,1],[0,1,0,1],[0,0,1,-1]]}'
CURVE = '{"A": [[1,1,1,1,1],[0,2,4,7,9]]}'


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv, expect=0):
    code, text = run_cli(*argv)
    assert code == expect, text
    return json.loads(text)


def test_envelope_shape():
    doc = run_json("volume", "-A", DEMO)
    assert set(doc) == {"schema_version", "command", "input_echo", "result", "diagnostics"}
    assert doc["schema_version"] == "1"
    assert doc["command"] == "volume"
    assert doc["result"] == {"normalized_volume": 3}
    assert doc["input_echo"]["A"] == [[1, 1, 1, 1], [0, 0, 1, 2], [0, 1, 1, 0]]


def test_matrix_formats_agree(tmp_path):
    whitespace = "1 1 1 1\n0 0 1 2\n0 1 1 0"
    path = tmp_path / "demo.txt"
    path.write_text(whitespace)
    a = run_cli("faces", "-A", DEMO)
    b = run_cli("faces", "-A", whitespace)
    c = run_cli("faces", "-A", str(path))
    assert a == b == c


def test_rational_serialization():
    doc = run_json("esets", "-A", DEMO, "-b", "1/2,-1/3,0")
    assert doc["input_echo"]["b"] == ["1/2", "-1/3", "0/1"]
    whole = [s for s in doc["result"]["sets"] if len(s["face_columns"]) == 4]
    assert len(whole) == 1
    residues = whole[0]["residues"]
    assert len(residues) == 1
    for part in residues[0]:
        p, q = part.split("/")
        int(p), int(q)


def test_classify_trivial_pair():
    doc = run_json("classify", "-A", DEMO, "-b", "0,0,0", "-b2", "0,0,0")
    assert doc["result"] == {"isomorphic": True, "differs_at": None}


def test_classify_reports_differing_face():
    doc = run_json("classify", "-A", DEMO, "-b", "0,0,0", "-b2", "1/2,0,0")
    assert doc["result"]["isomorphic"] is False
    # a fractional shift is already visible at the smallest face
    assert doc["result"]["differs_at"] == []


def test_holes_pinned_values():
    doc = run_json("holes", "-A", CURVE)
    assert doc["result"]["holes"] == [[2, 10], [2, 12], [3, 19]]
    assert doc["result"]["first_facet_gaps"] == [1, 3, 5]
    assert doc["result"]["second_facet_gaps"] == [1, 3]


def test_enumerate_normal3_box():
    doc = run_json("enumerate", "-A", NORMAL3, "--box", "-3:3,-3:3,-3:3")
    result = doc["result"]
    assert result["class_count"] == 14
    assert len(result["classes"]) == 14
    assert sum(c["size"] for c in result["classes"]) == 7 ** 3
    reps = [tuple(c["representative"]) for c in result["classes"]]
    assert reps == sorted(reps)
    assert doc["input_echo"]["box"] == [[-3, 3], [-3, 3], [-3, 3]]


def test_witness_with_series_action():
    doc = run_json("witness", "-A", DEMO, "-b", "0,1,1", "-b2", "1,1,2")
    result = doc["result"]
    assert result["chi"] == [1, 0, 1]
    assert result["scalar"] == "-2/1"
    assert result["series_checked"] is True
    for key in ("op_plus", "op_minus"):
        op = result[key]
        assert op["element"], key
        assert isinstance(op["certificate"], list)
        assert all("/" in t["c"] for t in op["element"])
    assert result["p_plus"]["degree"] == len(result["p_plus"]["factors"])


def test_witness_rejects_non_isomorphic():
    code, text = run_cli("witness", "-A", DEMO, "-b", "0,0,0", "-b2", "1/2,0,0")
    assert code == 2
    doc = json.loads(text)
    assert doc == {"error": "NOT_ISOMORPHIC", "detail": doc["detail"]}
    assert "face" in doc["detail"]


def test_bideal_components():
    doc = run_json("bideal", "-A", DEMO, "--chi", "1,0,1")
    result = doc["result"]
    assert result["component_count"] == 3
    keys = [(tuple(c["face_columns"]), tuple(c["point"])) for c in result["components"]]
    assert keys == sorted(keys)


def test_chi_outside_lattice_is_an_input_error():
    code, text = run_cli("bideal", "-A", '{"A": [[1,1],[0,2]]}', "--chi", "0,1")
    assert code == 2
    assert json.loads(text)["error"] == "CHI_NOT_IN_LATTICE"


def test_contig_canonical_and_targeted():
    plain = run_json("contig", "-A", DEMO, "--chi", "1,0,1")
    targeted = run_json("contig", "-A", DEMO, "--chi", "1,0,1", "-b", "0,1,1")
    assert any("canonical" in d for d in plain["diagnostics"])
    assert any("nonzero at b + chi" in d for d in targeted["diagnostics"])
    for doc in (plain, targeted):
        op = doc["result"]["operator"]
        assert op["chi"] == [1, 0, 1]
        assert op["element"]


def test_laurent_faces_of_a_hole():
    doc = run_json("laurent", "-A", CURVE, "-b", "2,10")
    assert doc["result"]["count"] == 2
    assert [f["columns"] for f in doc["result"]["faces"]] == [[0], [4]]
    none = run_json("laurent", "-A", DEMO, "-b", "1/2,1/3,1/7")
    assert none["result"]["count"] == 0


def test_input_error_exit_codes():
    cases = [
        (("holes", "-A", DEMO), "NOT_CURVE"),
        (("volume", "-A", '{"A": [[1,2],[0,0]]}'), "NOT_FULL_DIM"),
        (("volume", "-A", '{"A": [[1,1,2],[0,1,0]]}'), "NOT_HOMOGENEOUS"),
        (("esets", "-A", DEMO, "-b", "1,2"), "PARSE"),
        (("esets", "-A", DEMO, "-b", "a,b,c"), "PARSE"),
        (("enumerate", "-A", DEMO, "--box", "3:1,0:1,0:1"), "PARSE"),
        (("enumerate", "-A", DEMO, "--box", "0:1"), "PARSE"),
        (("classify", "-A", DEMO, "-b", "0,0,0"), "PARSE"),
        (("faces", "-A", '{"A": [[1.5,1],[0,1]]}'), "PARSE"),
        (("faces", "-A", "not json and not rows"), "PARSE"),
        (("witness", "-A", DEMO, "-b", "0,1,1", "-b2", "1,1,2", "--order", "-1"), "PARSE"),
    ]
    for argv, expected in cases:
        code, text = run_cli(*argv)
        assert code == 2, argv
        doc = json.loads(text)
        assert doc["error"] == expected, argv
        assert set(doc) == {"error", "detail"}


def test_untyped_library_error_is_one_json_internal_error(monkeypatch, capsys):
    def broken(args):
        raise ValueError("library fault")

    monkeypatch.setitem(cli._HANDLERS, "volume", broken)
    code = main(["volume", "-A", DEMO])
    out, err = capsys.readouterr()
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "detail"}
    assert doc["error"] == "INTERNAL"
    assert doc["detail"].startswith("ValueError: library fault")
    assert "command: volume;" in doc["detail"]
    assert doc["detail"].endswith("argv: " + json.dumps(["volume", "-A", DEMO]))
    assert "Traceback" not in err


def test_output_is_byte_identical_across_runs():
    first = run_cli("enumerate", "-A", NORMAL3, "--box", "-1:1,-1:1,-1:1")
    second = run_cli("enumerate", "-A", NORMAL3, "--box", "-1:1,-1:1,-1:1")
    assert first == second


def test_echoed_inputs_reproduce_identical_output():
    code, text = run_cli("esets", "-A", CURVE, "-b", "2,10")
    assert code == 0
    echo = json.loads(text)["input_echo"]
    again_a = json.dumps({"A": echo["A"]})
    again_b = ",".join(echo["b"])
    code2, text2 = run_cli("esets", "-A", again_a, "-b", again_b)
    assert code2 == 0
    assert json.loads(text2)["result"] == json.loads(text)["result"]


def test_check_passes_on_examples_and_seeds():
    doc = run_json("check", "-A", NORMAL3)
    assert doc["result"]["all_ok"] is True
    names = [p["name"] for p in doc["result"]["properties"]]
    assert "seminonresonant_profile_and_witness" in names
    assert "normal_rule_matches_residue_profiles" in names
    for seed in (0, 1, 2, 3, 4, 7):
        seeded = run_json("check", "--seed", str(seed))
        assert seeded["result"]["all_ok"] is True
        assert seeded["input_echo"]["seed"] == seed


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ahyper.cli", "volume", "-A", DEMO],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["normalized_volume"] == 3
