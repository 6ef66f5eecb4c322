import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorfact.cli import build_parser, main
from sectorfact.fixtures import net_to_json, qubit_net
from sectorfact.reports import dump_json, render_text


@pytest.fixture()
def workdir(tmp_path):
    def export(name):
        path = tmp_path / f"{name}.json"
        assert main(["fixtures", "export", name, "--out", str(path)]) == 0
        return str(path)

    return tmp_path, export


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_validate_category_ok(workdir):
    tmp, export = workdir
    out = tmp / "report.json"
    code = main(["validate-category", "--in", export("intcat6"), "--out", str(out)])
    assert code == 0
    doc = read(out)
    assert doc["ok"] and doc["check"] == "validate-category"


def test_validate_category_schema_error(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": ["U"], "morphisms": [{"id": "f", "src": "U"}]}')
    assert main(["validate-category", "--in", str(bad)]) == 2


def test_validate_category_violation(workdir, tmp_path):
    tmp, export = workdir
    doc = read(export("intcat6"))
    doc["orth"] = doc["orth"][:-1]  # drop one transpose partner
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate-category", "--in", str(bad)]) == 1


def test_validate_action(workdir):
    tmp, export = workdir
    assert main(["validate-action", "--in", export("z2-intcat6")]) == 0


def test_operad_check_small(workdir):
    tmp, export = workdir
    out = tmp / "operad.json"
    code = main(
        ["operad", "check", "--in", export("intcat4"), "--bound", "2", "--out", str(out)]
    )
    assert code == 0
    assert read(out)["ok"]


def test_geometry_commands(workdir):
    tmp, export = workdir
    u1, u2, ut = export("cone-u1"), export("cone-u2"), export("cone-utilde")
    assert main(["geometry", "disjoint", "--a", u1, "--b", u2]) == 0
    assert main(["geometry", "disjoint", "--a", u1, "--b", u1]) == 1
    assert main(["geometry", "include", "--inner", u1, "--outer", ut]) == 0
    assert main(["geometry", "include", "--inner", ut, "--outer", u1]) == 1
    out = tmp / "witness.json"
    assert (
        main(
            [
                "geometry", "witness", "--u1", u1, "--u2", u2, "--utilde", ut,
                "--out", str(out),
            ]
        )
        == 0
    )
    doc = read(out)
    assert doc["holds"] and all(doc["invariants"].values())


def test_geometry_project(workdir):
    tmp, export = workdir
    out = tmp / "shadow.json"
    assert main(["geometry", "project", "--in", export("unit-cone-m2"), "--out", str(out)]) == 0
    doc = read(out)
    assert doc["shadow"]["kind"] == "shadow"
    assert doc["shadow"]["length"] == "2"


_UPRIGHT_PROJECT = """{
  "check": "geometry-project",
  "citation": "Lemma 5.6",
  "cone": {
    "pminus": {
      "t": "-1",
      "x": [
        "0"
      ]
    },
    "pplus": {
      "t": "1",
      "x": [
        "0"
      ]
    }
  },
  "holds": true,
  "shadow": {
    "focus_minus": [
      "0"
    ],
    "focus_plus": [
      "0"
    ],
    "kind": "shadow",
    "length": "2",
    "marked": [
      "0"
    ]
  },
  "tool_version": "0.1.0"
}
"""

_TILTED_PROJECT = """{
  "check": "geometry-project",
  "citation": "Lemma 5.6",
  "cone": {
    "pminus": {
      "t": "-1/2",
      "x": [
        "1/3",
        "0"
      ]
    },
    "pplus": {
      "t": "5/4",
      "x": [
        "1/2",
        "-1/4"
      ]
    }
  },
  "holds": true,
  "shadow": {
    "focus_minus": [
      "1/3",
      "0"
    ],
    "focus_plus": [
      "1/2",
      "-1/4"
    ],
    "kind": "shadow",
    "length": "7/4",
    "marked": [
      "5/12",
      "-1/8"
    ]
  },
  "tool_version": "0.1.0"
}
"""

_TIME_ONLY_PROJECT = """{
  "check": "geometry-project",
  "citation": "Lemma 5.6",
  "cone": {
    "pminus": {
      "t": "-1",
      "x": []
    },
    "pplus": {
      "t": "3/2",
      "x": []
    }
  },
  "holds": true,
  "shadow": {
    "focus_minus": [],
    "focus_plus": [],
    "kind": "shadow",
    "length": "5/2",
    "marked": []
  },
  "tool_version": "0.1.0"
}
"""


@pytest.mark.parametrize(
    "cone, expected",
    [
        pytest.param(None, _UPRIGHT_PROJECT, id="unit-cone-m2"),
        pytest.param(
            {"pminus": {"t": "-1/2", "x": ["1/3", "0"]}, "pplus": {"t": "5/4", "x": ["1/2", "-1/4"]}},
            _TILTED_PROJECT,
            id="tilted-1+2",
        ),
        pytest.param(
            {"pminus": {"t": "-1", "x": []}, "pplus": {"t": "3/2", "x": []}},
            _TIME_ONLY_PROJECT,
            id="time-only-1+0",
        ),
    ],
)
def test_geometry_project_report_text(workdir, capsys, cone, expected):
    # the full report, byte for byte, on an upright, a tilted and a 1+0 cone
    tmp, export = workdir
    if cone is None:
        path = export("unit-cone-m2")
    else:
        path = tmp / "cone.json"
        path.write_text(json.dumps(cone))
    capsys.readouterr()
    assert main(["geometry", "project", "--in", str(path), "--paper-ref"]) == 0
    assert capsys.readouterr().out == expected


def test_homotopy_verify(workdir):
    tmp, export = workdir
    out = tmp / "homotopy.json"
    code = main(
        [
            "homotopy", "verify", "--cone", export("wide-cone-m2"),
            "--m", "3", "--cases", "25", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    doc = read(out)
    assert doc["certified"] == 25 and doc["holds"]


def test_sectors_commands(workdir):
    tmp, export = workdir
    net = export("qubit4")
    assert main(["sectors", "haag", "--net", net, "--region", "2-3"]) == 0
    assert main(["sectors", "perp", "--net", net]) == 0
    assert main(["sectors", "diamond", "--net", net]) == 0
    assert (
        main(["sectors", "transport", "--net", net, "--sector", "X@1-1", "--target", "3-3"])
        == 0
    )


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["haag", "--region", "x"], id="haag-region-not-an-interval"),
        pytest.param(["transport", "--sector", "X@1-1", "--target", "zz"], id="transport-target"),
        pytest.param(["transport", "--sector", "X@9-9", "--target", "3-3"], id="sector-region"),
        pytest.param(["haag", "--region", "9-9"], id="haag-unknown-region"),
    ],
)
def test_bad_region_arguments_exit_2_with_one_line(workdir, capsys, args):
    tmp, export = workdir
    net = export("qubit4")
    capsys.readouterr()
    code = main(["sectors", *args[:1], "--net", net, *args[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("schema error: unknown region ")
    assert captured.err.count("\n") == 1


def test_region_ids_of_a_custom_net_can_be_named(tmp_path):
    doc = {"sites": 2, "regions": [{"id": "a", "sites": [0]}, {"id": "b", "sites": [1]},
                                   {"id": "ab", "sites": [0, 1]}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["sectors", "haag", "--net", str(path), "--region", "a", "--out",
                 str(tmp_path / "haag.json")]) == 0
    assert read(tmp_path / "haag.json")["regions"][0]["region"] == "a"


def test_sectors_equivariance_and_theorem(workdir, tmp_path):
    tmp, export = workdir
    net = export("qubit2")
    out = tmp_path / "eq.json"
    assert main(["sectors", "equivariance", "--net", net, "--out", str(out)]) == 0
    doc = read(out)
    assert doc["ok"] and doc["implementation"]["ok"]
    assert all(s["covariant"] for s in doc["sectors"])
    out2 = tmp_path / "t311.json"
    assert main(["sectors", "theorem311", "--net", net, "--bound", "2", "--out", str(out2)]) == 0
    doc2 = read(out2)
    assert doc2["ok"]
    assert "notes" in doc2 and "model" in doc2["notes"]


def test_theorem311_refuses_a_net_that_is_not_a_functor(tmp_path):
    # b contains a and c, but its diagonal algebra holds neither full one
    regions = [{"id": "a", "sites": [0]}, {"id": "b", "sites": [0, 1], "algebra": "diagonal"},
               {"id": "c", "sites": [1]}]
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"name": "abc", "sites": 2, "regions": regions}))
    out = tmp_path / "t311.json"
    assert main(["sectors", "theorem311", "--net", str(path), "--bound", "2",
                 "--out", str(out)]) == 1
    found = [(v["axiom"], v["witness"]["morphism"]) for v in read(out)["violations"]]
    assert found == [("algebra-inclusion", "a<=b"), ("algebra-inclusion", "c<=b")]


@pytest.mark.parametrize(
    "command",
    [["sectors", "equivariance"], ["operad", "algebra", "--equivariant"]],
    ids=["sectors-equivariance", "operad-algebra-equivariant"],
)
def test_reflection_refuses_region_ids_that_are_not_intervals(tmp_path, capsys, command):
    # the site reflection acts on the interval ids [a,b]; a net with other
    # ids is a schema error, not a KeyError
    regions = [{"id": "a", "sites": [0]}, {"id": "b", "sites": [1]},
               {"id": "c", "sites": [0, 1]}]
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"name": "abc", "sites": 2, "regions": regions}))
    capsys.readouterr()
    code = main(command + ["--net", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "schema error: region a is not an interval [a,b] of the 2-site chain\n"
    )


def test_unknown_fixture_is_a_schema_error(capsys):
    assert main(["fixtures", "export", "no-such-fixture"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "schema error: unknown fixture no-such-fixture\n"


def test_sectors_equivariance_broken_net(workdir, tmp_path):
    tmp, export = workdir
    net = export("bits4")
    out = tmp_path / "broken.json"
    assert main(["sectors", "equivariance", "--net", net, "--out", str(out)]) == 0
    doc = read(out)
    # the reset endomorphism is reported as non-covariant, by design
    assert any(s["covariant"] is False for s in doc["sectors"])


def test_operad_algebra_cli(workdir, tmp_path):
    tmp, export = workdir
    net = export("qubit2")
    assert main(["operad", "algebra", "--net", net, "--bound", "2"]) == 0
    assert main(["operad", "algebra", "--net", net, "--bound", "2", "--equivariant"]) == 0


def test_report_render_round_trip(workdir, capsys):
    tmp, export = workdir
    out = tmp / "r.json"
    main(["validate-category", "--in", export("intcat4"), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "render", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "validate-category" in text


def test_paper_ref_flag(workdir):
    tmp, export = workdir
    out = tmp / "cited.json"
    main(["validate-category", "--in", export("intcat4"), "--paper-ref", "--out", str(out)])
    assert "citation" in read(out)


def test_determinism_byte_identical(workdir):
    tmp, export = workdir
    cone = export("wide-cone-m2")
    outs = []
    for i in (1, 2):
        out = tmp / f"det{i}.json"
        main(
            [
                "homotopy", "verify", "--cone", cone, "--m", "3",
                "--cases", "10", "--seed", "99", "--detail", "--out", str(out),
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_determinism_across_processes(workdir):
    import subprocess
    import sys

    tmp, export = workdir
    cone = export("wide-cone-m2")
    blobs = []
    for i in (1, 2):
        out = tmp / f"proc{i}.json"
        result = subprocess.run(
            [
                sys.executable, "-m", "sectorfact.cli", "homotopy", "verify",
                "--cone", cone, "--m", "3", "--cases", "8", "--seed", "5",
                "--detail", "--out", str(out),
            ],
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_exit_codes_under_fault_injection(workdir, tmp_path):
    # seeded fault injector: each corruption lands in exit class 1 or 2,
    # never a crash and never a spurious success
    tmp, export = workdir
    base = read(export("intcat4"))
    rng = random.Random(1234)
    for trial in range(12):
        doc = json.loads(json.dumps(base))
        kind = rng.choice(["drop-orth", "drop-identity", "dangle", "redirect"])
        if kind == "drop-orth" and doc["orth"]:
            doc["orth"].pop(rng.randrange(len(doc["orth"])))
        elif kind == "drop-identity":
            doc["identities"].pop(sorted(doc["identities"])[0])
        elif kind == "dangle":
            doc["morphisms"][rng.randrange(len(doc["morphisms"]))]["tgt"] = "GHOST"
        else:
            entry = doc["compose"][rng.randrange(len(doc["compose"]))]
            entry["result"] = doc["morphisms"][0]["id"]
        path = tmp_path / f"fault{trial}.json"
        path.write_text(json.dumps(doc))
        code = main(["validate-category", "--in", str(path)])
        assert code in (1, 2), (kind, code)


def test_malformed_rationals_exit_schema(tmp_path):
    bad = tmp_path / "bad-cone.json"
    bad.write_text(
        '{"pminus": {"t": "-1", "x": ["1/0"]}, "pplus": {"t": "1", "x": ["0"]}}'
    )
    assert main(["geometry", "project", "--in", str(bad)]) == 2
    spacelike = tmp_path / "spacelike.json"
    spacelike.write_text(
        '{"pminus": {"t": "0", "x": ["0"]}, "pplus": {"t": "0", "x": ["5"]}}'
    )
    assert main(["geometry", "project", "--in", str(spacelike)]) == 2


@pytest.mark.parametrize("coordinate", ['"1e10000000"', "true", '"0.5"', '"1_000"'])
def test_rationals_outside_the_p_q_grammar_exit_2(tmp_path, capsys, coordinate):
    # an exponent would make Fraction build a ten-million-digit integer
    # before any check; a JSON boolean would load as 0 or 1
    cone = tmp_path / "cone.json"
    cone.write_text(
        '{"pminus": {"t": "-1", "x": ["0"]}, "pplus": {"t": "1", "x": [%s]}}' % coordinate
    )
    capsys.readouterr()
    code = main(["geometry", "project", "--in", str(cone)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "qubit4" in names and "intcat6" in names


def test_campaign_counts_validated(workdir):
    tmp, export = workdir
    cone = export("wide-cone-m2")
    assert main(["homotopy", "verify", "--cone", cone, "--m", "-2", "--cases", "1"]) == 2
    assert main(["homotopy", "verify", "--cone", str(tmp / "missing.json"), "--m", "2"]) == 2


def test_operad_dump_format(workdir, tmp_path):
    tmp, export = workdir
    dump = tmp_path / "ops.json"
    assert (
        main(
            [
                "operad", "check", "--in", export("intcat4"), "--bound", "2",
                "--dump", str(dump), "--out", str(tmp_path / "r.json"),
            ]
        )
        == 0
    )
    doc = read(dump)
    assert doc["bound"] == 2
    assert "()->[1,4]" in doc["operations"]


def test_render_text_shapes():
    text = render_text({"check": "demo", "ok": True, "nested": {"a": [1, 2]}})
    assert text.startswith("== demo")
    assert dump_json({"b": 1, "a": 2}).index('"a"') < dump_json({"b": 1, "a": 2}).index('"b"')


def test_precondition_error_exits_2_without_traceback(workdir, capsys):
    # the same cone twice is not causally disjoint, so no witness exists
    tmp, export = workdir
    u1, ut = export("cone-u1"), export("cone-utilde")
    capsys.readouterr()
    code = main(["geometry", "witness", "--u1", u1, "--u2", u1, "--utilde", ut])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("precondition error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sampling_exhausted_exits_2_without_traceback(tmp_path, capsys):
    # two distinct points of a cone with no spatial dimension are never
    # spacelike, so no configuration of size 2 exists
    cone = tmp_path / "time-only.json"
    cone.write_text('{"pminus":{"t":"-1","x":[]},"pplus":{"t":"1","x":[]}}')
    capsys.readouterr()
    code = main(["homotopy", "verify", "--cone", str(cone), "--m", "2", "--cases", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("sampling exhausted: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cached_parser_keeps_no_state_between_calls(workdir):
    assert build_parser() is build_parser()
    tmp, export = workdir
    cone, net = export("wide-cone-m2"), export("qubit4")
    detailed, plain = tmp / "detailed.json", tmp / "plain.json"
    verify = ["homotopy", "verify", "--cone", cone, "--m", "2", "--cases", "2"]
    assert main(verify + ["--detail", "--out", str(detailed)]) == 0
    assert main(verify + ["--out", str(plain)]) == 0
    assert all("pairs" in case for case in read(detailed)["per_seed"])
    assert not any("pairs" in case for case in read(plain)["per_seed"])

    one, every = tmp / "one.json", tmp / "every.json"
    assert main(["sectors", "haag", "--net", net, "--region", "2-3", "--out", str(one)]) == 0
    assert main(["sectors", "haag", "--net", net, "--out", str(every)]) == 0
    assert len(read(one)["regions"]) == 1
    assert len(read(every)["regions"]) > 1


def test_unreadable_input_and_negative_bound_exit_2(workdir, capsys):
    tmp, export = workdir
    undecodable = tmp / "undecodable.json"
    undecodable.write_bytes(b"\xff{}")
    cat, net = export("intcat4"), export("qubit2")
    for argv in (
        ["sectors", "haag", "--net", str(tmp)],
        ["operad", "check", "--in", str(undecodable)],
        ["operad", "check", "--in", cat, "--bound", "-1"],
        ["operad", "algebra", "--net", net, "--bound", "-1"],
        ["sectors", "theorem311", "--net", net, "--bound", "-1"],
    ):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_unwritable_output_exits_2_without_traceback(workdir, capsys):
    # the campaign runs, then the output path lies in a missing directory
    tmp, export = workdir
    cat = export("intcat4")
    missing = tmp / "nodir"
    for argv in (
        ["validate-category", "--in", cat, "--out", str(missing / "r.json")],
        ["fixtures", "export", "intcat4", "--out", str(missing / "x.json")],
        ["operad", "check", "--in", cat, "--bound", "2", "--dump", str(missing / "d.json")],
    ):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    assert not missing.exists()


@pytest.mark.parametrize("payload", ["[]", "3", '"x"'])
def test_report_render_non_object_exits_2(tmp_path, capsys, payload):
    doc = tmp_path / "doc.json"
    doc.write_text(payload)
    capsys.readouterr()
    code = main(["report", "render", "--in", str(doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1


def _orth_triple(doc):
    return {**doc, "orth": [["a", "b", "c"]]}


def _category_identities(doc):
    return {**doc, "identities": [1]}


def _category_repeated_object(doc):
    return {**doc, "objects": doc["objects"] + doc["objects"][:1]}


def _action_list(doc):
    return {**doc, "action": [1]}


def _functor_objects(doc):
    return {**doc, "action": {**doc["action"], "r": {**doc["action"]["r"], "objects": [1]}}}


def _action_category_identities(doc):
    return {**doc, "category": _category_identities(doc["category"])}


def _net_orth(value):
    return lambda doc: {**doc, "orth": value}


def _net_repeated_region(doc):
    return {**doc, "regions": doc["regions"] + doc["regions"][:1]}


_HAAG = ["sectors", "haag", "--net"]


# A string where a list belongs must be refused, not iterated as its
# characters: read that way each document below is a valid input that
# passes its check.
def _cospan_category(objects, orth):
    """Objects A, B, C with a: A -> C and b: B -> C orthogonal, and identities."""
    arrows = [("i", "A", "A"), ("j", "B", "B"), ("k", "C", "C"), ("a", "A", "C"), ("b", "B", "C")]
    composites = [("i", "i", "i"), ("j", "j", "j"), ("k", "k", "k"),
                  ("a", "i", "a"), ("k", "a", "a"), ("b", "j", "b"), ("k", "b", "b")]
    return {
        "name": "cospan",
        "objects": objects,
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in arrows],
        "compose": [{"g": g, "f": f, "result": r} for g, f, r in composites],
        "identities": {"A": "i", "B": "j", "C": "k"},
        "orth": orth,
    }


def _category_objects_string(doc):
    return _cospan_category("ABC", [["a", "b"], ["b", "a"]])


def _category_orth_pair_string(doc):
    return _cospan_category(["A", "B", "C"], ["ab", "ba"])


def _group_elements_string(doc):
    return {**doc, "group": {**doc["group"], "elements": "er"}}


def _net_orth_pair_string(doc):
    regions = [{"id": "a", "sites": [0]}, {"id": "b", "sites": [1]}]
    return {"name": "ab", "sites": 2, "local_dim": 2, "regions": regions, "orth": ["ab", "ba"]}


def _cone_x_string(doc):
    # both tips at x = "05", which would read as the 1+2-dimensional x = (0, 5)
    return {tip: {**point, "x": "05"} for tip, point in doc.items()}


# A number or null where an id string belongs must be refused, not coerced
# with str(): read that way each document below is a valid input that
# passes its check.
def _category_ids_not_strings(doc):
    return {
        "name": "two",
        "objects": [None, 7],
        "morphisms": [{"id": None, "src": None, "tgt": None}, {"id": 1, "src": 7, "tgt": 7}],
        "compose": [{"g": None, "f": None, "result": None}, {"g": 1, "f": 1, "result": 1}],
        "identities": {"None": None, "7": 1},
        "orth": [],
    }


def _group_elements_ints(doc):
    index = {"e": 0, "r": 1}
    table = [{k: index[v] for k, v in entry.items()} for entry in doc["group"]["table"]]
    action = {str(index[g]): maps for g, maps in doc["action"].items()}
    return {**doc, "group": {"elements": [0, 1], "table": table}, "action": action}


def _net_region_ids_ints(doc):
    return {**doc, "regions": [{**r, "id": k} for k, r in enumerate(doc["regions"])]}


def _net_field(key, value):
    return lambda doc: {**doc, key: value}


def _net_region_site(value):
    return lambda doc: {
        **doc, "regions": [{**doc["regions"][0], "sites": [value]}] + doc["regions"][1:]
    }


@pytest.mark.parametrize(
    "fixture,command,corrupt",
    [
        pytest.param("intcat4", ["validate-category", "--in"], _orth_triple, id="category-orth-triple"),
        pytest.param("intcat4", ["operad", "check", "--in"], _orth_triple, id="operad-orth-triple"),
        pytest.param("intcat4", ["validate-category", "--in"], _category_identities, id="category-identities-list"),
        pytest.param("intcat4", ["operad", "check", "--in"], _category_identities, id="operad-identities-list"),
        pytest.param("intcat4", ["validate-category", "--in"], _category_repeated_object,
                     id="category-repeated-object"),
        pytest.param("intcat4", ["operad", "check", "--in"], _category_repeated_object,
                     id="operad-repeated-object"),
        pytest.param("z2-intcat6", ["validate-action", "--in"], _action_list, id="action-list"),
        pytest.param("z2-intcat6", ["validate-action", "--in"], _functor_objects, id="functor-objects-list"),
        pytest.param("z2-intcat6", ["validate-action", "--in"], _action_category_identities,
                     id="action-identities-list"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_orth(5), id="net-orth-int"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_orth("bogus"), id="net-orth-string"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_orth([["a"]]), id="net-orth-singleton"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_orth([["[1,1]", "[9,9]"]]),
                     id="net-orth-unknown-region"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_repeated_region,
                     id="net-repeated-region"),
        # a float, a boolean or a string where an integer belongs is refused, not coerced
        pytest.param("qubit2", _HAAG, _net_field("sites", 2.5), id="net-sites-float"),
        pytest.param("qubit2", _HAAG, _net_field("sites", True), id="net-sites-bool"),
        pytest.param("qubit2", _HAAG, _net_field("sites", "2"), id="net-sites-string"),
        pytest.param("qubit2", _HAAG, _net_field("local_dim", 2.0), id="net-local-dim-float"),
        pytest.param("qubit2", _HAAG, _net_region_site(0.0), id="net-site-float"),
        pytest.param("qubit2", _HAAG, _net_region_site(False), id="net-site-bool"),
        pytest.param("qubit2", _HAAG, _net_region_site("0"), id="net-site-string"),
        pytest.param("intcat4", ["validate-category", "--in"], _category_objects_string,
                     id="category-objects-string"),
        pytest.param("intcat4", ["operad", "check", "--in"], _category_orth_pair_string,
                     id="operad-orth-pair-string"),
        pytest.param("z2-intcat6", ["validate-action", "--in"], _group_elements_string,
                     id="action-elements-string"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_orth_pair_string,
                     id="net-orth-pair-string"),
        pytest.param("wide-cone-m2", ["homotopy", "verify", "--cases", "1", "--cone"],
                     _cone_x_string, id="cone-x-string"),
        pytest.param("intcat4", ["validate-category", "--in"], _category_ids_not_strings,
                     id="category-ids-not-strings"),
        pytest.param("intcat4", ["operad", "check", "--in"], _category_ids_not_strings,
                     id="operad-ids-not-strings"),
        pytest.param("z2-intcat6", ["validate-action", "--in"], _group_elements_ints,
                     id="action-elements-ints"),
        pytest.param("z2-intcat6", ["validate-action", "--in"], _net_field("name", 7),
                     id="action-name-int"),
        pytest.param("qubit2", ["sectors", "perp", "--net"], _net_region_ids_ints,
                     id="net-region-ids-ints"),
        pytest.param("qubit2", _HAAG, _net_field("name", None), id="net-name-null"),
    ],
)
def test_malformed_documents_exit_2_without_traceback(workdir, capsys, fixture, command, corrupt):
    tmp, export = workdir
    doc = corrupt(read(export(fixture)))
    path = tmp / "malformed.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(command + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("schema error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# -- malformed nets, fuzzed ------------------------------------------------------------------------

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.text(max_size=3),
    st.sampled_from([2.5, 2.0, 0.0, "2", "0"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@st.composite
def _malformed_net(draw):
    """net_to_json(qubit_net(2)) with one to three mutations: wrong types
    (floats, booleans and strings where integers belong among them),
    unknown or repeated ids, out-of-range sites, bad algebra kinds and
    malformed orth lists."""
    doc = net_to_json(qubit_net(2))
    ids = [r["id"] for r in doc["regions"]]
    for _ in range(draw(st.integers(1, 3))):
        regions = doc["regions"] if isinstance(doc.get("regions"), list) else None
        kind = draw(st.sampled_from(
            ["top", "region-key", "region", "repeat", "sites", "no-sites", "algebra", "orth"]
        ))
        if kind == "top" or regions is None or not regions:
            key = draw(st.sampled_from(["sites", "local_dim", "regions", "orth", "name"]))
            doc[key] = draw(_JUNK)
            continue
        k = draw(st.integers(0, len(regions) - 1))
        region = regions[k] if isinstance(regions[k], dict) else {}
        if kind == "region-key":
            key = draw(st.sampled_from(["id", "sites", "algebra"]))
            if draw(st.booleans()):
                regions[k] = {**region, key: draw(_JUNK)}
            else:
                regions[k] = {a: b for a, b in region.items() if a != key}
        elif kind == "region":
            regions[k] = draw(_JUNK)
        elif kind == "repeat":
            doc["regions"] = regions + [regions[k]]
        elif kind == "no-sites":
            # every region on no site, so any chain length passes the range check
            doc["regions"] = [{**r, "sites": []} if isinstance(r, dict) else r for r in regions]
        elif kind == "sites":
            site = st.one_of(st.integers(-2, 3), st.sampled_from([1.0, True, "1"]))
            regions[k] = {**region, "sites": draw(st.lists(site, max_size=3))}
        elif kind == "algebra":
            algebra = st.sampled_from(["full", "diagonal", "bogus", 3, None])
            regions[k] = {**region, "algebra": draw(algebra)}
        else:
            pair = st.lists(st.one_of(st.sampled_from(ids + ["[9,9]"]), _JUNK), max_size=3)
            doc["orth"] = draw(st.one_of(_JUNK, st.just("disjoint"), st.lists(pair, max_size=3)))
    return doc


@settings(max_examples=300, deadline=None)
@given(_malformed_net(), st.sampled_from([["haag"], ["theorem311", "--bound", "1"]]))
def test_malformed_nets_exit_cleanly(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sectors", command[0], "--net", path] + command[1:])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
