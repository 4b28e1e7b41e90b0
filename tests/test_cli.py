"""Front-end behavior: file parsing, reports, exit codes, certificate round trips."""

import dataclasses
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from galois_equiv import cli, field
from galois_equiv.cli import (
    certificate_from_json,
    fixture_path,
    load_problem,
    main,
)
from galois_equiv.equivariance import compute_X, lambda_invariant, verify_certificate
from galois_equiv.errors import ParseError, Singular
from galois_equiv.field import rational_to_string
from galois_equiv.induced import build_induced
from galois_equiv.linalg import Mat, inverse, matrix_norm
from galois_equiv.rep import evaluate_word

A5 = fixture_path("a5_3dim.json")
C3 = fixture_path("c3_inversion.json")
A7D = fixture_path("2a7_4dim.json")
REPLAY = fixture_path("a5_replay_y.json")

# Two matrices over Q[sqrt-7] whose common twist intertwiner is
# [[0,1],[-2,0]], of twisted norm -2: a minimal instance with a genuine
# obstruction.  The group is free (no relations) and tau is the identity.
OBSTRUCTED = {
    "field": {"min_poly": [7, 0, 1], "sigma_image": [0, -1]},
    "group": {
        "generators": ["g", "h"],
        "relations": [],
        "tau": {"g": "g", "h": "h"},
        "tau_order": 2,
    },
    "representation": {
        "g": [[[0, 1], 1], [-2, [0, -1]]],
        "h": [[0, 1], [-2, 0]],
    },
    "options": {"seed": 0},
}


# Free representations over Q(sqrt5), tau the identity, whose intertwiner X
# with the twist is singular: its kernel is a proper rho-stable subspace, so
# rho is reducible.  X = E12 with N(X) = 0 for the first, X = E11 with
# N(X) = E11 for the second.
SINGULAR_X = {
    "lambda-zero": {"g": [[1, [0, 1]], [0, 1]], "h": [[[0, 1], 0], [0, [0, -1]]]},
    "norm-e11": {"g": [[1, 0], [0, [0, 1]]]},
}


def report_of(capsys):
    return json.loads(capsys.readouterr().out)


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_a5(capsys):
    assert main(["validate", A5]) == 0
    report = report_of(capsys)
    assert report["ok"] and report["absolutely_irreducible"]
    assert report["burnside_dim"] == 9


def test_lambda_a5(capsys):
    assert main(["lambda", A5]) == 0
    report = report_of(capsys)
    assert report == {"lambda_rep": "-1", "lambda_canonical": "1", "is_trivial": True}


def test_lambda_c3(capsys):
    assert main(["lambda", C3]) == 0
    report = report_of(capsys)
    assert report == {"lambda_rep": "1", "lambda_canonical": "1", "is_trivial": True}


def test_equivariant_certificate_round_trip(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["equivariant", A5, "--out", str(out)]) == 0
    report = report_of(capsys)
    assert report["is_trivial"] and report["verified"]
    problem = load_problem(A5)
    cert = certificate_from_json(json.loads(out.read_text()), problem)
    assert verify_certificate(cert, problem.representation()).ok


def test_equivariant_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["equivariant", A5, "--seed", "7", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["equivariant", A5, "--seed", "7", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_uses_the_given_matrix(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["equivariant", A5, "--replay-Y", REPLAY, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["witness"] == ["2", "-1"]
    assert cert["y"][0][0] == ["1", "-2"]
    # the replayed conjugation lands on matrices with denominator 40
    assert cert["rho_prime"]["b"][0][0] == ["1/4", "-1/10"]


def test_replay_checks_a_supplied_witness(tmp_path, capsys):
    # norm(1 + t) = -4 is neither lambda = -1 nor its inverse, from the flag
    # or from the problem file's options; the replayed Y's own mu passes
    assert main(["equivariant", A5, "--replay-Y", REPLAY, "--witness", "1,1"]) == 1
    assert "BadWitness" in capsys.readouterr().err
    with open(A5, encoding="utf-8") as handle:
        data = json.load(handle)
    data.setdefault("options", {})["witness"] = ["1", "1"]
    assert main(["equivariant", write_problem(tmp_path, data), "--replay-Y", REPLAY]) == 1
    assert "BadWitness" in capsys.readouterr().err
    assert main(["equivariant", A5, "--replay-Y", REPLAY, "--witness", "2,-1"]) == 0
    assert report_of(capsys)["certificate"]["witness"] == ["2", "-1"]


def test_equivariant_c3_one_by_one(capsys):
    assert main(["equivariant", C3]) == 0
    report = report_of(capsys)
    assert report["is_trivial"] and report["verified"]
    cert = report["certificate"]
    assert len(cert["y"]) == 1 and len(cert["y"][0]) == 1
    assert cert["rho_prime"]["g"] == [[["-1/2", "1/2"]]]


def test_induce_a5(capsys):
    assert main(["induce", A5]) == 0
    report = report_of(capsys)
    assert report == {"endo_dim": 4, "relations_ok": True, "schur_index": 1, "symbol": None}


def test_induce_c3(capsys):
    assert main(["induce", C3]) == 0
    report = report_of(capsys)
    assert report["endo_dim"] == 4 and report["schur_index"] == 1


def test_validate_double_cover(capsys):
    assert main(["validate", A7D]) == 0
    report = report_of(capsys)
    assert report["ok"]
    assert report["burnside_dim"] == 16


def test_lambda_double_cover(capsys):
    assert main(["lambda", A7D]) == 3
    report = report_of(capsys)
    assert report["lambda_canonical"] == "-2"
    assert report["is_trivial"] is False
    assert report["lambda_primes_divide_declared_order"] is True


def test_induce_double_cover(capsys):
    assert main(["induce", A7D]) == 3
    report = report_of(capsys)
    assert report["schur_index"] == 2
    assert report["symbol"] == ["-2", "-7"]
    assert report["endo_dim"] == 4
    assert report["relations_ok"]


def test_equivariant_double_cover_reports_obstruction(capsys):
    assert main(["equivariant", A7D]) == 3
    report = report_of(capsys)
    assert report["symbol"] == ["-2", "-7"]
    assert report["certificate"]["y"] is None


def test_obstructed_lambda_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, OBSTRUCTED)
    assert main(["lambda", path]) == 3
    report = report_of(capsys)
    assert report["lambda_rep"] == "-2"
    assert report["lambda_canonical"] == "-2"
    assert report["is_trivial"] is False


def test_obstructed_equivariant_reports_symbol(tmp_path, capsys):
    path = write_problem(tmp_path, OBSTRUCTED)
    out = tmp_path / "cert.json"
    assert main(["equivariant", path, "--out", str(out)]) == 3
    report = report_of(capsys)
    assert report["symbol"] == ["-2", "-7"]
    assert report["certificate"]["y"] is None
    # the obstruction certificate still re-verifies from disk
    cert = json.loads(out.read_text())
    assert cert["is_trivial"] is False


def test_obstructed_induce_reports_index_two(tmp_path, capsys):
    path = write_problem(tmp_path, OBSTRUCTED)
    assert main(["induce", path]) == 3
    report = report_of(capsys)
    assert report["schur_index"] == 2
    assert report["symbol"] == ["-2", "-7"]
    assert report["endo_dim"] == 4


@pytest.mark.parametrize("witness", [[], ["--witness", "1,0"]], ids=["plain", "witness"])
@pytest.mark.parametrize("command", ["lambda", "equivariant", "induce"])
@pytest.mark.parametrize("images", SINGULAR_X.values(), ids=SINGULAR_X)
def test_a_singular_intertwiner_is_not_irreducible(images, command, witness, tmp_path, capsys):
    data = {
        "field": {"min_poly": [-5, 0, 1], "sigma_image": [0, -1]},
        "group": {"generators": list(images), "relations": [], "tau": {g: g for g in images}, "tau_order": 2},
        "representation": images,
    }
    assert main([command, write_problem(tmp_path, data)] + witness) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NotIrreducible: the intertwiner X is singular; rho is not absolutely irreducible\n"


def test_validate_catches_broken_relation(tmp_path, capsys):
    data = json.loads(open(A5).read())
    data["group"]["relations"] = ["a a", "b b b", "a b"]
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 1
    report = report_of(capsys)
    assert not report["ok"]
    assert {"word": "a b", "holds": False} in report["relations"]


UNREADABLE = {
    "not-utf8": b'\xff\xfe{"field": {}}',
    "long-integer": b"[" + b"1" * 4301 + b"]",  # past the int() digit limit
    "deep": b"[" * 100_000,  # nesting past the recursion limit
}


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"field": [1, 2,')
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err
    # a file json cannot read for another reason is bad input at its path
    for name, content in UNREADABLE.items():
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and captured.err.endswith(f" at {path}\n"), name


def test_missing_block_is_positioned(tmp_path, capsys):
    path = write_problem(tmp_path, {"field": {"min_poly": [-5, 0, 1], "sigma_image": [0, -1]}})
    assert main(["validate", path]) == 2
    assert "group" in capsys.readouterr().err


def test_ragged_matrix_exits_2(tmp_path, capsys):
    data = json.loads(open(C3).read())
    data["representation"]["g"] = [[1, 0], [1]]
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "representation.g" in capsys.readouterr().err


@pytest.mark.parametrize(
    "update",
    [
        pytest.param({"relations": ["g q"]}, id="unknown-generator"),
        pytest.param({"generators": [], "relations": [], "tau": {}}, id="no-generators"),
        pytest.param({"generators": ["g", "g"]}, id="duplicate-generators"),
        pytest.param({"generators": ["g", ""]}, id="empty-generator-name"),
        pytest.param({"generators": ["g", "h k"]}, id="generator-name-with-a-space"),
        pytest.param({"generators": ["g", "h\t"]}, id="generator-name-with-a-tab"),
        pytest.param({"generators": ["g", "g'"]}, id="generator-name-ending-in-an-apostrophe"),
        pytest.param({"relations": "g g g"}, id="relations-not-a-list"),
        pytest.param({"relations": [3]}, id="relation-not-a-word"),
        pytest.param({"tau": "g"}, id="tau-a-string"),
        pytest.param({"tau": ["g"]}, id="tau-a-list"),
        pytest.param({"tau": {"g": 1}}, id="tau-image-not-a-word"),
        pytest.param({"tau": {"g": "g g", "zz": "g"}}, id="tau-unknown-generator"),
        pytest.param({"order": 0}, id="order-zero"),
        pytest.param({"order": -60}, id="order-negative"),
        pytest.param({"tau_order": 3}, id="tau-order-3"),
        pytest.param({"tau_order": 4}, id="tau-order-4"),
    ],
)
def test_malformed_group_exits_2(tmp_path, capsys, update):
    data = json.loads(open(C3).read())
    data["group"].update(update)
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "group" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["", "h k", " h", "h\n", "g'", "'"])
def test_a_generator_name_no_word_can_reference_exits_2_at_its_index(tmp_path, capsys, name):
    # parse_word splits words at whitespace and reads a trailing ' as an inverse
    data = json.loads(open(C3).read())
    data["group"]["generators"] = ["g", name]
    data["representation"][name] = data["representation"]["g"]
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.strip().endswith(" at group.generators[1]")


def test_matrix_for_an_unknown_generator_exits_2(tmp_path, capsys):
    data = json.loads(open(C3).read())
    data["representation"]["zz"] = data["representation"]["g"]
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "representation" in err and "'zz'" in err


def test_singular_generator_image_exits_2(tmp_path, capsys):
    data = json.loads(open(C3).read())
    data["representation"]["g"] = [[0]]
    path = write_problem(tmp_path, data)
    assert main(["lambda", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "'g'" in err and "singular" in err


def test_reducible_min_poly_exits_2(tmp_path, capsys):
    data = json.loads(open(C3).read())
    data["field"]["min_poly"] = [-4, 0, 1]
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "field" in capsys.readouterr().err


NOT_AN_ARRAY = "expected an array of rationals at field."


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("min_poly", 5, NOT_AN_ARRAY + "min_poly", id="min-poly-number"),
        pytest.param("min_poly", None, NOT_AN_ARRAY + "min_poly", id="min-poly-null"),
        # a string would otherwise be read digit by digit, as [3, 0, 1]
        pytest.param("min_poly", "301", NOT_AN_ARRAY + "min_poly", id="min-poly-string"),
        pytest.param("min_poly", {"a": 1}, NOT_AN_ARRAY + "min_poly", id="min-poly-object"),
        # t^2 - 5/4 generates Q(sqrt 5), but m must be a monic integer polynomial
        pytest.param(
            "min_poly", ["-5/4", 0, 1], "min_poly must have integer coefficients at field", id="min-poly-rational"
        ),
        pytest.param("sigma_image", 7, NOT_AN_ARRAY + "sigma_image", id="sigma-image-number"),
    ],
)
def test_malformed_field_exits_2(tmp_path, capsys, key, value, message):
    data = json.loads(open(C3).read())
    data["field"][key] = value
    path = write_problem(tmp_path, data)
    assert main(["lambda", path]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"parse error: {message}"


@pytest.mark.parametrize(
    "y",
    [
        pytest.param([[1, 0], [0, 1]], id="2x2"),
        pytest.param([[1, 0], [0, 1], [1, 1]], id="3x2"),
    ],
)
def test_replay_of_the_wrong_shape_exits_2(tmp_path, capsys, y):
    replay = write_problem(tmp_path, {"y": y}, name="replay.json")
    assert main(["equivariant", A5, "--replay-Y", replay]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and f"{replay}: y" in err and "3 x 3" in err


def test_reducible_cubic_min_poly_exits_2(tmp_path, capsys):
    # (t-1)(t-2)(t-3), with sigma cycling the roots 1 -> 2 -> 3
    data = json.loads(open(C3).read())
    data["field"] = {"min_poly": [-6, 11, -6, 1], "sigma_image": [-2, "11/2", "-3/2"]}
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "field" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["1e-3", "1E2", "1_000", "0x10", "1.5"])
def test_a_matrix_entry_that_is_not_p_over_q_exits_2(entry, tmp_path, capsys):
    # Fraction would read "1e-3" as 1/1000; a problem file takes only n and p/q
    data = json.loads(open(C3).read())
    data["representation"]["g"] = [[[entry, "1/2"]]]
    path = write_problem(tmp_path, data)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and repr(entry) in err and "representation.g[0][0][0]" in err


def test_a_witness_that_is_not_p_over_q_exits_2(capsys):
    assert main(["lambda", A5, "--witness", "1e0,0"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "'1e0'" in err and "--witness[0]" in err


def test_a_bad_witness_in_the_options_exits_2_at_options_witness(tmp_path, capsys):
    data = json.loads(open(A5).read())
    data["options"] = {"witness": ["x"]}
    assert main(["lambda", write_problem(tmp_path, data)]) == 2
    assert capsys.readouterr().err.strip().endswith("'x' at options.witness[0]")


def _set(path, value):
    """An edit of a problem file that sets the entry at path, or deletes it
    for value DELETE; the empty path replaces the whole file."""

    def edit(data):
        if not path:
            return value
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
        return data

    return edit


DELETE = object()


@pytest.mark.parametrize(
    "command, edit, where",
    [
        pytest.param("validate", _set((), []), "$", id="top-level-a-list"),
        pytest.param("validate", _set(("field",), [3, 0, 1]), "field", id="field-a-list"),
        pytest.param("validate", _set(("group",), "g"), "group", id="group-a-string"),
        pytest.param("validate", _set(("group", "tau_order"), "2"), "group.tau_order", id="tau-order-a-string"),
        pytest.param("validate", _set(("group", "tau_order"), 2.0), "group.tau_order", id="tau-order-a-float"),
        pytest.param("validate", _set(("group", "order"), 1.5), "group.order", id="order-a-float"),
        pytest.param("validate", _set(("representation",), [[1]]), "representation", id="representation-a-list"),
        pytest.param("validate", _set(("representation", "g"), DELETE), "representation", id="matrix-missing"),
        pytest.param("validate", _set(("representation", "g"), 5), "representation.g", id="matrix-a-number"),
        pytest.param("validate", _set(("representation", "g"), []), "representation.g", id="matrix-empty"),
        pytest.param("validate", _set(("representation", "g"), [1]), "representation.g", id="matrix-a-row"),
        pytest.param("validate", _set(("representation", "g"), [[1, 0]]), "representation.g", id="matrix-1x2"),
        pytest.param(
            "validate", _set(("representation", "g"), [[True]]), "representation.g[0][0]", id="entry-a-boolean"
        ),
        pytest.param(
            "validate", _set(("representation", "g"), [[0.5]]), "representation.g[0][0]", id="entry-a-float"
        ),
        pytest.param(
            "validate", _set(("representation", "g"), [[[1, 0, 0]]]), "representation.g[0][0]", id="entry-too-long"
        ),
        pytest.param(
            "validate", _set(("representation", "g"), [[[1, 0.5]]]), "representation.g[0][0][1]", id="coeff-a-float"
        ),
        pytest.param("validate", _set(("options",), [0]), "options", id="options-a-list"),
        pytest.param("equivariant", _set(("options", "seed"), "0"), "options.seed", id="seed-a-string"),
        pytest.param("equivariant", _set(("options", "seed"), False), "options.seed", id="seed-a-boolean"),
    ],
)
def test_bad_input_exits_2_at_its_location(tmp_path, capsys, command, edit, where):
    data = edit(json.loads(open(C3).read()))
    assert main([command, write_problem(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.endswith(f" at {where}\n")


@pytest.mark.parametrize(
    "content, where",
    [
        pytest.param(None, "", id="missing"),
        pytest.param("{", ": line 1 column 2", id="not-json"),
        pytest.param('{"x": [[1]]}', "", id="no-y"),
        pytest.param('{"y": null}', "", id="null-y"),
        *(pytest.param(content, "", id=name) for name, content in UNREADABLE.items()),
    ],
)
def test_a_bad_replay_file_exits_2_at_its_path(tmp_path, capsys, content, where):
    replay = tmp_path / "replay.json"
    if content is not None:
        replay.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["equivariant", A5, "--replay-Y", str(replay)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.endswith(f" at {replay}{where}\n")


def test_witness_flag_is_parsed(capsys):
    assert main(["lambda", A5, "--witness", "2,-1"]) == 0
    assert report_of(capsys)["is_trivial"] is True


@pytest.mark.parametrize("command", ["lambda", "induce", "equivariant"])
def test_every_command_checks_the_witness(command, capsys):
    # lambda is -1 on A5: 1 + t has norm -4, 2 - t has norm -1
    assert main([command, A5, "--witness", "1,1"]) == 1
    assert "BadWitness" in capsys.readouterr().err
    assert main([command, A5, "--witness", "2,-1"]) == 0


@pytest.mark.parametrize("command, flag", [
    ("validate", "--out"), ("induce", "--out"), ("lambda", "--seed"), ("validate", "--witness"),
])
def test_a_flag_the_command_does_not_read_is_rejected(command, flag, tmp_path, capsys):
    # argparse exits 2 on an unknown flag, so nothing is silently ignored
    out = tmp_path / "f"
    with pytest.raises(SystemExit) as exc:
        main([command, A5, flag, str(out) if flag == "--out" else "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["lambda", str(tmp_path / "nope.json")]) == 2


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    # the parser is built once per process; each call must see only its own argv
    assert main(["lambda", A5, "--witness", "1,1"]) == 1
    assert main(["lambda", A5]) == 0
    out = tmp_path / "cert.json"
    assert main(["equivariant", A5, "--out", str(out)]) == 0
    out.unlink()
    assert main(["equivariant", A5]) == 0
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["lambda", A5, "--no-such-option"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["lambda", A5]) == 0
    assert report_of(capsys) == {"lambda_rep": "-1", "lambda_canonical": "1", "is_trivial": True}


def count_calls(monkeypatch, functions):
    """Wrap each function in every galois_equiv module that holds it, so a
    name copied by ``from .x import f`` is counted too."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("galois_equiv")]
    for fn in functions:

        def wrapper(*args, fn=fn, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return counts


def test_each_command_computes_each_stage_once(monkeypatch, tmp_path, capsys):
    counts = count_calls(monkeypatch, [compute_X, build_induced, verify_certificate])
    assert main(["induce", A5]) == 0
    assert counts == {"compute_X": 1, "build_induced": 1}
    capsys.readouterr()
    counts.clear()
    assert main(["equivariant", A5]) == 0
    assert report_of(capsys)["verified"] is True
    assert counts == {"compute_X": 1, "verify_certificate": 1}
    counts.clear()
    # --out compares the certificate read back with the verified one
    assert main(["equivariant", A5, "--out", str(tmp_path / "cert.json")]) == 0
    assert counts == {"compute_X": 1, "verify_certificate": 1}


def test_twists_are_built_from_the_short_tau_words(monkeypatch, capsys):
    # twist j evaluates the words tau(g) on twist j - 1, not tau^j(g) on rho:
    # on A5 tau^2(b) has 43 letters and tau(b) 8
    products = Counter()
    product = Mat.__mul__

    def counted(a, b):
        products["mul"] += 1
        return product(a, b)

    monkeypatch.setattr(Mat, "__mul__", counted)
    for command, path, want in (("validate", A5, 28), ("induce", A5, 54), ("validate", A7D, 36), ("induce", A7D, 62)):
        products.clear()
        main([command, path])
        assert products["mul"] == want, (command, path)
    capsys.readouterr()


def test_induce_evaluates_each_twist_word_once(monkeypatch, capsys):
    # build_induced evaluates tau(g) and tau^2(g) for both generators and the
    # 4 relations in rho and in rho o tau: 12 words.  compute_X reads
    # sigma(rho(tau^-1(g))) from the same twist rho o tau; it evaluated the two
    # words tau(g) again when it built them itself, 14 words in all.
    counts = count_calls(monkeypatch, [evaluate_word])
    assert main(["induce", A7D]) == 3
    assert counts == {"evaluate_word": 12}


def write_conjugate(tmp_path, path, seed):
    """The problem file at path with every image conjugated by a seeded random T."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    data["representation"] = {
        name: [[[rational_to_string(c) for c in e.coeffs] for e in row] for row in m.rows]
        for name, m in zip(load_problem(path).gen_names, conjugated_at(path, 2, seed))
    }
    return write_problem(tmp_path, data)


def conjugated_at(path, height, seed):
    """The images of the problem at path conjugated by a seeded Y with coefficients in [-height, height]."""
    problem = load_problem(path)
    ext, n, rng = problem.ext, problem.matrices[0].nrows, random.Random(seed)
    while True:
        y = Mat(ext, [[[rng.randint(-height, height) for _ in range(ext.degree)] for _ in range(n)] for _ in range(n)])
        try:
            y_inv = inverse(y)
        except Singular:
            continue
        return [y * m * y_inv for m in problem.matrices]


@pytest.mark.parametrize(
    "fixture, code, expected",
    [
        pytest.param(A7D, 3, {"lambda": 1, "induce": 1, "equivariant": 2}, id="2a7-obstruction"),
        pytest.param(A5, 0, {"lambda": 0, "induce": 0, "equivariant": 1}, id="a5-trivial"),
        # lambda = 1 on c3, so the witness search's factor(denominator) counts too
        pytest.param(C3, 0, {"lambda": 0, "induce": 0, "equivariant": 2}, id="c3-trivial"),
    ],
)
def test_each_decision_factors_lambda_once(monkeypatch, tmp_path, capsys, fixture, code, expected):
    # even n: Hilbert symbols decide, factoring lambda once per decision, and
    # equivariant decides twice (verify_certificate re-decides).  Odd n: det X
    # decides with no factoring; on the trivial path equivariant factors
    # lambda once, in norm_witness's own is_norm guard
    path = write_conjugate(tmp_path, fixture, seed=0)
    lam = lambda_invariant(load_problem(path).representation()).lambda_rep
    target = abs(lam.numerator * lam.denominator)
    factored = []
    factor = field.factor

    def counting_factor(n, *args, **kwargs):
        factored.append(abs(n))
        return factor(n, *args, **kwargs)

    monkeypatch.setattr(field, "factor", counting_factor)
    for command, count in expected.items():
        factored.clear()
        assert main([command, path]) == code
        assert factored.count(target) == count, command


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    out = str(tmp_path / "no" / "such" / "cert.json") if where == "missing-dir" else str(tmp_path)
    assert main(["equivariant", A5, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.endswith(f" at {out}\n")


@pytest.mark.parametrize(
    "y",
    [
        pytest.param([[0, 0, 0], [0, 0, 0], [0, 0, 0]], id="zero"),
        pytest.param([[1, 0, 0], [0, 1, 0], [1, 1, 0]], id="rank-2"),
    ],
)
def test_singular_replay_is_singular(tmp_path, capsys, y):
    replay = write_problem(tmp_path, {"y": y}, name="replay.json")
    assert main(["equivariant", A5, "--replay-Y", replay]) == 1
    assert capsys.readouterr().err == "error: Singular: matrix is singular\n"


def test_only_the_conjugation_inverts_a_matrix(monkeypatch, tmp_path, capsys):
    # invertibility is certified mod p and identities with an inverse are
    # checked as products; rho' = Y rho Y^-1 needs the one exact inverse
    counts = count_calls(monkeypatch, [inverse])
    for command in ("validate", "lambda", "induce"):
        for path in (A5, A7D):
            main([command, path])
            assert counts["inverse"] == 0, (command, path)
    assert main(["equivariant", A7D]) == 3
    assert counts["inverse"] == 0
    for extra in ([], ["--out", str(tmp_path / "cert.json")], ["--replay-Y", REPLAY]):
        counts.clear()
        assert main(["equivariant", A5, *extra]) == 0
        assert counts["inverse"] == 1, extra
    capsys.readouterr()


def test_equivariant_takes_at_most_two_twisted_norms(monkeypatch, capsys):
    # lambda from X and the certificate's re-check of lambda; hilbert90 reads
    # N(mu X) off its own chain
    counts = count_calls(monkeypatch, [matrix_norm])
    assert main(["equivariant", A5]) == 0
    assert counts["matrix_norm"] <= 2
    capsys.readouterr()


def test_equivariant_out_checks_the_file_with_no_second_verification(monkeypatch, tmp_path, capsys):
    # N(X) decides lambda once; the certificate's witness decides it again
    counts = count_calls(monkeypatch, [verify_certificate, matrix_norm])
    assert main(["equivariant", A5, "--out", str(tmp_path / "cert.json")]) == 0
    assert counts == {"verify_certificate": 1, "matrix_norm": 2}
    counts.clear()
    assert main(["equivariant", A5]) == 0
    assert counts == {"verify_certificate": 1, "matrix_norm": 2}
    capsys.readouterr()


def test_equivariant_out_rejects_a_certificate_that_reads_back_changed(monkeypatch, tmp_path, capsys):
    # a seed lost in the file leaves a certificate that still verifies, but
    # it is not the one computed
    read = cli.certificate_from_json
    monkeypatch.setattr(cli, "certificate_from_json", lambda *a: dataclasses.replace(read(*a), seed=1))
    assert main(["equivariant", A5, "--out", str(tmp_path / "cert.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: GaloisEquivError: written certificate")
    assert not (tmp_path / "cert.json").exists()  # a rejected certificate is never written


# ---------------------------------------------------------------------------
# the integer reader and printer


def fraction_json(x):
    """Oracle for the printer: each coefficient of x as a Fraction, then "n" or "p/q"."""
    return [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in x.coeffs]


def random_coefficient(rng):
    """0, or a rational whose numerator and denominator reach up to 10^30, either sign."""
    if rng.random() < 0.25:
        return Fraction(0)
    big = 10 ** rng.choice((1, 5, 30))
    return Fraction(rng.randint(-big, big), rng.randint(1, 10 ** rng.choice((0, 1, 5, 30))))


def q5():
    return field.CyclicExtension([-5, 0, 1], [0, -1])


def qm7():
    return field.CyclicExtension([7, 0, 1], [0, -1])


def cyclic_cubic():
    return field.CyclicExtension([-1, -2, 1, 1], [-2, 0, 1])


@pytest.mark.parametrize(
    "make_ext, conjugated",
    [pytest.param(q5, A5, id="q5"), pytest.param(qm7, A7D, id="qm7"), pytest.param(cyclic_cubic, None, id="cubic")],
)
def test_the_printer_matches_the_fraction_oracle_and_reads_back(make_ext, conjugated):
    ext = make_ext()
    rng = random.Random(f"printer-{ext.min_poly}")
    mats = [
        Mat(ext, [[ext.element([random_coefficient(rng) for _ in range(ext.degree)]) for _ in range(cols)]
                  for _ in range(rows)])
        for rows, cols in ((1, 1), (2, 3), (3, 3), (4, 4)) for _ in range(3)
    ]
    mats.append(Mat(ext, [[0, 0], [0, 0]]))
    if conjugated is not None:
        mats += [m for seed in range(2) for m in conjugated_at(conjugated, 100, seed)]
    for m in mats:
        printed = json.loads(json.dumps(cli._mat_json(m)))
        assert printed == [[fraction_json(e) for e in row] for row in m.rows]
        assert cli._as_matrix(printed, ext, "m") == m
        for e in m.flatten():
            printed = cli._element_json(e.num, e.den)
            assert printed == fraction_json(e)
            assert cli._as_element(printed, ext, "w") == e


@pytest.mark.parametrize("make_ext", [q5, qm7, cyclic_cubic], ids=["q5", "qm7", "cubic"])
def test_the_reader_builds_the_matrix_the_library_builds(make_ext):
    # integers, unreduced and signed "p/q" strings, short arrays and zeros
    ext = make_ext()
    rng = random.Random(f"reader-{ext.min_poly}")

    def written():
        q = random_coefficient(rng)
        if rng.random() < 0.3:
            return q.numerator * q.denominator  # an integer
        k, sign = rng.randint(1, 4), "+" if q > 0 and rng.random() < 0.3 else ""
        return f"{sign}{q.numerator * k}/{q.denominator * k}"

    for rows, cols in ((1, 1), (2, 2), (3, 4), (4, 4)):
        for _ in range(4):
            value = [[written() if rng.random() < 0.3 else [written() for _ in range(rng.randint(0, ext.degree))]
                      for _ in range(cols)] for _ in range(rows)]
            library = Mat(ext, [[ext.element([Fraction(c) for c in (e if isinstance(e, list) else [e])])
                                 for e in row] for row in value])
            assert cli._as_matrix(value, ext, "m") == library
            assert cli._as_element(value[0][0], ext, "w") == library[0, 0]


BAD_RATIONALS = [
    (True, "expected a rational, got a boolean"),
    (0.5, "expected an integer or 'p/q' string, got float"),
    ("1.5", "expected an integer or 'p/q', got '1.5'"),
    ("1/0", "zero denominator in '1/0'"),
    ("1_000", "expected an integer or 'p/q', got '1_000'"),
]
LONG = "coefficient array longer than the field degree 2"


def bad_matrices(n):
    """(id, n x n matrix with a fault, message, location after the matrix's)."""

    def with_entry(e):
        return [[e if (i, j) == (0, 0) else int(i == j) for j in range(n)] for i in range(n)]

    cases = [(repr(v), with_entry(v), message, "[0][0]") for v, message in BAD_RATIONALS]
    cases += [(f"coeff-{v!r}", with_entry([1, v]), message, "[0][0][1]") for v, message in BAD_RATIONALS]
    cases.append(("too-long", with_entry([1, 0, 0]), LONG, "[0][0]"))
    cases.append(("ragged", [[1] * n, [1] * (n + 1)], f"row 1 has {n + 1} entries, expected {n}", ""))
    return cases


def assert_parse_error(capsys, location):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {location}\n"


@pytest.mark.parametrize("case", bad_matrices(3), ids=[c[0] for c in bad_matrices(3)])
def test_a_bad_matrix_exits_2_with_its_message_and_location(case, tmp_path, capsys):
    _, value, message, suffix = case
    data = json.loads(open(A5).read())
    data["representation"]["a"] = value
    assert main(["validate", write_problem(tmp_path, data)]) == 2
    assert_parse_error(capsys, f"{message} at representation.a{suffix}")
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"y": value}))
    assert main(["equivariant", A5, "--replay-Y", str(replay)]) == 2
    assert_parse_error(capsys, f"{message} at {replay}: y{suffix}")
    assert main(["equivariant", A5]) == 0
    cert = report_of(capsys)["certificate"]
    for key in ("x", "y"):
        with pytest.raises(ParseError) as exc:
            certificate_from_json({**cert, key: value}, load_problem(A5))
        assert str(exc.value) == f"{message} at certificate.{key}{suffix}"


@pytest.mark.parametrize("value, message", BAD_RATIONALS, ids=[repr(v) for v, _ in BAD_RATIONALS])
def test_a_bad_witness_exits_2_with_its_message_and_location(value, message, tmp_path, capsys):
    if isinstance(value, str):
        assert main(["lambda", A5, "--witness", f"{value},1"]) == 2
        assert_parse_error(capsys, f"{message} at --witness[0]")
    data = json.loads(open(A5).read())
    # a string witness is split at commas, as --witness is
    scalar = "options.witness[0]" if isinstance(value, str) else "options.witness"
    for witness, where in ((value, scalar), ([1, value], "options.witness[1]")):
        data["options"] = {"witness": witness}
        assert main(["lambda", write_problem(tmp_path, data)]) == 2
        assert_parse_error(capsys, f"{message} at {where}")
    assert main(["equivariant", A5]) == 0
    cert = report_of(capsys)["certificate"]
    for key, bad, where in (("witness", [value], "witness[0]"), ("lambda_rep", value, "lambda_rep")):
        with pytest.raises(ParseError) as exc:
            certificate_from_json({**cert, key: bad}, load_problem(A5))
        assert str(exc.value) == f"{message} at certificate.{where}"


def test_a_witness_longer_than_the_degree_exits_2(tmp_path, capsys):
    assert main(["lambda", A5, "--witness", "1,0,0"]) == 2
    assert_parse_error(capsys, f"{LONG} at --witness")
    data = json.loads(open(A5).read())
    data["options"] = {"witness": [1, 0, 0]}
    assert main(["lambda", write_problem(tmp_path, data)]) == 2
    assert_parse_error(capsys, f"{LONG} at options.witness")
    assert main(["equivariant", A5]) == 0
    cert = report_of(capsys)["certificate"]
    with pytest.raises(ParseError) as exc:
        certificate_from_json({**cert, "witness": [1, 0, 0]}, load_problem(A5))
    assert str(exc.value) == f"{LONG} at certificate.witness"


@pytest.mark.parametrize("path", [C3, A5, A7D], ids=["c3", "a5", "2a7"])
def test_load_problem_reads_entries_as_integers(path, monkeypatch):
    # no coefficient goes through a Fraction string parse or CyclicExtension.element:
    # the only element calls are those that build the field
    counts = count_calls(monkeypatch, [field.rational_from_string])
    element = field.CyclicExtension.element

    def counted(self, coeffs):
        counts["element"] += 1
        return element(self, coeffs)

    monkeypatch.setattr(field.CyclicExtension, "element", counted)
    with open(path, encoding="utf-8") as handle:
        fld = json.load(handle)["field"]
    field.CyclicExtension(fld["min_poly"], fld["sigma_image"])
    building = counts["element"]
    counts.clear()
    load_problem(path)
    assert counts == {"element": building} and building == 6


# a quadratic field whose d = 1000003 * 1000033 has two primes past the 10^6
# trial bound: every command that needs no norm test still answers
BIG_D = -1000003 * 1000033


@pytest.mark.parametrize("c0", [-5, BIG_D], ids=["q5", "big-d"])
def test_a_field_is_factored_only_by_a_norm_query(c0, tmp_path, capsys):
    data = {
        "field": {"min_poly": [c0, 0, 1], "sigma_image": [0, -1]},
        "group": {"generators": ["g"], "relations": ["g g"], "tau": {"g": "g"}, "tau_order": 2},
        "representation": {"g": [[-1]]},
    }
    path = write_problem(tmp_path, data)
    for command in ("validate", "lambda", "induce"):
        assert main([command, path]) == 0, command
    capsys.readouterr()
    if c0 == -5:
        assert main(["equivariant", path]) == 0
