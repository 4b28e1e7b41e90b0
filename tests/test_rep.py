"""Group data, word evaluation, relation checks, and the irreducibility span."""

import pytest

from galois_equiv.errors import UnknownGenerator
from galois_equiv.field import CyclicExtension
from galois_equiv.linalg import Mat
from galois_equiv.rep import (
    GroupData,
    Representation,
    burnside_dim,
    check_automorphism,
    check_relations,
    evaluate_word,
    free_reduce,
    invert_word,
    parse_word,
    word_to_string,
)

from conftest import build_a5


def test_word_parse_and_format_round_trip():
    gens = ["a", "b"]
    w = parse_word("a b' a a'", gens)
    assert w == ((0, 1), (1, -1), (0, 1), (0, -1))
    assert word_to_string(w, gens) == "a b' a a'"


def test_word_parse_rejects_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_word("a c", ["a", "b"])


def test_invert_and_reduce():
    w = ((0, 1), (1, -1))
    assert invert_word(w) == ((1, 1), (0, -1))
    assert free_reduce(((0, 1), (0, -1), (1, 1))) == ((1, 1),)
    assert free_reduce(((0, 1), (1, 1), (1, -1), (0, -1))) == ()


def test_a5_relations_hold(a5):
    report = check_relations(a5)
    assert report.ok
    assert len(report.entries) == 3
    assert all(holds for _, holds in report.entries)


def test_perturbed_a5_fails_some_relation(a5):
    rows = [list(r) for r in a5.images[1].rows]
    rows[0][1] = rows[0][1] + a5.ext.one()
    bad = Representation(a5.group, a5.ext, [a5.images[0], Mat(a5.ext, rows)])
    report = check_relations(bad)
    assert not report.ok
    assert any(not holds for _, holds in report.entries)


def test_word_evaluation_handles_inverses(a5):
    assert evaluate_word(a5, parse_word("b b'", a5.group.gen_names)) == Mat.identity(a5.ext, 3)
    b3 = evaluate_word(a5, parse_word("b b b", a5.group.gen_names))
    assert b3 == Mat.identity(a5.ext, 3)


def test_automorphism_check_on_a5(a5):
    report = check_automorphism(a5)
    assert report.ok


def test_automorphism_check_detects_broken_tau(a5):
    group = GroupData.from_strings(
        ["a", "b"],
        ["a a", "b b b", "a b a b a b a b a b"],
        {"a": "b", "b": "a"},  # sends the involution to an order 3 element
    )
    rep = Representation(group, a5.ext, list(a5.images))
    report = check_automorphism(rep)
    assert not report.ok


def test_burnside_dim_full_on_a5(a5):
    assert burnside_dim(a5) == 9


def test_burnside_dim_on_degree_one(c3):
    assert burnside_dim(c3) == 1


def test_burnside_dim_detects_reducible():
    ext = CyclicExtension([3, 0, 1], [0, -1])
    group = GroupData.from_strings(["g"], ["g g g"], {"g": "g'"})
    omega = ["-1/2", "1/2"]
    omega2 = ["-1/2", "-1/2"]
    rep = Representation(group, ext, [Mat(ext, [[omega, 0], [0, omega2]])])
    assert burnside_dim(rep) == 2  # < 4, reducible


def test_tau_squared_returns_to_generator_words(a5):
    g = a5.group
    for k in range(len(g.gen_names)):
        w = g.tau_apply(((k, 1),), 2)
        assert evaluate_word(a5, w) == a5.images[k]


def test_representation_requires_square_images(a5):
    with pytest.raises(ValueError):
        Representation(a5.group, a5.ext, [a5.images[0], Mat(a5.ext, [[1, 0, 0], [0, 1, 0]])])


def test_fixture_builders_are_deterministic():
    r1, r2 = build_a5(), build_a5()
    assert r1.images[1] == r2.images[1]
