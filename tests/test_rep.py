"""Group data, word evaluation, relation checks, and the irreducibility span."""

import random

import pytest

from galois_equiv import rep as rep_module
from galois_equiv.errors import Singular, UnknownGenerator
from galois_equiv.field import CyclicExtension, _modular_root
from galois_equiv.linalg import IncrementalSpan, Mat, inverse
from galois_equiv.rep import (
    GroupData,
    Representation,
    _burnside_dim_mod_p,
    burnside_dim,
    check_automorphism,
    check_relations,
    evaluate_word,
    free_reduce,
    invert_word,
    parse_word,
    twist,
    word_to_string,
)

from conftest import build_a5, build_a7_double, build_c3
from test_acceptance import random_invertible
from test_induced import cubic_involution


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


def test_empty_and_one_letter_words(a5):
    assert evaluate_word(a5, ()) == Mat.identity(a5.ext, 3)
    assert evaluate_word(a5, ((1, 1),)) == a5.images[1]
    assert evaluate_word(a5, ((1, -1),)) == inverse(a5.images[1])


def letter_by_letter(rep, word):
    acc = Mat.identity(rep.ext, rep.dim)
    for g, e in word:
        acc = acc * rep.letter(g, e)
    return acc


@pytest.mark.parametrize("build", [build_a5, build_a7_double], ids=["a5", "2a7"])
def test_power_words_are_raised_by_squaring(build, monkeypatch):
    rep = build()
    names = rep.group.gen_names
    words = list(rep.group.relations) + [parse_word(w, names) for w in (names[0], f"{names[1]}'") * 2]
    words += [w + w[:1] for w in rep.group.relations] + [w * 3 for w in words]
    for w in words:
        assert evaluate_word(rep, w) == letter_by_letter(rep, w)
    products = []
    product = Mat.__mul__

    def counted(a, b):
        products.append(1)
        return product(a, b)

    monkeypatch.setattr(Mat, "__mul__", counted)
    # (x y)^7 and (a b)^5: one product for x y, then two squarings and two
    # products for the 7th power, or two squarings and one for the 5th
    evaluate_word(rep, rep.group.relations[-2 if build is build_a7_double else -1])
    assert len(products) == (5 if build is build_a7_double else 4)


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


def test_burnside_dim_on_degree_one(c3, monkeypatch):
    def no_prime_search(ext, den):
        raise AssertionError("a 1 x 1 representation needs no modular span")

    monkeypatch.setattr(rep_module, "_modular_root", no_prime_search)
    assert burnside_dim(c3) == 1


def test_burnside_dim_detects_reducible():
    ext = CyclicExtension([3, 0, 1], [0, -1])
    group = GroupData.from_strings(["g"], ["g g g"], {"g": "g'"})
    omega = ["-1/2", "1/2"]
    omega2 = ["-1/2", "-1/2"]
    rep = Representation(group, ext, [Mat(ext, [[omega, 0], [0, omega2]])])
    assert burnside_dim(rep) == 2  # < 4, reducible
    assert _burnside_dim_mod_p(rep, *_modular_root(ext, 1)) == 2


def exact_burnside_dim(rep):
    """The span of all word images over L, grown with the images and their
    inverses: the loop burnside_dim ran before it had a modular path."""
    n = rep.dim
    span = IncrementalSpan(rep.ext, n * n)
    ident = Mat.identity(rep.ext, n)
    span.insert(Mat(rep.ext, [ident.flatten()]).num[0])
    frontier = [ident]
    multipliers = list(rep.images) + [inverse(m) for m in rep.images]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in multipliers:
                cand = m * g
                if span.insert(Mat(rep.ext, [cand.flatten()]).num[0]):
                    new_frontier.append(cand)
        frontier = new_frontier
    return span.dim


def conjugated_by_height(build, height, seed):
    """rho conjugated by a seeded Y whose entries have coefficients in [-height, height]."""
    rep = build()
    y = random_invertible(rep.ext, rep.dim, random.Random(seed), spread=height)
    y_inv = inverse(y)
    return Representation(rep.group, rep.ext, [y * m * y_inv for m in rep.images])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(build_c3, id="c3"),
        pytest.param(build_a5, id="a5"),
        pytest.param(build_a7_double, id="2a7"),
        pytest.param(cubic_involution, id="cubic-involution"),
        pytest.param(lambda: conjugated_by_height(build_a5, 3, 1), id="a5-H3"),
        pytest.param(lambda: conjugated_by_height(build_a5, 100, 2), id="a5-H100"),
        pytest.param(lambda: conjugated_by_height(build_a7_double, 3, 3), id="2a7-H3"),
        pytest.param(lambda: conjugated_by_height(build_a7_double, 100, 4), id="2a7-H100"),
    ],
)
def test_burnside_dim_matches_the_exact_loop(build):
    rep = build()
    assert burnside_dim(rep) == exact_burnside_dim(rep)


def s3_over_q_sqrt_minus_3():
    ext = CyclicExtension([3, 0, 1], [0, -1])
    group = GroupData.from_strings(["a", "b"], ["a a a", "b b", "a b a b"], {"a": "a", "b": "b"})
    return Representation(group, ext, [Mat(ext, [[0, -1], [1, -1]]), Mat(ext, [[0, 1], [1, 0]])])


def test_a_prime_where_the_span_drops_falls_back_to_the_exact_loop(monkeypatch):
    # mod 3 the line through (1, -1) is invariant (a fixes it, b negates it),
    # so the images span only 3 dimensions
    rep = s3_over_q_sqrt_minus_3()
    assert _burnside_dim_mod_p(rep, 3, 0) == 3
    monkeypatch.setattr(rep_module, "_modular_root", lambda ext, den: (3, 0))
    assert burnside_dim(rep) == 4


@pytest.mark.parametrize(
    "min_poly, sigma_image",
    [([-5, 0, 1], [0, -1]), ([3, 0, 1], [0, -1]), ([7, 0, 1], [0, -1]), ([-1, -2, 1, 1], [-2, 0, 1])],
)
def test_modular_root_skips_a_prime_in_the_denominators(min_poly, sigma_image):
    ext = CyclicExtension(min_poly, sigma_image)
    p, root = _modular_root(ext, 1)
    assert sum(c.numerator * pow(root, k, p) for k, c in enumerate(ext.min_poly)) % p == 0
    q, other = _modular_root(ext, 6 * p)
    assert q < p
    assert sum(c.numerator * pow(other, k, q) for k, c in enumerate(ext.min_poly)) % q == 0
    assert _modular_root(ext, 6 * q * p)[0] < q


def tau_power(group, word, j):
    """tau^j applied to word."""
    for _ in range(j):
        word = group.tau_apply(word)
    return word


def test_tau_squared_returns_to_generator_words(a5):
    g = a5.group
    for k in range(len(g.gen_names)):
        w = tau_power(g, ((k, 1),), 2)
        assert evaluate_word(a5, w) == a5.images[k]


def test_group_data_needs_tau_on_every_generator_and_known_indices():
    with pytest.raises(ValueError, match="^tau must be given on every generator$"):
        GroupData(["a", "b"], [], [((0, 1),)])
    with pytest.raises(UnknownGenerator, match="^generator index 2 out of range$"):
        GroupData(["a", "b"], [((2, 1),)], [((0, 1),), ((1, 1),)])


def test_representation_needs_one_image_per_generator(a5):
    with pytest.raises(ValueError, match="^one image per generator required$"):
        Representation(a5.group, a5.ext, [a5.images[0]])


def test_representation_requires_square_images(a5):
    with pytest.raises(ValueError):
        Representation(a5.group, a5.ext, [a5.images[0], Mat(a5.ext, [[1, 0, 0], [0, 1, 0]])])


def test_representation_names_a_singular_generator(a5):
    singular = Mat(a5.ext, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(Singular, match="generator 'b' is singular"):
        Representation(a5.group, a5.ext, [a5.images[0], singular])


@pytest.mark.parametrize("build", [build_c3, build_a5, build_a7_double], ids=["c3", "a5", "2a7"])
def test_twist_inverses_come_from_the_source_letters(build, monkeypatch):
    # a twist's inverse is rho of the inverted word, so it reads the source's
    # inverse letters; those are computed on first use, so build them first
    rep = build()
    for k in range(len(rep.images)):
        rep.letter(k, -1)

    def no_elimination(m):
        raise AssertionError("a twist's inverses need no elimination")

    monkeypatch.setattr(rep_module, "inverse", no_elimination)
    for j in range(rep.ext.degree + 1):
        tw = twist(rep, j)
        for k, image in enumerate(tw.images):
            assert (tw.letter(k, -1) * image).is_identity()


@pytest.mark.parametrize("build", [build_c3, build_a5, build_a7_double], ids=["c3", "a5", "2a7"])
def test_twist_images_are_rho_of_the_tau_power_words(build):
    # twist j is built from twist j - 1 and the words tau(g); tau acts on
    # words as a free-group endomorphism, so the images are rho(tau^j(g))
    rep = build()
    for j in range(rep.ext.degree + 2):
        words = [tau_power(rep.group, ((k, 1),), j) for k in range(len(rep.images))]
        assert list(twist(rep, j).images) == [evaluate_word(rep, w) for w in words]


def test_fixture_builders_are_deterministic():
    r1, r2 = build_a5(), build_a5()
    assert r1.images[1] == r2.images[1]


def test_burnside_dim_avoids_a_prime_in_an_entry_denominator(monkeypatch, a5):
    p, _ = _modular_root(a5.ext, 1)
    d = Mat(a5.ext, [[p, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = Representation(a5.group, a5.ext, [d * m * inverse(d) for m in a5.images])
    assert any(e.den % p == 0 for m in rep.images for e in m.flatten())
    chosen = []

    def recording(ext, den):
        chosen.append(_modular_root(ext, den))
        return chosen[-1]

    monkeypatch.setattr(rep_module, "_modular_root", recording)
    assert burnside_dim(rep) == 9
    assert chosen and chosen[0][0] < p
