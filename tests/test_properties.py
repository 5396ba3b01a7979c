"""Seeded randomized property tests for the exact identities."""

import random

from cochains import (
    Cochain,
    coboundary,
    inner_product,
    laplacian_apply,
    rho_alpha,
    simplices,
    types_of,
)
from identities import (
    eigencochain_sum_failures,
    rand_cochain,
    random_pure_complex,
    universal_identity_failures,
)
from garland.harness import get_building
from garland.rationals import QQ


def test_random_complexes_satisfy_all_identities():
    rng = random.Random(20240901)
    failures = []
    for k in range(210):
        cx = random_pure_complex(rng)
        failures += universal_identity_failures(cx, rng, tag=f"case {k}")
    assert failures == []


def test_incidence_buildings_satisfy_all_identities():
    rng = random.Random(31)
    failures = []
    for q in (2, 3, 4, 5, 7):
        b = get_building(1, q)
        failures += universal_identity_failures(b.complex, rng, tag=f"rank-1 q={q}")
    assert failures == []


def test_rank_two_building_satisfies_all_identities(b22):
    rng = random.Random(37)
    assert universal_identity_failures(b22.complex, rng, tag="rank-2 q=2") == []


def test_eigencochain_sum_rule_rank_one():
    for q in (2, 3, 4):
        b = get_building(1, q)
        assert eigencochain_sum_failures(b, tag=f"q={q}") == []


def test_eigencochain_sum_rule_rank_two(b22):
    assert eigencochain_sum_failures(b22, tag="rank-2") == []


def _type_scaled(b, f, alpha, R):
    vals = [
        QQ(R) * val if types_of(b)[s[0]] == alpha else val
        for s, val in zip(simplices(b.complex)[0], f.values)
    ]
    return Cochain(b.complex, 0, vals)


def test_type_block_projection_identities(b12, b13, b22):
    # with P the projection onto edges touching a type-alpha vertex and
    # f_alpha the type-rescaled function:
    #   (P d f_alpha, d f_alpha) = (d f_alpha, d f_alpha) - ((1-P) d f, d f)
    # and, when Delta acts on edges at all (dim >= 2),
    #   (Delta P d f_alpha, P d f_alpha) = ((1-P) d f, d f)
    rng = random.Random(41)
    for b in (b12, b13, b22):
        cx, types = b.complex, types_of(b)
        ell = cx.dim
        for trial in range(4):
            f = rand_cochain(cx, 0, rng)
            R = QQ(rng.randrange(-3, 4), rng.choice((1, 2)))
            for alpha in range(ell + 1):
                fa = _type_scaled(b, f, alpha, R)
                dfa, df = coboundary(fa), coboundary(f)
                proj = rho_alpha(dfa, types, alpha)
                rest = df - rho_alpha(df, types, alpha)
                assert inner_product(proj, dfa) == (
                    inner_product(dfa, dfa) - inner_product(rest, df)
                )
                if ell >= 2:
                    assert inner_product(laplacian_apply(proj), proj) == inner_product(
                        rest, df
                    )
