import json

import numpy as np
import pytest

from corona_pdo.cli import ExperimentConfig, _grid_spec
from corona_pdo.groups import (
    GridError,
    GroupGrid,
    assert_dual_pair,
    pairing_phase,
    product_group,
    truncated_dual,
)


def pairing(xgrid, xigrid, x_indices, xi_indices):
    """The character <x_i, xi_k> = exp(2*pi*i*x.xi) by index, from ``pairing_phase``."""
    assert_dual_pair(xgrid, xigrid)
    x = xgrid.coords[np.asarray(x_indices)]
    xi = xigrid.coords[np.asarray(xi_indices)]
    return np.exp(2j * np.pi * pairing_phase(xgrid, xigrid, x, xi))


def test_cyclic_pairing_frozen_values():
    g = GroupGrid.finite_cyclic(4)
    d = g.dual()
    # <1,1> on Z_4 is the primitive 4th root of unity
    assert pairing(g, d, 1, 1) == pytest.approx(1j, abs=1e-14)
    assert pairing(g, d, 2, 1) == pytest.approx(-1, abs=1e-14)
    assert pairing(g, d, 1, 2) == pytest.approx(-1, abs=1e-14)
    # <3,3> = exp(2*pi*i*9/4) = i
    assert pairing(g, d, 3, 3) == pytest.approx(1j, abs=1e-14)


def test_pairing_at_identity_is_one():
    for g in [
        GroupGrid.finite_cyclic(6),
        GroupGrid.torus(8),
        GroupGrid.line(0.5, 8.0),
    ]:
        d = g.dual()
        e = g.sub_indices(0, 0)
        vals = pairing(g, d, np.full(d.size, e), np.arange(d.size))
        assert np.allclose(vals, 1.0, atol=1e-14)


def test_torus_truncated_pairing_frozen_value():
    # x = 0.25 is sample index 2 of Torus(8); xi = 2 sits at index band+2
    g = GroupGrid.torus(8)
    d = truncated_dual(g, 4)
    xi_idx = 4 + 2
    assert d.coords[xi_idx, 0] == 2.0
    assert g.coords[2, 0] == 0.25
    assert pairing(g, d, 2, xi_idx) == pytest.approx(-1.0, abs=1e-14)


def test_pairing_is_bicharacter_under_index_addition():
    # <x_i x_j^-1, xi_k> = <x_i, xi_k> * conj(<x_j, xi_k>), in both slots
    rng = np.random.default_rng(11)
    g = GroupGrid.finite_cyclic(12)
    d = g.dual()
    for _ in range(20):
        i, j = rng.integers(0, 12, size=2)
        k = rng.integers(0, 12)
        lhs = pairing(g, d, g.sub_indices(i, j), k)
        rhs = pairing(g, d, i, k) * np.conj(pairing(g, d, j, k))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # and in the second slot
        lhs2 = pairing(g, d, i, d.sub_indices(j, k))
        rhs2 = pairing(g, d, i, j) * np.conj(pairing(g, d, i, k))
        assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_dual_is_involutive_on_descriptors():
    grids = [
        GroupGrid.finite_cyclic(8),
        GroupGrid.torus(256),
        GroupGrid.truncated_integers(32),
        GroupGrid.line(0.25, 16.0),
        product_group(GroupGrid.finite_cyclic(4), GroupGrid.torus(8)),
    ]
    for g in grids:
        dd = g.dual().dual()
        assert dd == g


def test_dual_weight_conventions():
    z8 = GroupGrid.finite_cyclic(8)
    assert z8.weight_per_point == 1.0
    assert z8.dual().weight_per_point == pytest.approx(1 / 8)

    t = GroupGrid.torus(256)
    assert t.weight_per_point * t.size == pytest.approx(1.0)
    assert t.dual().weight_per_point == 1.0
    assert t.dual().size == 256  # band 128 -> integers -128..127

    li = GroupGrid.line(0.5, 16.0)
    assert li.weight_per_point == pytest.approx(0.5)
    ld = li.dual()
    assert ld.weight_per_point == pytest.approx(1 / 16.0)
    assert ld.size == li.size


def test_haar_mass_totals():
    for grid, mass in ((GroupGrid.torus(64), 1.0), (GroupGrid.finite_cyclic(9), 9.0)):
        assert grid.weight_per_point * grid.size == pytest.approx(mass)


def test_product_structure_and_lexicographic_indexing():
    g = product_group(GroupGrid.finite_cyclic(3), GroupGrid.finite_cyclic(4))
    assert g.size == 12
    # row-major: index = i1*4 + i2
    assert tuple(g.coords[5]) == (1.0, 1.0)
    assert g.weight_per_point == 1.0
    d = g.dual()
    assert d.weight_per_point == pytest.approx(1 / 12)
    # pairing factors across the product
    v = pairing(g, d, 5, 7)
    expected = np.exp(2j * np.pi * (1 * 1 / 3)) * np.exp(2j * np.pi * (1 * 3 / 4))
    assert v == pytest.approx(expected, abs=1e-13)


def test_index_arithmetic_wraps():
    g = GroupGrid.finite_cyclic(10)
    assert g.sub_indices(2, 7) == 5
    e = g.sub_indices(0, 0)
    assert g.sub_indices(e, 3) == 7  # inverse of 3
    assert g.sub_indices(8, g.sub_indices(e, 5)) == 3  # 8 + 5 wraps to 3
    t = GroupGrid.torus(8)
    assert t.sub_indices(1, 6) == 3
    assert t.sub_indices(0, 0) == 0
    li = GroupGrid.line(1.0, 8.0)
    # x x^{-1} is the identity: on the line grid, the point at coordinate 0
    assert li.coords[li.sub_indices(0, 0), 0] == 0.0


def test_index_arithmetic_respects_midwindow_origin():
    # kinds whose coordinate 0 sits mid-window: index math must shift by it
    for g in [GroupGrid.truncated_integers(4), GroupGrid.line(0.5, 4.0)]:
        e = g.sub_indices(0, 0)  # x x^{-1}: the identity, coordinate 0 mid-window
        assert g.coords[e, 0] == 0.0
        i = np.arange(g.size)
        assert np.all(g.sub_indices(i, i) == e)
        assert np.all(g.sub_indices(i, e) == i)
        add = lambda a, b: g.sub_indices(a, g.sub_indices(e, b))  # a - (-b)
        assert np.all(add(i, e) == i)
        assert np.all(add(i, g.sub_indices(e, i)) == e)
    d = GroupGrid.truncated_integers(4)
    e = d.sub_indices(0, 0)
    # coordinate-level wrap: points -4..3, so 3 - (-2) = 5 wraps to -3
    assert d.coords[d.sub_indices(7, 2), 0] == -3.0
    assert d.coords[d.sub_indices(6, d.sub_indices(e, 7)), 0] == -3.0  # 2 + 3
    assert d.coords[d.sub_indices(e, 0), 0] == -4.0  # -(-4) wraps to -4


def test_line_grid_requires_integer_point_count():
    with pytest.raises(GridError):
        GroupGrid.line(0.3, 1.0)
    with pytest.raises(GridError):
        GroupGrid.line(-0.5, 4.0)


def test_torus_requires_even_samples():
    with pytest.raises(GridError):
        GroupGrid.torus(7)


def test_empty_product_rejected():
    with pytest.raises(GridError):
        product_group()


def test_mismatched_pair_rejected():
    g = GroupGrid.finite_cyclic(8)
    with pytest.raises(GridError):
        pairing(g, GroupGrid.finite_cyclic(6).dual(), 0, 0)
    t = GroupGrid.torus(8)
    with pytest.raises(GridError):
        assert_dual_pair(t, GroupGrid.truncated_integers(8))  # band > Nyquist
    assert_dual_pair(t, GroupGrid.truncated_integers(2))  # truncation is fine


def test_descriptor_json_round_trip():
    # the report spells a grid as its config does: the spelling parses back to the grid
    grids = [
        GroupGrid.finite_cyclic(8),
        GroupGrid.finite_cyclic(6, weight=0.3),
        GroupGrid.torus(32),
        GroupGrid.truncated_integers(16),
        GroupGrid.line(0.125, 4.0),
        product_group(GroupGrid.torus(8), GroupGrid.torus(8)),
    ]
    for g in grids:
        doc = {"schema": 1, "task": "fourier-selftest", "group": _grid_spec(g)}
        g2 = ExperimentConfig.from_mapping(json.loads(json.dumps(doc))).grids()[0]
        assert g2 == g
        assert g2.size == g.size
        assert np.allclose(g2.coords, g.coords)
    # a weight of 1 is left out, any other is spelled, and it tells the grids apart
    assert _grid_spec(grids[0]) == {"kind": "finite_cyclic", "n": 8}
    assert _grid_spec(grids[1]) == {"kind": "finite_cyclic", "n": 6, "weight": 0.3}
    assert grids[1] != GroupGrid.finite_cyclic(6)


def test_compactness_classification():
    assert GroupGrid.torus(8).is_compact_kind
    assert GroupGrid.finite_cyclic(8).is_compact_kind
    assert not GroupGrid.truncated_integers(8).is_compact_kind
    assert not GroupGrid.line(0.5, 4.0).is_compact_kind
    assert not product_group(
        GroupGrid.torus(8), GroupGrid.line(0.5, 4.0)
    ).is_compact_kind
    assert GroupGrid.finite_cyclic(8).is_finite_kind
    assert not GroupGrid.torus(8).is_finite_kind


def test_grid_function_norm_uses_haar_weight():
    g = GroupGrid.torus(16)
    assert g.norm(np.ones(16)) == pytest.approx(1.0)
    z = GroupGrid.finite_cyclic(16)
    assert z.norm(np.ones(16)) == pytest.approx(4.0)


def test_pairing_phase_accepts_raw_coordinates():
    g = GroupGrid.torus(8)
    d = truncated_dual(g, 4)
    ph = pairing_phase(g, d, np.array([[0.25]]), np.array([[2.0]]))
    assert ph == pytest.approx(0.5)


def test_factor_points_match_arange_expressions_and_are_read_only():
    cases = [
        (GroupGrid.finite_cyclic(6), np.arange(6, dtype=float)),
        (GroupGrid.torus(8), np.arange(8, dtype=float) / 8),
        (GroupGrid.truncated_integers(5), np.arange(-5, 5, dtype=float)),
        (GroupGrid.line(0.5, 4.0), (np.arange(8, dtype=float) - 8 // 2) * 0.5),
    ]
    for g, want in cases:
        pts = g.factors[0].points
        assert np.array_equal(pts, want)
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 1.0
        # a 1-d grid's coords are a read-only view of its points
        assert g.coords.shape == (g.size, 1)
        assert np.shares_memory(g.coords, pts) and not g.coords.flags.writeable


def test_coords_at_flat_indices_follow_the_label_rule():
    # every kind, an odd line, a weighted cycle and a product whose rows split
    grids = [
        GroupGrid.finite_cyclic(7, 0.3),
        GroupGrid.torus(8),
        GroupGrid.truncated_integers(5),
        GroupGrid.line(0.5, 7.5),
        product_group(GroupGrid.torus(6), GroupGrid.line(0.25, 1.25)),
    ]
    for g in grids:
        axes = np.meshgrid(*[f.points for f in g.factors], indexing="ij")
        want = np.stack([a.reshape(-1) for a in axes], axis=1)
        assert np.ascontiguousarray(g.coords).tobytes() == want.tobytes()
        idx = np.arange(g.size)
        got = np.concatenate([g._coords_at(idx[s : s + 4]) for s in range(0, g.size, 4)])
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(g._coords_at(idx), g.factors[0].points)
