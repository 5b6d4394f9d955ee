from types import SimpleNamespace

import numpy as np
import pytest

from tropiprune import (AdapterLayer, ParamIndex, PruneScope,
                        apply_mask, combined_select, forward, select_smallest,
                        standard_mask, strategies, tropical_mask)

from oracles import brute_smallest

CB, CU, CN = PruneScope.CLASS_BLIND, PruneScope.CLASS_UNIFORM, PruneScope.NODE_WISE


def layer_from(down, up):
    return AdapterLayer(np.array(down, dtype=float), np.array(up, dtype=float))


def random_layer(rng, d=4, r=2):
    return AdapterLayer(rng.normal(size=(r, d + 1)), rng.normal(size=(d, r)))


def test_scope_tokens():
    assert PruneScope.from_token("cb") is CB
    assert PruneScope.from_token("CN") is CN
    with pytest.raises(ValueError):
        PruneScope.from_token("layerwise")


def test_select_empty_and_full():
    rng = np.random.default_rng(0)
    layers = [random_layer(rng)]
    total = layers[0].param_count
    for scope in (CB, CU, CN):
        assert select_smallest(layers, 0.0, scope) == set()
        assert len(select_smallest(layers, 1.0, scope)) == total
    with pytest.raises(ValueError):
        select_smallest(layers, 1.5, CB)
    with pytest.raises(ValueError):
        standard_mask([], 0.5, CB)


def test_select_smallest_by_magnitude():
    # values 3, -1, 0.5, -2 pooled: the two smallest magnitudes are 0.5 and -1
    layer = layer_from([[3.0, -1.0, 0.5, -2.0]], [[0.0], [0.0], [0.0]])
    picked = select_smallest([layer], 4 / 7, CB)
    # bottom four of seven: the three zero up-entries plus |0.5|... restrict to down
    down_picked = {i for i in picked if i.matrix == "down"}
    assert down_picked == {ParamIndex(0, "down", 0, 2)}
    picked = select_smallest([layer], 5 / 7, CB)
    down_picked = {i for i in picked if i.matrix == "down"}
    assert down_picked == {ParamIndex(0, "down", 0, 1), ParamIndex(0, "down", 0, 2)}


def test_select_tie_break_is_index_order():
    layer = layer_from([[1.0, 1.0, 1.0]], [[1.0], [1.0]])
    picked = select_smallest([layer], 2 / 5, CB)
    assert picked == {ParamIndex(0, "down", 0, 0), ParamIndex(0, "down", 0, 1)}


def test_scope_grouping():
    big = layer_from([[10.0, 10.0, 5.0]], [[10.0], [10.0]])
    small = layer_from([[0.2, 0.2, 0.3]], [[0.2], [0.2]])
    # class-blind pools everything: the four smallest live in the second layer
    blind = select_smallest([big, small], 4 / 10, CB)
    assert all(i.layer == 1 for i in blind)
    # per-layer keeps the split even: two from each
    uniform = select_smallest([big, small], 2 / 5, CU)
    assert sum(1 for i in uniform if i.layer == 0) == 2
    assert sum(1 for i in uniform if i.layer == 1) == 2


def test_node_wise_groups_are_rows():
    down = [[1.0, 9.0, 9.0], [9.0, 1.0, 9.0]]
    up = [[1.0, 9.0], [9.0, 1.0]]
    picked = select_smallest([layer_from(down, up)], 1 / 3, CN)
    # every row group of three... down rows have 3 entries (floor 1 each),
    # up rows have 2 entries (floor 0)
    assert picked == {ParamIndex(0, "down", 0, 0), ParamIndex(0, "down", 1, 1)}


def test_node_wise_scale_invariance():
    rng = np.random.default_rng(3)
    layer = random_layer(rng)
    scaled = AdapterLayer(5.0 * layer.down, 5.0 * layer.up)
    for scope in (CU, CN):
        assert select_smallest([layer], 0.4, scope) == \
            select_smallest([scaled], 0.4, scope)


def test_tropical_mask_identical_rankings():
    rng = np.random.default_rng(5)
    layer = random_layer(rng)
    mask, p_hat = tropical_mask([layer], [layer], 0.5, CB)
    k = int(0.5 * layer.param_count)
    assert mask.count() == k
    assert p_hat == pytest.approx(k / layer.param_count)


def test_tropical_mask_disjoint_rankings():
    orig = layer_from([[1.0, 2.0, 10.0, 20.0]], [[30.0], [40.0], [50.0]])
    swapped = layer_from([[50.0, 40.0, 30.0, 20.0]], [[10.0], [2.0], [1.0]])
    mask, p_hat = tropical_mask([orig], [swapped], 2 / 7, CB)
    assert mask.count() == 0 and p_hat == 0.0


def test_tropical_mask_partial_agreement_toy():
    # rankings agree only on the up matrix entry; hand enumeration:
    #   original smallest: down(0,0)=1 and up(1,0)=0.5
    #   optimized smallest: down(0,1)=1 and up(1,0)=0.5
    orig = layer_from([[1.0, 10.0, 10.0], [10.0, 10.0, 10.0]],
                      [[10.0, 10.0], [0.5, 10.0]])
    opt = layer_from([[10.0, 1.0, 10.0], [10.0, 10.0, 10.0]],
                     [[10.0, 10.0], [0.5, 10.0]])
    mask, p_hat = tropical_mask([orig], [opt], 2 / 10, CB)
    assert mask.indices() == {ParamIndex(0, "up", 1, 0)}
    assert p_hat == pytest.approx(1 / 10)


def test_tropical_mask_shape_mismatch():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        tropical_mask([random_layer(rng, d=4)], [random_layer(rng, d=5)], 0.5, CB)


def test_achieved_fraction_never_exceeds_requested():
    rng = np.random.default_rng(9)
    for _ in range(30):
        orig = random_layer(rng)
        opt = random_layer(rng)
        p = float(rng.uniform())
        scope = rng.choice([CB, CU, CN])
        mask, p_hat = tropical_mask([orig], [opt], p, scope)
        assert p_hat <= p + 1e-12
        assert mask.indices() <= select_smallest([orig], p, scope)


def test_achieved_fraction_monotone_in_requested():
    rng = np.random.default_rng(11)
    orig, opt = random_layer(rng), random_layer(rng)
    last = -1.0
    for p in np.linspace(0.0, 1.0, 21):
        _, p_hat = tropical_mask([orig], [opt], float(p), CU)
        assert p_hat >= last
        last = p_hat


def test_standard_mask_matches_selection():
    rng = np.random.default_rng(13)
    layer = random_layer(rng)
    mask = standard_mask([layer], 0.3, CU)
    assert mask.indices() == select_smallest([layer], 0.3, CU)
    assert standard_mask([layer], 0.0, CB).count() == 0


def test_standard_count_close_to_tropical_count():
    rng = np.random.default_rng(17)
    for scope, groups in ((CB, 1), (CU, 1), (CN, 7)):
        orig, opt = random_layer(rng, d=4, r=3), random_layer(rng, d=4, r=3)
        trop, p_hat = tropical_mask([orig], [opt], 0.6, scope)
        std = standard_mask([orig], p_hat, scope)
        assert abs(std.count() - trop.count()) <= groups


def test_per_layer_counts_follow_floor():
    rng = np.random.default_rng(19)
    layers = [random_layer(rng, d=3, r=2), random_layer(rng, d=5, r=2)]
    p = 0.37
    mask = standard_mask(layers, p, CU)
    for i, layer in enumerate(layers):
        got = sum(1 for idx in mask.indices() if idx.layer == i)
        assert abs(got - int(p * layer.param_count)) <= 1


def tied_layer(rng, d, r):
    """Small integer weights: heavy ties, and signed zeros among them."""
    def mat(shape):
        m = rng.integers(-3, 4, size=shape).astype(float)
        m[rng.uniform(size=shape) < 0.2] = -0.0
        return m
    return AdapterLayer(mat((r, d + 1)), mat((d, r)))


def test_masks_match_brute_ranking_on_tied_multi_layer_inputs():
    rng = np.random.default_rng(29)
    fractions = (0.0, 0.1, 1 / 3, 0.37, 0.5, 0.8, 0.95, 1.0)
    for _ in range(12):
        shapes = [(int(rng.integers(2, 6)), int(rng.integers(1, 4)))
                  for _ in range(int(rng.integers(2, 4)))]
        originals = [tied_layer(rng, d, r) for d, r in shapes]
        surrogates = [tied_layer(rng, d, r) for d, r in shapes]
        pairs_o = [(l.down, l.up) for l in originals]
        pairs_s = [(l.down, l.up) for l in surrogates]
        for scope in (CB, CU, CN):
            for p in fractions:
                want = brute_smallest(pairs_o, p, scope.value)
                assert {tuple(i) for i in standard_mask(originals, p, scope).indices()} == want
                mask, p_hat = tropical_mask(originals, surrogates, p, scope)
                agreed = want & brute_smallest(pairs_s, p, scope.value)
                assert {tuple(i) for i in mask.indices()} == agreed
                assert p_hat == len(agreed) / mask.size()
        # the grid reads every cell off one ranking per scope, with the same masks
        grid = list(strategies.prune_grid(originals, surrogates, fractions, (CB, CU, CN)))
        assert [(p, scope) for p, scope, _ in grid] == \
            [(p, scope) for p in fractions for scope in (CB, CU, CN)]
        for p, scope, masks in grid:
            trop, p_hat = tropical_mask(originals, surrogates, p, scope)
            std = standard_mask(originals, p_hat, scope)
            assert masks["tropical"][1] == p_hat
            assert masks["standard"][1] == std.fraction()
            for (mask, _), want_mask in ((masks["tropical"], trop), (masks["standard"], std)):
                got = [m for pair in mask.entries for m in pair]
                want = [m for pair in want_mask.entries for m in pair]
                assert len(got) == len(want) == 2 * len(shapes)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("fractions", [(0.5,), (0.0, 0.2, 0.5, 0.9, 1.0)])
def test_prune_grid_ranks_once_per_scope(monkeypatch, fractions):
    calls = []
    ranks = strategies._ranks
    monkeypatch.setattr(strategies, "_ranks",
                        lambda layers, scope: calls.append(scope) or ranks(layers, scope))
    rng = np.random.default_rng(31)
    originals = [random_layer(rng), random_layer(rng, d=3)]
    surrogates = [random_layer(rng), random_layer(rng, d=3)]
    scopes = (CB, CU, CN)
    cells = list(strategies.prune_grid(originals, surrogates, fractions, scopes))
    assert len(cells) == len(fractions) * len(scopes)
    assert len(calls) == 2 * len(scopes)


def test_non_finite_surrogate_raises():
    rng = np.random.default_rng(37)
    orig, opt = random_layer(rng), random_layer(rng)
    bad_up = opt.up.copy()
    bad_up[0, 0] = np.nan
    surrogate = SimpleNamespace(down=opt.down, up=bad_up)
    with pytest.raises(ValueError, match="non-finite"):
        tropical_mask([orig], [surrogate], 0.5, CU)
    with pytest.raises(ValueError, match="non-finite"):
        list(strategies.prune_grid([orig], [surrogate], [0.5], [CU]))


def test_apply_mask():
    rng = np.random.default_rng(21)
    layer = random_layer(rng)
    empty = standard_mask([layer], 0.0, CB)
    assert empty.count() == 0
    copy = apply_mask([layer], empty)[0]
    assert np.array_equal(copy.down, layer.down) and np.array_equal(copy.up, layer.up)

    full = standard_mask([layer], 1.0, CB)
    zeroed = apply_mask([layer], full)[0]
    assert np.all(zeroed.down == 0.0) and np.all(zeroed.up == 0.0)

    partial = standard_mask([layer], 0.4, CB)
    pruned = apply_mask([layer], partial)[0]
    for idx in partial.indices():
        mat = pruned.down if idx.matrix == "down" else pruned.up
        assert mat[idx.row, idx.col] == 0.0
    kept = ~partial.entries[0][0]
    assert np.array_equal(pruned.down[kept], layer.down[kept])
    # originals untouched
    assert not np.all(layer.down == 0.0)


def test_apply_mask_then_forward_is_finite():
    rng = np.random.default_rng(23)
    for _ in range(10):
        layer = random_layer(rng)
        mask = standard_mask([layer], float(rng.uniform()), CN)
        pruned = apply_mask([layer], mask)[0]
        x = rng.normal(size=layer.width)
        assert np.all(np.isfinite(forward(pruned, x, residual=True)))


def test_combined_select():
    assert combined_select(0.70, 0.75) == "tropical"
    assert combined_select(0.80, 0.60) == "standard"
    assert combined_select(0.70, 0.70) == "tropical"
