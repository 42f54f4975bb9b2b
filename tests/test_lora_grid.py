import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragharness.lora_grid import (
    SCHEMES,
    GeneratorConfig,
    GridError,
    ModelDims,
    enumerate_grid,
    grid_from_display_ids,
    param_matched_pairs,
    parse_config_id,
    trainable_params,
)

STANDARD_RANKS = (4, 8, 16, 32, 64)


def test_grid_counts_and_alpha_rule():
    grid = enumerate_grid(("3B", "8B"), STANDARD_RANKS)
    assert len(grid) == 22
    adapters = [c for c in grid if c.scheme != "baseline"]
    assert len(adapters) == 20
    for cfg in adapters:
        assert cfg.lora_alpha == 2 * cfg.rank
    alpha_by_rank = {c.rank: c.lora_alpha for c in adapters}
    assert alpha_by_rank == {4: 8, 8: 16, 16: 32, 32: 64, 64: 128}


def test_minimal_grid():
    grid = enumerate_grid(("3B",), (4,))
    assert [c.display_id for c in grid] == [
        "3B baseline", "3B r4 qv_only", "3B r4 full_attention",
    ]


def test_config_invariants():
    with pytest.raises(GridError):
        GeneratorConfig(base_model="3B", scheme="baseline", rank=4)
    with pytest.raises(GridError):
        GeneratorConfig(base_model="3B", scheme="qv_only")
    with pytest.raises(GridError, match="rank must be positive, got 0"):
        GeneratorConfig(base_model="3B", scheme="qv_only", rank=0)
    cfg = GeneratorConfig(base_model="8B", scheme="full_attention", rank=16)
    # alpha is derived from the rank, never given.
    assert cfg.lora_alpha == 32
    assert GeneratorConfig(base_model="8B", scheme="qv_only", rank=1).lora_alpha == 2
    assert GeneratorConfig(base_model="8B", scheme="baseline").lora_alpha is None
    assert cfg.display_id == "8B r16 full_attention"


def test_trainable_params_hand_cases():
    dims = ModelDims.uniform(n_layers=2, d=4)
    # 2 layers * 2 projections * rank 2 * (4 + 4) = 64
    assert trainable_params(dims, rank=2, scheme="qv_only") == 64
    # Same budget at half the rank over all four projections.
    assert trainable_params(dims, rank=1, scheme="full_attention") == 64
    with pytest.raises(GridError):
        trainable_params(dims, rank=0, scheme="qv_only")
    with pytest.raises(GridError):
        trainable_params(dims, rank=2, scheme="baseline")


def test_trainable_params_grouped_query_dims():
    dims = ModelDims(
        n_layers=1,
        projections={"q": (8, 8), "k": (8, 2), "v": (8, 2), "o": (8, 8)},
    )
    assert trainable_params(dims, rank=2, scheme="qv_only") == 2 * (16 + 10)
    assert trainable_params(dims, rank=2, scheme="full_attention") == 2 * (
        16 + 10 + 10 + 16
    )


def test_param_matched_pairs_structure():
    grid = enumerate_grid(("3B", "8B"), STANDARD_RANKS)
    pairs = param_matched_pairs(grid)
    assert len(pairs) == 8
    by_base = {}
    for pair in pairs:
        by_base.setdefault(pair.qv_config.base_model, []).append(
            (pair.qv_config.rank, pair.full_config.rank)
        )
    for base in ("3B", "8B"):
        assert sorted(by_base[base]) == [(8, 4), (16, 8), (32, 16), (64, 32)]
    # qv r4 has no half-rank partner.
    qv_ranks = {p.qv_config.rank for p in pairs}
    assert 4 not in qv_ranks
    # Injective: no config appears in two pairs.
    members = [p.qv_config for p in pairs] + [p.full_config for p in pairs]
    assert len(members) == len(set(members))


def test_param_matched_budget_equality():
    dims = ModelDims.uniform(n_layers=3, d=16)
    grid = enumerate_grid(("3B", "8B"), STANDARD_RANKS)
    for pair in param_matched_pairs(grid):
        qv = trainable_params(dims, pair.qv_config.rank, "qv_only")
        full = trainable_params(dims, pair.full_config.rank, "full_attention")
        assert qv == full


def test_param_matched_budget_labels():
    grid = enumerate_grid(("3B",), STANDARD_RANKS)
    labels = {p.qv_config.rank: p.budget_label for p in param_matched_pairs(grid)}
    assert labels == {8: "32d", 16: "64d", 32: "128d", 64: "256d"}


def test_param_matched_nonstandard_ranks():
    grid = enumerate_grid(("X",), (6, 3))
    pairs = param_matched_pairs(grid)
    assert len(pairs) == 1
    assert pairs[0].qv_config.rank == 6
    assert pairs[0].full_config.rank == 3
    assert param_matched_pairs(enumerate_grid(("X",), (4,))) == []


def test_enumerate_grid_rejects_bad_inputs():
    with pytest.raises(GridError):
        enumerate_grid(("3B",), (0,))
    with pytest.raises(GridError, match="base model name must be nonempty"):
        enumerate_grid(("3B", ""), (4,))
    for base in ("Llama 3B", " 3B", "3B\t", "3B\u00a0"):
        with pytest.raises(GridError, match="base model name must hold no whitespace"):
            enumerate_grid(("8B", base), (4,))


def test_parse_config_id_reads_each_scheme():
    assert parse_config_id("8B r64 qv_only") == GeneratorConfig("8B", "qv_only", 64)
    assert parse_config_id("3B r4 full_attention") == GeneratorConfig("3B", "full_attention", 4)
    assert parse_config_id("3B baseline") == GeneratorConfig("3B", "baseline")
    # The base is any one token, a scheme name included.
    assert parse_config_id("qv_only r8 qv_only") == GeneratorConfig("qv_only", "qv_only", 8)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    base=st.text(min_size=1, max_size=12).filter(lambda b: b.split() == [b]),
    rank=st.integers(min_value=1, max_value=2**70),
    scheme=st.sampled_from(SCHEMES),
)
def test_parse_config_id_inverts_display_id(base, rank, scheme):
    config = GeneratorConfig(base, scheme, None if scheme == "baseline" else rank)
    assert parse_config_id(config.display_id) == config


@pytest.mark.parametrize(
    "config_id",
    [
        " 3B r4 qv_only", "3B r4 full_attention ", "3B  r4 qv_only", "3B r4  qv_only",
        "3B\tbaseline", "3B r4\tqv_only", "3B r0 qv_only", "3B r08 qv_only",
        "3B r-4 qv_only", "3B r4 baseline", "8B qv_only", "qv_only", "baseline",
        "8B r64 mystery", "8B r64", "", "3B r4 qv_only\n", "3B r" + "1" * 5000 + " qv_only",
    ],
)
def test_parse_config_id_rejects_any_other_id(config_id):
    with pytest.raises(GridError) as raised:
        parse_config_id(config_id)
    assert str(raised.value) == f"cannot parse scheme from config id {config_id!r}"


def test_grid_from_display_ids_orders_like_the_grid():
    grid = enumerate_grid(("3B", "8B"), STANDARD_RANKS)
    shuffled = [c.display_id for c in reversed(grid)]
    adapters = [c for c in grid if c.scheme != "baseline"]
    assert grid_from_display_ids(shuffled) == adapters
    for unreadable in ("gpt-x", "3B r0 qv_only"):
        with pytest.raises(GridError, match="cannot parse scheme from config id"):
            grid_from_display_ids([*shuffled, unreadable])
    ids = ["13B r8 qv_only", "8B r128 qv_only", "1B r2 full_attention", "8B r64 full_attention"]
    assert [c.display_id for c in grid_from_display_ids(ids)] == [
        "1B r2 full_attention", "8B r64 full_attention", "8B r128 qv_only", "13B r8 qv_only",
    ]
    assert [p.budget_label for p in param_matched_pairs(grid_from_display_ids(ids))] == ["512d"]
