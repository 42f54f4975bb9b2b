import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragharness import lora_grid
from ragharness.cli import main
from ragharness.errors import HarnessError
from ragharness.lora_grid import (
    SCHEMES,
    display_id,
    enumerate_grid,
    grid_order,
    param_matched_pairs,
    parse_config_id,
)

STANDARD_RANKS = (4, 8, 16, 32, 64)
# The projections each adapter scheme trains LoRA factors on.
TARGETS = {"qv_only": "qv", "full_attention": "qkvo"}


def trainable_params(n_layers, dims, rank, scheme):
    """LoRA's trainable parameters: rank * (d_in + d_out) per targeted
    projection per layer. `dims` maps each of q, k, v, o to (d_in, d_out)."""
    return n_layers * sum(rank * (dims[p][0] + dims[p][1]) for p in TARGETS[scheme])


def attention_dims(hidden, kv_width=None):
    """(d_in, d_out) per projection; under grouped-query attention k and v
    are `kv_width` wide while q and o stay square."""
    kv = hidden if kv_width is None else kv_width
    return {"q": (hidden, hidden), "k": (hidden, kv), "v": (hidden, kv), "o": (hidden, hidden)}


# The paper's two models: (layers, hidden size, k/v width).
LLAMA_3B = (28, 3072, 1024)
LLAMA_8B = (32, 4096, 1024)


def pair_ranks(pair):
    """(qv rank, full rank) of a param-matched pair."""
    _, qv_id, full_id = pair
    return parse_config_id(qv_id)[2], parse_config_id(full_id)[2]


def grid_listing(capsys, *argv):
    assert main(["grid", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def test_grid_counts_and_alpha_rule(capsys):
    grid = enumerate_grid(("3B", "8B"), STANDARD_RANKS)
    assert len(grid) == 22
    adapters = [c for c in grid if c[1] != "baseline"]
    assert len(adapters) == 20
    rows = grid_listing(capsys, "--bases", "3B,8B", "--ranks", ",".join(map(str, STANDARD_RANKS)))
    alpha_by_rank = {
        int(rank): int(alpha)
        for _, scheme, rank, alpha, *_ in (line.split() for line in rows[1:23])
        if scheme != "baseline"
    }
    assert alpha_by_rank == {4: 8, 8: 16, 16: 32, 32: 64, 64: 128}


def test_minimal_grid():
    grid = enumerate_grid(("3B",), (4,))
    assert grid == [("3B", "baseline", None), ("3B", "qv_only", 4), ("3B", "full_attention", 4)]
    assert [display_id(*c) for c in grid] == [
        "3B baseline", "3B r4 qv_only", "3B r4 full_attention",
    ]


def test_config_invariants(capsys):
    # alpha is derived from the rank, never given, and a baseline has none.
    assert grid_listing(capsys, "--bases", "8B", "--ranks", "16,1")[1:6] == [
        "8B    baseline                    8B baseline",
        "8B    qv_only         16    32    8B r16 qv_only",
        "8B    full_attention  16    32    8B r16 full_attention",
        "8B    qv_only         1     2     8B r1 qv_only",
        "8B    full_attention  1     2     8B r1 full_attention",
    ]
    assert display_id("8B", "full_attention", 16) == "8B r16 full_attention"


def test_lora_grid_defines_no_dataclass():
    classes = [value for _, value in inspect.getmembers(lora_grid, inspect.isclass)]
    assert not [c for c in classes if dataclasses.is_dataclass(c)]


def test_trainable_params_hand_cases():
    dims = attention_dims(4)
    # 2 layers * 2 projections * rank 2 * (4 + 4) = 64
    assert trainable_params(2, dims, rank=2, scheme="qv_only") == 64
    # Same budget at half the rank over all four projections.
    assert trainable_params(2, dims, rank=1, scheme="full_attention") == 64


def test_trainable_params_grouped_query_dims():
    dims = attention_dims(8, kv_width=2)
    assert trainable_params(1, dims, rank=2, scheme="qv_only") == 2 * (16 + 10)
    assert trainable_params(1, dims, rank=2, scheme="full_attention") == 2 * (
        16 + 10 + 10 + 16
    )


def test_trainable_params_of_the_papers_models():
    n_layers, hidden, kv = LLAMA_3B
    dims = attention_dims(hidden, kv)
    # The README's figure: 163,840 parameters per layer at either rank.
    assert trainable_params(1, dims, rank=16, scheme="qv_only") == 163_840
    assert trainable_params(1, dims, rank=8, scheme="full_attention") == 163_840
    assert trainable_params(n_layers, dims, rank=16, scheme="qv_only") == 28 * 163_840


def test_param_matched_pairs_structure():
    grid = [display_id(*c) for c in enumerate_grid(("3B", "8B"), STANDARD_RANKS)]
    pairs = param_matched_pairs(grid)
    assert len(pairs) == 8
    by_base = {}
    for pair in pairs:
        by_base.setdefault(parse_config_id(pair[1])[0], []).append(pair_ranks(pair))
    for base in ("3B", "8B"):
        assert sorted(by_base[base]) == [(8, 4), (16, 8), (32, 16), (64, 32)]
    # qv r4 has no half-rank partner.
    assert 4 not in {qv for qv, _ in map(pair_ranks, pairs)}
    # Injective: no config appears in two pairs.
    members = [p[1] for p in pairs] + [p[2] for p in pairs]
    assert len(members) == len(set(members))


def test_param_matched_budget_equality():
    """Halving the rank over twice the projections trains exactly as many
    parameters, square projections or grouped-query ones."""
    grid = [display_id(*c) for c in enumerate_grid(("3B", "8B"), STANDARD_RANKS)]
    for n_layers, hidden, kv_width in ((3, 16, None), LLAMA_3B, LLAMA_8B):
        dims = attention_dims(hidden, kv_width)
        for pair in param_matched_pairs(grid):
            qv_rank, full_rank = pair_ranks(pair)
            qv = trainable_params(n_layers, dims, qv_rank, "qv_only")
            full = trainable_params(n_layers, dims, full_rank, "full_attention")
            assert qv == full


def test_param_matched_budget_labels():
    grid = [display_id(*c) for c in enumerate_grid(("3B",), STANDARD_RANKS)]
    labels = {pair_ranks(p)[0]: p[0] for p in param_matched_pairs(grid)}
    assert labels == {8: "32d", 16: "64d", 32: "128d", 64: "256d"}


def test_param_matched_nonstandard_ranks():
    grid = [display_id(*c) for c in enumerate_grid(("X",), (6, 3))]
    assert param_matched_pairs(grid) == [("24d", "X r6 qv_only", "X r3 full_attention")]
    assert param_matched_pairs([display_id(*c) for c in enumerate_grid(("X",), (4,))]) == []


def test_param_matched_pairs_follow_the_order_given():
    ids = ["8B r8 qv_only", "8B r4 full_attention", "3B r8 qv_only", "3B r4 full_attention"]
    assert [p[1] for p in param_matched_pairs(ids)] == ["8B r8 qv_only", "3B r8 qv_only"]
    assert [p[1] for p in param_matched_pairs(ids[::-1])] == ["3B r8 qv_only", "8B r8 qv_only"]
    with pytest.raises(HarnessError, match="cannot parse scheme from config id 'gpt-x'"):
        param_matched_pairs([*ids, "gpt-x"])


def test_enumerate_grid_rejects_bad_inputs():
    with pytest.raises(HarnessError, match="rank must be positive, got 0"):
        enumerate_grid(("3B",), (0,))
    with pytest.raises(HarnessError, match="rank must have at most 100 digits"):
        enumerate_grid(("3B",), (10**lora_grid.RANK_DIGITS,))
    assert enumerate_grid(("3B",), (10**lora_grid.RANK_DIGITS - 1,))[1][2] == 10**100 - 1
    with pytest.raises(HarnessError, match="base model name must be nonempty"):
        enumerate_grid(("3B", ""), (4,))
    for base in ("Llama 3B", " 3B", "3B\t", "3B\u00a0"):
        with pytest.raises(HarnessError, match="base model name must hold no whitespace"):
            enumerate_grid(("8B", base), (4,))


def test_parse_config_id_reads_each_scheme():
    assert parse_config_id("8B r64 qv_only") == ("8B", "qv_only", 64)
    assert parse_config_id("3B r4 full_attention") == ("3B", "full_attention", 4)
    assert parse_config_id("3B baseline") == ("3B", "baseline", None)
    # The base is any one token, a scheme name included.
    assert parse_config_id("qv_only r8 qv_only") == ("qv_only", "qv_only", 8)
    # A rank of the most digits allowed still reads.
    assert parse_config_id("3B r" + "9" * 100 + " qv_only")[2] == 10**100 - 1


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    base=st.text(min_size=1, max_size=12).filter(lambda b: b.split() == [b]),
    rank=st.integers(min_value=1, max_value=2**70),
    scheme=st.sampled_from(SCHEMES),
)
def test_parse_config_id_inverts_display_id(base, rank, scheme):
    rank = None if scheme == "baseline" else rank
    assert parse_config_id(display_id(base, scheme, rank)) == (base, scheme, rank)


@pytest.mark.parametrize(
    "config_id",
    [
        " 3B r4 qv_only", "3B r4 full_attention ", "3B  r4 qv_only", "3B r4  qv_only",
        "3B\tbaseline", "3B r4\tqv_only", "3B r0 qv_only", "3B r08 qv_only",
        "3B r-4 qv_only", "3B r4 baseline", "8B qv_only", "qv_only", "baseline",
        "8B r64 mystery", "8B r64", "", "3B r4 qv_only\n", "3B r" + "1" * 5000 + " qv_only",
        "3B r" + "1" * 101 + " qv_only",
    ],
)
def test_parse_config_id_rejects_any_other_id(config_id):
    with pytest.raises(HarnessError) as raised:
        parse_config_id(config_id)
    assert str(raised.value) == f"cannot parse scheme from config id {config_id!r}"


def test_grid_order_sorts_like_the_grid():
    grid = [display_id(*c) for c in enumerate_grid(("3B", "8B"), STANDARD_RANKS)]
    adapters = [c for c in grid if not c.endswith(" baseline")]
    in_order = sorted(reversed(grid), key=grid_order)
    assert [c for c in in_order if not c.endswith(" baseline")] == adapters
    for unreadable in ("gpt-x", "3B r0 qv_only"):
        with pytest.raises(HarnessError, match="cannot parse scheme from config id"):
            sorted([*grid, unreadable], key=grid_order)
    ids = ["13B r8 qv_only", "8B r128 qv_only", "1B r2 full_attention", "8B r64 full_attention"]
    assert sorted(ids, key=grid_order) == [
        "1B r2 full_attention", "8B r64 full_attention", "8B r128 qv_only", "13B r8 qv_only",
    ]
    assert [p[0] for p in param_matched_pairs(sorted(ids, key=grid_order))] == ["512d"]
    # Digit runs compare as numbers, leading zeros aside, however many
    # digits they hold.
    long_base = "1" * 5000 + "B"
    ids = [f"{long_base} r8 qv_only", "9B r8 qv_only", "08B r8 qv_only", "0B r8 qv_only"]
    assert sorted(ids, key=grid_order) == [
        "0B r8 qv_only", "08B r8 qv_only", "9B r8 qv_only", f"{long_base} r8 qv_only",
    ]
    assert grid_order("08B r8 qv_only") == grid_order("8B r8 qv_only")
