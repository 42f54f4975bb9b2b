"""The LoRA configuration space: the config-id grammar, grid enumeration, and
the rank-halving param-matched pairs over config ids. A config is a
`(base, scheme, rank)` tuple, the rank None for a baseline."""

from __future__ import annotations

import re

from .errors import HarnessError

SCHEMES = ("baseline", "qv_only", "full_attention")
# The most digits a rank may have. Far above any real rank and far below the
# 640 digits that Python's int-to-str limit allows at its lowest, so that
# alpha (2 * rank) and the budget label (4 * rank) always print.
RANK_DIGITS = 100


def display_id(base: str, scheme: str, rank: int | None) -> str:
    """The config id of a config, the exact inverse of `parse_config_id`."""
    if scheme == "baseline":
        return f"{base} baseline"
    return f"{base} r{rank} {scheme}"


def enumerate_grid(base_models, ranks) -> list[tuple]:
    """One config per (base, rank, adapter scheme) plus one baseline per base,
    each base's baseline first."""
    configs: list[tuple] = []
    seen: set[tuple] = set()
    for base in base_models:
        # A base with whitespace would give a config id that does not parse.
        if not base:
            raise HarnessError("base model name must be nonempty")
        if base.split() != [base]:
            raise HarnessError(f"base model name must hold no whitespace, got {base!r}")
        configs.append((base, "baseline", None))
        for rank in ranks:
            if rank < 1:
                raise HarnessError(f"rank must be positive, got {rank}")
            if rank >= 10**RANK_DIGITS:
                raise HarnessError(f"rank must have at most {RANK_DIGITS} digits")
            for scheme in SCHEMES[1:]:
                cell = (base, rank, scheme)
                if cell in seen:
                    raise HarnessError(f"duplicate grid cell {cell}")
                seen.add(cell)
                configs.append((base, scheme, rank))
    return configs


# `<base> baseline` or `<base> r<rank> <adapter scheme>`: the base one token
# without whitespace, the rank a positive integer of at most RANK_DIGITS
# digits without a leading zero.
_CONFIG_ID = re.compile(
    rf"(\S+) (?:baseline|r([1-9][0-9]{{0,{RANK_DIGITS - 1}}}) (qv_only|full_attention))"
)


def parse_config_id(text: str) -> tuple:
    """The `(base, scheme, rank)` whose `display_id` is `text`; any other text
    is a HarnessError."""
    match = _CONFIG_ID.fullmatch(text)
    if match is None:
        raise HarnessError(f"cannot parse scheme from config id {text!r}")
    return match[1], match[3] or "baseline", match[2] and int(match[2])


def grid_order(config_id: str) -> tuple:
    """Sort key that puts config ids in grid order: base models in natural
    order (digit runs compare as numbers, so 8B sorts before 13B), then
    ascending rank, qv_only before full_attention. A HarnessError for an id that
    does not parse."""
    base, scheme, rank = parse_config_id(config_id)
    # A digit run keys as (length, digits) without its leading zeros, which
    # orders as its number does but needs no int() of a run of any length.
    natural = []
    for i, part in enumerate(re.split(r"([0-9]+)", base)):
        digits = part.lstrip("0")
        natural.append((len(digits), digits) if i % 2 else part)
    return natural, rank or 0, SCHEMES.index(scheme)


def param_matched_pairs(config_ids) -> list[tuple[str, str, str]]:
    """`(budget_label, qv_id, full_id)` for each qv_only id at rank r whose
    base's full_attention at rank r/2 is also among `config_ids`, in the order
    of the qv ids. Every id must parse (`parse_config_id`)."""
    ids = {parse_config_id(config_id): config_id for config_id in config_ids}
    pairs = []
    for (base, scheme, rank), qv_id in ids.items():
        if scheme != "qv_only" or rank % 2:
            continue
        full_id = ids.get((base, "full_attention", rank // 2))
        if full_id is not None:
            pairs.append((f"{4 * rank}d", qv_id, full_id))
    return pairs
