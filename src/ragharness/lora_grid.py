"""The LoRA configuration space: grid enumeration with the alpha = 2*rank
tie, config-id parsing, parameter counting, rank-halving param-matched pairs."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import HarnessError

SCHEMES = ("baseline", "qv_only", "full_attention")
SCHEME_PROJECTIONS = {
    "qv_only": ("q", "v"),
    "full_attention": ("q", "k", "v", "o"),
}


class GridError(HarnessError):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    base_model: str
    scheme: str
    rank: int | None = None

    def __post_init__(self):
        # A base with whitespace would give a display id that does not parse.
        if not self.base_model:
            raise GridError("base model name must be nonempty")
        if self.base_model.split() != [self.base_model]:
            raise GridError(f"base model name must hold no whitespace, got {self.base_model!r}")
        if self.scheme not in SCHEMES:
            raise GridError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "baseline":
            if self.rank is not None:
                raise GridError("baseline configs carry no rank")
        elif self.rank is None or self.rank < 1:
            raise GridError(f"rank must be positive, got {self.rank}")

    @property
    def lora_alpha(self) -> int | None:
        """The LoRA scaling alpha, tied to 2 * rank; None for a baseline."""
        return None if self.rank is None else 2 * self.rank

    @property
    def display_id(self) -> str:
        if self.scheme == "baseline":
            return f"{self.base_model} baseline"
        return f"{self.base_model} r{self.rank} {self.scheme}"


@dataclass(frozen=True)
class ModelDims:
    """Per-projection (in, out) dimensions; k/v may be smaller than q/o under
    grouped-query attention."""

    n_layers: int
    projections: dict  # name ("q","k","v","o") -> (d_in, d_out)

    def __post_init__(self):
        if self.n_layers < 1:
            raise GridError("n_layers must be positive")
        for name, (d_in, d_out) in self.projections.items():
            if d_in < 1 or d_out < 1:
                raise GridError(f"projection {name!r} dims must be positive")

    @classmethod
    def uniform(cls, n_layers: int, d: int) -> "ModelDims":
        return cls(n_layers=n_layers, projections={p: (d, d) for p in "qkvo"})


@dataclass(frozen=True)
class ParamMatchedPair:
    qv_config: GeneratorConfig
    full_config: GeneratorConfig
    budget_label: str

    def __post_init__(self):
        if self.qv_config.scheme != "qv_only" or self.full_config.scheme != "full_attention":
            raise GridError("pair must be (qv_only, full_attention)")
        if self.qv_config.base_model != self.full_config.base_model:
            raise GridError("paired configs must share a base model")
        if self.full_config.rank * 2 != self.qv_config.rank:
            raise GridError("full_attention rank must be half the qv_only rank")


def enumerate_grid(base_models, ranks) -> list[GeneratorConfig]:
    """One config per (base, rank, adapter scheme) plus one baseline per base."""
    configs: list[GeneratorConfig] = []
    seen: set[tuple] = set()
    for base in base_models:
        configs.append(GeneratorConfig(base_model=base, scheme="baseline"))
        for rank in ranks:
            for scheme in SCHEME_PROJECTIONS:
                cell = (base, rank, scheme)
                if cell in seen:
                    raise GridError(f"duplicate grid cell {cell}")
                seen.add(cell)
                configs.append(
                    GeneratorConfig(base_model=base, scheme=scheme, rank=rank)
                )
    return configs


# `<base> baseline` or `<base> r<rank> <adapter scheme>`: the base one token
# without whitespace, the rank a positive integer without a leading zero.
_CONFIG_ID = re.compile(r"(\S+) (?:baseline|r([1-9][0-9]*) (qv_only|full_attention))")


def parse_config_id(text: str) -> GeneratorConfig:
    """The config whose `display_id` is `text`; any other text is a GridError."""
    match = _CONFIG_ID.fullmatch(text)
    try:
        rank = int(match[2]) if match and match[2] else None
    except ValueError:  # more digits than int() reads
        match = None
    if match is None:
        raise GridError(f"cannot parse scheme from config id {text!r}")
    return GeneratorConfig(base_model=match[1], scheme=match[3] or "baseline", rank=rank)


def _natural_key(text: str) -> list:
    """Digit runs compare as numbers, so 8B sorts before 13B."""
    parts = re.split(r"([0-9]+)", text)
    return [int(part) if i % 2 else part for i, part in enumerate(parts)]


def grid_from_display_ids(display_ids) -> list[GeneratorConfig]:
    """The adapter configs named by ``display_ids`` in grid order: base models
    in natural order, then ascending rank, qv_only before full_attention.
    Every id must parse (`parse_config_id`); baselines are left out."""
    configs = [parse_config_id(display_id) for display_id in display_ids]
    return sorted(
        (c for c in configs if c.scheme != "baseline"),
        key=lambda c: (_natural_key(c.base_model), c.rank, SCHEMES.index(c.scheme)),
    )


def trainable_params(dims: ModelDims, rank: int, scheme: str) -> int:
    """Total LoRA parameters: rank*(d_in + d_out) per targeted projection per
    layer."""
    if scheme == "baseline":
        raise GridError("baseline has no trainable LoRA parameters")
    if scheme not in SCHEME_PROJECTIONS:
        raise GridError(f"unknown scheme {scheme!r}")
    if rank < 1:
        raise GridError(f"rank must be positive, got {rank}")
    per_layer = sum(
        rank * (dims.projections[p][0] + dims.projections[p][1])
        for p in SCHEME_PROJECTIONS[scheme]
    )
    return dims.n_layers * per_layer


def param_matched_pairs(grid: list[GeneratorConfig]) -> list[ParamMatchedPair]:
    """Pair each qv_only rank r with the same base's full_attention rank r/2;
    ranks without a half-partner are skipped."""
    by_cell = {
        (c.base_model, c.scheme, c.rank): c for c in grid if c.scheme != "baseline"
    }
    pairs: list[ParamMatchedPair] = []
    for config in grid:
        if config.scheme != "qv_only" or config.rank % 2 != 0:
            continue
        partner = by_cell.get((config.base_model, "full_attention", config.rank // 2))
        if partner is None:
            continue
        pairs.append(
            ParamMatchedPair(
                qv_config=config,
                full_config=partner,
                budget_label=f"{4 * config.rank}d",
            )
        )
    return pairs
