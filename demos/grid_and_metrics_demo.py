"""Enumerate the adapter configuration grid, count the trainable parameters
of its param-matched pairs, and score a few answers with the token-F1 /
exact-match metrics.

Run: python3 demos/grid_and_metrics_demo.py
"""

from ragharness.lora_grid import display_id, enumerate_grid, param_matched_pairs, parse_config_id
from ragharness.metrics import exact_match, token_f1

# Llama-3.2-3B: 28 layers, hidden size 3072, and grouped-query attention
# whose k and v projections are 1024 wide.
LAYERS, HIDDEN, KV_WIDTH = 28, 3072, 1024
# (d_in, d_out) of the projections each adapter scheme trains.
TARGETS = {
    "qv_only": [(HIDDEN, HIDDEN), (HIDDEN, KV_WIDTH)],
    "full_attention": [(HIDDEN, HIDDEN), (HIDDEN, KV_WIDTH), (HIDDEN, KV_WIDTH), (HIDDEN, HIDDEN)],
}


def trainable_params(config_id):
    """LoRA's count: rank * (d_in + d_out) per targeted projection per layer."""
    _, scheme, rank = parse_config_id(config_id)
    return LAYERS * sum(rank * (d_in + d_out) for d_in, d_out in TARGETS[scheme])


def main():
    grid = enumerate_grid(("3B", "8B"), (4, 8, 16, 32, 64))
    config_ids = [display_id(*config) for config in grid]
    print(f"{len(grid)} configurations; alpha is tied to 2*rank:")
    for (_, _, rank), config_id in zip(grid[:5], config_ids):
        print(f"  {config_id:<24} alpha={None if rank is None else 2 * rank}")
    print("  ...")

    pairs = param_matched_pairs(config_ids)
    print(f"\n{len(pairs)} param-matched pairs; counts on the 3B match within each pair:")
    for budget, qv_id, full_id in pairs[:2]:
        print(
            f"  {budget}: {qv_id} ({trainable_params(qv_id):,}) vs "
            f"{full_id} ({trainable_params(full_id):,})"
        )

    print("\nmetric behaviour on documentation-style answers:")
    cases = [
        ("The port is 6443.", "6443"),
        ("--windows-line-endings", "the --windows-line-endings flag"),
        ("port 6444", "port 6443"),
    ]
    for pred, gold in cases:
        print(
            f"  f1={token_f1(pred, gold):.3f} em={exact_match(pred, gold)!s:<5} "
            f"pred={pred!r} gold={gold!r}"
        )


if __name__ == "__main__":
    main()
