"""Figure 16: RDD aggregation — Tree vs Tree+IMM vs Split.

Paper (BIC, 1 -> 8 nodes): at 1KB all three are similar; at 8MB split
starts to win (1.91x over tree); at 256MB split scales nearly flat
(8-node time only 1.12x the 1-node time) and beats tree by 6.48x, with
IMM alone contributing 1.46x.
"""

from repro.bench import fig16_aggregation_scaling, format_table
from repro.cluster import KB, MB


def test_fig16_aggregation_scaling(record):
    rows = fig16_aggregation_scaling(node_counts=(1, 2, 4, 8),
                                     sizes=(1 * KB, 8 * MB, 256 * MB))
    t = {(b, n, m): sec for b, n, m, sec in rows}
    sizes = sorted({b for b, _n, _m, _s in rows})
    nodes = sorted({n for _b, n, _m, _s in rows})
    lines = []
    for b in sizes:
        label = f"{int(b / KB)}KB" if b < MB else f"{int(b / MB)}MB"
        for n in nodes:
            lines.append((label, n, round(t[(b, n, "tree")], 3),
                          round(t[(b, n, "tree_imm")], 3),
                          round(t[(b, n, "split")], 3)))
    table = format_table(
        ["Message", "Nodes", "Tree (s)", "Tree+IMM (s)", "Split (s)"],
        lines,
        title="Figure 16: aggregation scalability (BIC, one array/core)")
    big, mid, small = 256 * MB, 8 * MB, 1 * KB
    summary = (
        f"\n256MB @ 8 nodes: split {t[(big, 8, 'tree')] / t[(big, 8, 'split')]:.2f}x"
        f" over tree (paper 6.48x); IMM "
        f"{t[(big, 8, 'tree')] / t[(big, 8, 'tree_imm')]:.2f}x (paper 1.46x)"
        f"\nsplit 8-node/1-node at 256MB: "
        f"{t[(big, 8, 'split')] / t[(big, 1, 'split')]:.2f}x (paper 1.12x)"
        f"\n8MB @ 8 nodes: split {t[(mid, 8, 'tree')] / t[(mid, 8, 'split')]:.2f}x"
        f" over tree (paper 1.91x)")
    record("fig16_aggregation_scaling", table + summary)

    # 1KB: all methods within a small constant of each other.
    small_times = [t[(small, 8, m)] for m in ("tree", "tree_imm", "split")]
    assert max(small_times) / min(small_times) < 3
    # 8MB: split has pulled ahead of tree.
    assert t[(mid, 8, "tree")] / t[(mid, 8, "split")] > 1.5
    # 256MB: split wins big and IMM alone helps but less.
    big_ratio = t[(big, 8, "tree")] / t[(big, 8, "split")]
    imm_ratio = t[(big, 8, "tree")] / t[(big, 8, "tree_imm")]
    assert big_ratio > 4
    assert 1.2 < imm_ratio < big_ratio
    # Split scales nearly flat with nodes; tree does not.
    assert t[(big, 8, "split")] / t[(big, 1, "split")] < 1.5
    assert t[(big, 8, "tree")] / t[(big, 1, "tree")] > 1.8
    # Tree time grows monotonically with nodes at 256MB.
    tree_curve = [t[(big, n, "tree")] for n in nodes]
    assert all(a < b for a, b in zip(tree_curve, tree_curve[1:]))
