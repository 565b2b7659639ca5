"""Where a target query looks inside the source image, as the weight varies.

Builds a probe branch, one [text; image] matrix, in which every image token
carries identical content except one brighter token placed away from the
query. The probe serves as both target and source. Content then gives the
attention no reason to prefer any cell but the bright one, so the map shows
the positional term in isolation: at w = 1 the query retrieves its own
neighborhood, at w = 0 it retrieves the bright token wherever it sits.
"""

import numpy as np

from synattn import attention_map, encode_prompt
from synattn.backbone import BackboneConfig

bb = BackboneConfig(grid=(6, 6))
h, w = bb.grid

query_cell = (1, 2)
bump_cell = ((query_cell[0] + h // 2) % h, (query_cell[1] + w // 2) % w)

base = np.ones(bb.d_model)
image = np.tile(base, (h * w, 1))
image[bump_cell[0] * w + bump_cell[1]] *= 1.2

tokens = np.vstack([encode_prompt("probe tokens", bb), image])
# a block's six (d, d) weight matrices, all identities here
d = bb.d_model
block = np.broadcast_to(np.eye(d), (6, d, d))


def ascii_heatmap(grid):
    shades = " .:-=+*#%@"
    lo, hi = grid.min(), grid.max()
    span = hi - lo if hi > lo else 1.0
    rows = []
    for r in range(grid.shape[0]):
        row = ""
        for c in range(grid.shape[1]):
            row += shades[int((grid[r, c] - lo) / span * (len(shades) - 1))]
        rows.append("  " + row)
    return "\n".join(rows)


print(f"query cell: {query_cell}   bright content cell: {bump_cell}\n")
for weight in (1.0, 0.5, 0.0):
    grid = attention_map(tokens, image, block, bb, weight, query_cell)
    peak = np.unravel_index(np.argmax(grid), grid.shape)
    print(f"w = {weight:4.2f}   peak at {tuple(int(x) for x in peak)}   sum = {grid.sum():.12f}")
    print(ascii_heatmap(grid))
    print()

print("Full weight keeps retrieval near the query's own position; removing")
print("the rotation hands retrieval over to content, wherever it lives.")
