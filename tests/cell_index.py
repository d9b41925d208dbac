"""The reference of the cell index tests: a hash table that grows one item
at a time, as the package indexed patches and nets before space.CellTable."""

import itertools

import numpy as np


class CellIndex:
    """A fixed-radius near-neighbour index (Bentley 1975): a hash table from
    the cells of side `cell` to the items whose box center +- pad meets
    them, in the order they were added."""

    def __init__(self, cell: float):
        self.cell = cell
        self.table: dict[tuple[int, ...], list] = {}

    def _cells(self, center: np.ndarray, pad: float):
        lo, hi = (np.floor((center + s) / self.cell).astype(np.int64).tolist() for s in (-pad, pad))
        return itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])

    def add(self, item, center: np.ndarray, pad: float) -> None:
        """List item in every cell its box meets."""
        for key in self._cells(center, pad):
            self.table.setdefault(key, []).append(item)
