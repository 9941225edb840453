"""Reference draws for the tests: a uniform matrix read from one stream, and
a uniform full-rank matrix by rejection.  ``tests/test_oracle.py``'s
reference sampler draws every factor afresh with them, independently of the
sampler's ``oracle.StreamMemo``; ``tests/test_linalg.py`` checks them
against ``randrange`` and ``rank``."""

from crystal_grid import linalg


def random_rows(field, nrows, ncols, rng) -> list:
    """A uniform nrows x ncols matrix, from one ``rand_row`` call read in
    row-major order: the values and the stream of nrows * ncols successive
    ``rng.randrange(p)`` calls."""
    flat = field.rand_row(rng, nrows * ncols)
    return [flat[k * ncols:(k + 1) * ncols] for k in range(nrows)]


def random_full_rank(field, nrows, ncols, rng, rejected=None) -> list:
    """A uniform matrix among those of rank min(nrows, ncols), by rejection:
    ``random_rows`` until the draw has that rank, adding one to rejected[0]
    for each draw rejected when a counter is given."""
    while True:
        a = random_rows(field, nrows, ncols, rng)
        if linalg.rank(field, a, ncols) == min(nrows, ncols):
            return a
        if rejected is not None:
            rejected[0] += 1
