"""Shared test setup."""

import pytest

from contamclt.analytic import grid_walk


@pytest.fixture(autouse=True)
def _fresh_grid_walk_memo():
    # grid_walk remembers its last walk, so without this a test that counts
    # weight fetches would count differently after a test that walked its grid
    grid_walk.cache_clear()
