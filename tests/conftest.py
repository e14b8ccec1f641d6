import pytest

from valdim import semilinear as sl
from valdim.semilinear import cells


@pytest.fixture
def no_cells(monkeypatch):
    """Make every route into the cell decomposition raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("cell decomposition was built")

    monkeypatch.setattr(cells, "arrangement", refuse)
    monkeypatch.setattr(cells, "cell_decompose", refuse)
    monkeypatch.setattr(sl, "cell_decompose", refuse)
