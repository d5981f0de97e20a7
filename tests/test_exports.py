"""Every name a module exports resolves."""
import pytest

import coptree
import coptree.cli
from coptree import algebra, dataset, empirical, measures, structure


@pytest.mark.parametrize("module", [coptree, coptree.cli], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_exactly_its_modules_exports():
    modules = (algebra, dataset, empirical, measures, structure)
    expected = {name for module in modules for name in module.__all__}
    assert set(coptree.__all__) == expected | {"__version__"}


@pytest.mark.parametrize("module", [coptree, dataset], ids=lambda m: m.__name__)
def test_rank_transform_is_retired(module):
    # RankMatrix(column_ranks(values, ...)) is the one way to rank a table
    assert "rank_transform" not in module.__all__
    assert not hasattr(module, "rank_transform")
