"""scripts/compare_outputs.py: how a differing output is described."""
import importlib.util
import io
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def saved(array) -> bytes:
    handle = io.BytesIO()
    np.save(handle, array)
    return handle.getvalue()


def test_npy_change_tells_a_layout_move_from_a_value_move():
    ranks = np.arange(1, 7).reshape(3, 2)
    column_major = saved(np.asfortranarray(ranks))
    assert column_major != saved(ranks)
    assert (compare_outputs.change("ranks.npy", saved(ranks), column_major)
            == " (same values; .npy header or layout differs)")
    assert (compare_outputs.change("ranks.npy", saved(ranks), saved(ranks[::-1]))
            == " (max abs difference 4)")
    assert (compare_outputs.change("ranks.npy", saved(ranks), saved(ranks.T))
            == " (shape or dtype changed)")
    # -0.0 == 0.0, but its bits differ: that is a moved value
    zeros = np.zeros(2)
    assert (compare_outputs.change("w.npy", saved(zeros), saved(-zeros))
            == " (max abs difference 0)")
