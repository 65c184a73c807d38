import math

import numpy as np
import pytest

from nsvlab._tables import format_cell


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(2024) == "2024"
    assert format_cell(-3) == "-3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0) == "1.0"
    assert format_cell(math.nan) == "nan"
    assert format_cell(math.inf) == "inf"
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(-0.0) == "-0.0"
    assert format_cell(np.float64(0.1)) == "0.1"  # a float subclass, not its repr
    assert format_cell("alpha=1 beta=4") == "alpha=1 beta=4"
    for value in (np.int64(3), np.bool_(True), 1j, b"x", [1.0]):
        with pytest.raises(TypeError):
            format_cell(value)

