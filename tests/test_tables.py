import numpy as np
import pytest

from kerrcat.tables import format_sig


@pytest.mark.parametrize("value, text", [
    (0.1 + 0.2, "0.3"),
    (1.0 / 3.0, "0.333333333333"),
    (2.5e-17, "2.5e-17"),
    (np.float64(-1.0 / 7.0), "-0.142857142857"),
    (np.float32(0.1), "0.10000000149"),
    (True, "True"),
    (np.bool_(False), "False"),
    (42, "42"),
    (np.int64(-7), "-7"),
    (None, ""),
    ("wkb-domain", "wkb-domain"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (-0.0, "-0"),
])
def test_format_sig_cells(value, text):
    assert format_sig(value) == text
