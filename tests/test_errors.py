import math

import numpy as np
import pytest

from attnops import (
    AttnInputs,
    DegenerateDenominator,
    DegenerateNormalizer,
    SingularDenominator,
    expm_pade,
    linear_kernel_attention,
    tensor_attention_naive,
)

V = np.array([[1.0, 2.0], [3.0, 4.0]])


def test_arithmetic_errors_carry_their_numbers():
    zeros = AttnInputs(np.zeros((2, 2)), np.zeros((2, 2)), V)
    with pytest.raises(DegenerateNormalizer, match="operator trace 0.000e") as trace:
        tensor_attention_naive(zeros)
    assert vars(trace.value) == {"value": 0.0, "threshold": 2e-12, "name": "operator trace",
                                 "index": None}

    q = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateNormalizer, match="diagonal entry 1 =") as diag:
        tensor_attention_naive(AttnInputs(q, q, V), normalization="diag")
    assert vars(diag.value) == {"value": 0.0, "threshold": 2e-12, "name": "diagonal entry",
                                "index": 1}

    # feature rows give row 0 a denominator of 2 and row 1 exactly 0
    q, k = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[-1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(DegenerateDenominator, match="row 1 denominator") as kernel:
        linear_kernel_attention(AttnInputs(q, k, V), epsilon=1e-9)
    assert vars(kernel.value) == {"value": 0.0, "threshold": 1e-9, "row": 1}

    # the [1/1] denominator 1 - x/2 is diag(q11, 1) here, with condition 1 / q11 ~ 1e14
    a = np.diag([2.0 - 2e-14, 0.0])
    with pytest.raises(SingularDenominator, match="exceeds 1e\\+12") as pade:
        expm_pade(a, 1, 1, scaling_threshold=math.inf)
    q11 = 1.0 - 0.5 * a[0, 0]
    assert vars(pade.value) == {"condition": np.linalg.cond(np.diag([q11, 1.0]), 1),
                                "limit": 1e12}
    assert pade.value.condition > 1e13
