import ast
import math
from pathlib import Path

import numpy as np
import pytest

import attnops
from attnops import (
    AttnInputs,
    AttnOpsError,
    BenchConfig,
    ComplexNotSupported,
    DegenerateNormalizer,
    InvalidOption,
    NonFiniteInput,
    SingularDenominator,
    UnknownOption,
    UnknownVariant,
    bench_targets,
    errors,
    expm_pade,
    fd_probe,
    forward,
    linear_kernel_attention,
    naive_reference,
    normalized_tensor_operator,
    random_inputs,
    trace_identity_report,
    variant_ids,
    tensor_attention_naive,
    tensor_interaction,
)

V = np.array([[1.0, 2.0], [3.0, 4.0]])


def test_arithmetic_errors_carry_their_numbers():
    # Every normalizer has one rule: below 1e-12 times its operator's order it raises,
    # naming the entry.  Each case is (call, name, index, order).
    zeros, wide = np.zeros((2, 2)), np.zeros((2, 3))  # n = 2; d = 2, or 3 for the channel order
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]])  # token operator diag(1, 0)
    e1_3 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # diag(1, 0, 0)
    # feature rows give row 0 a kernel row sum of 2 and row 1 exactly 0
    kq, kk = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[-1.0, 0.0], [-1.0, 0.0]])
    cases = [
        (lambda: tensor_attention_naive(AttnInputs(zeros, zeros, V)), "operator trace", None, 2),
        (lambda: tensor_attention_naive(AttnInputs(e1, e1, V), normalization="diag"),
         "diagonal entry", 1, 2),
        (lambda: forward("tensor_row", AttnInputs(e1_3, e1_3, np.ones((3, 2)))), "row sum", 1, 3),
        (lambda: tensor_interaction(AttnInputs(wide, wide, np.ones((2, 3)))), "operator trace",
         None, 3),
        (lambda: linear_kernel_attention(AttnInputs(kq, kk, V)), "kernel row sum", 1, 2),
    ]
    for call, name, index, order in cases:
        label = name if index is None else f"{name} {index} ="
        with pytest.raises(DegenerateNormalizer, match=f"^{label} 0.000e\\+00 is below") as err:
            call()
        assert vars(err.value) == {"value": 0.0, "threshold": 1e-12 * order, "name": name,
                                   "index": index}

    # the [1/1] denominator 1 - x/2 is diag(q11, 1) here, with condition 1 / q11 ~ 1e14
    a = np.diag([2.0 - 2e-14, 0.0])
    with pytest.raises(SingularDenominator, match="exceeds 1e\\+12") as pade:
        expm_pade(a, 1, 1, scaling_threshold=math.inf)
    q11 = 1.0 - 0.5 * a[0, 0]
    assert vars(pade.value) == {"condition": np.linalg.cond(np.diag([q11, 1.0]), 1),
                                "limit": 1e12}
    assert pade.value.condition > 1e13


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_input_names_its_stage():
    with pytest.raises(NonFiniteInput, match="q contains NaN") as operand:
        AttnInputs(np.array([[np.nan, 0.0], [1.0, 0.0]]), np.eye(2), V)
    assert vars(operand.value) == {"stage": None}

    # Q scaled by 1e160 overflows the Gram K^H K before any operator is formed.
    big = np.array([[1e160, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteInput, match="Gram matrix overflowed") as gram:
        tensor_attention_naive(AttnInputs(big, big, V))
    assert vars(gram.value) == {"stage": "Gram matrix"}

    # At 1e100 the Gram is finite but the operator overflows, so its trace is not finite.
    big = np.array([[1e100, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteInput, match="operator trace .* is not finite") as normalizer:
        tensor_attention_naive(AttnInputs(big, big, V))
    assert vars(normalizer.value) == {"stage": "operator trace"}

    # The denominators pass the guard; the weighted sum of 1e308 values overflows.
    with pytest.raises(NonFiniteInput, match="kernel attention overflowed") as result:
        linear_kernel_attention(AttnInputs(np.eye(2), np.eye(2), np.full((2, 2), 1e308)))
    assert vars(result.value) == {"stage": "kernel attention"}


def test_unknown_ids_and_options_carry_their_names():
    inputs = AttnInputs(np.eye(2), np.eye(2), V)
    oracle_ids = ("interaction", "kernel", "softmax", "tensor", "tensor_elem_exp", "tensor_expm",
                  "tensor_masked", "tensor_relu", "tensor_residual")
    cases = [
        (lambda: forward("nope", inputs), variant_ids()),
        (lambda: BenchConfig(variants=("nope",), n_values=(4,)), tuple(sorted(bench_targets()))),
        (lambda: naive_reference(inputs, "nope"), oracle_ids),
    ]
    for call, known in cases:
        with pytest.raises(UnknownVariant, match="'nope'") as err:
            call()
        assert vars(err.value) == {"variant": "nope", "known": known}

    # an unknown name is a TypeError, as for a bad keyword; a bad value a ValueError
    with pytest.raises(UnknownOption, match="tensor_masked takes no option 'lam'") as name:
        forward("tensor_masked", inputs, lam=0.5)
    assert isinstance(name.value, AttnOpsError) and isinstance(name.value, TypeError)
    assert vars(name.value) == {"mechanism": "tensor_masked", "option": "lam",
                                "accepted": ("hadamard", "side")}
    with pytest.raises(InvalidOption, match="side must be one of") as value:
        forward("interaction", inputs, side="both")
    assert isinstance(value.value, ValueError) and not isinstance(value.value, TypeError)
    assert vars(value.value) == {"mechanism": "interaction", "option": "side",
                                 "accepted": ("q", "k")}


def test_complex_rejections_name_their_operation():
    inputs = random_inputs(3, 2, seed=0, complex_=True)
    z = inputs.q
    cases = [
        (lambda: forward("softmax", inputs), "softmax attention"),
        (lambda: forward("kernel", inputs), "kernel attention"),
        (lambda: forward("tensor_relu", inputs), "relu tensor attention"),
        (lambda: forward("tensor_elem_exp", inputs), "elementwise-exp tensor attention"),
        (lambda: forward("tensor_row", inputs), "row normalization"),
        (lambda: normalized_tensor_operator(z.real, z, normalization="row"), "row normalization"),
        (lambda: trace_identity_report(z[:2], z[:2]), "trace identity report"),
        (lambda: fd_probe("tensor_naive", inputs, np.ones(3), np.ones(2)), "finite differences"),
    ]
    for call, operation in cases:
        with pytest.raises(ComplexNotSupported) as err:
            call()
        assert isinstance(err.value, AttnOpsError) and isinstance(err.value, TypeError)
        assert vars(err.value) == {"operation": operation}
        assert operation in str(err.value)


def test_every_error_class_is_exported_and_raised():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    raised = set()
    for path in Path(attnops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    unexported = sorted(c for c in classes if getattr(attnops, c, None) is not getattr(errors, c))
    assert not unexported
    # AttnOpsError is the base every other class derives from; it is caught, never raised.
    assert classes - raised == {"AttnOpsError"}
