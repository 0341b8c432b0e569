"""Attention kernels built on trace-normalized positive semi-definite operators.

The package splits into a dense-algebra substrate (products, Kronecker, vec,
partial trace), a matrix exponential, baseline attention mechanisms, the
token-space and channel-space operator mechanisms with their linear-time
factorizations, brute-force loop oracles, a small pre-norm encoder, and a
verification/benchmark harness exposed through the ``attnops`` CLI.
"""

from .attention import (
    AttnInputs,
    linear_kernel_attention,
    row_softmax,
    softmax_attention,
)
from .bench import (
    BenchConfig,
    BenchRecord,
    BenchSummary,
    array_checksum,
    bench_targets,
    run_bench,
    summarize,
    write_records,
)
from .dense import (
    as_matrix,
    as_square,
    as_vector,
    gemm,
    kron,
    partial_trace,
    trace,
    vectorize,
)
from .errors import (
    AttnOpsError,
    ComplexNotSupported,
    DegenerateNormalizer,
    DimensionMismatch,
    InvalidOption,
    NonFiniteInput,
    NotSquare,
    ShapeTooLarge,
    SingularDenominator,
    UnknownOption,
    UnknownVariant,
)
from .expm import (
    expm_pade,
    expm_taylor,
    pade_coefficients,
)
from .oracles import (
    KronVecReport,
    TraceIdentityReport,
    fd_probe,
    kron_vec_check,
    naive_reference,
    trace_identity_report,
)
from .registry import forward, variant_ids
from .synth import random_inputs, random_matrix
from .tensor_attention import (
    FactoredOperator,
    TensorOpConfig,
    build_tensor_operator,
    diag_fast,
    normalized_tensor_operator,
    operator_trace,
    score_matrix,
    tensor_attention_elem_exp,
    tensor_attention_expm,
    tensor_attention_linear,
    tensor_attention_masked,
    tensor_attention_naive,
    tensor_attention_relu,
    tensor_attention_residual,
)
from .tensor_interaction import (
    build_interaction_operator,
    coupling_matrix,
    interaction_trace,
    tensor_interaction,
)
from .verify import CheckResult, VerifyReport, run_verify
from .vit import BlockParams, ViTParams, gelu, layer_norm, vit_forward, vit_init

__version__ = "0.1.0"
