"""Walk through the attention mechanisms on one tiny worked example.

Everything here is small enough to check by hand: two tokens, two features.
The score matrix, the token operator, and each normalization are printed so
the outputs can be traced line by line.
"""

import numpy as np

from attnops import (
    AttnInputs,
    build_tensor_operator,
    linear_kernel_attention,
    score_matrix,
    softmax_attention,
    tensor_attention_linear,
    tensor_attention_naive,
    tensor_interaction,
)

np.set_printoptions(precision=4, suppress=True)


def main():
    q = np.array([[1.0, 0.0], [1.0, 1.0]])
    k = np.array([[1.0, 1.0], [0.0, 1.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    inputs = AttnInputs(q, k, v)

    print("queries:\n", q)
    print("keys:\n", k)
    print("values:\n", v)

    print("\n-- score matrix A = Q K^T --")
    a = score_matrix(q, k)
    print(a)

    print("\n-- softmax baseline: softmax(A / sqrt(d)) V --")
    print(softmax_attention(inputs))

    print("\n-- kernelized baseline: 1 + cosine features, linear-time rollout --")
    print(linear_kernel_attention(inputs))

    print("\n-- token operator T = A A^T (PSD, non-negative diagonal) --")
    t = build_tensor_operator(q, k)
    print(t, "\ntrace:", np.trace(t))

    print("\n-- trace normalization: (T / tr T) V, two equal routes --")
    print("materialized:\n", tensor_attention_naive(inputs))
    print("factorized (no n-by-n matrix):\n", tensor_attention_linear(inputs))

    print("\n-- diagonal / row normalizations --")
    for mode in ("diag", "row"):
        out = tensor_attention_naive(inputs, normalization=mode)
        print(f"{mode}:\n{out}")

    print("\n-- channel-space operator (d x d, size independent of tokens) --")
    print(tensor_interaction(inputs))


if __name__ == "__main__":
    main()
