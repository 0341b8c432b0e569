"""Command-line front end: identity verification, microbenchmarks, demo forward pass.

Exit codes: 0 success, 1 verification or runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .bench import array_checksum, parse_config_text, run_bench
from .errors import AttnOpsError
from .registry import variant_ids
from .synth import random_matrix
from .verify import run_verify
from .vit import vit_forward, vit_init


def _int_at_least(low: int):
    """An argparse ``type`` that reads an integer and rejects one below ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value" for non-integers
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnops",
        description="Verify the attention-operator identities, benchmark the kernels, "
        "or run the demo encoder forward pass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity suite; exit 1 on any failure")
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="plant a wrong vectorization convention to prove failures are detected",
    )
    verify.add_argument("--seed", type=_int_at_least(0), default=2024)
    verify.set_defaults(run=_cmd_verify)

    bench = sub.add_parser("bench", help="time kernels over a token-count sweep")
    bench.add_argument("--config", required=True, help="flat key=value config file")
    bench.add_argument("--format", choices=("csv", "jsonl"), default=None)
    bench.add_argument("--out", default=None, help="output path for the record stream")
    bench.set_defaults(run=_cmd_bench)

    demo = sub.add_parser("demo", help="run one encoder forward pass and print a summary")
    demo.add_argument("--mechanism", default="softmax", choices=variant_ids())
    demo.add_argument("--seed", type=_int_at_least(0), default=0)
    demo.add_argument("--n", type=_int_at_least(1), default=4, help="number of patches")
    demo.add_argument("--d", type=_int_at_least(1), default=8, help="model width")
    demo.set_defaults(run=_cmd_demo)

    return parser


def _cmd_verify(args) -> int:
    report = run_verify(seed=args.seed, negative_control=args.negative_control)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_bench(args) -> int:
    overrides = {}
    if args.format is not None:
        overrides["format"] = args.format
    if args.out is not None:
        overrides["output_path"] = args.out
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config_text(fh.read(), overrides)
    except (AttnOpsError, OSError) as exc:  # OSError: the config file cannot be read
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        records, summary = run_bench(config)
    except (AttnOpsError, OSError) as exc:  # OSError: the record file cannot be written
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    print(f"{len(records)} records ({len(config.variants)} variants, "
          f"n in {list(config.n_values)}, d={config.d})")
    for line in summary.lines():
        print(line)
    if config.output_path:
        print(f"wrote {config.format} to {config.output_path}")
    return 0


def _cmd_demo(args) -> int:
    try:
        params = vit_init(
            patch_dim=args.d,
            width=args.d,
            hidden=4 * args.d,
            n_patches=args.n,
            depth=2,
            seed=args.seed,
            mechanism=args.mechanism,
        )
        patches = random_matrix(args.n, args.d, seed=args.seed)
        start = time.perf_counter_ns()
        y = vit_forward(params, patches)
        elapsed = time.perf_counter_ns() - start
    except AttnOpsError as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return 1
    print(f"mechanism={args.mechanism} n={args.n} d={args.d} seed={args.seed}")
    print(f"output norm {np.linalg.norm(y):.6f}")
    print(f"output checksum {array_checksum(y)}")
    print(f"forward wall time {elapsed} ns")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
