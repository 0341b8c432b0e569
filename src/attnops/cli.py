"""Command-line front end: identity verification, microbenchmarks, demo forward pass.

Exit codes: 0 success, 1 verification or runtime failure, 2 usage error.
Arguments can be read from a file, one per line, as ``@FILE``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .bench import BenchConfig, array_checksum, run_bench
from .errors import AttnOpsError, UnknownVariant
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
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # verify and bench suppress unset flags: run_verify and BenchConfig hold the defaults
    verify = sub.add_parser("verify", argument_default=argparse.SUPPRESS,
                            help="run the identity suite; exit 1 on any failure")
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="plant a wrong vectorization convention to prove failures are detected",
    )
    verify.add_argument("--seed", type=_int_at_least(0))
    verify.set_defaults(run=_cmd_verify)

    bench = sub.add_parser("bench", argument_default=argparse.SUPPRESS,
                           help="time kernels over a token-count sweep",
                           description="Defaults and bounds: help(attnops.BenchConfig).")
    bench.add_argument("--variants", nargs="+", required=True, metavar="ID")
    bench.add_argument("--n-values", nargs="+", type=int, required=True, metavar="N")
    bench.add_argument("--seeds", nargs="+", type=int, metavar="SEED")
    bench.add_argument("--d", type=int)
    bench.add_argument("--repetitions", type=int)
    bench.add_argument("--warmup", type=int)
    bench.add_argument("--out", dest="output_path", metavar="PATH",
                       help="record file: JSONL if it ends in .jsonl, else CSV")
    bench.set_defaults(run=functools.partial(_cmd_bench, bench))

    demo = sub.add_parser("demo", help="run one encoder forward pass and print a summary")
    demo.add_argument("--mechanism", default="softmax", choices=variant_ids())
    demo.add_argument("--seed", type=_int_at_least(0), default=0)
    demo.add_argument("--n", type=_int_at_least(1), default=4, help="number of patches")
    demo.add_argument("--d", type=_int_at_least(1), default=8, help="model width")
    demo.set_defaults(run=_cmd_demo)

    return parser


def _given(args) -> dict:
    """The subcommand's settings that were given, keyed by destination."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "run")}


def _cmd_verify(args) -> int:
    report = run_verify(**_given(args))
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_bench(parser, args) -> int:
    try:
        config = BenchConfig(**_given(args))
    except (ValueError, UnknownVariant) as exc:
        parser.error(exc.args[0])  # args[0]: a KeyError's str() would quote the message
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
        print(f"wrote {config.output_path}")
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
