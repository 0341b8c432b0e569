import argparse
import dataclasses
import json

import numpy as np
import pytest

from attnops import (
    BenchConfig,
    UnknownVariant,
    array_checksum,
    bench_targets,
    run_bench,
    run_verify,
    summarize,
    write_records,
)
from attnops import registry
from attnops.bench import CSV_HEADER
from attnops.cli import _build_parser, main
from attnops.errors import ComplexNotSupported
from attnops.registry import variant_ids
from attnops.tensor_attention import tensor_attention_expm, tensor_attention_linear

SMALL = BenchConfig(
    variants=("tensor_linear", "softmax"),
    n_values=(8, 16),
    d=4,
    seeds=(0, 1),
    repetitions=3,
    warmup=1,
)


class TestChecksum:
    def test_deterministic(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_checksum(a) == array_checksum(a.copy())
        assert len(array_checksum(a)) == 16  # 64-bit digest in hex

    def test_sensitive_to_contents(self):
        a = np.arange(12.0).reshape(3, 4)
        b = a.copy()
        b[0, 0] += 1e-9
        assert array_checksum(a) != array_checksum(b)


class TestBenchConfig:
    def test_validation_messages_name_the_field(self):
        with pytest.raises(ValueError, match="n_values"):
            BenchConfig(variants=("softmax",), n_values=(8, 8))
        with pytest.raises(ValueError, match="repetitions"):
            BenchConfig(variants=("softmax",), n_values=(8,), repetitions=2)
        with pytest.raises(UnknownVariant, match="variants"):
            BenchConfig(variants=("warp",), n_values=(8,))
        with pytest.raises(TypeError, match="format"):
            BenchConfig(variants=("softmax",), n_values=(8,), format="csv")
        config = BenchConfig(variants=("softmax",), n_values=(np.int64(8),), d=np.int32(4))
        assert (type(config.n_values[0]), type(config.d)) == (int, int)

    @pytest.mark.parametrize("field, value", [("d", 4.5), ("repetitions", "3"), ("warmup", None),
                                              ("n_values", (8, 16.0)), ("seeds", (np.float64(0),))])
    def test_integer_fields_reject_other_types_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
            BenchConfig(**{"variants": ("softmax",), "n_values": (8,), field: value})

    @pytest.mark.parametrize("field, value", [("variants", "softmax"), ("n_values", 8),
                                              ("seeds", 0)])
    def test_sequence_fields_reject_a_bare_string_or_scalar_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected a sequence"):
            BenchConfig(**{"variants": ("softmax",), "n_values": (8,), field: value})

    def test_diag_routes_are_benchable(self):
        targets = bench_targets()
        assert "diag_fast" in targets and "diag_naive" in targets


class TestRunBench:
    def test_record_stream_shape(self):
        records, summary = run_bench(SMALL)
        assert len(records) == 2 * 2 * 2 * 3  # variants x n x seeds x reps
        assert all(r.wall_nanos > 0 for r in records)
        assert set(summary.medians) == {(v, n) for v in SMALL.variants for n in SMALL.n_values}

    def test_checksums_identical_across_reps_and_reruns(self):
        records, _ = run_bench(SMALL)
        again, _ = run_bench(SMALL)
        def sums(rs):
            return {(r.variant, r.n, r.seed, r.rep): r.checksum for r in rs}
        by_key = sums(records)
        assert by_key == sums(again)
        for (variant, n, seed, _), checksum in by_key.items():
            assert by_key[(variant, n, seed, 0)] == checksum

    def test_doubling_ratios_cover_consecutive_pairs(self):
        _, summary = run_bench(SMALL)
        assert ("tensor_linear", 8, 16) in summary.doubling_ratios

    def test_sub_microsecond_medians_warn(self):
        from attnops import BenchRecord

        records = [
            BenchRecord("softmax", 8, 4, 0, rep, wall_nanos=200, checksum="00" * 8)
            for rep in range(3)
        ]
        summary = summarize(records)
        assert any("timer resolution" in w for w in summary.warnings)

    def test_diag_fast_matches_diag_naive_values(self):
        from attnops import diag_fast, random_inputs, score_matrix

        inputs = random_inputs(32, 8, seed=3)
        scores = score_matrix(inputs.q, inputs.k)
        naive = np.einsum("ij,ij->i", scores, scores)
        np.testing.assert_allclose(diag_fast(inputs.q, inputs.k), naive, atol=1e-10)

    def test_linear_path_doubling_ratio_is_linear(self):
        """time(2n)/time(n) of the factorized path sits in the linear band."""
        config = BenchConfig(
            variants=("tensor_linear",),
            n_values=(4096, 8192),
            d=32,
            seeds=(0, 1, 2),
            repetitions=11,
            warmup=3,
        )
        ratios = []
        for _ in range(7):  # a median of 7 sweeps holds while up to 3 of them stall
            _, summary = run_bench(config)
            ratios.append(summary.doubling_ratios[("tensor_linear", 4096, 8192)])
        ratio = float(np.median(ratios))
        assert 1.5 <= ratio <= 2.7, ratios


class TestRecordFiles:
    def test_csv_format(self, tmp_path):
        records, _ = run_bench(SMALL)
        path = tmp_path / "records.csv"
        write_records(records, str(path))
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == "variant,n,d,seed,rep,wall_nanos,checksum"
        assert len(lines) == len(records) + 1
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] in SMALL.variants
        assert first[1:5] == [str(records[0].n), str(records[0].d), str(records[0].seed), "0"]

    def test_jsonl_format(self, tmp_path):
        records, _ = run_bench(SMALL)
        path = tmp_path / "records.jsonl"
        write_records(records, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records)
        parsed = json.loads(lines[0])
        assert set(parsed) == {"variant", "n", "d", "seed", "rep", "wall_nanos", "checksum"}


@pytest.fixture(scope="class")
def seed7_report():
    return run_verify(seed=7)


class TestVerify:
    def test_pristine_build_passes(self, seed7_report):
        assert seed7_report.passed
        assert all(c.passed for c in seed7_report.checks)

    def test_report_includes_frobenius_trace_line(self, seed7_report):
        lines = "\n".join(seed7_report.lines())
        assert "squared Frobenius norm" in lines

    def test_one_oracle_check_per_registry_id(self, seed7_report):
        for variant in variant_ids():
            assert [c.name.startswith(f"{variant} ") for c in seed7_report.checks].count(True) == 1

    def test_unmasked_registry_path_fails_only_the_masked_check(self, monkeypatch):
        monkeypatch.setattr(registry, "tensor_attention_masked", tensor_attention_linear)
        failures = [c.name for c in run_verify(seed=7).failures]
        assert len(failures) == 1 and failures[0].startswith("tensor_masked ")

    def test_expm_refusing_complex_inputs_fails_its_check(self, monkeypatch):
        def real_only(inputs, cfg):
            if inputs.is_complex:
                raise ComplexNotSupported("planted: real inputs only")
            return tensor_attention_expm(inputs, cfg)

        monkeypatch.setattr(registry, "tensor_attention_expm", real_only)
        failures = run_verify(seed=7).failures
        assert [c.name.split()[0] for c in failures] == ["tensor_expm"]
        assert "got ComplexNotSupported(" in failures[0].detail

    def test_negative_control_fails_and_names_the_plant(self):
        report = run_verify(seed=7, negative_control=True)
        assert not report.passed
        names = [c.name for c in report.failures]
        assert any("planted" in name for name in names)


class TestCli:
    def test_verify_exit_codes(self, capsys):
        assert main(["verify"]) == 0
        assert main(["verify", "--negative-control"]) == 1
        out = capsys.readouterr().out
        assert "planted" in out

    def test_demo_default_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "output norm" in out and "checksum" in out

    def test_demo_tensor_interaction_enforces_square_values(self, capsys):
        assert main(["demo", "--mechanism", "interaction"]) == 0

    @staticmethod
    def usage_exit(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_demo_unknown_mechanism(self, capsys):
        self.usage_exit(["demo", "--mechanism", "warp"])
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n", "--d"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_demo_rejects_non_positive_sizes(self, flag, value, capsys):
        self.usage_exit(["demo", flag, value])
        captured = capsys.readouterr()
        assert "must be >= 1" in captured.err
        assert "usage: attnops demo" in captured.err
        assert captured.out == ""

    def test_demo_rejects_a_non_integer_size(self, capsys):
        self.usage_exit(["demo", "--n", "four"])
        assert "argument --n: invalid int value: 'four'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "demo"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        self.usage_exit([command, "--seed", "-1"])
        captured = capsys.readouterr()
        assert "argument --seed: must be >= 0, got -1" in captured.err
        assert f"usage: attnops {command}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


SWEEP = ["bench", "--variants", "tensor_linear", "--n-values", "8", "16",
         "--d", "4", "--repetitions", "3", "--warmup", "0"]


def bench_usage_error(argv, capsys) -> str:
    """Run ``argv``, expect exit 2 from argparse, and return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage: attnops" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


class TestBenchFlags:
    def test_flags_are_the_config_fields(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["bench"]._actions} - {"help"}
        assert dests == {f.name for f in dataclasses.fields(BenchConfig)}

    @staticmethod
    def configs_run(argv, monkeypatch) -> list:
        """Run ``argv`` with a ``run_bench`` that records its config and times nothing."""
        seen = []

        def record(config):
            seen.append(config)
            return [], summarize([])

        monkeypatch.setattr("attnops.cli.run_bench", record)
        assert main(argv) == 0
        return seen

    def test_flag_values_reach_the_config(self, monkeypatch):
        seen = self.configs_run(
            ["bench", "--variants", "softmax", "tensor_linear", "--n-values", "8", "16",
             "--seeds", "0", "1", "--d", "4", "--repetitions", "3", "--warmup", "2",
             "--out", "records.jsonl"],
            monkeypatch,
        )
        assert seen == [BenchConfig(variants=("softmax", "tensor_linear"), n_values=(8, 16),
                                    d=4, seeds=(0, 1), repetitions=3, warmup=2,
                                    output_path="records.jsonl")]

    def test_unset_flags_keep_the_config_defaults(self, monkeypatch):
        seen = self.configs_run(["bench", "--variants", "softmax", "--n-values", "8"], monkeypatch)
        assert seen == [BenchConfig(variants=("softmax",), n_values=(8,))]

    def test_bench_subcommand(self, tmp_path, capsys):
        out_path = tmp_path / "records.csv"
        assert main(SWEEP + ["--out", str(out_path)]) == 0
        assert out_path.read_text().startswith(CSV_HEADER + "\n")
        out = capsys.readouterr().out
        assert "time ratio" in out and f"wrote {out_path}" in out

    @pytest.mark.parametrize("name, jsonl", [("r.jsonl", True), ("r.csv", False), ("r", False),
                                             ("r.jsonl.bak", False)])
    def test_suffix_picks_the_record_format(self, name, jsonl, tmp_path):
        out_path = tmp_path / name
        assert main(SWEEP + ["--out", str(out_path)]) == 0
        first = out_path.read_text().splitlines()[0]
        assert first.startswith("{") if jsonl else first == CSV_HEADER

    @pytest.mark.parametrize("name", ["config", "format", "d_v", "color"])
    def test_unknown_or_retired_flags_exit_two(self, name, capsys):
        err = bench_usage_error(SWEEP + [f"--{name}", "x"], capsys)
        assert f"unrecognized arguments: --{name} x" in err

    @pytest.mark.parametrize("flag, value", [("--n-values", "eight"), ("--seeds", "0.5"),
                                             ("--d", "four"), ("--repetitions", "3x"),
                                             ("--warmup", "")])
    def test_non_integers_exit_two(self, flag, value, capsys):
        err = bench_usage_error(SWEEP + [flag, value], capsys)
        assert f"argument {flag}: invalid int value: {value!r}" in err

    @pytest.mark.parametrize("missing", ["--variants", "--n-values"])
    def test_missing_required_flag_exits_two(self, missing, capsys):
        argv = ["bench", "--variants", "softmax", "--n-values", "8"]
        at = argv.index(missing)
        err = bench_usage_error(argv[:at] + argv[at + 2:], capsys)
        assert f"the following arguments are required: {missing}" in err

    def test_unknown_variant_exits_two_naming_the_id(self, capsys):
        err = bench_usage_error(["bench", "--variants", "warp", "--n-values", "8"], capsys)
        assert "usage: attnops bench" in err
        assert "attnops bench: error: variants: unknown id 'warp'" in err

    @pytest.mark.parametrize("flags, field", [(["--repetitions", "2"], "repetitions"),
                                              (["--n-values", "16", "8"], "n_values"),
                                              (["--d", "0"], "d"),
                                              (["--warmup", "-1"], "warmup")])
    def test_config_bounds_exit_two_naming_the_field(self, flags, field, capsys):
        err = bench_usage_error(SWEEP + flags, capsys)
        assert f"attnops bench: error: {field}: must" in err

    def test_args_file_expands_and_a_later_flag_wins(self, tmp_path, capsys):
        args_file = tmp_path / "bench.args"
        args_file.write_text("\n".join(SWEEP + ["--d", "8"]) + "\n")
        out_path = tmp_path / "records.csv"
        assert main([f"@{args_file}", "--d", "2", "--out", str(out_path)]) == 0
        assert {line.split(",")[2] for line in out_path.read_text().splitlines()[1:]} == {"2"}
        assert "d=2" in capsys.readouterr().out

    def test_missing_args_file_exits_two(self, tmp_path, capsys):
        err = bench_usage_error([f"@{tmp_path / 'absent.args'}"], capsys)
        assert "absent.args" in err

    def test_library_error_exits_one(self, capsys):
        # Row normalization raises DegenerateNormalizer on the bench's signed inputs.
        argv = SWEEP.copy()
        argv[argv.index("tensor_linear")] = "tensor_row"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("bench failed: row sum")
        assert "Traceback" not in err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        assert main(SWEEP + ["--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bench failed:")
        assert "missing" in err
        assert not out_path.parent.exists()
