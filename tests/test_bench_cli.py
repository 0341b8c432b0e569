import json

import numpy as np
import pytest

from attnops import (
    AttnOpsError,
    BenchConfig,
    UnknownVariant,
    array_checksum,
    bench_targets,
    parse_config_text,
    run_bench,
    run_verify,
    summarize,
    write_records,
)
from attnops.bench import CSV_HEADER
from attnops.cli import main

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
        with pytest.raises(ValueError, match="format"):
            BenchConfig(variants=("softmax",), n_values=(8,), format="xml")

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
        for _ in range(3):
            _, summary = run_bench(config)
            ratios.append(summary.doubling_ratios[("tensor_linear", 4096, 8192)])
        ratio = float(np.median(ratios))
        assert 1.5 <= ratio <= 2.7, ratios


class TestRecordFiles:
    def test_csv_format(self, tmp_path):
        records, _ = run_bench(SMALL)
        path = tmp_path / "records.csv"
        write_records(records, str(path), "csv")
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
        write_records(records, str(path), "jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records)
        parsed = json.loads(lines[0])
        assert set(parsed) == {"variant", "n", "d", "seed", "rep", "wall_nanos", "checksum"}


class TestConfigText:
    def test_round_trip(self):
        config = parse_config_text(
            "variants=softmax,tensor_linear\n"
            "n_values=8,16\n"
            "d=4\n"
            "seeds=0,1\n"
            "repetitions=3\n"
            "warmup=1\n"
            "format=jsonl\n"
        )
        assert config.variants == ("softmax", "tensor_linear")
        assert config.n_values == (8, 16)
        assert config.format == "jsonl"

    def test_overrides_win(self):
        config = parse_config_text("variants=softmax\nn_values=8\nformat=csv\n",
                                   {"format": "jsonl"})
        assert config.format == "jsonl"

    def test_errors_name_the_field(self):
        with pytest.raises(AttnOpsError, match="n_values"):
            parse_config_text("variants=softmax\nn_values=eight\n")
        with pytest.raises(AttnOpsError, match="unknown config key"):
            parse_config_text("variants=softmax\nn_values=8\ncolor=red\n")
        with pytest.raises(AttnOpsError, match="variants"):
            parse_config_text("n_values=8\n")


class TestVerify:
    def test_pristine_build_passes(self):
        report = run_verify(seed=7)
        assert report.passed
        assert all(c.passed for c in report.checks)

    def test_report_includes_frobenius_trace_line(self):
        report = run_verify(seed=7)
        lines = "\n".join(report.lines())
        assert "squared Frobenius norm" in lines

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

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("variants=tensor_linear\nn_values=8,16\nd=4\nrepetitions=3\nwarmup=0\n")
        out_path = tmp_path / "records.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith(CSV_HEADER)
        assert "time ratio" in capsys.readouterr().out

    def test_bench_missing_config_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2

    def test_bench_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("variants=warp\nn_values=8\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "config:" in capsys.readouterr().err

    def test_bench_library_error_exits_one(self, tmp_path, capsys):
        # Row normalization raises DegenerateNormalizer on the bench's signed inputs.
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("variants=tensor_row\nn_values=8,16\nd=4\nrepetitions=3\nwarmup=0\n")
        assert main(["bench", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bench failed: row sum")
        assert "Traceback" not in err

    def test_demo_default_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "output norm" in out and "checksum" in out

    def test_demo_tensor_interaction_enforces_square_values(self, capsys):
        assert main(["demo", "--mechanism", "interaction"]) == 0

    def test_demo_unknown_mechanism(self, capsys):
        assert main(["demo", "--mechanism", "warp"]) == 2
        assert "usage" in capsys.readouterr().err
