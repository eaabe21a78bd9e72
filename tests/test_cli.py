import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertppm import codec
from covertppm.cli import load_channel_file, main, parse_channel

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(*argv) -> int:
    return main(list(argv))


class TestChannelParsing:
    def test_inline_bsc(self):
        ch = parse_channel("bsc:0.1")
        np.testing.assert_allclose(ch.row0, [0.9, 0.1])

    def test_inline_bac(self):
        ch = parse_channel("bac:0.1,0.4")
        np.testing.assert_allclose(ch.row1, [0.4, 0.6])

    def test_channel_file(self, tmp_path):
        f = tmp_path / "chan.txt"
        f.write_text("# ternary example\n0.5 0.3 0.2\n0.2 0.2 0.6  # row for 1\n")
        ch = load_channel_file(str(f))
        assert ch.alphabet_size == 3
        np.testing.assert_allclose(ch.row1, [0.2, 0.2, 0.6])

    def test_missing_channel_file(self, capsys):
        assert run_cli("tables", "--bob", "no/such/file.txt") == 1
        assert "not found" in capsys.readouterr().err


class TestTables:
    def test_bsc01_first_row(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("tables", "--bob", "bsc:0.1", "--levels", "16",
                       "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0].startswith("level,I_Y (bits)")
        assert lines[1].startswith("1,0.7421,")

    def test_identical_channels_zero_diff(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("tables", "--bob", "bsc:0.2", "--willie", "bsc:0.2",
                "--levels", "4", "--out", str(out))
        for ln in out.read_text().splitlines():
            if ln[:1].isdigit():
                assert ln.split(",")[3] in ("0.0000", "-0.0000")

    def test_table_pair_diff_column(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("tables", "--bob", "bsc:0.2", "--willie", "bac:0.1,0.4",
                "--levels", "10", "--out", str(out))
        diffs = [float(ln.split(",")[3]) for ln in out.read_text().splitlines()
                 if ln[:1].isdigit()]
        assert diffs[0] == pytest.approx(-0.0905, abs=5e-5)
        assert diffs[3] == pytest.approx(0.0077, abs=5e-5)

    def test_off_support_warden_levels(self, tmp_path):
        # Willie's divergences are infinite; the level MIs come from the
        # erasure split instead of enumerating 2^(2^i) outputs
        out = tmp_path / "t.csv"
        assert run_cli("tables", "--bob", "bsc:0.05", "--willie", "bac:0,0.3",
                       "--levels", "6", "--out", str(out)) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln[:1].isdigit()]
        assert len(rows) == 6
        assert all(0.0 < float(r[2]) <= 1.0 for r in rows)

    def test_off_support_bob_bound_is_vacuous(self, tmp_path):
        # P1 has mass outside P0's support: chi2 is infinite and the bound
        # column reads inf, not the nan of inf - inf
        out = tmp_path / "t.csv"
        assert run_cli("tables", "--bob", "bac:0,0.3", "--willie", "bac:0.2,0",
                       "--levels", "4", "--out", str(out)) == 0
        rows = [ln for ln in out.read_text().splitlines() if ln[:1].isdigit()]
        assert len(rows) == 4
        assert all(r.endswith(",inf") for r in rows)

    @pytest.mark.parametrize("rows", ["1 0\n1 0\n", "0.9 0.1 0\n0.1 0.4 0.5\n"])
    def test_zero_mass_symbols_give_finite_values(self, tmp_path, rows):
        # a symbol P0 never emits: the first channel printed nan, the
        # second (off-support mass) stopped at level 4 on an enumeration budget
        chan = tmp_path / "chan.txt"
        chan.write_text(rows)
        out = tmp_path / "t.csv"
        assert run_cli("tables", "--bob", str(chan), "--levels", "6",
                       "--out", str(out)) == 0
        values = [ln.split(",")[1:4] for ln in out.read_text().splitlines()
                  if ln[:1].isdigit()]
        assert len(values) == 6
        assert all(math.isfinite(float(v)) for row in values for v in row)

    @pytest.mark.parametrize("pair", [["--bob", "bsc:0.1"],
                                      ["--bob", "bsc:0.2", "--willie", "bac:0.1,0.4"],
                                      ["--bob", "bac:0,0.3", "--willie", "bac:0.2,0"]])
    def test_nats_rows_are_bits_rows_times_ln2(self, tmp_path, pair):
        # capacities are computed in bits and the bound in nats; either way
        # the two tables differ by ln 2 up to the rounding of both prints
        tables = {}
        for base in ("bits", "nats"):
            out = tmp_path / f"{base}.csv"
            assert run_cli("tables", *pair, "--levels", "16", "--base", base,
                           "--out", str(out)) == 0
            tables[base] = [[float(v) for v in ln.split(",")]
                            for ln in out.read_text().splitlines() if ln[:1].isdigit()]
        assert len(tables["bits"]) == len(tables["nats"]) == 16
        ln2 = math.log(2.0)
        for bits_row, nats_row in zip(tables["bits"], tables["nats"]):
            assert nats_row[0] == bits_row[0]
            for b, n in zip(bits_row[1:], nats_row[1:]):
                if math.isinf(b):  # the vacuous bound of a Bob off P0's support
                    assert n == b
                else:
                    assert abs(n - b * ln2) <= 0.5e-4 * (1.0 + ln2) + 1e-12

    def test_unit_tag_in_header(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("tables", "--bob", "bsc:0.1", "--levels", "2", "--base",
                "nats", "--out", str(out))
        assert "I_Y (nats)" in out.read_text()


class TestPlan:
    def test_design_point_blocklength_in_file(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        assert run_cli("plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "10", "--delta", "1.0", "--degraded",
                       "--out", str(out)) == 0
        assert "ell = 288" in out.read_text()

    def test_degraded_prints_zero_keys(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        run_cli("plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                "--levels", "6", "--delta", "1.0", "--degraded",
                "--out", str(out))
        assert "keys required: 0 bits/block" in capsys.readouterr().out

    def test_delta_zero_fails(self, capsys):
        assert run_cli("plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "4", "--delta", "0") == 1
        assert "blocklength zero" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "simulate", "covertness"])
    def test_false_degraded_claim_is_clear_error(self, tmp_path, capsys, command):
        # Willie bsc(0.05) is less noisy than Bob bsc(0.1): the plan had
        # r_k = 0 on every level
        out = tmp_path / "out.txt"
        extra = ("--seed", "1") if command != "plan" else ()
        assert run_cli(command, "--bob", "bsc:0.1", "--willie", "bsc:0.05",
                       "--levels", "4", "--delta", "1.0", "--degraded",
                       "--ell", "16", *extra, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a degraded version" in err
        assert not out.exists()

    @pytest.mark.parametrize("option", [("--epsilon", "nan"), ("--delta", "inf"),
                                        ("--delta", "nan")],
                             ids=["epsilon-nan", "delta-inf", "delta-nan"])
    def test_non_finite_budget_is_clear_error(self, tmp_path, capsys, option):
        # --epsilon nan wrote r_u = nan, --delta inf ended in an OverflowError
        # traceback and --delta nan said "cannot convert float NaN to integer"
        out = tmp_path / "plan.txt"
        args = {"--delta": "1", "--epsilon": "0.05", option[0]: option[1]}
        assert run_cli("plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "3", "--degraded", *(x for kv in args.items() for x in kv),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option[0][2:]} must be finite")
        assert not out.exists()

    def test_delta_with_infinite_blocklength_is_clear_error(self, tmp_path, capsys):
        # 2 m delta / (B chi2) overflows at delta = 1.7e308: this ended in an
        # OverflowError traceback
        out = tmp_path / "plan.txt"
        assert run_cli("plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "1.7e308", "--degraded",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delta = 1.7e+308 is too large")
        assert not out.exists()

    def test_huge_delta_reports_nonzero_throughput(self, capsys):
        # sqrt(n * delta) overflowed and the report read "covert throughput 0"
        assert run_cli("plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "1e300", "--degraded") == 0
        report = capsys.readouterr().out
        assert "covert throughput " in report
        assert "covert throughput 0 " not in report

    def test_warden_off_support_with_set_blocklength_fails(self, tmp_path, capsys):
        # with --ell the planner used to skip both the chi2 and the degraded
        # check, writing r_k = 0 and printing "capacity nan"
        out = tmp_path / "plan.txt"
        assert run_cli("plan", "--bob", "bsc:0.05", "--willie", "bac:0,0.3",
                       "--levels", "2", "--delta", "1", "--ell", "32",
                       "--degraded", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "infinite" in err
        assert not out.exists()


class TestSimulate:
    ARGS = ("simulate", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
            "--levels", "3", "--delta", "2.0", "--blocks", "3", "--degraded",
            "--ell", "64", "--rate-scale", "0.6", "--trials", "400",
            "--seed", "9")

    def test_emits_one_record_per_block(self, tmp_path):
        out = tmp_path / "chain.jsonl"
        assert run_cli(*self.ARGS, "--out", str(out)) == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        blocks = [r for r in records if "block" in r]
        assert len(blocks) == 3
        assert records[0]["seed"] == 9
        assert "summary" in records[-1]

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(*self.ARGS, "--out", str(a))
        run_cli(*self.ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_noiseless_smoke_zero_errors(self, tmp_path):
        out = tmp_path / "clean.jsonl"
        chan = tmp_path / "ident.txt"
        chan.write_text("1 0\n0 1\n")
        assert run_cli("simulate", "--bob", str(chan), "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "4.0", "--blocks", "2",
                       "--degraded", "--ell", "16", "--trials", "200",
                       "--seed", "4", "--out", str(out)) == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert not records[-1]["summary"]["cumulative_error"]


    def test_warden_off_support_is_clear_error(self, tmp_path, capsys):
        out = tmp_path / "chain.jsonl"
        assert run_cli("simulate", "--bob", "bsc:0.05", "--willie", "bac:0,0.3",
                       "--levels", "2", "--delta", "1", "--ell", "32",
                       "--trials", "50", "--degraded", "--seed", "1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "infinite" in err
        assert not out.exists()


class TestRateScale:
    @pytest.mark.parametrize("scale", ["-1", "nan"])
    def test_out_of_range_scale_fails_before_code_construction(
            self, tmp_path, capsys, monkeypatch, scale):
        # -1 failed inside construct_code with "target_info must lie in [0, 16]"
        def construct_code(*args, **kwargs):
            raise AssertionError("code constructed for a bad rate scale")

        monkeypatch.setattr(codec, "construct_code", construct_code)
        out = tmp_path / "chain.jsonl"
        assert run_cli("simulate", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "2", "--ell", "16", "--degraded",
                       "--trials", "50", "--rate-scale", scale, "--seed", "1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rate_scale must lie in (0, 1]")
        assert not out.exists()


class TestConstructionTrials:
    @pytest.mark.parametrize("command", [
        ("covertness", "--construction-trials", "0", "--trials", "4"),
        ("simulate", "--trials", "0"),
    ], ids=["covertness", "simulate"])
    def test_zero_trials_fail_before_code_construction(
            self, tmp_path, capsys, monkeypatch, command):
        # covertness printed construct_code's "trials must be >= 1", which
        # reads like its own --trials (sampled blocks)
        def construct_code(*args, **kwargs):
            raise AssertionError("code constructed for zero construction trials")

        monkeypatch.setattr(codec, "construct_code", construct_code)
        out = tmp_path / "o.json"
        assert run_cli(command[0], "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "2", "--ell", "16", "--degraded",
                       *command[1:], "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: construction_trials must be >= 1, got 0")
        assert not out.exists()


class TestDetect:
    def test_report_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("detect", "--willie", "bsc:0.1", "--generator",
                "identity:128,32", "--trials", "2000", "--seed", "3")
        assert run_cli(*args, "--out", str(a)) == 0
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["s_size"] == 32
        assert report["alpha_bound_s"] == pytest.approx(
            16.0 / (32 * 64.0 / 9.0)
        )

    def test_missing_generator_file(self, capsys):
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator",
                       "nowhere.txt", "--trials", "10", "--seed", "1") == 1
        assert "not found" in capsys.readouterr().err

    def test_generator_file_roundtrip(self, tmp_path):
        g = tmp_path / "gen.txt"
        g.write_text("# tiny code\n1 0 1 0\n0 1 1 0\n")
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator",
                       str(g), "--trials", "500", "--seed", "2",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["k"] == 2

    def test_undetectable_channel_flag(self, tmp_path, capsys):
        chan = tmp_path / "blind.txt"
        chan.write_text("0.5 0.5\n0.5 0.5\n")
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", str(chan), "--generator",
                       "identity:16,4", "--trials", "100", "--seed", "5",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["undetectable"] is True
        assert "undetectable" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_too_few_trials_is_clear_error(self, tmp_path, capsys, trials):
        # one trial wrote "var_t_h0": NaN, zero trials NaN rates
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator",
                       "identity:64,8", "--trials", trials, "--seed", "1",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["identity:10,20", "identity:10,0"])
    def test_identity_dimension_out_of_range_is_clear_error(self, tmp_path,
                                                            capsys, spec):
        # k > n raised IndexError and k = 0 ZeroDivisionError (a traceback)
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator", spec,
                       "--trials", "100", "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1 <= k <= n" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["identity:10", "random:10,x",
                                      "random:10,5,2"])
    def test_malformed_dimension_spec_is_clear_error(self, tmp_path, capsys,
                                                     spec):
        # "identity:10" failed with "not enough values to unpack" and
        # "random:10,x" with "invalid literal for int()"
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator", spec,
                       "--trials", "100", "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        kind = spec.split(":")[0]
        assert err.startswith("error:") and f"expected {kind}:n,k" in err
        assert not out.exists()

    def test_ragged_generator_file_is_clear_error(self, tmp_path, capsys):
        # rows of unequal length reached np.array, whose message named
        # neither the file nor the row
        g = tmp_path / "ragged.txt"
        g.write_text("# a comment\n1 0 1\n0 1 1\n0 1\n1 1 1 1\n")
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator", str(g),
                       "--trials", "10", "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: generator file {g}: row 3 has 2 entries, "
                              "row 1 has 3")
        assert not out.exists()

    def test_generator_entry_other_than_a_bit_is_clear_error(self, tmp_path,
                                                             capsys):
        # the entry 2 was silently read as 0
        g = tmp_path / "gen.txt"
        g.write_text("1 0 2 0\n0 1 1 0\n")
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bsc:0.1", "--generator", str(g),
                       "--trials", "100", "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0 or 1" in err
        assert not out.exists()

    def test_warden_off_support_is_clear_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("detect", "--willie", "bac:0,0.3", "--generator",
                       "identity:16,4", "--trials", "100", "--seed", "5",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "support" in err
        assert not out.exists()


class TestCovertness:
    def test_exact_mode_emits_all_bound_terms(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("covertness", "--willie", "bsc:0.1", "--exact",
                       "--order", "2", "--ell", "1", "--source", "single:1",
                       "--seed", "1", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        for key in ("d_pz_q0", "d_pz_qppm", "tv_pz_qppm", "d_qppm_q0",
                    "max_log_ratio", "bound_rhs"):
            assert key in report
        assert report["inequality_holds"] is True

    def test_exact_uniform_control(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("covertness", "--willie", "bsc:0.1", "--exact", "--order",
                "4", "--ell", "2", "--source", "uniform", "--seed", "1",
                "--out", str(out))
        report = json.loads(out.read_text())
        assert abs(report["tv_pz_qppm"]) < 1e-12

    def test_budget_exceeded_is_clear_error(self, capsys):
        assert run_cli("covertness", "--willie", "bsc:0.1", "--exact",
                       "--order", "8", "--ell", "4", "--source", "uniform",
                       "--seed", "1") == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["uniform", "single:1"])
    def test_exact_order_zero_is_clear_error(self, tmp_path, capsys, source):
        # the uniform law raised ZeroDivisionError (a traceback)
        out = tmp_path / "c.json"
        assert run_cli("covertness", "--willie", "bsc:0.1", "--exact",
                       "--order", "0", "--source", source, "--seed", "1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "order" in err
        assert not out.exists()

    @pytest.mark.parametrize("ell", ["-1", "0"])
    def test_exact_without_super_symbols_is_clear_error(self, tmp_path, capsys,
                                                        ell):
        # ell = -1 raised IndexError (a traceback) and ell = 0 wrote a report
        # for zero super-symbols
        out = tmp_path / "c.json"
        assert run_cli("covertness", "--willie", "bsc:0.1", "--exact",
                       "--order", "2", f"--ell={ell}", "--seed", "1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "super-symbol" in err
        assert not out.exists()

    def test_sampled_mode_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("covertness", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                "--levels", "2", "--delta", "2.0", "--degraded", "--ell",
                "16", "--construction-trials", "200", "--trials", "50",
                "--seed", "12")
        assert run_cli(*args, "--out", str(a)) == 0
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["baseline"] == "ppm-mixture"

    def test_sampled_mode_uses_the_planned_blocklength(self, tmp_path):
        # without --ell the estimate runs at the planner's blocklength:
        # floor(2 * 32 * 0.5 / (64/9)) = 4 super-symbols
        out = tmp_path / "c.json"
        assert run_cli("covertness", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "5", "--delta", "0.5", "--degraded",
                       "--construction-trials", "100", "--trials", "10",
                       "--seed", "21", "--out", str(out)) == 0
        assert json.loads(out.read_text())["ell"] == 4

    def test_zero_trials_is_clear_error(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run_cli("covertness", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "2.0", "--degraded", "--ell",
                       "16", "--construction-trials", "50", "--trials", "0",
                       "--seed", "12", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "got 0" in err
        assert not out.exists()

    def test_zero_trials_rejected_before_session_build(self, tmp_path, capsys,
                                                      monkeypatch):
        def build_session(*args, **kwargs):
            raise AssertionError("session built for a rejected trial count")

        monkeypatch.setattr(codec, "build_session", build_session)
        assert run_cli("covertness", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                       "--levels", "2", "--delta", "2.0", "--degraded", "--ell",
                       "16", "--construction-trials", "50", "--trials", "0",
                       "--seed", "12", "--out", str(tmp_path / "c.json")) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sampled_mode_without_bob_is_clear_error(self, tmp_path):
        # parse_channel(None) raised AttributeError (a traceback)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        out = tmp_path / "c.json"
        proc = subprocess.run(
            [sys.executable, "-m", "covertppm.cli", "covertness", "--willie", "bsc:0.1",
             "--trials", "2", "--seed", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "--bob" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_exact_mode_defaults_to_one_super_symbol(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("covertness", "--willie", "bsc:0.1", "--exact",
                       "--order", "2", "--source", "single:1", "--seed", "1",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["ell"] == 1


# boundary values of each option, with one ordinary value so that the
# commands also reach their reports
_CHANNELS = [f"bsc:{p}" for p in
             ("0", "1e-320", "1e-306", "1e-200", "0.1", "0.5", "1", "nan")]
_LEVELS = ["-1", "0", "1", "3", "21", "2000"]
_REALS = ["0", "-1", "nan", "inf", "-inf", "1e308"]


@st.composite
def boundary_command(draw) -> list[str]:
    """A command line of boundary options for every subcommand, covertness
    both exact and sampled.  Sessions stay at q <= 3 and ell <= 16."""
    def pick(values):
        return draw(st.sampled_from(values))

    command = pick(["tables", "plan", "covertness", "detect", "simulate", "estimate"])
    if command == "detect":
        n = pick([0, 1, 3, 16, 64])
        generator = f"{pick(['identity', 'random'])}:{n},{pick([-1, 0, 1, 3, n, n + 1])}"
        return ["detect", f"--willie={pick(_CHANNELS)}", f"--generator={generator}",
                f"--trials={pick(['-1', '0', '1', '2', '100'])}", "--seed=1"]
    if command in ("simulate", "estimate"):
        argv = [f"--bob={pick(_CHANNELS)}", f"--willie={pick(_CHANNELS)}",
                f"--levels={pick(['1', '2', '3'])}", "--delta=1",
                f"--ell={pick(['1', '2', '3', '16'])}",
                f"--resolvability={pick(['full_uniform', 'extractor'])}", "--seed=1"]
        argv += ["--degraded"] if draw(st.booleans()) else []
        construction = pick(["-1", "0", "1", "50"])
        if command == "simulate":
            return ["simulate", *argv, f"--blocks={pick(['-1', '0', '1', '2'])}",
                    f"--trials={construction}",
                    f"--rate-scale={pick(['0', '-1', 'nan', 'inf', '0.5', '1'])}"]
        return ["covertness", *argv, f"--construction-trials={construction}",
                f"--trials={pick(['-1', '0', '1', '3'])}"]
    if command == "tables":
        return ["tables", f"--bob={pick(_CHANNELS)}", f"--levels={pick(_LEVELS)}"]
    if command == "plan":
        argv = ["plan", f"--bob={pick(_CHANNELS)}", f"--willie={pick(_CHANNELS)}",
                f"--levels={pick(_LEVELS)}", f"--delta={pick(_REALS + ['1'])}",
                f"--epsilon={pick(_REALS + ['0.05'])}"]
        ell = pick([None, "-1", "0", "1", "3", str(1 << 40)])
        argv += [] if ell is None else [f"--ell={ell}"]
        return argv + (["--degraded"] if draw(st.booleans()) else [])
    return ["covertness", f"--willie={pick(_CHANNELS)}", "--exact", "--seed=1",
            f"--order={pick(['0', '3', '16'])}",
            f"--ell={pick(['-1', '0', '1', '3', str(10**20)])}"]


@settings(max_examples=600, deadline=None)
@given(argv=boundary_command())
@example(argv=["detect", "--willie=bsc:1e-200", "--generator=identity:16,4",
               "--trials=100", "--seed=1"])
@example(argv=["simulate", "--bob=bsc:0.1", "--willie=bsc:0.1", "--levels=3", "--delta=1",
               "--ell=16", "--resolvability=extractor", "--seed=1", "--degraded",
               "--blocks=2", "--trials=50", "--rate-scale=0.5"])
# r log r overflows a double for this row0 entry: capacities, not nan
@example(argv=["tables", "--bob=bsc:1e-306", "--levels=3"])
def test_boundary_options_give_a_report_or_an_error(argv):
    # in process: each case either exits 0 with no nan in its report or exits
    # 1 with stderr starting "error:"; an exception fails the test as the
    # traceback it would print.  Warnings are part of stderr, as they would
    # be printed ahead of the error line.
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert not re.search(r"\bnan\b", out.getvalue() + err.getvalue(), re.I)
    else:
        assert code == 1 and err.getvalue().startswith("error:")


def readme_commands() -> list[list[str]]:
    """The covertppm commands of the README's command-line ``sh`` block."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    text = next(b for b in blocks if "covertppm " in b).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("covertppm ")]


def test_readme_commands_run(tmp_path):
    # every documented command still parses and runs: a removed flag or
    # keyword cannot leave the README broken
    commands = readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
        assert Path(argv[at]).stat().st_size > 0


# every subcommand at q <= 3 and ell <= 16, exact and sampled covertness and
# both resolvability modes; run with scipy unimportable
_WITHOUT_SCIPY = [
    ["tables", "--bob", "bsc:0.1", "--levels", "3"],
    ["plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1", "--levels", "3",
     "--delta", "1", "--degraded", "--ell", "16"],
    *(["simulate", "--bob", "bsc:0.05", "--willie", "bsc:0.1", "--levels", "3",
       "--delta", "1", "--degraded", "--ell", "16", "--trials", "50", "--seed", "1",
       "--resolvability", mode] for mode in ("full_uniform", "extractor")),
    ["detect", "--willie", "bsc:0.1", "--generator", "identity:16,4",
     "--trials", "100", "--seed", "1"],
    ["covertness", "--willie", "bsc:0.1", "--exact", "--order", "2", "--ell", "1",
     "--seed", "1"],
    ["covertness", "--bob", "bsc:0.05", "--willie", "bsc:0.1", "--levels", "3",
     "--delta", "1", "--degraded", "--ell", "16", "--construction-trials", "50",
     "--trials", "3", "--seed", "1"],
]


def test_library_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable the package
    # imports, every subcommand exits 0, and no scipy module is loaded
    commands = [[*argv, "--out", str(tmp_path / f"{k}.out")]
                for k, argv in enumerate(_WITHOUT_SCIPY)]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # every scipy import raises ImportError\n"
        "import covertppm\n"
        "from covertppm.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = [m for m, mod in sys.modules.items()\n"
        "          if mod is not None and m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert all((tmp_path / f"{k}.out").stat().st_size > 0
               for k in range(len(commands)))
