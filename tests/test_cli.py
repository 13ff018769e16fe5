"""Tests for the sweep command line."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from entsense import _check_inputs, cli, discrimination
from entsense.cli import SweepConfig, main, parse_grid, run
from entsense.communication import (
    PhotonTailError,
    capacity_classical,
    capacity_ea,
    green_machine_optimize,
    holevo_c2d_cpsk,
    opar_photon_pmfs,
    pcr_count_pmfs,
    shannon_photon_counting,
)
from entsense.conversion import QuadratureError, conversion_params
from entsense.discrimination import nair_gu_bound, p_c2d, p_classical_coherent
from entsense.gaussian import ChannelParams
from entsense.metrology import qfi_c2d, qfi_cs
from entsense.receivers import (
    DolinarConfig,
    dolinar_simulate,
    opar_pe,
    pcr_pe,
    pe_heterodyne,
    pe_homodyne,
    pe_kennedy,
)
from entsense.special import RngStream, sample_scaled_chi2


def read_rows(path):
    """CSV file -> (header, list of per-row dicts keyed by column name)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("0.5,1,2e-3") == (0.5, 1.0, 2e-3)

    def test_single_value(self):
        assert parse_grid("1e4") == (1e4,)

    def test_log_range(self):
        values = parse_grid("log:1e-3:1e1:5")
        np.testing.assert_allclose(values, np.geomspace(1e-3, 1e1, 5), rtol=0)

    def test_log_single_point(self):
        assert parse_grid("log:2:8:1") == (2.0,)

    def test_trailing_comma_tolerated(self):
        assert parse_grid("1,2,") == (1.0, 2.0)

    @pytest.mark.parametrize(
        "text",
        ["", " ", ",", "log:1:10", "log:1:10:3:4", "log:0:10:3", "log:1:-2:3", "log:1:10:0"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    @pytest.mark.parametrize("count", ["2.5", "0", "-1", "x"])
    def test_log_count_message_names_the_grid_and_the_count(self, capsys, count):
        grid = f"log:1e-3:1e-2:{count}"
        message = f"ns log grid COUNT must be a positive integer, got '{count}'"
        with pytest.raises(ValueError) as exc:
            SweepConfig("illumination", ns=grid)
        assert str(exc.value) == message
        assert main(["illumination", "--ns", grid, "--threads", "1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": message, "exit_status": 2}


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig(subcommand="illumination")
        assert config.ns == (1e-3,)
        assert config.m == (1000,)
        assert config.seed == 20608
        assert config.quad_tol == 1e-6

    def test_string_grids_are_parsed(self):
        config = SweepConfig(subcommand="illumination", ns="log:1e-4:1e-2:3", m="10,100")
        assert len(config.ns) == 3
        assert config.m == (10, 100)

    def test_m_coerced_to_int(self):
        config = SweepConfig(subcommand="illumination", m=(100.0,))
        assert config.m == (100,) and isinstance(config.m[0], int)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"subcommand": "bogus"},
            {"subcommand": "illumination", "ns": ()},
            {"subcommand": "illumination", "nb": ""},
            {"subcommand": "illumination", "ns": (-0.1,)},
            {"subcommand": "illumination", "kappa": (1.5,)},
            {"subcommand": "illumination", "m": (10.5,)},
            {"subcommand": "illumination", "m": (0,)},
            {"subcommand": "illumination", "seed": -1},
            {"subcommand": "illumination", "seed": 2**64},
            {"subcommand": "illumination", "seed": 1.0},
            {"subcommand": "illumination", "quad_tol": 0.0},
            {"subcommand": "illumination", "quad_tol": 0.5},
            {"subcommand": "illumination", "output_path": ""},
            {"subcommand": "illumination", "options": {"theta": 1.0}},
            {"subcommand": "figures", "options": {}},
            {"subcommand": "figures", "options": {"which": "9z"}},
            {"subcommand": "receiver-sim", "options": {"receiver": "sad"}},
            {"subcommand": "receiver-sim", "options": {"alpha": ""}},
            {"subcommand": "receiver-sim", "options": {"trials": 0}},
            {"subcommand": "receiver-sim", "options": {"noise_nb": -0.5}},
            {"subcommand": "pattern", "options": {"subchannels": 0}},
            {"subcommand": "phase", "options": {"theta": math.inf}},
            {"subcommand": "receiver-sim", "options": {"alpha": "nan"}},
            {"subcommand": "receiver-sim", "options": {"alpha": [[math.inf, 0.0]]}},
            # a boolean is not a number, though float(True) == 1.0
            {"subcommand": "receiver-sim", "options": {"trials": True}},
            {"subcommand": "phase", "options": {"theta": True}},
            {"subcommand": "illumination", "ns": [True]},
            {"subcommand": "receiver-sim", "options": {"alpha": [[True, 0.0]]}},
            # [re, im] pairs hold two numbers, no more and no fewer
            {"subcommand": "receiver-sim", "options": {"alpha": [[1.0, 0.0, 5.0]]}},
            {"subcommand": "receiver-sim", "options": {"alpha": [[1.0]]}},
            # a mapping is no grid or pair list: iterating it reads its keys
            {"subcommand": "illumination", "ns": {"1e-3": 5}},
            {"subcommand": "illumination", "m": {1000: 1}},
            {"subcommand": "receiver-sim", "options": {"alpha": {"12": 0}}},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    def test_alpha_string_parsed_to_pairs(self):
        config = SweepConfig(
            subcommand="receiver-sim", options={"alpha": "0.5,1+2j"}
        )
        assert config.options["alpha"] == ((0.5, 0.0), (1.0, 2.0))


class TestIlluminationSweep:
    def test_rows_bounds_and_sidecar(self, tmp_path):
        out = tmp_path / "ill.csv"
        config = SweepConfig(
            subcommand="illumination",
            ns=(1e-3,),
            nb=(1.0, 20.0),
            kappa=(0.01,),
            m=(1000, 10_000),
            output_path=str(out),
        )
        assert run(config, threads=1) == 0
        header, rows = read_rows(out)
        assert header[:4] == ["n_s", "n_b", "kappa", "m"]
        assert len(rows) == 4
        for row in rows:
            lower = float(row["nair_gu_lower"])
            mid = float(row["p_c2d"])
            upper = float(row["lemma1_upper"])
            assert lower <= mid + 1e-12
            assert mid <= upper + 1e-12
        # grid order: nb varies slower than m
        assert [float(r["n_b"]) for r in rows] == [1.0, 1.0, 20.0, 20.0]

        meta = json.loads((tmp_path / "ill.csv.json").read_text())
        assert meta["rows"] == 4
        assert meta["columns"] == header
        assert meta["seed"] == config.seed
        assert meta["parameters"]["nb"] == [1.0, 20.0]
        assert meta["achieved_quadrature_tolerance"] <= config.quad_tol
        assert set(meta["versions"]) == {"entsense", "numpy", "scipy", "python"}

    def test_csv_floats_roundtrip(self, tmp_path):
        out = tmp_path / "one.csv"
        config = SweepConfig(
            subcommand="illumination", nb=(20.0,), m=(500,), output_path=str(out)
        )
        run(config, threads=1)
        _, rows = read_rows(out)
        ch = ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
        assert float(rows[0]["p_cs_helstrom"]) == p_classical_coherent(1e-3, ch, 500)


class TestPatternExample:
    def test_ratio_close_to_four(self, tmp_path):
        out = tmp_path / "pattern.csv"
        code = main(
            ["pattern", "--nb", "1e4", "--ns", "1e-4", "--out", str(out), "--threads", "1"]
        )
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        ratio = float(rows[0]["ratio_refined_classical"])
        assert 3.8 <= ratio <= 4.0

    def test_subchannel_count_flag(self, tmp_path):
        out = tmp_path / "pattern5.csv"
        assert main(["pattern", "--subchannels", "5", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0]["subchannels"] == "5"


class TestDeterminism:
    def _args(self, out, seed="99", threads="1"):
        return [
            "receiver-sim",
            "--alpha",
            "0.6,1.2",
            "--slices",
            "30",
            "--trials",
            "2000",
            "--seed",
            seed,
            "--threads",
            threads,
            "--out",
            str(out),
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self._args(first)) == 0
        assert main(self._args(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        meta_a = json.loads((tmp_path / "a.csv.json").read_text())
        meta_b = json.loads((tmp_path / "b.csv.json").read_text())
        assert meta_a == meta_b

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(self._args(serial, threads="1")) == 0
        assert main(self._args(parallel, threads="2")) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_seed_changes_monte_carlo_output(self, tmp_path):
        one, two = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(self._args(one, seed="1"))
        main(self._args(two, seed="2"))
        _, rows1 = read_rows(one)
        _, rows2 = read_rows(two)
        assert rows1[0]["error_rate"] != rows2[0]["error_rate"]

    def test_env_var_sets_worker_count(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        monkeypatch.setenv(cli.THREADS_ENV_VAR, "2")
        config = SweepConfig(
            subcommand="pattern", nb=(100.0,), ns=(1e-3, 1e-2), output_path=str(out)
        )
        assert run(config) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2

    def test_env_var_rejected_when_not_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.THREADS_ENV_VAR, "many")
        config = SweepConfig(
            subcommand="pattern", output_path=str(tmp_path / "x.csv")
        )
        assert run(config) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert cli.THREADS_ENV_VAR in err["error"]


# A two-point sweep per subcommand; every subcommand in the table needs one.
TWO_POINT_SWEEPS = {
    "illumination": {"ns": (1e-3, 1e-2), "m": (100,)},
    "phase": {"ns": (1e-3, 1e-2)},
    "comm": {"ns": (1e-3, 1e-2), "nb": (1.0,), "m": (10,)},
    "pattern": {"ns": (1e-3, 1e-2)},
    "receiver-sim": {
        "options": {"alpha": "0.6,1.2", "slices": 20, "trials": 1000, "noise_nb": 0.01}
    },
}


class TestWorkerCountIndependence:
    @pytest.mark.parametrize(
        "subcommand, settings",
        [(name, TWO_POINT_SWEEPS[name]) for name in cli._SWEEPS]
        # 5a: the sidecar's tolerance is the larger of two integrated cells
        + [("figures", {"options": {"which": which}}) for which in ("2b", "4a", "4b", "5a")],
    )
    def test_same_bytes_at_one_and_two_workers(self, tmp_path, subcommand, settings):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            config = SweepConfig(subcommand, output_path=str(out), **settings)
            assert run(config, threads=threads) == 0
            sidecar = tmp_path / f"t{threads}.csv.json"
            outputs.append((out.read_bytes(), sidecar.read_bytes()))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, axes",
    [
        (
            ["pattern", "--ns", "1e-4", "--nb", "1e4"],
            {"ns": [1e-4], "nb": [1e4], "kappa": [0.01]},
        ),
        (
            ["receiver-sim", "--receiver", "kennedy", "--alpha", "1,2j"],
            {"alpha": [[1.0, 0.0], [0.0, 2.0]]},
        ),
    ],
)
def test_sidecar_records_subcommand_axes(tmp_path, argv, axes):
    # only the grids the run reads: pattern has no mode count, and
    # receiver-sim's grid is its amplitudes
    out = tmp_path / "run.csv"
    assert main(argv + ["--out", str(out), "--threads", "1"]) == 0
    meta = json.loads((tmp_path / "run.csv.json").read_text())
    assert meta["parameters"] == axes


class TestReceiverClosedForms:
    @pytest.mark.parametrize(
        "receiver, alpha, expected",
        [
            ("kennedy", "1", pe_kennedy(1.0)),
            ("homodyne", "1", pe_homodyne(1.0)),
            ("heterodyne", "2", pe_heterodyne(2.0)),
            ("heterodyne", "2j", pe_heterodyne(2.0)),
        ],
    )
    def test_matches_direct_evaluation(self, tmp_path, receiver, alpha, expected):
        out = tmp_path / "closed.csv"
        code = main(
            ["receiver-sim", "--receiver", receiver, "--alpha", alpha, "--out", str(out)]
        )
        assert code == 0
        _, rows = read_rows(out)
        assert float(rows[0]["error_rate"]) == expected
        assert rows[0]["stderr"] == "0"
        assert rows[0]["trials"] == "0"


class TestExitCodes:
    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        code = main(["illumination", "--ns", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_status"] == 2
        assert "empty" in err["error"]

    def test_unknown_flag(self, capsys):
        assert main(["illumination", "--frequency", "1"]) == 2
        json.loads(capsys.readouterr().err.strip())

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_figures_requires_preset(self, capsys):
        assert main(["figures"]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["comm", "--config", "/no/such/file.json"]) == 2

    def test_config_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["comm", "--config", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "JSON" in err["error"]

    def test_config_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frequency": 1}')
        assert main(["comm", "--config", str(bad)]) == 2

    def test_config_must_be_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["comm", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "subcommand, text",
        [
            ("pattern", '{"subchannels": null}'),
            ("phase", '{"theta": null}'),
            ("receiver-sim", '{"trials": Infinity}'),
            ("receiver-sim", '{"alpha": 1.0}'),
            ("illumination", '{"ns": 5}'),
            ("receiver-sim", '{"trials": true}'),
            ("phase", '{"theta": true}'),
            ("illumination", '{"ns": [true]}'),
            ("illumination", '{"ns": {"1e-3": 5}}'),
            ("illumination", '{"kappa": {"0.5": 1}}'),
            ("receiver-sim", '{"alpha": {"12": 0}}'),
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, subcommand, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = str(tmp_path / "x.csv")
        assert main([subcommand, "--config", str(cfg), "--out", out, "--threads", "1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_status"] == 2

    def test_mapping_grid_gives_the_config_message(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ns": {"1e-3": 5}}')
        out = str(tmp_path / "x.csv")
        assert main(["illumination", "--config", str(cfg), "--out", out, "--threads", "1"]) == 2
        with pytest.raises(ValueError) as exc:
            SweepConfig(subcommand="illumination", ns={"1e-3": 5})
        assert json.loads(capsys.readouterr().err)["error"] == str(exc.value)

    @pytest.mark.parametrize(
        "flag, env", [("0", None), ("2.5", None), ("x", None), (None, "0"), (None, "many")]
    )
    def test_bad_worker_count_is_usage_error(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv(cli.THREADS_ENV_VAR, env)
        out = tmp_path / "x.csv"
        argv = ["pattern", "--out", str(out)] + (["--threads", flag] if flag else [])
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_status"] == 2
        assert not out.exists()

    def test_unwritable_output_is_runtime_error(self, capsys):
        code = main(["pattern", "--out", "/no_such_dir/out.csv", "--threads", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_status"] == 1

    @pytest.mark.parametrize(
        "exc",
        [
            QuadratureError("quadrature did not reach tolerance", 1.0, 1e-14, 1e-14),
            PhotonTailError("photon-number tail did not close"),
            # numpy's _ArrayMemoryError, raised without allocating anything
            MemoryError("Unable to allocate 1.69 TiB for an array"),
        ],
    )
    def test_library_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "holevo_c2d_bpsk", fail)
        out = tmp_path / "comm.csv"
        code = main(["comm", "--ns", "1e-3", "--m", "10", "--out", str(out), "--threads", "1"])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_status"] == 1
        assert str(exc) in err["error"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "grid, point",
        [
            # opar_optimal_gain is undefined where n_b + kappa n_s <= n_s:
            # here at every point, so the first one is named
            (
                ["--ns", "1e-3,0.5", "--nb", "0"],
                {"index": 0, "ns": 1e-3, "nb": 0.0, "kappa": 1.0, "m": 1},
            ),
            (
                ["--ns", "0.5", "--nb", "1,0"],
                {"index": 1, "ns": 0.5, "nb": 0.0, "kappa": 1.0, "m": 1},
            ),
        ],
    )
    def test_failing_point_is_named(self, tmp_path, capsys, grid, point, threads):
        out = tmp_path / "comm.csv"
        args = ["comm", *grid, "--kappa", "1", "--m", "1", "--out", str(out)]
        assert main([*args, "--threads", threads]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_status"] == 1
        assert "optimal gain undefined" in err["error"]
        assert err["point"] == point
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, index",
        [
            # dolinar_simulate's photon-count rate |alpha|^2 / slices, past
            # numpy's Poisson sampler (an infinite |alpha|^2 is a config error)
            (["receiver-sim", "--alpha", "1,1e10", "--slices", "2", "--trials", "10"], 1),
            # recommended_dim's ceil(inf)
            (["illumination", "--ns", "1e-3,1e300", "--m", "1"], 1),
            # green_machine_optimal_n's (n_b + 1)^2
            (["comm", "--nb", "1e300"], 0),
        ],
    )
    def test_overflowing_point_is_named(self, tmp_path, capsys, argv, index, threads):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out), "--threads", threads]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_status"] == 1
        assert err["point"]["index"] == index
        assert not out.exists()

    def test_run_requires_config_object(self):
        with pytest.raises(TypeError):
            run({"subcommand": "pattern"})


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"ns": [1e-3], "nb": "log:1:100:2", "seed": 7, "quad_tol": 1e-5}
            )
        )
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "illumination",
                "--config",
                str(cfg),
                "--m",
                "200",
                "--seed",
                "8",
                "--out",
                str(out),
                "--threads",
                "1",
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert meta["seed"] == 8  # flag beats file
        assert meta["quad_tol"] == 1e-5  # file value survives
        assert meta["parameters"]["nb"] == [1.0, 100.0]
        assert meta["parameters"]["m"] == [200]

    def test_option_keys_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"which": "4a"}))
        out = tmp_path / "fig.csv"
        assert main(["figures", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[0] == "n_s"
        assert len(rows) == 25


# (subcommand, key, flag text, config-file value, SweepConfig argument): the
# same value given three ways; every setting and option appears once in each
# table
SAME_VALUE = [
    ("illumination", "ns", "1e-3,2e-3", [1e-3, 2e-3], (1e-3, 2e-3)),
    ("illumination", "nb", "log:1:100:3", "log:1:100:3", (1.0, 10.0, 100.0)),
    ("illumination", "kappa", "0.5", [0.5], (0.5,)),
    ("illumination", "m", "1e2,20", [100, 20.0], (100, 20)),
    ("illumination", "seed", "8", 8, 8),
    ("illumination", "quad_tol", "1e-5", 1e-5, 1e-5),
    ("illumination", "out", "x.csv", "x.csv", "x.csv"),
    ("phase", "theta", "0.25", 0.25, 0.25),
    ("pattern", "subchannels", "4", 4, 4),
    ("receiver-sim", "receiver", "kennedy", "kennedy", "kennedy"),
    ("receiver-sim", "alpha", "0.5,1+2j", [[0.5, 0], [1, 2]], "0.5,1+2j"),
    ("receiver-sim", "slices", "1e1", 10.0, 10),
    ("receiver-sim", "trials", "20.0", 20, 20.0),
    ("receiver-sim", "noise_nb", "0.05", 0.05, 0.05),
    ("figures", "which", "4a", "4a", "4a"),
]

# the same, for values every route rejects with one message
BAD_VALUE = [
    ("illumination", "ns", "-1", [-1], (-1.0,)),
    ("illumination", "nb", "inf", [math.inf], (math.inf,)),
    ("illumination", "kappa", "1.5", [1.5], (1.5,)),
    ("illumination", "m", "2.5", [2.5], (2.5,)),
    ("illumination", "seed", "1.0", 1.0, 1.0),
    ("illumination", "quad_tol", "0.5", 0.5, 0.5),
    ("illumination", "out", "", "", ""),
    ("phase", "theta", "nan", math.nan, math.nan),
    ("pattern", "subchannels", "0", 0, 0),
    ("receiver-sim", "receiver", "sad", "sad", "sad"),
    ("receiver-sim", "alpha", "inf", [[math.inf, 0]], "inf"),
    ("receiver-sim", "slices", "inf", math.inf, math.inf),
    ("receiver-sim", "trials", "2.5", 2.5, 2.5),
    ("receiver-sim", "noise_nb", "-0.5", -0.5, -0.5),
    ("figures", "which", "9z", "9z", "9z"),
]


# (subcommand, setting or option, its library input name, a SweepConfig
# argument holding a value that input's rule rejects)
LIBRARY_RULED = [
    ("illumination", "ns", "n_s", [-1.0]),
    ("illumination", "nb", "n_b", [math.inf]),
    ("illumination", "kappa", "kappa", [1.5]),
    ("illumination", "m", "m", [0.5]),
    ("illumination", "quad_tol", "quad_tol", 0.0),
    ("phase", "theta", "theta", math.nan),
    ("pattern", "subchannels", "subchannels", 0),
    ("receiver-sim", "slices", "slices", math.inf),
    ("receiver-sim", "trials", "trials", 2.5),
    ("receiver-sim", "noise_nb", "noise_nb", -0.5),
]


def _three_ways(tmp_path, subcommand, key, text, stored, arg):
    """argv with the value as a flag, argv with it in a config file, and a
    SweepConfig constructor holding it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: stored}))
    flag = [subcommand, "--" + key.replace("_", "-"), text]
    in_file = [subcommand, "--config", str(cfg)]
    if key in cli._SETTINGS:
        kwargs = {cli._SETTINGS[key][0]: arg}
    else:
        kwargs = {"options": {key: arg}}
    return flag, in_file, lambda: SweepConfig(subcommand, **kwargs)


class TestOneCheckPerValue:
    def test_tables_cover_every_setting_and_option(self):
        every = sorted({*cli._SETTINGS, *cli._OPTIONS})
        assert sorted(row[1] for row in SAME_VALUE) == every
        assert sorted(row[1] for row in BAD_VALUE) == every

    @pytest.mark.parametrize("subcommand, key, text, stored, arg", SAME_VALUE)
    def test_flag_file_and_argument_agree(self, tmp_path, subcommand, key, text, stored, arg):
        flag, in_file, direct = _three_ways(tmp_path, subcommand, key, text, stored, arg)
        parser = cli._build_parser()
        from_flag, _ = cli._config_from_args(parser.parse_args([*flag, "--threads", "1"]))
        from_file, _ = cli._config_from_args(parser.parse_args([*in_file, "--threads", "1"]))
        assert from_flag == from_file == direct()

    @pytest.mark.parametrize("subcommand, key, text, stored, arg", BAD_VALUE)
    def test_flag_file_and_argument_reject_alike(
        self, tmp_path, capsys, subcommand, key, text, stored, arg
    ):
        flag, in_file, direct = _three_ways(tmp_path, subcommand, key, text, stored, arg)
        with pytest.raises(ValueError) as exc:
            direct()
        messages = []
        for argv in (flag, in_file):
            assert main([*argv, "--threads", "1"]) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            messages.append(json.loads(lines[0])["error"])
        assert messages == [str(exc.value)] * 2

    @pytest.mark.parametrize("subcommand, key, rule, arg", LIBRARY_RULED)
    def test_library_named_values_take_the_library_message(self, subcommand, key, rule, arg):
        with pytest.raises(ValueError) as library:
            _check_inputs(**{rule: arg[0] if isinstance(arg, list) else arg})
        if key in cli._SETTINGS:
            kwargs = {cli._SETTINGS[key][0]: arg}
        else:
            kwargs = {"options": {key: arg}}
        with pytest.raises(ValueError) as config:
            SweepConfig(subcommand, **kwargs)
        assert str(config.value) == str(library.value)

    @pytest.mark.parametrize("raw", ["1,1e200", [[1.0, 0.0], [0.0, 1e200]]])
    def test_amplitudes_take_the_library_alpha_message(self, raw):
        # 1e200 is finite, its square is not
        with pytest.raises(ValueError) as library:
            _check_inputs(alpha=1e200)
        with pytest.raises(ValueError) as config:
            SweepConfig("receiver-sim", options={"alpha": raw})
        assert str(config.value) == str(library.value)


class TestPhaseSweep:
    def test_columns_match_direct_calls(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = main(
            [
                "phase",
                "--ns",
                "1e-3",
                "--nb",
                "1",
                "--kappa",
                "0.98",
                "--m",
                "1",
                "--out",
                str(out),
                "--threads",
                "1",
            ]
        )
        assert code == 0
        _, rows = read_rows(out)
        ch = ChannelParams(kappa=0.98, theta=math.pi / 2.0, n_b=1.0)
        assert float(rows[0]["qfi_c2d"]) == qfi_c2d(1e-3, ch, 1)
        assert float(rows[0]["qfi_cs"]) == qfi_cs(1e-3, ch, 1)
        # receivers cannot beat the converted-probe information
        assert float(rows[0]["fi_opar"]) <= float(rows[0]["qfi_c2d"]) + 1e-15
        assert float(rows[0]["fi_pcr"]) <= float(rows[0]["qfi_c2d"]) + 1e-15

    def test_theta_flag(self, tmp_path):
        out = tmp_path / "phase2.csv"
        main(["phase", "--theta", "0.3", "--out", str(out), "--threads", "1"])
        _, rows = read_rows(out)
        assert float(rows[0]["theta"]) == 0.3


class TestCommSweep:
    def test_single_point_matches_library(self, tmp_path):
        out = tmp_path / "comm.csv"
        code = main(
            [
                "comm",
                "--ns",
                "1e-3",
                "--nb",
                "100",
                "--kappa",
                "0.01",
                "--m",
                "1000",
                "--out",
                str(out),
                "--threads",
                "1",
            ]
        )
        assert code == 0
        _, rows = read_rows(out)
        ch = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
        np.testing.assert_allclose(
            float(rows[0]["chi_cpsk"]), holevo_c2d_cpsk(1e-3, ch, 1000), rtol=1e-12
        )
        green = green_machine_optimize(1e-3, ch)
        assert int(rows[0]["green_repetitions"]) == green.repetitions
        assert int(rows[0]["green_codeword"]) == green.codeword_len
        assert float(rows[0]["green_rate"]) <= float(rows[0]["chi_cpsk"])
        assert float(rows[0]["i_opar"]) <= float(rows[0]["chi_cpsk"])
        meta = json.loads((tmp_path / "comm.csv.json").read_text())
        assert 0.0 <= meta["achieved_quadrature_tolerance"] <= meta["quad_tol"]


class TestFigurePresets:
    def test_2b_has_advantage_boundary(self, tmp_path):
        out = tmp_path / "f2b.csv"
        assert main(["figures", "--which", "2b", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 400
        advantage = np.array([float(r["advantage"]) for r in rows])
        assert np.any(advantage > 0) and np.any(advantage < 0)

    def test_4a_weak_signal_ceiling(self, tmp_path):
        out = tmp_path / "f4a.csv"
        assert main(["figures", "--which", "4a", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        first = rows[0]
        assert float(first["n_s"]) == pytest.approx(1e-6)
        gap = float(first["ratio_c2d"]) / float(first["ratio_upper"])
        assert gap == pytest.approx(1.0 - 0.01 / 21.0, rel=1e-3)

    def test_4b_grid_straddles_break_even_line(self, tmp_path):
        out = tmp_path / "f4b.csv"
        assert main(["figures", "--which", "4b", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        ratios = np.array([float(r["ratio_c2d_cs"]) for r in rows])
        assert np.all(ratios > 0.0) and np.all(ratios <= 2.0 + 1e-12)
        # the advantage region n_s < n_b/(1-kappa) and its complement both appear
        assert np.any(ratios > 1.0) and np.any(ratios < 1.0)
        ns = np.array([float(r["n_s"]) for r in rows])
        nb = np.array([float(r["n_b"]) for r in rows])
        boundary = nb / (1.0 - 0.01)
        assert np.all((ratios > 1.0) == (ns < boundary))

    @pytest.mark.parametrize(
        "which, axes",
        [
            ("2b", dict.fromkeys(("n_s", "n_b"), np.geomspace(1e-3, 10.0, 20))),
            ("4a", {"n_s": np.geomspace(1e-6, 1.0, 25)}),
        ],
    )
    def test_sidecar_records_preset_axes(self, tmp_path, which, axes):
        # the sidecar names the grid the preset ran, not the unused
        # subcommand defaults
        out = tmp_path / f"f{which}.csv"
        assert main(["figures", "--which", which, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / f"f{which}.csv.json").read_text())
        assert meta["parameters"].keys() == axes.keys()
        _, rows = read_rows(out)
        for name, values in axes.items():
            assert meta["parameters"][name] == values.tolist()
            assert sorted({float(r[name]) for r in rows}) == values.tolist()

    @pytest.mark.parametrize(
        "which, n_tasks, first_column",
        [
            ("2a", 7, "M"),
            ("3a", 25, "n_s"),
            ("5a", 9, "n_s"),
            ("7a", 7, "M"),
            ("7c", 7, "n_s"),
        ],
    )
    def test_heavy_preset_plans(self, which, n_tasks, first_column):
        # plan only: the full runs take seconds to minutes each
        config = SweepConfig(subcommand="figures", options={"which": which})
        columns, tasks = cli._plan(config)
        assert columns[0] == first_column
        assert len(tasks) == n_tasks
        assert [t[1] for t in tasks] == list(range(n_tasks))

    @pytest.mark.parametrize("which", ["2a", "3a", "5a", "7a", "7c"])
    def test_heavy_preset_first_row(self, which):
        # task 0 of each preset the plan test does not run, cell by cell
        # against direct library calls
        config = SweepConfig(subcommand="figures", options={"which": which})
        columns, tasks = cli._plan(config)
        row, achieved = cli._run_task(tasks[0])
        want, want_achieved = _first_preset_row(which, config.quad_tol, config.seed)
        assert len(row) == len(columns) == len(want)
        for column, cell, expected in zip(columns, row, want):
            assert cell == expected, column
        assert achieved == want_achieved

    def test_every_cell_name_resolves(self):
        # a misspelt cell would raise KeyError, which no run catches
        configs = [SweepConfig(name) for name in cli._SWEEPS]
        configs += [SweepConfig("figures", options={"which": w}) for w in cli._PRESETS]
        for config in configs:
            sweep = cli._sweep(config)
            axes = {cli._AXIS_VALUES.get(name, name) for name in sweep.axes(config)}
            known = {*cli._CELLS, *sweep.fixed, *config.options, *axes}
            assert set(sweep.cells) <= known, config

    @pytest.fixture
    def calls(self, monkeypatch):
        """Arguments of each call to the counted cli names, by name."""
        counted = {}
        for module, name in [
            (cli, "lemma1_upper_bound"),
            (cli, "p_c2d"),
            (cli, "p_classical_coherent"),
            (discrimination, "p_classical_coherent"),  # called by the 3a search
        ]:
            def count(*args, _name=name, _fn=getattr(module, name), **kwargs):
                counted.setdefault(_name, []).append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, count)
        return counted

    def test_2a_computes_no_unwritten_cell(self, calls):
        config = SweepConfig(subcommand="figures", options={"which": "2a"})
        cli._run_task(cli._plan(config)[1][0])
        assert "lemma1_upper_bound" not in calls
        assert len(calls["p_c2d"]) == len(calls["p_classical_coherent"]) == 1

    def test_3a_ratio_reuses_its_cells(self, calls):
        # the search's check at m is the row's p_cs_helstrom: one solve there
        ns, ch = 1e-2, ChannelParams(kappa=0.01, theta=0.0, n_b=0.1)
        m, error = discrimination._coherent_mode_count(ns, ch, 0.05)
        calls.clear()
        config = SweepConfig(subcommand="figures", options={"which": "3a"})
        row, _ = cli._run_task(cli._plan(config)[1][0])
        assert row[2] == m and row[4] == error
        assert [args[2] for args in calls["p_c2d"]] == [m]
        assert [args[2] for args in calls["p_classical_coherent"]].count(m) == 1


def _first_preset_row(which, tol, seed):
    """Row 0 of a figures preset and its achieved quadrature tolerance,
    from the library calls behind each column."""
    if which in ("2a", "7a"):
        ns, m, ch = 1e-3, 100_000, ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
        value, achieved = p_c2d(ns, ch, m, tol, with_achieved=True)
        if which == "2a":
            return [m, value, nair_gu_bound(ns, ch, m), p_classical_coherent(ns, ch, m)], achieved
        # the Dolinar rates at the row's own streams: 2 * index and 1000 + 16 * index + rep
        params = conversion_params(ns, ch)
        amps = sample_scaled_chi2(m, params.xi, RngStream(seed, 0).generator(), size=8)
        cfg = DolinarConfig(slices=100, trials=2_000, noise_nb=params.e_noise)
        rates = np.array(
            [
                dolinar_simulate(math.sqrt(x), cfg, RngStream(seed, 1_000 + rep))[0]
                for rep, x in enumerate(amps)
            ]
        )
        dolinar = [float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(8))]
        homodyne = pe_homodyne(math.sqrt(0.01 * m * ns / 41.0))
        return [m, value, *dolinar, pcr_pe(ns, ch, m), opar_pe(ns, ch, m), homodyne], achieved
    if which == "3a":
        ns, ch = 1e-2, ChannelParams(kappa=0.01, theta=0.0, n_b=0.1)
        m, error = discrimination._coherent_mode_count(ns, ch, 0.05)
        benchmark = p_classical_coherent(ns, ch, m)
        assert error == benchmark <= 0.05 < p_classical_coherent(ns, ch, m - 1)
        value, achieved = p_c2d(ns, ch, m, tol, with_achieved=True)
        return [ns, 0.1, m, value, benchmark, value / benchmark], achieved
    ns, ch = 1e-4, ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
    capacities = [ns, capacity_classical(ns, ch), capacity_ea(ns, ch)]
    chi_10k, achieved = holevo_c2d_cpsk(ns, ch, 10_000, tol, with_achieved=True)
    if which == "5a":
        chi_1, achieved_1 = holevo_c2d_cpsk(ns, ch, 1, tol, with_achieved=True)
        return [*capacities, chi_1, chi_10k], max(achieved_1, achieved)
    rates = [
        shannon_photon_counting(*pmfs(ns, ch, 1_000, (0.0, math.pi))) / 1_000
        for pmfs in (opar_photon_pmfs, pcr_count_pmfs)
    ]
    return [*capacities, chi_10k, *green_machine_optimize(ns, ch, tol), *rates], achieved


class TestModeCountBisection:
    def test_level_is_bracketed(self):
        ch = ChannelParams(kappa=0.01, theta=0.0, n_b=1.0)
        m_star, error = discrimination._coherent_mode_count(0.1, ch, 0.05)
        assert p_classical_coherent(0.1, ch, m_star) == error <= 0.05
        assert p_classical_coherent(0.1, ch, m_star - 1) > 0.05

    def test_trivial_level(self, solves):
        ch = ChannelParams(kappa=0.5, theta=0.0, n_b=0.1)
        assert discrimination._coherent_mode_count(0.5, ch, 0.5) == (1, None)
        assert solves == []

    def test_one_mode_returns_its_check(self, solves):
        # P(a1) <= level already: the m = 1 shortcut, one solve
        ch = ChannelParams(kappa=0.5, theta=0.0, n_b=0.1)
        want = p_classical_coherent(100.0, ch, 1)
        solves.clear()
        assert discrimination._coherent_mode_count(100.0, ch, 0.05) == (1, want)
        assert len(solves) == 1

    @pytest.fixture
    def solves(self, monkeypatch):
        """Arguments of every coherent-state Helstrom solve, counted at the
        private solver behind both the search and ``p_classical_coherent``."""
        calls = []
        solve = discrimination._coherent_helstrom_error

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(discrimination, "_coherent_helstrom_error", counted)
        discrimination._coherent_threshold.cache_clear()
        return calls

    @pytest.mark.parametrize(
        "nb, ns", [(0.1, 1e-2), (0.1, 1.0), (10.0, 1e-2), (10.0, 1.0), (1.0, 0.1)]
    )
    def test_bracket_matches_doubling_bisection(self, solves, ns, nb):
        # the corners of preset 3a and one interior point
        ch = ChannelParams(kappa=0.01, theta=0.0, n_b=nb)
        want = _doubling_bisection(ns, ch, 0.05)
        solves.clear()
        assert discrimination._coherent_mode_count(ns, ch, 0.05)[0] == want
        assert len(solves) <= 12

    def test_3a_searches_each_background_once(self, solves):
        # 25 rows over 5 backgrounds: one threshold search per background,
        # then each row's checks at its m and m - 1 (201 solves unshared)
        config = SweepConfig(subcommand="figures", options={"which": "3a"})
        for task in cli._plan(config)[1]:
            cli._run_task(task)
        assert len(solves) <= 90

    def test_no_target_is_unreachable_at_once(self, solves):
        ch = ChannelParams(kappa=0.0, theta=0.0, n_b=1.0)
        with pytest.raises(ValueError, match="unreachable"):
            discrimination._coherent_mode_count(0.1, ch, 0.05)
        assert solves == []


def _doubling_bisection(ns, ch, level):
    """Smallest m with p_classical_coherent <= level, by doubling m from 1
    and then bisecting: the search the closed-form bracket replaced."""
    lo, hi = 0, 1
    while p_classical_coherent(ns, ch, hi) > level:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if p_classical_coherent(ns, ch, mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


def subprocess_env():
    """This environment, with the imported entsense package on PYTHONPATH,
    so a child interpreter runs the code under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _csv_bytes_at_blas_threads(tmp_path, argv):
    """CSV bytes of ``entsense *argv`` at one worker, run in a child at
    ``OPENBLAS_NUM_THREADS`` 1 and 2."""
    outputs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entsense.cli", *argv, "--out", str(out), "--threads", "1"],
            capture_output=True,
            text=True,
            env=dict(subprocess_env(), OPENBLAS_NUM_THREADS=blas),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    return outputs


class TestSubprocessEntry:
    def test_import_loads_neither_scipy_stats_nor_mpmath(self):
        # scipy.stats costs about 45 MB resident and 0.8 s to import; every
        # CLI worker and benchmark run would pay it.  scipy.optimize loads
        # only when the 3a mode-count search first runs.
        code = (
            "import sys\n"
            "import entsense.cli, entsense.communication, entsense.discrimination\n"
            "unwanted = ('scipy.stats', 'mpmath', 'scipy.optimize')\n"
            "print(sorted(m for m in unwanted if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "entsense.cli",
                "pattern",
                "--nb",
                "1e4",
                "--ns",
                "1e-4",
                "--out",
                str(out),
                "--threads",
                "1",
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and (tmp_path / "sub.csv.json").exists()

    def test_preset_2a_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # P_H_CS solves on the band, which calls no threaded BLAS; P_c2d's
        # stacked eigensolves give the same bytes at one and two threads
        blas1, blas2 = _csv_bytes_at_blas_threads(tmp_path, ["figures", "--which", "2a"])
        assert blas1 == blas2

    def test_comm_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # chi_bpsk's parity-block eigensolves at cutoff 172
        argv = ["comm", "--ns", "1e-3", "--nb", "0.1", "--kappa", "1", "--m", "100000"]
        blas1, blas2 = _csv_bytes_at_blas_threads(tmp_path, argv)
        assert blas1 == blas2

    def test_usage_error_returncode(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "entsense.cli", "illumination", "--kappa", "2"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip().splitlines()[-1])
        assert "kappa" in payload["error"]
