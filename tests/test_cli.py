"""Tests for cli.py — subcommands, exit codes, CSV outputs."""
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import wastefactor
from wastefactor import sweeps, transceiver
from wastefactor.cli import EXIT_EVAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from wastefactor.scenario_io import (
    _KINDS,
    _SECTIONS,
    PRESET_DIR_ENV,
    ScenarioParseError,
    parse_quantity,
    serialize_scenario,
)
from wastefactor.sweeps import CURVE_CSV_HEADER
from wastefactor.transceiver import mmwave_28

try:
    import numpy
except ImportError:
    numpy = None

# The one skip condition of this module: a case that runs netsim or reads its
# names needs numpy; every other case runs without it.
_NEEDS_NUMPY = pytest.mark.skipif(numpy is None, reason="netsim needs numpy")


def _netsim_case(*values):
    """A parametrize row that runs netsim."""
    return pytest.param(*values, marks=_NEEDS_NUMPY)


_GOLDEN = Path(__file__).parent / "golden"
_SRC = Path(wastefactor.__file__).resolve().parents[1]

# Runs `main(argv)` in a fresh interpreter where any numpy import fails.
_WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from wastefactor.cli import main
sys.exit(main(sys.argv[1:]))
"""

_DEMO_CHAIN = """\
passive mixer loss=6dB
amp pa gain=30dB eta=0.28
antenna dish gain=45.17dBi
channel pl=101.4dB
antenna horn gain=15.17dBi
lna front gain=20dB fom=24.83 count=8
"""

# test_transceiver._FAULTS's two walk faults as overrides: only the whole
# chain's gain product underflows to 0, or the products both ways do.
_GAIN_UNDERFLOW = ["--set", "band.pa_gain=-2400dB", "--set", "band.mixer_loss=500dB"]
_DOWNSTREAM_UNDERFLOW = [
    "--set", "band.pa_gain=-3000dB", "--set", "band.mixer_loss=60dB", "--set", "link.distance=1e45m"
]
# test_transceiver._FAULTS's source-overflow fault: the losses ahead of the
# PA make the source power inf.
_SOURCE_OVERFLOW = ["--set", "band.mixer_loss=2000dB", "--set", "band.phase_shifter_loss=2000dB"]
_SOURCE_OVERFLOW_TEXT = (
    ", mixer loss 2000 dB, phase-shifter loss 2000 dB and PA gain 30 dB"
    " give a source power of inf W, which is not finite"
)

# One netsim drop at the 14 cells of 150 m, and the counts its bounds name.
_NETSIM_150 = ["netsim", "--radius", "150", "--drops", "1", "--set"]
_NETSIM_150_SCALE = "14 cells x 1 drops of up to 6 sectors and 15 UEs"
# A LoS exponent and base-station aperture whose power control puts a
# main-lobe link at 1 m past what a float holds.
_PEAK_OVERFLOW = ["network.ple_los=145.2", "--set", "bs.aperture=1e4 m2"]
_PEAK_OVERFLOW_TEXT = (
    "a main-lobe link at 1 m from the EIRP 3157.95 dBm that holds the 20 dB target SNR at the"
    " 150 m cell edge receives 3111.73 dBm at SNR 3179.68 dB, too large to express in watts or"
    " as a ratio: LoS exponent 145.2, noise -67.9546 dBm, UE gain 29.1492 dB, base-station"
    " gain 102.16 dB"
)

# The netsim golden stdout files and the netsim argv each was recorded from.
_NETSIM_GOLDEN_ARGV = {
    "netsim": ["--radius", "20", "--radius", "65", "--drops", "2"],
    "netsim-wrap": [
        "--radius", "20", "--radius", "35", "--radius", "65", "--drops", "2", "--wraparound"
    ],
}

# Runs `main(argv)` in a fresh interpreter, after checking that numpy runs
# none of the SIMD targets that NPY_DISABLE_CPU_FEATURES names.
_WITHOUT_DISPATCHED_FEATURES = """\
import os
import sys
try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath
features = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
if any(_multiarray_umath.__cpu_features__[name] for name in features):
    sys.exit(f"numpy still runs one of {features}")
from wastefactor.cli import main
sys.exit(main(sys.argv[1:]))
"""

# Golden stdout files and the argv each was recorded from, run in a
# directory that holds demo.chain (_DEMO_CHAIN).
_GOLDEN_ARGV = {
    "link": ["link"],
    "table1": ["table1"],
    "sweep-bw": ["sweep-bw", "--points", "8"],
    "sweep-pa": ["sweep-pa", "--points", "8", "--target-cef", "1"],
    # the transmit power solved for the SNR target at each point
    "sweep-bw-snr": ["sweep-bw", "--points", "8", "--snr", "20"],
    "sweep-pa-snr": ["sweep-pa", "--points", "8", "--snr", "20"],
    "chain": ["chain", "demo.chain"],
}


def _run(argv):
    stream = io.StringIO()
    code = main(argv, stdout=stream)
    return code, stream.getvalue()


def _python(script, *argv, cwd=None, env=None):
    """`python -W error -c script argv...` in a fresh interpreter that finds
    this package's source, with the variables env adds to its environment."""
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *argv],
        cwd=cwd,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True,
        encoding="utf-8",
    )


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()}
        for name in ("link", "table1", "sweep-bw", "sweep-pa", "netsim", "chain"):
            assert name in listed

    def test_missing_scenario_file(self, capsys):
        assert main(["link", "--scenario", "/no/such/file.scenario"]) == EXIT_PARSE
        assert "wastefactor:" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["link", "--preset", "nosuch"]) == EXIT_PARSE
        capsys.readouterr()

    def test_bad_override(self, capsys):
        assert main(["link", "--set", "band.frequenzy=1 GHz"]) == EXIT_PARSE
        assert "override" in capsys.readouterr().err

    def test_network_scenario_rejected_by_link(self, tmp_path, capsys):
        path = tmp_path / "net.scenario"
        path.write_text("[network]\ncell_radius = 65 m\n", encoding="utf-8")
        assert main(["link", "--scenario", str(path)]) == EXIT_PARSE
        capsys.readouterr()

    def test_bad_chain_file(self, tmp_path, capsys):
        path = tmp_path / "bad.chain"
        path.write_text("resistor r value=50\n", encoding="utf-8")
        assert main(["chain", str(path)]) == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_evaluation_failure(self, tmp_path, capsys):
        # parses, but 4000 dBm overflows the watts conversion
        assert main(["link", "--set", "link.tx_power=4000 dBm"]) == EXIT_EVAL
        err = capsys.readouterr().err
        assert "evaluation failed" in err
        assert "4000" in err
        # a finite SNR target whose transmit power overflows names the target
        assert main(["sweep-bw", "--snr", "1e308"]) == EXIT_EVAL
        assert "SNR target 1e+308 dB" in capsys.readouterr().err
        # a bandwidth grid whose top point overflows to inf names the band
        assert main(["sweep-bw", "--hi-ghz", "1e308"]) == EXIT_EVAL
        assert capsys.readouterr().err == (
            "wastefactor: evaluation failed: subthz-140: bandwidth inf Hz must be positive and finite\n"
        )
        # a path loss too large for a ratio names the distance
        assert main(["link", "--set", "link.distance=1e300 m"]) == EXIT_EVAL
        assert "over 1e+300 m" in capsys.readouterr().err
        # a transmit power that underflows to 0 W names the transmit power
        assert main(["link", "--set", "link.tx_power=-5000 dBm"]) == EXIT_EVAL
        assert "transmit power -5000 dBm" in capsys.readouterr().err
        # a carrier whose wavelength squared underflows or overflows names it
        assert main(["link", "--set", "band.frequency=1e200 GHz"]) == EXIT_EVAL
        assert "frequency 1e+209 Hz" in capsys.readouterr().err
        assert main(["link", "--set", "band.frequency=1e-300 GHz"]) == EXIT_EVAL
        assert "frequency 1e-291 Hz" in capsys.readouterr().err
        # a chain source power that underflows to 0 W names the dBm value
        chain = tmp_path / "demo.chain"
        chain.write_text(_DEMO_CHAIN, encoding="utf-8")
        assert main(["chain", str(chain), "--source-dbm=-1e308"]) == EXIT_EVAL
        assert "source power -1e+308 dBm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep-bw", "--points", "1"], "--points"),
            (["sweep-pa", "--points", "1"], "--points"),
            (["sweep-bw", "--lo-ghz", "5", "--hi-ghz", "1"], "--lo-ghz"),
            (["sweep-bw", "--hi-ghz", "inf"], "--hi-ghz"),
            (["sweep-pa", "--lo", "0"], "--lo"),
            (["sweep-pa", "--hi", "1.5"], "--hi"),
            (["sweep-pa", "--lo", "0.5", "--hi", "0.4"], "--lo"),
            (["netsim", "--radius", "10"], "--radius"),
            (["netsim", "--drops", "0"], "--drops"),
            (["netsim", "--seed", "-1"], "--seed"),
            (["netsim", "--threads", "4"], "--threads"),
            (["sweep-bw", "--snr", "nan"], "--snr"),
            (["sweep-pa", "--snr", "inf"], "--snr"),
            (["sweep-pa", "--target-cef", "nan"], "--target-cef"),
            (["sweep-pa", "--target-cef", "0"], "--target-cef"),
            (["sweep-pa", "--target-cef", "-1"], "--target-cef"),
            (["chain", "demo.chain", "--source-dbm", "nan"], "--source-dbm"),
            (["chain", "demo.chain", "--source-dbm", "inf"], "--source-dbm"),
            (["chain", "demo.chain", "--source-dbm=-inf"], "--source-dbm"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, argv, flag, capsys):
        assert main(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["chain", "demo.chain", "--preset", "mmwave-28"], "--preset"),
            (["chain", "demo.chain", "--set", "band.bandwidth=1 GHz"], "--set"),
            (["chain", "demo.chain", "--scenario", "x.scenario"], "--scenario"),
            (["chain", "demo.chain", "--seed", "1"], "--seed"),
            (["link", "--seed", "1"], "--seed"),
            (["table1", "--seed", "1"], "--seed"),
            (["sweep-bw", "--seed", "1"], "--seed"),
            (["sweep-pa", "--seed", "1"], "--seed"),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, flag, capsys):
        assert main(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["link", "table1", "sweep-bw", "sweep-pa", "netsim"])
    def test_preset_beside_scenario_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "sub.scenario"
        path.write_text("[band]\npreset = subthz-140\n", encoding="utf-8")
        assert main([command, "--scenario", str(path), "--preset", "mmwave-28"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--preset" in err and "--scenario" in err

    @pytest.mark.parametrize(
        "command, preset",
        [
            ("link", "mmwave-28"),
            ("table1", "both"),
            ("sweep-bw", "subthz-140"),
            ("sweep-pa", "subthz-140"),
            ("netsim", "subthz-140"),
        ],
    )
    def test_default_preset_beside_scenario_is_usage_error(
        self, command, preset, tmp_path, capsys
    ):
        # the command's own default preset, named, still counts as given
        path = tmp_path / "sub.scenario"
        path.write_text("[band]\npreset = subthz-140\n", encoding="utf-8")
        assert main([command, "--scenario", str(path), "--preset", preset]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--preset" in err and "--scenario" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["link", "--preset", ""],
            ["table1", "--preset", ""],
            ["sweep-bw", "--points", "2", "--preset", ""],
            ["sweep-bw", "--points", "2", "--reference-preset", ""],
            ["sweep-pa", "--points", "2", "--preset", ""],
            _netsim_case(["netsim", "--radius", "500", "--drops", "1", "--preset", ""]),
        ],
        ids=["link", "table1", "sweep-bw", "sweep-bw-reference", "sweep-pa", "netsim"],
    )
    def test_empty_preset_is_an_unknown_preset(self, argv, capsys):
        # an empty name does not fall back to the command's default preset
        assert _run(argv) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == "wastefactor: unknown preset '' and no .scenario found\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-pa", "--points", "4", "--snr", "{}"],
            ["sweep-bw", "--points", "4", "--snr", "{}"],
        ],
        ids=["sweep-pa", "sweep-bw"],
    )
    def test_negative_flag_value_in_exponent_form(self, argv):
        code, out = _run([a.format("-1e1") for a in argv])
        assert code == EXIT_OK
        assert (code, out) == _run([a.format("-10") for a in argv])

    def test_negative_source_dbm_in_exponent_form(self, tmp_path, capsys):
        chain = tmp_path / "demo.chain"
        chain.write_text(_DEMO_CHAIN, encoding="utf-8")
        assert main(["chain", str(chain), "--source-dbm", "-1e308"]) == EXIT_EVAL
        assert "source power -1e+308 dBm" in capsys.readouterr().err
        code, out = _run(["chain", str(chain), "--source-dbm", "-1e1"])
        assert code == EXIT_OK
        assert "source -10 dBm" in out

    @pytest.mark.parametrize(
        "argv, file, message",
        [
            _netsim_case(
                ["netsim", "--set", "network.seed=1e309"],
                None,
                "override 1: seed must be an integer, got '1e309'",
            ),
            (
                ["link", "--set", "ue.elements=-1e309"],
                None,
                "override 1: elements must be an integer, got '-1e309'",
            ),
            (
                ["link", "--scenario", "{}"],
                "[ue]\nelements = 1e999\n",
                "line 2: elements must be an integer, got '1e999'",
            ),
            (
                ["chain", "{}"],
                "amp pa gain=30dB eta=0.28\nlna front gain=20dB fom=24.83 count=1e309\n",
                "line 2: count must be an integer, got '1e309'",
            ),
        ],
        ids=["set-seed", "set-elements", "scenario-file", "chain-file"],
    )
    def test_overflowing_integer_is_parse_error(self, argv, file, message, tmp_path, capsys):
        path = tmp_path / "input"
        if file is not None:
            path.write_text(file, encoding="utf-8")
        assert main([a.format(path) for a in argv]) == EXIT_PARSE
        assert capsys.readouterr().err == f"wastefactor: {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("amp a gain=-1e9dB eta=0.5", "line 1: a: gain must be positive, got 0.0"),
            ("antenna a gain=-1.4e9dBi", "line 1: a: gain must be positive and finite, got 0.0"),
        ],
        ids=["amp", "antenna"],
    )
    def test_underflowing_chain_gain_is_parse_error(self, line, message, tmp_path, capsys):
        path = tmp_path / "under.chain"
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["chain", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"wastefactor: {message}\n"

    @pytest.mark.parametrize(
        "lines, label",
        [
            # the waste-factor walk would divide by a downstream gain of 0
            (["passive x loss=2000dB"] * 3, "x"),
            # only the whole chain's gain reaches 0, after the component table
            (["passive x loss=2000dB"] * 2 + ["passive pad loss=1dB"], "x"),
            # source to sink the product recovers; sink back it reaches 0 at b
            (["amp a gain=3000dB eta=0.5", "passive b loss=3000dB", "passive c loss=3000dB"], "b"),
        ],
        ids=["walk", "total", "downstream"],
    )
    def test_underflowing_gain_product_names_the_component(self, lines, label, tmp_path, capsys):
        path = tmp_path / "under.chain"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = _run(["chain", str(path)])
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == (
            f"wastefactor: evaluation failed: the gain product underflows to 0"
            f" at component {label!r}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            # only the whole chain's gain reaches 0, at the receive mixer
            (["link", *_GAIN_UNDERFLOW], "the gain product underflows to 0 at component 'mixer'"),
            (["sweep-bw", "--points", "4", *_GAIN_UNDERFLOW],
             "SNR target 20 dB: the gain product underflows to 0 at component 'mixer'"),
            (["sweep-pa", "--points", "4", *_GAIN_UNDERFLOW],
             "the gain product underflows to 0 at component 'mixer'"),
            # the products reach 0 both ways; source to sink, at the channel
            (["link", *_DOWNSTREAM_UNDERFLOW],
             "the gain product underflows to 0 at component 'channel'"),
            (["sweep-pa", "--points", "4", *_DOWNSTREAM_UNDERFLOW],
             "the gain product underflows to 0 at component 'channel'"),
        ],
        ids=["link-total", "sweep-bw-total", "sweep-pa-total", "link-both", "sweep-pa-both"],
    )
    def test_underflowing_link_gain_product_names_the_component(self, argv, message, capsys):
        code, out = _run(argv)
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == f"wastefactor: evaluation failed: {message}\n"

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["link", "--set", "band.bandwidth=1e999 Hz"], "bandwidth"),
            _netsim_case(
                ["netsim", "--radius", "20", "--drops", "1", "--set", "network.target_snr=1e999 dB"],
                "target SNR",
            ),
            (["link", "--set", "band.lo_power=1e999 dBm"], "LO power"),
            (["link", "--set", "ue.screen_power=1e999 W"], "screen power"),
            (["link", "--set", "band.converter_power_per_ghz=1e999 W"], "converter power"),
            (["link", "--set", "band.pa_gain=1e999 dB"], "PA gain"),
        ],
        ids=["bandwidth", "target-snr", "lo-power", "screen-power", "converter-power", "pa-gain"],
    )
    def test_overflowing_value_is_parse_error(self, argv, field, capsys):
        # 1e999 reads as inf: the scenario check names the field instead of
        # printing nan or inf, or failing later on a derived value
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and "finite" in captured.err

    @pytest.mark.parametrize(
        "setting, field",
        [
            ("link.distance=1e999 m", "distance"),
            ("link.tx_power=1e999 dBm", "transmit power"),
            ("link.ple_los=1e999", "LoS path-loss exponent inf"),
            ("link.ple_nlos=1e999", "NLoS path-loss exponent inf"),
            ("band.pa_gain=-4000 dB", "PA gain -4000.0 dB"),
            ("band.pa_gain=4000 dB", "PA gain 4000.0 dB"),
            ("band.mixer_loss=4000 dB", "mixer loss 4000.0 dB"),
            ("band.phase_shifter_loss=4000 dB", "phase-shifter loss 4000.0 dB"),
            ("band.lna_gain=4000 dB", "LNA gain 4000.0 dB"),
            ("band.lna_gain=-4000 dB", "LNA gain -4000.0 dB"),
            ("band.lo_power=4000 dBm", "LO power 4000.0 dBm"),
        ],
    )
    def test_value_out_of_float_range_is_parse_error(self, setting, field, capsys):
        # [link] values that overflow to inf, and band dB values whose linear
        # ratio or wattage overflows or underflows, fail the scenario check
        # naming the field instead of failing evaluation on a derived value
        assert main(["link", "--set", setting]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and "finite" in captured.err

    @_NEEDS_NUMPY
    def test_area_without_cells_is_parse_error(self, capsys):
        assert main(["netsim", "--set", "network.area=1m2"]) == EXIT_PARSE
        assert "area 1.0 m2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the default sweep's 500 m radius holds no cell
            (["netsim", "--drops", "1", "--set", "network.area=1e5m2"],
             "area 100000.0 m2 holds no cell of radius 500.0 m"),
            # the overrides apply at the first run radius, 20 m
            (["netsim", "--drops", "1", "--set", "network.area=200 km2"],
             "override 1: invalid [network] values: area 200000000.0 m2 at cell radius 20.0 m holds"
             " up to 193331 cells of 15 UEs; a layout holds at most 131072 cells and"
             " 2097152 UEs"),
            # a file read at its own 20 m, run at 65 m
            (["netsim", "--drops", "1", "--radius", "20", "--radius", "65", "--scenario", "{}"],
             "area 3000.0 m2 holds no cell of radius 65.0 m"),
        ],
        ids=["last-radius", "first-radius", "file"],
    )
    @_NEEDS_NUMPY
    def test_run_radius_that_fails_is_parse_error(self, argv, message, tmp_path, capsys):
        path = tmp_path / "small.scenario"
        path.write_text("[network]\ncell_radius = 20 m\narea = 3000 m2\n", encoding="utf-8")
        assert _run([a.format(path) for a in argv]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"wastefactor: {message}\n"

    @pytest.mark.parametrize(
        "argv, cells",
        [
            # 3000 m2 holds no cell of the preset's own 65 m, but 3 of 20 m
            (["netsim", "--radius", "20", "--drops", "1", "--set", "network.area=3000m2"],
             ["20", "3"]),
            # a file read at its own 20 m and 3000 m2 is moved to 65 m only
            # together with the area override that makes it fit
            (["netsim", "--radius", "65", "--drops", "1", "--scenario", "{}",
              "--set", "network.area=1km2"], ["65", "85"]),
        ],
        ids=["preset", "file"],
    )
    @_NEEDS_NUMPY
    def test_overrides_apply_at_the_run_radius(self, argv, cells, tmp_path, capsys):
        path = tmp_path / "small.scenario"
        path.write_text("[network]\ncell_radius = 20 m\narea = 3000 m2\n", encoding="utf-8")
        code, out = _run([a.format(path) for a in argv])
        assert (code, out.splitlines()[1].split(",")[:2]) == (EXIT_OK, cells)
        assert capsys.readouterr().err == ""

    @_NEEDS_NUMPY
    def test_reach_past_the_pair_bound_places_no_lattice(self, monkeypatch, capsys):
        from wastefactor import netsim

        def no_layout(*args):
            raise AssertionError("a lattice was placed")

        monkeypatch.setattr(netsim, "hex_layout", no_layout)
        argv = ["netsim", "--radius", "20", "--drops", "1",
                "--set", "network.area=100 km2", "--set", "network.interferer_reach=1e9"]
        assert _run(argv) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == (
            "wastefactor: override 1: invalid [network] values: interferer reach 1000000000.0"
            " radii over area 100000000.0 m2 at cell radius 20.0 m gives up to 9.37945e+09 (cell,"
            " interferer) pairs; a layout holds at most 16777216\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["link"],
            ["sweep-pa", "--points", "2"],
            _netsim_case(["netsim", "--radius", "65", "--drops", "1"]),
        ],
        ids=["link", "sweep-pa", "netsim"],
    )
    def test_bandwidth_whose_noise_underflows_is_parse_error(self, argv, capsys):
        # k*T0*B underflows to 0 W: the band check names the field and value
        # instead of the noise conversion failing on 0 W
        assert main(argv + ["--set", "band.bandwidth=1e-320 Hz"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid [band] values" in captured.err
        assert "bandwidth 1e-320 Hz is too small" in captured.err

    @pytest.mark.parametrize("snr", [[], ["--snr", "10"]], ids=["fixed-power", "snr-10"])
    def test_sweep_point_whose_noise_underflows_names_the_band(self, snr, capsys):
        argv = ["sweep-bw", "--points", "2", "--lo-ghz", "1e-320", "--hi-ghz", "1e-319"]
        assert main(argv + snr) == EXIT_EVAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wastefactor: evaluation failed: subthz-140: bandwidth {1e-320 * 1e9!r} Hz"
            " is too small: its noise power underflows to 0 W\n"
        )


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["link", *_SOURCE_OVERFLOW], "transmit power 0 dBm" + _SOURCE_OVERFLOW_TEXT),
            # under an SNR target the solved transmit power is the one named
            (["sweep-bw", "--points", "4", "--snr", "20", *_SOURCE_OVERFLOW],
             "SNR target 20 dB: transmit power -36.9035 dBm" + _SOURCE_OVERFLOW_TEXT),
            # (count - 1) / eta for 1 W radiated overflows the PA bank's draw
            (["link", "--set", "ue.elements=1e308"],
             "pa-bank: non-path power must be finite and >= 0 W, got inf W"),
        ],
        ids=["source-link", "source-sweep-bw-snr", "pa-bank"],
    )
    def test_overflowing_transmit_chain_names_the_values(self, argv, message, capsys):
        code, out = _run(argv)
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == f"wastefactor: evaluation failed: {message}\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # -300 dBm is 1e-33 W; the PA gain takes the source power to 0 W
            (["band.pa_gain=3000dB", "link.tx_power=-300dBm"],
             "transmit power -300 dBm, mixer loss 6 dB, phase-shifter loss 10 dB and PA gain"
             " 3000 dB give a source power of 0.0 W, which is not positive"),
            # the transmit power itself is 0 W
            (["link.tx_power=-5000dBm"], "transmit power -5000 dBm is too small to express in watts"),
        ],
        ids=["pa-gain", "tx-power"],
    )
    def test_underflowing_source_power_names_the_values(self, overrides, message, capsys):
        argv = ["link"]
        for override in overrides:
            argv += ["--set", override]
        code, out = _run(argv)
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == f"wastefactor: evaluation failed: {message}\n"

    def test_chain_whose_waste_factor_overflows_names_the_component(self, tmp_path, capsys):
        # 1e-10 W times a gain of about 1e-323 underflows to 0 W, and the
        # waste factor, the first loss over a downstream gain of 1e-23,
        # overflows to inf at a: their product would print as nan
        path = tmp_path / "nan.chain"
        path.write_text(
            "passive a loss=3000dB\npassive b loss=80dB\namp c gain=-150dB eta=1\n",
            encoding="utf-8",
        )
        code, out = _run(["chain", str(path), "--source-dbm", "-70"])
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == (
            "wastefactor: evaluation failed: the waste factor overflows at component 'a'\n"
        )

    def test_bandwidth_whose_snr_overflows_names_the_value(self, capsys):
        # k*T0*B stays above 0 W, but the SNR over it overflows a ratio: the
        # rate names the SNR and the bandwidth
        assert main(["link", "--set", "band.bandwidth=1e-300 Hz"]) == EXIT_EVAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wastefactor: evaluation failed: SNR 3122.9262563933644 dB over 1e-300 Hz"
            " is too large to express as a ratio\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["link"], ["table1"], ["sweep-bw", "--points", "2"], ["sweep-pa", "--points", "2"]],
        ids=["link", "table1", "sweep-bw", "sweep-pa"],
    )
    def test_carrier_whose_free_space_ratio_underflows_names_the_value(self, argv, capsys):
        # 4 pi d f / c underflows to 0 before the log of the free-space loss
        assert main(argv + ["--set", "band.frequency=1e-320 Hz"]) == EXIT_EVAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wastefactor: evaluation failed: free-space path loss over 1.0 m"
            " at frequency 1e-320 Hz is out of range\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["link", "--set", "link.ple_los=1e308"],
             "path loss over 100 m at frequency 2.8e+10 Hz with exponent 1e+308 is not finite"),
            # the power-control EIRP would be inf and every row nan
            _netsim_case(
                ["netsim", "--radius", "20", "--drops", "1", "--set", "network.ple_los=1e308"],
                "path loss over 20 m at frequency 1.4e+11 Hz with exponent 1e+308 is not finite",
            ),
            # checked before the first drop at the farthest interferer, 8 + 1 radii
            _netsim_case(
                ["netsim", "--radius", "20", "--drops", "1", "--set", "network.ple_nlos=1e308"],
                "path loss over 180 m at frequency 1.4e+11 Hz with exponent 1e+308 is not finite",
            ),
            # a cell-edge NLoS signal of 0 W would make the mean SINR -inf
            _netsim_case(
                ["netsim", "--radius", "100", "--drops", "1", "--set", "network.ple_nlos=1e300"],
                "the NLoS signal at the 100 m cell edge with exponent 1e+300 underflows to 0 W",
            ),
            # a finite path loss whose power-control transmit power overflows
            _netsim_case(
                ["netsim", "--radius", "150", "--drops", "1", "--set", "network.ple_los=1e30"],
                "the transmit power 2.17609e+31 dBm that holds the 20 dB target SNR at the"
                " 150 m cell edge is too large to express in watts: LoS exponent 1e+30,"
                " noise -67.9546 dBm, UE gain 29.1492 dB, base-station gain 59.1492 dB",
            ),
        ],
        ids=[
            "link", "netsim", "netsim-nlos-overflow", "netsim-nlos-underflow",
            "netsim-power-overflow",
        ],
    )
    def test_path_loss_that_overflows_names_the_exponent(self, argv, message, capsys):
        # as under `python -W error`: a NumPy warning before the check fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run(argv)
        assert (code, out) == (EXIT_EVAL, "")
        assert "nan" not in out
        assert capsys.readouterr().err == f"wastefactor: evaluation failed: {message}\n"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # B log2(1 + SNR) of the mmwave-28 reference is inf
            (["sweep-bw", "--points", "4", "--set", "band.bandwidth=1e308 Hz"], EXIT_EVAL,
             "evaluation failed: SNR target 20 dB: rate over 1e+308 Hz at SNR 20.0 dB"
             " is too large to express in b/s"),
            (["link", "--set", "bs.cooling_overhead=1e308"], EXIT_EVAL,
             "evaluation failed: consumed power is not finite: the receiving base-station"
             " draws inf W with cooling overhead 1e+308, screen power 0 W and converters"
             " 2.5e-10 W/Hz x 4e+08 Hz"),
            # mmwave-28's draws stay finite; both of subthz-140's are inf
            (["table1", "--set", "band.converter_power_per_ghz=1e308 W"], EXIT_EVAL,
             "evaluation failed: consumed power is not finite: the transmitting"
             " user-equipment draws inf W with cooling overhead 0, screen power 0.5 W and"
             " converters 1e+299 W/Hz x 4e+09 Hz and the receiving base-station draws inf W"
             " with cooling overhead 0.2, screen power 0 W and converters 1e+299 W/Hz x 4e+09 Hz"),
            # each draw is finite, only their sum overflows
            (["link", "--set", "bs.cooling_overhead=1e307", "--set", "ue.cooling_overhead=1e307",
              "--set", "bs.screen_power=10 W", "--set", "ue.screen_power=10 W"], EXIT_EVAL,
             "evaluation failed: consumed power is not finite: the transmitting"
             " user-equipment draws 1.01386e+308 W with cooling overhead 1e+307, screen power"
             " 10 W and converters 2.5e-10 W/Hz x 4e+08 Hz and the receiving base-station"
             " draws 1.42341e+308 W with cooling overhead 1e+307, screen power 10 W and"
             " converters 2.5e-10 W/Hz x 4e+08 Hz"),
            # rejected as the scenario is built, so no drop allocates anything
            _netsim_case(
                ["netsim", "--radius", "20", "--drops", "1", "--set", "network.ues_per_cell=1e8"],
                EXIT_PARSE,
                "override 1: invalid [network] values: UEs per cell must be at most 1000,"
                " got 100000000",
            ),
            # netsim bounds each draw and its sums before the first drop: a
            # base station's draw is inf
            _netsim_case(
                _NETSIM_150 + ["bs.screen_power=1e308 W"], EXIT_EVAL,
                f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
                " transmitting base-station draws inf W with cooling overhead 0.2, screen power"
                " 1e+308 W and converters 1e-11 W/Hz x 4e+09 Hz",
            ),
            _netsim_case(
                _NETSIM_150 + ["bs.cooling_overhead=1e308"], EXIT_EVAL,
                f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
                " transmitting base-station draws inf W with cooling overhead 1e+308, screen power"
                " 0 W and converters 1e-11 W/Hz x 4e+09 Hz",
            ),
            # the sector power is inf as a Python float
            _netsim_case(
                _NETSIM_150 + ["band.converter_power_per_ghz=1e308 W"], EXIT_EVAL,
                f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
                " transmitting base-station draws inf W with cooling overhead 0.2, screen power"
                " 0 W and converters 1e+299 W/Hz x 4e+09 Hz and the receiving user-equipment"
                " draws inf W with cooling overhead 0, screen power 0.5 W and converters"
                " 1e+299 W/Hz x 4e+09 Hz",
            ),
            # each UE draw is finite, a cell's sum is not
            _netsim_case(
                _NETSIM_150 + ["ue.screen_power=1e308 W"], EXIT_EVAL,
                f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
                " transmitting base-station draws 3.59488 W with cooling overhead 0.2, screen"
                " power 0 W and converters 1e-11 W/Hz x 4e+09 Hz and the receiving user-equipment"
                " draws 1e+308 W with cooling overhead 0, screen power 1e+308 W and converters"
                " 1e-11 W/Hz x 4e+09 Hz",
            ),
            # each cell's sum is finite, the drop's is not
            _netsim_case(
                _NETSIM_150 + ["ue.screen_power=1e306 W"], EXIT_EVAL,
                f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
                " transmitting base-station draws 3.59488 W with cooling overhead 0.2, screen"
                " power 0 W and converters 1e-11 W/Hz x 4e+09 Hz and the receiving user-equipment"
                " draws 1e+306 W with cooling overhead 0, screen power 1e+306 W and converters"
                " 1e-11 W/Hz x 4e+09 Hz",
            ),
            # one UE's rate at the 1 m path-loss floor is inf
            _netsim_case(
                _NETSIM_150 + ["band.bandwidth=1e308 Hz"], EXIT_EVAL,
                "evaluation failed: rate over 1e+308 Hz at SNR 63.5218251811134 dB is too large"
                " to express in b/s",
            ),
            # one UE's rate is finite, the sum over sectors, cells and drops is not
            _netsim_case(
                _NETSIM_150 + ["band.bandwidth=1e306 Hz"], EXIT_EVAL,
                f"evaluation failed: {_NETSIM_150_SCALE}: the summed rate over 1e+306 Hz at SNR"
                " up to 63.5218251811134 dB is too large to express in b/s",
            ),
            _netsim_case(
                _NETSIM_150 + ["network.sidelobe=-1e308 dB"], EXIT_EVAL,
                "evaluation failed: interference from 13 interferers of up to 1e+308 dBm each,"
                " sidelobe level -1e+308 dB, is too large to express in watts",
            ),
            # the solved transmit power overflows the watts conversion: the
            # SNR target's inputs are named
            (["sweep-bw", "--points", "4", "--set", "bs.aperture=1e-320 m2"], EXIT_EVAL,
             "evaluation failed: SNR target 20 dB: the transmit power 3160.09 dBm that holds it"
             " is too large to express in watts: bandwidth 1e+08 Hz, noise figure 10 dB, path"
             " loss 115.37 dB, transmit gain -3137.84 dB, receive gain 29.1492 dB"),
            # the transmit power converts, but a main-lobe link at 1 m does not;
            # with interference the sidelobe level is not the cause either
            _netsim_case(
                _NETSIM_150 + _PEAK_OVERFLOW + ["--no-interference"], EXIT_EVAL,
                f"evaluation failed: {_PEAK_OVERFLOW_TEXT}",
            ),
            _netsim_case(
                _NETSIM_150 + _PEAK_OVERFLOW, EXIT_EVAL, f"evaluation failed: {_PEAK_OVERFLOW_TEXT}"
            ),
            # rejected as the scenario is built, at the first run radius, from
            # an estimate of the cell count: no lattice is placed
            _netsim_case(
                ["netsim", "--radius", "150", "--drops", "2", "--set", "network.area=1e308m2"],
                EXIT_PARSE,
                "override 1: invalid [network] values: area 1e+308 m2 at cell radius 150.0 m holds"
                " up to 1.71067e+303 cells of 15 UEs; a layout holds at most 131072 cells and"
                " 2097152 UEs",
            ),
            # every log2(1 + SINR) is 0, so the CEF would be 0
            _netsim_case(
                ["netsim", "--radius", "150", "--drops", "2", "--set", "network.target_snr=-3000dB"],
                EXIT_EVAL,
                "evaluation failed: the rate at cell radius 150 m is 0 b/s: mean SINR -3008.48 dB"
                " at target SNR -3000 dB, sidelobe level 20 dB",
            ),
            _netsim_case(
                ["netsim", "--radius", "150", "--drops", "2", "--set", "network.sidelobe=-3070dB"],
                EXIT_EVAL,
                "evaluation failed: the rate at cell radius 150 m is 0 b/s: mean SINR -3054.19 dB"
                " at target SNR 20 dB, sidelobe level -3070 dB",
            ),
            # a range too narrow for its points rounds two of them to one
            # value; the grid is named before any point is evaluated
            (["sweep-pa", "--lo", "0.5", "--hi", "0.5000000000000001", "--points", "3"],
             EXIT_EVAL,
             "evaluation failed: a 3-point pa_efficiency grid from 0.5 to 0.5000000000000001"
             " (fraction) repeats a value: the range is too narrow for that many points"),
            (["sweep-bw", "--lo-ghz", "1", "--hi-ghz", "1.0000000000000002", "--points", "5"],
             EXIT_EVAL,
             f"evaluation failed: a 5-point bandwidth grid from {1e9!r} to"
             f" {1.0000000000000002 * 1e9!r} (Hz) repeats a value: the range is too narrow"
             " for that many points"),
            # both ends are finite, but hi / lo overflows, so every point
            # past the first would be inf
            (["sweep-bw", "--lo-ghz", "1e-150", "--hi-ghz", "1e160", "--points", "4"],
             EXIT_EVAL,
             f"evaluation failed: a 4-point bandwidth grid from {1e-150 * 1e9!r} to"
             f" {1e160 * 1e9!r} (Hz) spaces a point that is not finite: the range is too wide"),
            # the upper end itself is inf in Hz: the band names the point
            (["sweep-bw", "--hi-ghz", "1e308", "--points", "4"], EXIT_EVAL,
             "evaluation failed: subthz-140: bandwidth inf Hz must be positive and finite"),
        ],
        ids=[
            "rate", "consumed-link", "consumed-table1", "consumed-sum", "ues-per-cell",
            "netsim-bs-screen", "netsim-bs-cooling", "netsim-converters", "netsim-ue-screen",
            "netsim-ue-screen-drop-sum", "netsim-bandwidth", "netsim-bandwidth-sum",
            "netsim-sidelobe", "snr-target-power", "netsim-peak", "netsim-peak-interference",
            "netsim-area", "netsim-zero-rate-snr", "netsim-zero-rate-sidelobe",
            "sweep-pa-grid", "sweep-bw-grid", "sweep-bw-grid-overflow", "sweep-bw-hi-inf",
        ],
    )
    def test_value_that_overflows_is_named(self, argv, code, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(argv) == (code, "")
        assert capsys.readouterr().err == f"wastefactor: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # log2(1 + SNR) is 0 at an SNR of about -2963 dB
            (["link", "--set", "link.tx_power=-3000 dBm"],
             "the rate is 0 b/s at SNR -2963.1 dB: bandwidth 4e+08 Hz, transmit power"
             " -3000 dBm, path loss 101.391 dB, transmit gain 15.1698 dB, receive gain"
             " 45.1698 dB, noise figure 10 dB"),
            # the first cell, mmwave-28's LoS uplink, has a path loss of 2061 dB
            (["table1", "--set", "link.ple_los=100"],
             "the rate is 0 b/s at SNR -1923.1 dB: bandwidth 4e+08 Hz, transmit power"
             " 0 dBm, path loss 2061.39 dB, transmit gain 15.1698 dB, receive gain"
             " 45.1698 dB, noise figure 10 dB"),
            # the solved transmit power holds the target, whose rate is 0
            (["sweep-bw", "--points", "3", "--snr", "-3000"],
             "SNR target -3000 dB: the rate is 0 b/s at SNR -3000 dB: bandwidth 1e+08 Hz,"
             " transmit power -3056.9 dBm, path loss 115.37 dB, transmit gain 59.1492 dB,"
             " receive gain 29.1492 dB, noise figure 10 dB"),
            # about 1e-288 b/s over the 1e302 W an LNA bank of figure of merit
            # 1e-300 draws
            (["link", "--set", "band.bandwidth=1e-300 GHz", "--set", "band.lna_fom=1e-300"],
             "the CEF 0 b/J is too small to express: rate 1.00752e-288 b/s over consumed"
             " power 1.2288e+302 W"),
        ],
        ids=["link", "table1", "sweep-bw-snr", "cef-underflow"],
    )
    def test_zero_rate_or_cef_is_named(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(argv) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == f"wastefactor: evaluation failed: {message}\n"

    @pytest.mark.parametrize(
        "args, row",
        [
            # each bound of the set-up step is finite: power_w is 2.1e307
            (["ue.screen_power=1e305 W"],
             "150,14,5.908279914e-305,1240.738782,2.1e+307,9.921822184,0.3952380952,0"),
            (["network.sidelobe=-10 dB"],
             "150,14,2.603725882,887.3580638,340.8031812,2.865402053,0.3952380952,0"),
            # every LoS decay past d1 is 0; d / d2 would overflow
            (["network.los_d2=1e-320 m"],
             "150,14,2.286075255,779.1005424,340.8026664,4.56535166,0.1333333333,0"),
            # the sidelobe interference constant underflows to 0 W
            (["network.sidelobe=1e308 dB"],
             "150,14,3.676279769,1252.887841,340.8031812,10.17181532,0.3952380952,0"),
            # no cell has interferers, so neither constant is formed
            (["network.sidelobe=-1e308 dB", "--no-interference"],
             "150,14,3.837067911,1307.684951,340.8031812,10.99189959,0.3952380952,0"),
        ],
        ids=["ue-screen", "sidelobe", "los-d2", "sidelobe-underflow", "sidelobe-no-interference"],
    )
    @_NEEDS_NUMPY
    def test_netsim_value_near_a_bound_runs_without_warning(self, args, row, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run(_NETSIM_150 + args)
        assert (code, out.splitlines()[1]) == (EXIT_OK, row)
        assert capsys.readouterr().err == ""


class TestLinkCommand:
    def test_default_preset_report(self):
        code, out = _run(["link"])
        assert code == EXIT_OK
        assert "mmwave-28 uplink los at 100 m" in out
        assert "waste figure" in out
        assert "52.554" in out

    def test_override_changes_output(self):
        _, base = _run(["link"])
        code, out = _run(["link", "--set", "link.environment=nlos"])
        assert code == EXIT_OK
        assert out != base
        assert "nlos" in out

    def test_csv_out(self, tmp_path):
        path = tmp_path / "link.csv"
        code, _ = _run(["link", "--out", str(path)])
        assert code == EXIT_OK
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("waste_figure_db,cascade_gain_db,")
        values = lines[1].split(",")
        assert len(values) == len(lines[0].split(","))
        assert float(values[0]) == pytest.approx(52.5537, abs=1e-3)


class TestTableCommand:
    def test_eight_cells_and_received_power(self, tmp_path):
        path = tmp_path / "table.csv"
        code, out = _run(["table1", "--out", str(path)])
        assert code == EXIT_OK
        assert "mmwave-28 UL LoS" in out
        assert "waste figure" in out
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8
        received = {
            (r["band"], r["direction"], r["environment"]): float(r["p_received_dbw"])
            for r in rows
        }
        assert received[("mmwave-28", "uplink", "los")] == pytest.approx(-71.1, abs=0.2)
        assert received[("mmwave-28", "uplink", "nlos")] == pytest.approx(-95.1, abs=0.2)
        assert received[("subthz-140", "downlink", "los")] == pytest.approx(-57.1, abs=0.2)
        assert received[("subthz-140", "downlink", "nlos")] == pytest.approx(-81.1, abs=0.2)
        # received power depends on environment and band, not direction
        for band in ("mmwave-28", "subthz-140"):
            for env in ("los", "nlos"):
                assert received[(band, "uplink", env)] == received[(band, "downlink", env)]

    def test_explicit_both_presets(self, tmp_path):
        path = tmp_path / "both.csv"
        code, out = _run(["table1", "--preset", "both", "--out", str(path)])
        assert code == EXIT_OK
        assert "subthz-140 DL NLoS" in out
        assert len(path.read_text(encoding="utf-8").splitlines()) == 9

    def test_single_preset_table(self, tmp_path):
        path = tmp_path / "one.csv"
        code, _ = _run(["table1", "--preset", "subthz-140", "--out", str(path)])
        assert code == EXIT_OK
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert all(line.startswith("subthz-140") for line in lines[1:])


class TestSweepCommands:
    def test_bandwidth_sweep_csv(self, tmp_path):
        path = tmp_path / "bw.csv"
        code, out = _run(["sweep-bw", "--points", "16", "--out", str(path)])
        assert code == EXIT_OK
        assert "reference mmwave-28 downlink" in out
        assert "crossover:" in out
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CURVE_CSV_HEADER
        assert lines[-1].startswith("# crossover bandwidth_hz=")
        assert len(lines) == 18  # header + 16 samples + crossover comment
        for line in lines[1:-1]:
            assert line.split(",")[6] in ("true", "false")

    def test_uplink_crossover_location(self, tmp_path):
        path = tmp_path / "ul.csv"
        code, _ = _run(["sweep-bw", "--direction", "ul", "--points", "32", "--out", str(path)])
        assert code == EXIT_OK
        comment = path.read_text(encoding="utf-8").splitlines()[-1]
        bandwidth_hz = float(comment.split("bandwidth_hz=")[1].split()[0])
        assert 2.0e9 <= bandwidth_hz <= 5.0e9

    def test_pa_sweep_with_target(self, tmp_path):
        path = tmp_path / "pa.csv"
        code, out = _run(
            ["sweep-pa", "--points", "8", "--target-cef", "0.7088", "--out", str(path)]
        )
        assert code == EXIT_OK
        assert "matching efficiency: 0.06" in out
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CURVE_CSV_HEADER
        assert lines[-1].startswith("# matching_efficiency=")

    @pytest.mark.parametrize(
        "argv, summary, last",
        [
            # no grid point reaches the reference: no crossover comment
            (["sweep-bw", "--points", "4", "--hi-ghz", "0.2"],
             "crossover: none within the swept range", "200000000,Hz,"),
            # the first grid point reaches it, so nothing is bisected
            (["sweep-bw", "--points", "4", "--lo-ghz", "5", "--hi-ghz", "10"],
             "crossover: subthz-140 downlink matches the reference at 5 GHz",
             "# crossover bandwidth_hz=5000000000 cef_gbpj=18.14874784"
             " reference_cef_gbpj=3.083396307"),
            (["sweep-pa", "--points", "4", "--target-cef", "1000"],
             "matching efficiency: target unreachable at eta <= 1", "0.6,fraction,"),
        ],
        ids=["no-crossover", "crossover-at-first-point", "unreachable-efficiency"],
    )
    def test_search_ending_at_the_grid(self, argv, summary, last):
        code, out = _run(argv)
        lines = out.splitlines()
        assert code == EXIT_OK
        assert summary in lines
        assert lines[-1].startswith(last)

    def test_pa_sweep_without_target(self):
        code, out = _run(["sweep-pa", "--points", "4"])
        assert code == EXIT_OK
        assert "matching efficiency" not in out


@_NEEDS_NUMPY
class TestNetsimCommand:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = ["netsim", "--radius", "65", "--drops", "2", "--seed", "1"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)], stdout=io.StringIO()) == EXIT_OK
        assert main(args + ["--out", str(second)], stdout=io.StringIO()) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_csv_schema_and_summary(self, tmp_path):
        from wastefactor.netsim import NETSIM_CSV_HEADER

        path = tmp_path / "net.csv"
        code, out = _run(
            ["netsim", "--radius", "35", "--radius", "65", "--drops", "2", "--out", str(path)]
        )
        assert code == EXIT_OK
        assert out.startswith("best radius")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == NETSIM_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "35"

    def test_no_interference_raises_efficiency(self, tmp_path):
        base = ["netsim", "--radius", "65", "--drops", "2"]
        on = tmp_path / "on.csv"
        off = tmp_path / "off.csv"
        main(base + ["--out", str(on)], stdout=io.StringIO())
        main(base + ["--no-interference", "--out", str(off)], stdout=io.StringIO())
        cef_on = float(on.read_text(encoding="utf-8").splitlines()[1].split(",")[2])
        cef_off = float(off.read_text(encoding="utf-8").splitlines()[1].split(",")[2])
        assert cef_off > cef_on

    def test_run_flags_set_their_scenario_fields(self):
        base = ["netsim", "--radius", "150"]
        flags = _run(base + ["--seed", "3", "--drops", "1", "--wraparound", "--no-interference"])
        spelled = _run(base + [
            "--set", "network.seed=3", "--set", "network.drops=1",
            "--set", "network.wraparound=on", "--set", "network.interference=off",
        ])
        assert flags[0] == EXIT_OK
        assert flags == spelled

    def test_run_flag_wins_over_set(self):
        base = ["netsim", "--radius", "150"]
        assert _run(base + ["--set", "network.drops=3", "--drops", "1"]) == _run(
            base + ["--drops", "1"]
        )
        assert _run(base + ["--set", "network.drops=3"]) != _run(base + ["--drops", "1"])
        # the value a flag replaces is still checked
        assert _run(base + ["--set", "network.drops=0", "--drops", "1"]) == (EXIT_PARSE, "")


class TestChainCommand:
    def test_report_and_csv(self, tmp_path):
        chain_path = tmp_path / "demo.chain"
        chain_path.write_text(_DEMO_CHAIN, encoding="utf-8")
        out_path = tmp_path / "chain.csv"
        code, out = _run(["chain", str(chain_path), "--out", str(out_path)])
        assert code == EXIT_OK
        assert "6 components" in out
        assert "cascade gain:" in out
        assert "waste factor:" in out
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "label,gain_db,waste_factor"
        assert len(lines) == 7

    def test_source_power_scales_delivery(self, tmp_path):
        chain_path = tmp_path / "pad.chain"
        chain_path.write_text("passive pad loss=3dB\n", encoding="utf-8")
        code, out = _run(["chain", str(chain_path), "--source-dbm", "30"])
        assert code == EXIT_OK
        assert "delivered power: 0.501187 W" in out

    @pytest.mark.parametrize(
        "lines, source_dbm, message",
        [
            # 1e300 x 1e300 is inf at b
            (["amp a gain=3000dB eta=1", "amp b gain=3000dB eta=1"], "0",
             "the gain product overflows at component 'b'"),
            # a's loss over b's gain of 1e-10 is inf
            (["passive a loss=3000dB", "passive b loss=100dB"], "0",
             "the waste factor overflows at component 'a'"),
            # W and G are finite; 1e297 W x 1e20 is not
            (["amp a gain=200dB eta=1"], "3000",
             "the delivered power is too large to express in watts: source power 3000 dBm,"
             " cascade gain 200 dB"),
            # the delivered power is finite; times W = 1e300 it is not
            (["amp a gain=3000dB eta=1", "passive b loss=3000dB"], "3000",
             "the consumed power is too large to express in watts: source power 3000 dBm,"
             " cascade gain 0 dB"),
        ],
        ids=["gain", "waste", "delivered", "consumed"],
    )
    def test_overflow_is_named(self, lines, source_dbm, message, tmp_path, capsys):
        path = tmp_path / "over.chain"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run(["chain", str(path), "--source-dbm", source_dbm])
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == f"wastefactor: evaluation failed: {message}\n"


class TestGoldenOutput:
    """Byte-for-byte reports for the default presets, recorded in tests/golden."""

    @pytest.mark.parametrize("command", list(_GOLDEN_ARGV))
    def test_stdout_matches_golden(self, command, tmp_path, monkeypatch):
        (tmp_path / "demo.chain").write_text(_DEMO_CHAIN, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out = _run(_GOLDEN_ARGV[command])
        assert code == EXIT_OK
        assert out == (_GOLDEN / f"{command}.txt").read_text(encoding="utf-8")

    def test_chain_matches_golden(self, tmp_path):
        chain = tmp_path / "demo.chain"
        chain.write_text(_DEMO_CHAIN, encoding="utf-8")
        path = tmp_path / "chain.csv"
        code, out = _run(["chain", str(chain), "--out", str(path)])
        assert code == EXIT_OK
        assert out == (_GOLDEN / "chain.txt").read_text(encoding="utf-8")
        assert path.read_bytes() == (_GOLDEN / "chain.csv").read_bytes()

    def test_link_csv_matches_golden(self, tmp_path):
        path = tmp_path / "link.csv"
        code, _ = _run(["link", "--out", str(path)])
        assert code == EXIT_OK
        assert path.read_bytes() == (_GOLDEN / "link.csv").read_bytes()

    def test_table1_csv_matches_golden(self, tmp_path):
        path = tmp_path / "table1.csv"
        code, out = _run(["table1", "--out", str(path)])
        assert code == EXIT_OK
        text, csv_text = (_GOLDEN / "table1.txt").read_text(encoding="utf-8").split("\n\n")
        assert out == text + "\n"
        assert path.read_text(encoding="utf-8") == csv_text

    @pytest.mark.parametrize("name, argv", list(_NETSIM_GOLDEN_ARGV.items()))
    @_NEEDS_NUMPY
    def test_netsim_matches_golden(self, name, argv):
        code, out = _run(["netsim", *argv])
        assert code == EXIT_OK
        assert out == (_GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name, argv", list(_NETSIM_GOLDEN_ARGV.items()))
    @_NEEDS_NUMPY
    def test_netsim_matches_golden_without_dispatched_simd(self, name, argv):
        # The printed text is the determinism contract; raw floats may move
        # in the last bits where numpy picks a loop by CPU feature (exp and
        # power among them).  So the goldens must hold with every dispatched
        # target that this CPU has turned off.  A name outside the dispatch
        # list makes `import numpy` warn, which -W error turns into a failure.
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath
        features = [
            feature for feature in _multiarray_umath.__cpu_dispatch__
            if _multiarray_umath.__cpu_features__.get(feature)
        ]
        if not features:
            pytest.skip("numpy dispatches to no SIMD target on this CPU, so no second loop exists")
        proc = _python(
            _WITHOUT_DISPATCHED_FEATURES, "netsim", *argv,
            env={"NPY_DISABLE_CPU_FEATURES": " ".join(features)},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == (_GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# The contract's extremes, as override text: zero of both signs, a negative,
# the subnormal and near-underflow range, the near-overflow range, dB values
# past what a ratio or a wattage holds, and two words no quantity reads.
_EXTREMES = (
    "0", "-0", "-1", "5e-324", "1e-320", "1e-300", "1e-30", "1e30", "1e300",
    "1e308", "-1e308", "3000", "-3000", "nan", "inf",
)


def _quantity_keys(*sections):
    """Every key of the sections that takes a quantity, with its _KINDS entry
    (an integer reads as a bare number)."""
    return [
        (f"{section}.{key}", _KINDS["bare" if kind == "int" else kind])
        for section in sections
        for key, (kind, _) in _SECTIONS[section][0].items()
        if kind == "int" or kind in _KINDS
    ]


_QUANTITY_KEYS = _quantity_keys("band", "bs", "ue", "link")
_NETWORK_KEYS = _quantity_keys("network")
# The [network] keys that scale a run's work take only the extremes up to
# 1e-30 and a few small numbers, so that a run stays short; the bounds on
# layout size have tests of their own.
_WORK_KEYS = {f"network.{key}" for key in ("ues_per_cell", "drops", "area", "interferer_reach")}
_SMALL = tuple(v for v in _EXTREMES if not float(v) > 1e-30) + ("0.5", "1", "2", "3")


@st.composite
def _overrides(draw, keys=_QUANTITY_KEYS):
    """One or two `--set` overrides, each a key with a unit of its kind (None
    for a bare number) and one of the extremes (a small value for a key
    that scales work)."""
    argv = []
    for _ in range(draw(st.integers(1, 2))):
        name, (_, written, read_only, _) = draw(st.sampled_from(keys))
        unit = draw(st.sampled_from([unit for unit, _ in written + read_only]))
        value = draw(st.sampled_from(_SMALL if name in _WORK_KEYS else _EXTREMES))
        argv += ["--set", f"{name}={value}" if unit is None else f"{name}={value} {unit}"]
    return argv


def _override_values(argv):
    """Each `--set` value of argv as given, and the repr of what
    parse_quantity reads it as, where it reads."""
    for flag, item in zip(argv, argv[1:]):
        if flag != "--set":
            continue
        head, _, text = item.partition("=")
        section, _, key = head.partition(".")
        yield text
        try:
            yield repr(parse_quantity(1, text, _SECTIONS[section][0][key][0]))
        except ScenarioParseError:
            pass


_SNRS = st.sampled_from((-3000.0, -30.0, 0.0, 20.0, 70.0, 3000.0)) | st.floats(-100.0, 100.0)
_COMMANDS = st.one_of(
    st.just(["link"]),
    st.just(["table1"]),
    _SNRS.map(lambda snr: ["sweep-bw", "--points", "3", "--snr", repr(snr)]),
    st.just(["sweep-pa", "--points", "3"]),
    st.builds(
        lambda snr, cef: ["sweep-pa", "--points", "3", "--snr", repr(snr), "--target-cef", repr(cef)],
        _SNRS,
        st.sampled_from((1e-300, 1e-9, 1.0, 1e9, 1e300)),
    ),
)


def _csv_faults(text):
    """Each number of a CSV written by --out that is not finite, and each
    CEF that is not positive; `# key=value` lines are read too."""
    faults = []
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    pairs = [
        (column, value) for row in rows[1:] for column, value in zip(rows[0], row)
    ] + [
        tuple(word.split("=", 1))
        for line in text.splitlines() if line.startswith("#")
        for word in line.split() if "=" in word
    ]
    for column, value in pairs:
        try:
            number = float(value)
        except ValueError:
            continue
        if not math.isfinite(number) or (column.endswith("cef_gbpj") and not number > 0.0):
            faults.append(f"{column}={value}")
    return faults


class TestContract:
    """Every accepted input gives a finite answer or a named failure: each
    command, on one or two overrides of extreme values, exits 0 with a CSV
    of finite numbers and positive CEFs, or exits 1-3 with empty stdout and
    one line on stderr, with warnings as errors."""

    @staticmethod
    def _check(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            out = os.path.join(scratch, "out.csv")
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([*argv, "--out", out], stdout=stdout)
            if code == EXIT_OK:
                with open(out, encoding="utf-8") as handle:
                    assert _csv_faults(handle.read()) == []
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_EVAL)
        if code != EXIT_OK:
            assert stdout.getvalue() == ""
            lines = stderr.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("wastefactor: "), lines
            assert lines[0].endswith("\n")
        if code == EXIT_PARSE:
            assert any(named in lines[0] for named in _override_values(argv)), lines

    @given(_COMMANDS, _overrides())
    @example(["link"], ["--set", "link.tx_power=-3000 dBm"])
    @example(["table1"], ["--set", "link.ple_los=100"])
    @example(["table1"], ["--set", "bs.aperture=1e-300 cm2"])
    @example(["sweep-pa", "--points", "3"], ["--set", "bs.aperture=1e-300 cm2"])
    @settings(max_examples=300, deadline=None)
    def test_finite_answer_or_named_failure(self, command, overrides):
        """The link-level commands over the [band], [bs], [ue] and [link] keys."""
        self._check([*command, *overrides])

    @_NEEDS_NUMPY
    @given(_overrides(_NETWORK_KEYS))
    @example(["--set", "network.area=1e-30 km2"])
    @example(["--set", "network.target_snr=-3000 dB"])
    @example(["--set", "network.sidelobe=-1e308 dB"])
    @settings(max_examples=300, deadline=None)
    def test_netsim_finite_answer_or_named_failure(self, overrides):
        """netsim at one radius and one drop over the [network] keys, where
        ues_per_cell, drops, area and interferer_reach take small values only."""
        self._check(["netsim", "--radius", "150", "--drops", "1", *overrides])


class TestWithoutNumpy:
    """Link-level commands and the package import never load numpy."""

    @pytest.mark.parametrize("command", list(_GOLDEN_ARGV))
    def test_link_level_command_runs_with_numpy_blocked(self, command, tmp_path):
        (tmp_path / "demo.chain").write_text(_DEMO_CHAIN, encoding="utf-8")
        proc = _python(_WITHOUT_NUMPY, *_GOLDEN_ARGV[command], cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == (_GOLDEN / f"{command}.txt").read_text(encoding="utf-8")

    def test_link_level_names_resolve_without_loading_numpy(self):
        # every public name but netsim's, through the package __getattr__
        script = (
            "import sys\n"
            "import wastefactor\n"
            "for name in wastefactor.__all__:\n"
            "    if wastefactor._LAZY_NAMES.get(name) != 'netsim':\n"
            "        getattr(wastefactor, name)\n"
            "print(sorted({'wastefactor.netsim', 'numpy'} & set(sys.modules)))\n"
        )
        proc = _python(script)
        assert proc.stdout == "[]\n", proc.stderr

    @_NEEDS_NUMPY
    def test_network_scenario_is_one_class(self):
        from wastefactor import netsim

        assert wastefactor.NetworkScenario is netsim.NetworkScenario
        assert netsim.NetworkScenario is transceiver.NetworkScenario

    @_NEEDS_NUMPY
    def test_lazy_names_are_sweeps_and_netsim_all(self):
        from wastefactor import netsim

        # the package keeps each list, so that importing it loads neither
        # module, and each module's __all__ is built from it
        lazy = wastefactor._LAZY_NAMES
        assert {n for n, m in lazy.items() if m == "sweeps"} == set(sweeps.__all__)
        assert {n for n, m in lazy.items() if m == "netsim"} == (
            set(netsim.__all__) - set(transceiver.__all__)
        )
        assert set(lazy.values()) == {"sweeps", "netsim"}

    @pytest.mark.parametrize(
        "argv",
        [["link"], ["table1"], ["chain", "demo.chain"]],
        ids=["link", "table1", "chain"],
    )
    def test_command_that_sweeps_nothing_loads_neither_sweeps_nor_numpy(self, argv, tmp_path):
        (tmp_path / "demo.chain").write_text(_DEMO_CHAIN, encoding="utf-8")
        script = (
            "import io, sys\n"
            "from wastefactor.cli import main\n"
            "code = main(sys.argv[1:], stdout=io.StringIO())\n"
            "print(code, sorted({'wastefactor.sweeps', 'numpy'} & set(sys.modules)))\n"
        )
        proc = _python(script, *argv, cwd=tmp_path)
        assert proc.stdout == f"{EXIT_OK} []\n", proc.stderr

    def test_lazy_module_resolves_as_an_attribute(self):
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import wastefactor\n"
            "assert 'wastefactor.sweeps' not in sys.modules\n"
            "assert {'sweeps', 'netsim'} <= set(dir(wastefactor))\n"
            "print(wastefactor.sweeps.sweep is wastefactor.sweep)\n"
        )
        proc = _python(script)
        assert proc.stdout == "True\n", proc.stderr

    @_NEEDS_NUMPY
    def test_lazy_netsim_resolves_as_an_attribute(self):
        # the module itself, before any of its names, through __getattr__
        script = (
            "import sys\n"
            "import wastefactor\n"
            "assert 'wastefactor.netsim' not in sys.modules\n"
            "print(wastefactor.netsim.sweep_radius is wastefactor.sweep_radius)\n"
        )
        proc = _python(script)
        assert proc.stdout == "True\n", proc.stderr

    @_NEEDS_NUMPY
    def test_every_public_name_resolves(self):
        for name in wastefactor.__all__:
            getattr(wastefactor, name)
        assert set(wastefactor.__all__) <= set(dir(wastefactor))

    @_NEEDS_NUMPY
    def test_star_import_binds_netsim_names(self):
        from wastefactor import netsim

        namespace: dict = {}
        exec("from wastefactor import *", namespace)
        assert namespace["sweep_radius"] is netsim.sweep_radius
        assert namespace["DEFAULT_RADII"] is netsim.DEFAULT_RADII

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            wastefactor.no_such_name


class TestPresetDirectory:
    def test_env_dir_preset_via_cli(self, tmp_path, monkeypatch):
        from dataclasses import replace

        custom = replace(mmwave_28(), distance_m=50.0)
        (tmp_path / "bench.scenario").write_text(
            serialize_scenario(custom), encoding="utf-8"
        )
        monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
        code, out = _run(["link", "--preset", "bench"])
        assert code == EXIT_OK
        assert "at 50 m" in out
