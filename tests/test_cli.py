"""Tests for cli.py — subcommands, exit codes, CSV outputs."""
import csv
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wastefactor
from wastefactor import netsim, sweeps, transceiver
from wastefactor.cli import EXIT_EVAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from wastefactor.scenario_io import PRESET_DIR_ENV, serialize_scenario
from wastefactor.sweeps import CURVE_CSV_HEADER
from wastefactor.netsim import NETSIM_CSV_HEADER
from wastefactor.transceiver import mmwave_28

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

# Golden stdout files and the argv each was recorded from.
_GOLDEN_ARGV = {
    "link": ["link"],
    "table1": ["table1"],
    "sweep-bw": ["sweep-bw", "--points", "8"],
    "sweep-pa": ["sweep-pa", "--points", "8", "--target-cef", "1"],
    # the transmit power solved for the SNR target at each point
    "sweep-bw-snr": ["sweep-bw", "--points", "8", "--snr", "20"],
    "sweep-pa-snr": ["sweep-pa", "--points", "8", "--snr", "20"],
}


def _run(argv):
    stream = io.StringIO()
    code = main(argv, stdout=stream)
    return code, stream.getvalue()


def _python(script, *argv, cwd=None):
    """`python -c script argv...` in a fresh interpreter that finds this
    package's source."""
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
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
            "wastefactor: evaluation failed: subthz-140: bandwidth must be positive and finite\n"
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
            ["netsim", "--radius", "500", "--drops", "1", "--preset", ""],
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
            (
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
            (["netsim", "--radius", "20", "--drops", "1", "--set", "network.target_snr=1e999 dB"],
             "target SNR"),
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
            ("link.ple_los=1e999", "path-loss exponents"),
            ("link.ple_nlos=1e999", "path-loss exponents"),
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

    def test_area_without_cells_is_parse_error(self, capsys):
        assert main(["netsim", "--set", "network.area=1m2"]) == EXIT_PARSE
        assert "area 1 m2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["link"],
            ["sweep-pa", "--points", "2"],
            ["netsim", "--radius", "65", "--drops", "1"],
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

    def test_chain_whose_consumed_power_is_no_number_names_the_source(self, tmp_path, capsys):
        # 1e-10 W times a gain of about 1e-323 underflows to 0 W, and the
        # waste factor, the first loss over a downstream gain of 1e-23,
        # overflows to inf: their product would print as nan
        path = tmp_path / "nan.chain"
        path.write_text(
            "passive a loss=3000dB\npassive b loss=80dB\namp c gain=-150dB eta=1\n",
            encoding="utf-8",
        )
        code, out = _run(["chain", str(path), "--source-dbm", "-70"])
        assert (code, out) == (EXIT_EVAL, "")
        assert capsys.readouterr().err == (
            f"wastefactor: evaluation failed: source power {1e-10!r} W: the sink power"
            " underflows to 0 W and the waste factor overflows, so the consumed power is undefined\n"
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
            (["netsim", "--radius", "20", "--drops", "1", "--set", "network.ple_los=1e308"],
             "path loss over 20 m at frequency 1.4e+11 Hz with exponent 1e+308 is not finite"),
            # checked before the first drop at the farthest interferer, 8 + 1 radii
            (["netsim", "--radius", "20", "--drops", "1", "--set", "network.ple_nlos=1e308"],
             "path loss over 180 m at frequency 1.4e+11 Hz with exponent 1e+308 is not finite"),
            # a cell-edge NLoS signal of 0 W would make the mean SINR -inf
            (["netsim", "--radius", "100", "--drops", "1", "--set", "network.ple_nlos=1e300"],
             "the NLoS signal at the 100 m cell edge with exponent 1e+300 underflows to 0 W"),
        ],
        ids=["link", "netsim", "netsim-nlos-overflow", "netsim-nlos-underflow"],
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
            (["netsim", "--radius", "20", "--drops", "1", "--set", "network.ues_per_cell=1e8"],
             EXIT_PARSE,
             "override 1: invalid [network] values: UEs per cell must be at most 1000,"
             " got 100000000"),
            # netsim bounds each draw and its sums before the first drop: a
            # base station's draw is inf
            (_NETSIM_150 + ["bs.screen_power=1e308 W"], EXIT_EVAL,
             f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
             " transmitting base-station draws inf W with cooling overhead 0.2, screen power"
             " 1e+308 W and converters 1e-11 W/Hz x 4e+09 Hz"),
            (_NETSIM_150 + ["bs.cooling_overhead=1e308"], EXIT_EVAL,
             f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
             " transmitting base-station draws inf W with cooling overhead 1e+308, screen power"
             " 0 W and converters 1e-11 W/Hz x 4e+09 Hz"),
            # the sector power is inf as a Python float
            (_NETSIM_150 + ["band.converter_power_per_ghz=1e308 W"], EXIT_EVAL,
             f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
             " transmitting base-station draws inf W with cooling overhead 0.2, screen power"
             " 0 W and converters 1e+299 W/Hz x 4e+09 Hz and the receiving user-equipment"
             " draws inf W with cooling overhead 0, screen power 0.5 W and converters"
             " 1e+299 W/Hz x 4e+09 Hz"),
            # each UE draw is finite, a cell's sum is not
            (_NETSIM_150 + ["ue.screen_power=1e308 W"], EXIT_EVAL,
             f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
             " transmitting base-station draws 3.59488 W with cooling overhead 0.2, screen"
             " power 0 W and converters 1e-11 W/Hz x 4e+09 Hz and the receiving user-equipment"
             " draws 1e+308 W with cooling overhead 0, screen power 1e+308 W and converters"
             " 1e-11 W/Hz x 4e+09 Hz"),
            # each cell's sum is finite, the drop's is not
            (_NETSIM_150 + ["ue.screen_power=1e306 W"], EXIT_EVAL,
             f"evaluation failed: {_NETSIM_150_SCALE}: consumed power is not finite: the"
             " transmitting base-station draws 3.59488 W with cooling overhead 0.2, screen"
             " power 0 W and converters 1e-11 W/Hz x 4e+09 Hz and the receiving user-equipment"
             " draws 1e+306 W with cooling overhead 0, screen power 1e+306 W and converters"
             " 1e-11 W/Hz x 4e+09 Hz"),
            # one UE's rate at the 1 m path-loss floor is inf
            (_NETSIM_150 + ["band.bandwidth=1e308 Hz"], EXIT_EVAL,
             "evaluation failed: rate over 1e+308 Hz at SNR 63.5218251811134 dB is too large"
             " to express in b/s"),
            # one UE's rate is finite, the sum over sectors, cells and drops is not
            (_NETSIM_150 + ["band.bandwidth=1e306 Hz"], EXIT_EVAL,
             f"evaluation failed: {_NETSIM_150_SCALE}: the summed rate over 1e+306 Hz at SNR"
             " up to 63.5218251811134 dB is too large to express in b/s"),
            (_NETSIM_150 + ["network.sidelobe=-1e308 dB"], EXIT_EVAL,
             "evaluation failed: interference from 13 interferers of up to 1e+308 dBm each,"
             " sidelobe level -1e+308 dB, is too large to express in watts"),
        ],
        ids=[
            "rate", "consumed-link", "consumed-table1", "consumed-sum", "ues-per-cell",
            "netsim-bs-screen", "netsim-bs-cooling", "netsim-converters", "netsim-ue-screen",
            "netsim-ue-screen-drop-sum", "netsim-bandwidth", "netsim-bandwidth-sum",
            "netsim-sidelobe",
        ],
    )
    def test_value_that_overflows_is_named(self, argv, code, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(argv) == (code, "")
        assert capsys.readouterr().err == f"wastefactor: {message}\n"

    @pytest.mark.parametrize(
        "setting, row",
        [
            # each bound of the set-up step is finite: power_w is 2.1e307
            ("ue.screen_power=1e305 W",
             "150,14,5.908279914e-305,1240.738782,2.1e+307,9.921822184,0.3952380952,0"),
            ("network.sidelobe=-10 dB",
             "150,14,2.603725882,887.3580638,340.8031812,2.865402053,0.3952380952,0"),
            # every LoS decay past d1 is 0; d / d2 would overflow
            ("network.los_d2=1e-320 m",
             "150,14,2.286075255,779.1005424,340.8026664,4.56535166,0.1333333333,0"),
        ],
        ids=["ue-screen", "sidelobe", "los-d2"],
    )
    def test_netsim_value_near_a_bound_runs_without_warning(self, setting, row, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run(_NETSIM_150 + [setting])
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


class TestNetsimCommand:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = ["netsim", "--radius", "65", "--drops", "2", "--seed", "1"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)], stdout=io.StringIO()) == EXIT_OK
        assert main(args + ["--out", str(second)], stdout=io.StringIO()) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_csv_schema_and_summary(self, tmp_path):
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


class TestGoldenOutput:
    """Byte-for-byte reports for the default presets, recorded in tests/golden."""

    @pytest.mark.parametrize("command", list(_GOLDEN_ARGV))
    def test_stdout_matches_golden(self, command):
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

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("netsim", ["--radius", "20", "--radius", "65", "--drops", "2"]),
            (
                "netsim-wrap",
                ["--radius", "20", "--radius", "35", "--radius", "65", "--drops", "2", "--wraparound"],
            ),
        ],
    )
    def test_netsim_matches_golden(self, name, argv):
        code, out = _run(["netsim", *argv])
        assert code == EXIT_OK
        assert out == (_GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


class TestWithoutNumpy:
    """Link-level commands and the package import never load numpy."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["link"], "link.txt"),
            (["table1"], "table1.txt"),
            (["sweep-bw", "--points", "8"], "sweep-bw.txt"),
            (["sweep-pa", "--points", "8", "--target-cef", "1"], "sweep-pa.txt"),
            (["sweep-bw", "--points", "8", "--snr", "20"], "sweep-bw-snr.txt"),
            (["sweep-pa", "--points", "8", "--snr", "20"], "sweep-pa-snr.txt"),
            (["chain", "demo.chain"], "chain.txt"),
        ],
    )
    def test_link_level_command_runs_with_numpy_blocked(self, argv, golden, tmp_path):
        (tmp_path / "demo.chain").write_text(_DEMO_CHAIN, encoding="utf-8")
        proc = _python(_WITHOUT_NUMPY, *argv, cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == (_GOLDEN / golden).read_text(encoding="utf-8")

    def test_network_scenario_is_one_class(self):
        assert wastefactor.NetworkScenario is netsim.NetworkScenario
        assert netsim.NetworkScenario is transceiver.NetworkScenario

    def test_lazy_names_are_sweeps_and_netsim_all(self):
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

    def test_every_public_name_resolves(self):
        for name in wastefactor.__all__:
            getattr(wastefactor, name)
        assert set(wastefactor.__all__) <= set(dir(wastefactor))

    def test_star_import_binds_netsim_names(self):
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
