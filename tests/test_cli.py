import csv
import math
import re

import pytest

from bellsim import MeasurementSettings, PerfectMode, PerfectModelSpec
from bellsim.cli import SUMMARY_COLUMNS, main
from bellsim.core import DoubleClickPolicy
from bellsim.detector import StepThreshold
from bellsim.optics import pulse_response
from bellsim.strategies import InfeasibleGeometry, joint_table

SQRT2 = math.sqrt(2.0)

PERFECT_CONFIG = """\
[strategy]
kind = perfect
a = {a}
b = {b}
mode = analytic
role_reversal = true

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5

[engine]
trials = 100000
seed = 42
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def perfect_config(tmp_path):
    a = 12.0 * SQRT2 - 16.0
    b = 40.0 - 28.0 * SQRT2
    return write_config(tmp_path, PERFECT_CONFIG.format(a=repr(a), b=repr(b)))


class TestRunCommand:
    def test_prints_violation_at_threshold(self, perfect_config, capsys):
        assert main(["run", str(perfect_config)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^S = ([-\d.]+)", out, flags=re.M)
        assert match, out
        assert abs(float(match.group(1)) - 2.828) < 0.05
        assert "eta_symmetric" in out

    def test_writes_summary_csv(self, perfect_config, tmp_path, capsys):
        out_csv = tmp_path / "summary.csv"
        assert main(["run", str(perfect_config), "--out", str(out_csv)]) == 0
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == SUMMARY_COLUMNS
        assert [r[0] for r in rows[1:5]] == ["a0b0", "a1b0", "a1b1", "a0b1"]
        footer = {r[0]: r[1] for r in rows[5:]}
        assert set(footer) == {"S", "eta_alice", "eta_bob", "eta_symmetric", "seed"}
        assert footer["seed"] == "42"

    def test_output_path_from_config_section(self, tmp_path, capsys):
        a = 12.0 * SQRT2 - 16.0
        b = 40.0 - 28.0 * SQRT2
        target = tmp_path / "from_config.csv"
        text = PERFECT_CONFIG.format(a=repr(a), b=repr(b)) + (
            f"\n[output]\nsummary_csv = {target}\n"
        )
        config = write_config(tmp_path, text)
        assert main(["run", str(config), "--trials", "2000"]) == 0
        assert target.exists()

    def test_byte_identical_across_workers(self, perfect_config, tmp_path, capsys):
        first = tmp_path / "w1.csv"
        second = tmp_path / "w8.csv"
        assert main(["run", str(perfect_config), "--out", str(first)]) == 0
        assert main(["run", str(perfect_config), "--workers", "8", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_and_trials_overrides(self, perfect_config, tmp_path, capsys):
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", str(perfect_config), "--seed", "7", "--trials", "5000", "--out", str(a_csv)])
        main(["run", str(perfect_config), "--seed", "8", "--trials", "5000", "--out", str(b_csv)])
        assert a_csv.read_bytes() != b_csv.read_bytes()

    def test_zero_trials_rejected(self, perfect_config, capsys):
        assert main(["run", str(perfect_config), "--trials", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
    def test_seed_outside_64_bits_rejected(self, perfect_config, seed, capsys):
        assert main(["run", str(perfect_config), "--seed", seed, "--trials", "100"]) == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_unknown_strategy_lists_valid_names(self, tmp_path, capsys):
        config = write_config(tmp_path, "[strategy]\nkind = telepathy\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        for name in ("existing", "improved", "perfect", "quantum"):
            assert name in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_missing_required_key(self, tmp_path, capsys):
        config = write_config(tmp_path, "[strategy]\nkind = perfect\na = 0.9\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n")
        assert main(["run", str(config)]) == 2
        assert "[strategy] b" in capsys.readouterr().err

    def test_unknown_double_click_policy(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = existing
e_target = 0.5

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5

[engine]
double_click_policy = shrug
""")
        assert main(["run", str(config)]) == 2
        assert "discard" in capsys.readouterr().err

    def test_bad_boolean_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = perfect
a = 0.9
b = 0.4
role_reversal = maybe

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5
""")
        assert main(["run", str(config)]) == 2
        assert "role_reversal" in capsys.readouterr().err

    def test_quantum_strategy_with_rotation(self, tmp_path, capsys):
        # A rotated shared state recovers the full violation at this skewed
        # angle set; the plain state would sit at S = -2 here.
        config = write_config(tmp_path, """\
[strategy]
kind = quantum
eta_true = 1.0
rotate_a = 67.5

[settings]
alpha0 = -78.75
alpha1 = 56.25
beta0 = 11.25
beta1 = -33.75

[engine]
trials = 100000
seed = 12
""")
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        s_value = float(re.search(r"^S = ([-\d.]+)", out, flags=re.M).group(1))
        assert abs(s_value - 2.828) < 0.05

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["rotate_a", "rotate_b"])
    def test_non_finite_rotation_rejected(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, f"""\
[strategy]
kind = quantum
{key} = {value}

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5

[engine]
trials = 1000
""")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert ("alice" if key == "rotate_a" else "bob") + " rotation must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra, curve, message", [
        (b"e_target = 50%\n", None, "cannot parse '50%'"),
        (b"e_target = 0.5\n[engine]\ndouble_click_policy = %(x)s\n", None, "unknown policy '%(x)s'"),
        (b"e_target = 0.5 # caf\xe9\n", None, "cannot read config"),
        (b"e_target = 0.5\n[detector]\nmodel = empirical\ncurve_file = {curve}\n",
         b"energy,click_probability\n0.5\xe9,1\n", "not UTF-8 text"),
        (b"e_target = 0.5\n[detector]\nmodel = empirical\ncurve_file = a\x00b.csv\n", None, "NUL byte"),
        (b"e_target = 0.5\n[output]\nsummary_csv = a\x00b.csv\n", None, "NUL byte"),
    ], ids=["percent", "interpolation", "config-not-utf8", "curve-not-utf8", "curve-nul", "out-nul"])
    def test_unreadable_input_is_a_config_error(self, tmp_path, capsys, extra, curve, message):
        if curve is not None:
            (tmp_path / "curve.csv").write_bytes(curve)
        config = tmp_path / "config.ini"
        config.write_bytes(
            b"[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n[strategy]\nkind = existing\n"
            + extra.replace(b"{curve}", str(tmp_path / "curve.csv").encode())
        )
        assert main(["run", str(config), "--trials", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert "Traceback" not in err

    def test_empirical_detector_from_csv(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text(
            "energy,click_probability\n0.30,0.00\n0.50,0.40\n0.90,1.00\n1.00,1.00\n",
            encoding="utf-8",
        )
        config = write_config(tmp_path, f"""\
[strategy]
kind = existing
e_target = 0.7071067811865476

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5

[detector]
model = empirical
curve_file = {curve}

[engine]
trials = 50000
seed = 3
""")
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        doubles = int(re.search(r"double-click trials: (\d+)", out).group(1))
        assert doubles > 0  # mismatched pulses now randomly fire both arms


class TestSweepCommand:
    def test_p2_sweep_endpoints_no_mc(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = improved
p2 = 0.5

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5
""")
        out_csv = tmp_path / "sweep.csv"
        rc = main(["sweep", str(config), "--var", "p2", "--from", "0", "--to", "1",
                   "--steps", "101", "--out", str(out_csv), "--no-mc"])
        assert rc == 0
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "eta_analytic", "s_analytic", "gm_bound", "eta_mc", "s_mc", "se_s"]
        assert len(rows) == 102
        first, last = rows[1], rows[-1]
        assert (float(first[1]), float(first[2])) == (0.5, 4.0)
        assert (float(last[1]), float(last[2])) == (1.0, 2.0)
        assert first[4] == "" and last[5] == ""
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == sorted(xs)

    def test_eta_sweep_follows_recalibrated_bound(self, tmp_path, capsys):
        a = 12.0 * SQRT2 - 16.0
        b = 40.0 - 28.0 * SQRT2
        config = write_config(tmp_path, PERFECT_CONFIG.format(a=repr(a), b=repr(b)))
        out_csv = tmp_path / "sweep.csv"
        rc = main(["sweep", str(config), "--var", "eta", "--from", "0.7", "--to", "1.0",
                   "--steps", "4", "--out", str(out_csv), "--trials", "100000"])
        assert rc == 0
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            eta = float(row[0])
            assert float(row[2]) == pytest.approx(4.0 / eta - 2.0, abs=1e-9)
            assert float(row[3]) == pytest.approx(4.0 / eta - 2.0, abs=1e-9)
            assert abs(float(row[5]) - (4.0 / eta - 2.0)) <= 5.0 * float(row[6])

    def test_sweep_is_deterministic(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = existing
e_target = 0.5

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5

[engine]
trials = 20000
seed = 5
""")
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", str(config), "--var", "etarget", "--from", "0.2", "--to", "0.9",
                "--steps", "5"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_single_step_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "[strategy]\nkind = existing\ne_target = 0.5\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n")
        rc = main(["sweep", str(config), "--var", "etarget", "--from", "0", "--to", "1",
                   "--steps", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_reversed_range_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "[strategy]\nkind = existing\ne_target = 0.5\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n")
        rc = main(["sweep", str(config), "--var", "etarget", "--from", "1", "--to", "0",
                   "--steps", "5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("bounds", [
        ("0", "1", "10000000000000"),
        ("0", "1", "1000001"),
        ("0", "inf", "5"),
        ("-inf", "1", "5"),
        ("nan", "1", "5"),
    ])
    def test_unusable_grid_is_a_one_line_error(self, tmp_path, capsys, bounds):
        config = write_config(tmp_path, "[strategy]\nkind = existing\ne_target = 0.5\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n")
        start, stop, steps = bounds
        rc = main(["sweep", str(config), "--var", "etarget", f"--from={start}", f"--to={stop}",
                   "--steps", steps, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("seed,steps", [
        (str(2**64 - 1), "3"),
        (str(2**64 - 2), "3"),
        ("-1", "3"),
        (None, "2"),  # [engine] seed = 2**64 - 1
    ])
    def test_sweep_seeds_must_stay_in_64_bits(self, tmp_path, capsys, seed, steps):
        config = write_config(tmp_path, "[strategy]\nkind = existing\ne_target = 0.5\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n"
                                        f"[engine]\ntrials = 1000\nseed = {2**64 - 1}\n")
        argv = ["sweep", str(config), "--var", "etarget", "--from", "0.2", "--to", "0.9",
                "--steps", steps, "--out", str(tmp_path / "x.csv")]
        rc = main(argv + ([] if seed is None else [f"--seed={seed}"]))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "--seed" in err and "--steps" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_last_seed_of_a_sweep_may_be_the_largest(self, tmp_path, capsys):
        config = write_config(tmp_path, "[strategy]\nkind = existing\ne_target = 0.5\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", str(config), "--var", "etarget", "--from", "0.2", "--to", "0.9",
                     "--steps", "3", "--trials", "1000", "--seed", str(2**64 - 3), "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 4

    def test_cached_parser_holds_no_state(self, tmp_path, capsys):
        config = write_config(tmp_path, "[strategy]\nkind = existing\ne_target = 0.5\n"
                                        "[settings]\nalpha0=0\nalpha1=45\nbeta0=22.5\nbeta1=67.5\n"
                                        "[engine]\ntrials = 2000\nseed = 5\n")
        out = tmp_path / "x.csv"
        grid = ["--from", "0.2", "--to", "0.9", "--steps", "3", "--out", str(out)]
        sweep = ["sweep", str(config), "--var", "etarget", *grid]
        assert main(sweep) == 0
        first = out.read_bytes(), capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(config), *grid])  # no --var
        assert exc.value.code == 2
        assert main([*sweep, "--seed", "9", "--trials", "500", "--workers", "2", "--no-mc"]) == 0
        capsys.readouterr()
        assert main(sweep) == 0
        assert (out.read_bytes(), capsys.readouterr().out) == first

    def test_var_and_strategy_must_match(self, perfect_config, tmp_path, capsys):
        rc = main(["sweep", str(perfect_config), "--var", "p2", "--from", "0", "--to", "1",
                   "--steps", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "improved" in capsys.readouterr().err

    def test_eta_sweep_outside_domain_rejected(self, perfect_config, tmp_path, capsys):
        rc = main(["sweep", str(perfect_config), "--var", "eta", "--from", "0.5", "--to", "1.0",
                   "--steps", "3", "--out", str(tmp_path / "x.csv"), "--no-mc"])
        assert rc == 2

    def test_eta_sweep_honors_physical_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = perfect
mode = physical

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5

[engine]
trials = 40000
seed = 6
""")
        out_csv = tmp_path / "sweep.csv"
        rc = main(["sweep", str(config), "--var", "eta", "--from", "0.8", "--to", "0.9",
                   "--steps", "2", "--out", str(out_csv)])
        assert rc == 0
        with out_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            eta = float(row[0])
            assert abs(float(row[5]) - (4.0 / eta - 2.0)) <= 5.0 * float(row[6])


class TestCheckFeasibilityCommand:
    def test_sixty_degree_separation_window(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = perfect
a = 0.9
b = 0.4

[settings]
alpha0 = 0
alpha1 = 60
beta0 = 11.25
beta1 = -33.75
""")
        assert main(["check-feasibility", str(config)]) == 0
        out = capsys.readouterr().out
        assert "[1.33333, 4)" in out          # midpoint row at phi0 = 30 degrees
        assert "INFEASIBLE" not in out.split("bob side")[0].split("midpoint")[0]

    def test_perpendicular_settings_marked_infeasible(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = perfect
a = 0.9
b = 0.4

[settings]
alpha0 = 0
alpha1 = 90
beta0 = 22.5
beta1 = 67.5
""")
        assert main(["check-feasibility", str(config)]) == 0
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_a_below_b_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, """\
[strategy]
kind = perfect
a = 0.2
b = 0.4

[settings]
alpha0 = 0
alpha1 = 45
beta0 = 22.5
beta1 = 67.5
""")
        assert main(["check-feasibility", str(config)]) == 2

    @pytest.mark.parametrize("angles", [
        (0, 45, 22.5, 67.5), (0, 90, 22.5, 67.5), (0, 60, 11.25, -33.75), (0, 30, 0, 90), (-45, 45, 0, 90),
    ])
    def test_infeasible_rows_are_the_rows_the_engine_refuses(self, tmp_path, capsys, angles):
        keys = ("alpha0", "alpha1", "beta0", "beta1")
        config = write_config(tmp_path, "[strategy]\nkind = perfect\na = 0.9\nb = 0.4\n\n[settings]\n"
                              + "".join(f"{k} = {v}\n" for k, v in zip(keys, angles)))
        assert main(["check-feasibility", str(config)]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out
        printed = {}  # (side, row) -> (window, intensity, pol for source 0, pol for source 1)
        for line in out.splitlines():
            if line.endswith(" deg"):
                side = line.split()[0]
            elif line.split()[0] != "row":
                columns = (line[2:17], line[30:52], line[52:63], line[63:83], line[83:])
                printed[side, columns[0].strip()] = tuple(c.strip() for c in columns[1:])
        a0, a1, b0, b1 = angles
        # The engine controls Alice when roles stay fixed, so Bob's side is
        # checked with the two parties' angles swapped.
        for side, side_angles in (("alice", (a0, a1, b0, b1)), ("bob", (b0, b1, a0, a1))):
            settings = MeasurementSettings.from_degrees(*side_angles)
            infeasible = {row for (s, row), c in printed.items() if s == side and c[0] == "INFEASIBLE"}
            for row in ("plain-aligned", "midpoint-up", "midpoint-down"):
                window, intensity, *pols = printed[side, row]
                if window != "INFEASIBLE":
                    for pol in pols:  # the printed pulse is one the optics accept
                        pulse_response(float(pol.rstrip("°")), float(intensity), side_angles[:2],
                                       StepThreshold(), DoubleClickPolicy.DISCARD)
            # (a, b) = (1, 0) sends only plain-aligned pulses, (1, 1) only
            # midpoint pulses and (0, 0) only vacuum.
            for (a, b), rows in (((1.0, 0.0), ("plain-aligned",)),
                                 ((1.0, 1.0), ("midpoint-up", "midpoint-down")),
                                 ((0.0, 0.0), ("vacuum",))):
                spec = PerfectModelSpec(a, b, PerfectMode.PHYSICAL_PULSES, role_reversal=False)
                refused = [row for row in rows if row in infeasible]
                if refused:
                    with pytest.raises(InfeasibleGeometry, match=f"row {refused[0]} "):
                        joint_table(spec, settings)
                else:
                    joint_table(spec, settings)
