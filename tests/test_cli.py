"""End-to-end runs of the batch harness against small JSON configs."""

import hashlib
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intham import errors, fields
from intham.census import MAX_ENERGIES
from intham.cli import MODES, _error_report, main, run
from intham.errors import ConfigError, IntHamError, WindowExceeded
from intham.hamiltonians import MAX_WINDOW
from intham.spectral import MAX_CHECK_SIZE

TABLE_ABS5 = {"table": {"lo": -5, "values": [5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5]}}
TABLE_SQ5 = {"table": {"lo": -5, "values": [25, 16, 9, 4, 1, 0, 1, 4, 9, 16, 25]}}
TABLE_ID5 = {"table": {"lo": -5, "values": list(range(-5, 6))}}
TABLE_ZERO5 = {"table": {"lo": -5, "values": [0] * 11}}

DIAMOND = {"kinetic": TABLE_ABS5, "potential": TABLE_ABS5}
BOWL = {"kinetic": TABLE_SQ5, "potential": TABLE_SQ5}
HYPERBOLIC = {
    "kinetic": TABLE_ZERO5,
    "potential": TABLE_ZERO5,
    "coupling_pos": TABLE_ID5,
    "coupling_mom": TABLE_ID5,
}


HUGE = "<1e400>"  # placeholder for a float literal beyond the double range
TRAJECTORY = {"mode": "trajectory", "model": DIAMOND, "start": [1, 0], "steps": 3}
SHELL = {"mode": "shell", "model": BOWL, "energy": 2}
SPECTRAL = {"mode": "spectral", "model": DIAMOND, "energy": 1}
CENSUS = {
    "mode": "census",
    "census": {"kinetic": {"exponent": 1}, "potential": {"exponent": 1}, "energies": [10, 20]},
}
LIGHTCONE = {"mode": "lightcone", "field": {"sizes": [8], "stiffness": 1}, "steps": 2}
MARGOLUS = {"mode": "margolus-contrast", "field": {"sizes": [4], "stiffness": 1}, "steps": 2}


DATA = Path(__file__).parent / "data"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestTrajectory:
    config = {"mode": "trajectory", "model": DIAMOND, "start": [1, 0], "steps": 8}

    def test_exit_status_and_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**self.config, "out": str(tmp_path)})
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["ok"] is True
        assert report["energy"] == 1
        assert report["final"] == [1, 0]

    def test_orbit_csv_is_golden(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**self.config, "out": str(tmp_path)})
        main(["run", cfg])
        expected = "\r\n".join(
            ["t,q0,p0,energy"]
            + [
                "0,1,0,1",
                "1,0,-1,1",
                "2,-1,0,1",
                "3,0,1,1",
                "4,1,0,1",
                "5,0,-1,1",
                "6,-1,0,1",
                "7,0,1,1",
                "8,1,0,1",
            ]
        ) + "\r\n"
        assert (tmp_path / "trajectory.csv").read_bytes().decode() == expected

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path / "a.json", {**self.config, "out": str(out_a)})
        cfg_b = write_config(tmp_path / "b.json", {**self.config, "out": str(out_b)})
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0
        for name in ("trajectory.csv", "trajectory.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_steps_flag_overrides_the_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**self.config, "out": str(tmp_path)})
        assert main(["run", cfg, "--steps", "2"]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + initial + 2 steps


class TestInvert:
    def test_long_roundtrip_matches(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "invert",
                "models": [DIAMOND, BOWL],
                "start": [[1, 0], [1, 1]],
                "steps": 50,
                "out": str(tmp_path),
            },
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "invert.json").read_text())
        assert report["match"] is True
        assert report["energy"] == 1 + 2


class TestShell:
    def test_counts_and_classification(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "shell", "model": BOWL, "energy": 2, "out": str(tmp_path)},
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "shell.json").read_text())
        assert report["count"] == 4
        assert report["by_kind"] == {"regular": 4}
        rows = (tmp_path / "shell.csv").read_text().strip().splitlines()
        assert rows[0] == "q,p,kind"
        assert rows[1] == "-1,-1,regular"


class TestSpectral:
    @pytest.mark.parametrize("mode", ["shell", "spectral"])
    def test_a_one_entry_models_list_reads_as_model(self, tmp_path, mode):
        config = {"mode": mode, "model": BOWL, "energy": 2}
        assert run(config, out_dir=str(tmp_path / "model"))[0] == 0
        del config["model"]
        assert run({**config, "models": [BOWL]}, out_dir=str(tmp_path / "models"))[0] == 0
        for ext in ("csv", "json"):
            name = f"{mode}.{ext}"
            assert (tmp_path / "model" / name).read_bytes() == (tmp_path / "models" / name).read_bytes()

    def test_unit_diamond_spectrum(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "spectral", "model": DIAMOND, "energy": 1, "out": str(tmp_path)},
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "spectral.json").read_text())
        assert report["size"] == 4
        assert report["cycle_lengths"] == [4]
        assert report["boundary_count"] == 1
        assert report["operator_check"]["terms"] == 829
        assert report["operator_check"]["max_residual"] < 1e-9
        rows = (tmp_path / "spectral.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4

    @pytest.mark.parametrize("energy, radius", [(3, 20), (30, 3), (36, 20)])
    def test_outputs_match_the_dense_check_byte_for_byte(self, tmp_path, energy, radius):
        # An asymmetric double well: shells with a fixed point, with two
        # cycles of one length, and with two of different lengths.  The
        # golden files were written by the dense n x n operator check.
        cfg = json.loads((DATA / "spectral_double_well.json").read_text())
        assert run({**cfg, "energy": energy, "radius": radius}, out_dir=str(tmp_path))[0] == 0
        for ext in ("json", "csv"):
            golden = DATA / "spectral_golden" / f"E{energy}-R{radius}.{ext}"
            assert (tmp_path / f"spectral.{ext}").read_bytes() == golden.read_bytes()


class TestCensus:
    def test_linear_ladder(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "census",
                "census": {
                    "kinetic": {"exponent": 1},
                    "potential": {"exponent": 1},
                    "energies": [10, 40],
                },
                "out": str(tmp_path),
            },
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "census.json").read_text())
        assert report["exponent"] == pytest.approx(1.0, abs=1e-6)
        assert report["predicted_exponent"] == 1.0
        rows = (tmp_path / "census.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 31


class TestMargolus:
    def test_explicit_layers_reverse_and_drift(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "margolus-contrast",
                "field": {"sizes": [4], "stiffness": 1},
                "layers": {"older": [[0, 1, 0, 0]], "newer": [[1, 0, -1, 2]]},
                "steps": 6,
                "out": str(tmp_path),
            },
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "margolus-contrast.json").read_text())
        assert report["reversible"] is True
        assert report["drifted"] is True
        energies = [int(e) for e in report["energies"]]
        assert len(energies) == 7
        assert energies[-1] > energies[0]


class TestLightcone:
    def test_spread_stays_under_the_cap(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "lightcone",
                "field": {"sizes": [16], "stiffness": 1},
                "perturb": {"site": [8]},
                "steps": 5,
                "seed": 20260825,
                "out": str(tmp_path),
            },
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "lightcone.json").read_text())
        assert report["within_bound"] is True
        rows = (tmp_path / "lightcone.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            _, _, radius, cap = row.split(",")
            assert int(radius) <= int(cap)


    def test_a_failed_check_exits_3_and_still_writes_its_report(self, tmp_path, capsys, monkeypatch):
        # A radius past the cap, as a sweep that broke locality would report.
        monkeypatch.setattr(fields, "diagonal_radius", lambda shape, origin, sites: 10**6)
        cfg = write_config(tmp_path / "c.json", {**LIGHTCONE, "perturb": {"site": [4]}, "out": str(tmp_path)})
        assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == "lightcone: check failed\n"
        report = json.loads((tmp_path / "lightcone.json").read_text())
        assert (report["ok"], report["within_bound"]) == (False, False)

    def test_planar_spread_is_bounded_in_the_coordinate_sum(self, tmp_path):
        # On a plane a change can run along a line of constant x + y, so
        # its L1 radius outgrows 2t; the reported radius is the periodic
        # distance in x + y, which the rule bounds by one per half sweep.
        field = {"sizes": [8, 8], "components": 2, "masses": [0, "1/2"]}
        rng = random.Random(1)
        phi, mom = (
            np.array([rng.randint(-3, 3) for _ in range(128)]).reshape(2, 8, 8)
            for _ in range(2)
        )
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "lightcone",
                "field": field,
                "state": {"phi": phi.tolist(), "mom": mom.tolist()},
                "perturb": {"site": [4, 4]},
                "steps": 2,
                "out": str(tmp_path),
            },
        )
        assert main(["run", cfg]) == 0
        report = json.loads((tmp_path / "lightcone.json").read_text())
        assert report["within_bound"] is True

        spec = fields.spec_from_json(field)
        bumped = phi.copy()
        bumped[0, 4, 4] += 1
        a, b = fields.FieldState(phi, mom), fields.FieldState(bumped, mom)
        rows = (tmp_path / "lightcone.csv").read_text().strip().splitlines()[1:]
        l1_over_cap = 0
        for t, row in enumerate(rows, start=1):
            a, b = fields.step(a, spec), fields.step(b, spec)
            changed = fields.diff_sites(a, b)
            _, count, radius, cap = (int(v) for v in row.split(","))
            assert (count, radius, cap) == (
                len(changed),
                fields.diagonal_radius(spec.shape, (4, 4), changed),
                2 * t,
            )
            l1_over_cap += fields.spread_radius(spec.shape, (4, 4), changed) > cap
        assert l1_over_cap > 0


# Configs that ``intham run`` rejects with exit 2 and a config error whose
# message names the given text; each is also in the pinned digest's battery.
MALFORMED = [
    ({**SPECTRAL, "radius": HUGE}, "radius"),
    ({**SPECTRAL, "radius": float("nan")}, "radius"),
    ({**SHELL, "energy": HUGE}, "energy"),
    ({**SHELL, "energy": "ten"}, "energy"),
    ({**SHELL, "energy": 10.7}, "10.7"),
    ({**TRAJECTORY, "steps": "x"}, "steps"),
    ({**SPECTRAL, "size_cap": "x"}, "size_cap"),
    ({**LIGHTCONE, "random": {"lo": "a"}}, "'lo'"),
    ({**LIGHTCONE, "perturb": {"site": 3}}, "site"),
    ({**LIGHTCONE, "state": {}}, "state"),
    ({**MARGOLUS, "layers": {}}, "layers"),
    ({**TRAJECTORY, "start": 5}, "start"),
    ({**CENSUS, "census": {**CENSUS["census"], "energies": "x"}}, "energies"),
    ({**LIGHTCONE, "field": {"sizes": [8], "stiffness": HUGE}}, "field"),
    ({**TRAJECTORY, "stpes": 9}, "stpes"),
    ({**CENSUS, "census": {**CENSUS["census"], "fit_flor": 3}}, "fit_flor"),
    ({**LIGHTCONE, "perturb": {"sit": [1]}}, "sit"),
    ({**LIGHTCONE, "random": {"low": -2}}, "low"),
    ({**LIGHTCONE, "random": {"lo": 3, "hi": -3}}, "random"),
    ({**LIGHTCONE, "perturb": {"site": [99]}}, "perturb"),
    ({**CENSUS, "census": {**CENSUS["census"], "energies": []}}, "census"),
    ({**SPECTRAL, "operator_check": "yes"}, "operator_check"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"table": {"lo": -1, "values": [1.5, 0, 1]}}}}, "1.5"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "exponnet": 3, "window": [-5, 5]}}}, "exponnet"),
    ({**SPECTRAL, "radius": 1e6}, "radius"),
    ({**SPECTRAL, "operator_check": False, "radius": 1e6}, "radius"),
    ({**LIGHTCONE, "state": {"phi": [[1.5] + [0] * 7], "mom": [[0] * 8]}}, "state"),
    ({**MARGOLUS, "layers": {"older": [[0] * 4], "newer": [[1.5, 0, 0, 0]]}}, "layers"),
    ({**SPECTRAL, "size_cap": MAX_CHECK_SIZE + 1}, "size_cap"),
    ({**SPECTRAL, "operator_check": False, "size_cap": 10**9}, "size_cap"),
    ({**LIGHTCONE, "perturb": {"site": [-3]}}, "'site'"),
    ({**LIGHTCONE, "perturb": {"site": [8]}}, "'site'"),
    ({**LIGHTCONE, "perturb": {"component": -1}}, "'component'"),
    ({**LIGHTCONE, "perturb": {"component": 1}}, "'component'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "window": [5, -5]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "window": [1, 0]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"family": "power", "window": [0, MAX_WINDOW]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "window": [-10**9, 10**9]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "exponent": "401/3", "window": [0, 2000]}}}, "'exponent'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"family": "power", "exponent": "37/14", "window": [-5, 5]}}}, "'exponent'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "exponent": 50, "window": [-5, 5]}}}, "'exponent'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "exponent": 0.123456, "window": [-5, 5]}}}, "'exponent'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "exponent": "37/13", "window": [10**100, 10**100 + 49]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "window": [MAX_WINDOW - 5, MAX_WINDOW]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"family": "power", "window": [-MAX_WINDOW, 5 - MAX_WINDOW]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"family": "power", "window": [1 - MAX_WINDOW, 1]}}}, "'window'"),
    ({**LIGHTCONE, "field": {"sizes": [4.7], "stiffness": 1}}, "'sizes'"),
    ({**LIGHTCONE, "field": {"sizes": "44", "stiffness": "1/2"}}, "'sizes'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "components": 1.9}}, "'components'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "components": True}}, "'components'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "phi_window": [-3.9, 3.9]}}, "'phi_window'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "phi_window": "09"}}, "'phi_window'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "p_window": [False, True]}}, "'p_window'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "components": 2, "masses": "12"}}, "'masses'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"table": {**TABLE_ABS5["table"], "lo": True}}}}, "'lo'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"table": {"lo": -1, "values": [True, False, True]}}}}, "'values'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "window": [False, True]}}}, "'window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"table": {**TABLE_ABS5["table"], "hi": 5}}}}, "'hi'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "sizes": [[8]]}}, "'sizes'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "phi_window": [[1], [2]]}}, "'phi_window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"table": {"lo": -1, "values": [[1], [0], [1]]}}}}, "'values'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"table": {"lo": -1, "values": []}}}}, "'values'"),
    ({**CENSUS, "census": {**CENSUS["census"], "energies": [[4], 5]}}, "'energies'"),
    # a ceiling whose census tables would pass MAX_WINDOW entries on a side
    ({**CENSUS, "census": {**CENSUS["census"], "energies": [10, 20, 300000]}}, "energy ceiling 300000"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "scale": 1e300, "window": [-5, 5]}}}, "'scale'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "scale": "1/4294967297", "window": [-5, 5]}}}, "'scale'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "kinetic": {"family": "power", "mass": 2**32 + 1, "window": [-5, 5]}}}, "'mass'"),
    ({**CENSUS, "census": {**CENSUS["census"], "kinetic": {"exponent": 1, "mass": "1/8589934592"}}}, "'mass'"),
    ({**CENSUS, "census": {**CENSUS["census"], "potential": {"exponent": 1, "scale": "4294967297/2"}}}, "'scale'"),
    # census families meet the model families' exponent cap
    ({**CENSUS, "census": {**CENSUS["census"], "kinetic": {"exponent": "1000001/1000000"}}}, "'exponent'"),
    ({**CENSUS, "census": {**CENSUS["census"], "potential": {"exponent": "401/3"}}}, "'exponent'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "phi_window": [5, -5]}}, "'phi_window'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "phi_window": [1, 2, 3]}}, "'phi_window'"),
    ({**LIGHTCONE, "field": {**LIGHTCONE["field"], "p_window": [3]}}, "'p_window'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "coupling_pos": TABLE_ID5}}, "'coupling_mom'"),
    ({**TRAJECTORY, "model": {**DIAMOND, "coupling_mom": TABLE_ID5}}, "'coupling_pos'"),
    ({**TRAJECTORY, "models": []}, "'models'"),
    ({**SPECTRAL, "energy": -1}, "energy"),
    ({**LIGHTCONE, "state": {"phi": [[0] * 4], "mom": [[0] * 4]}}, "'state'"),
    ({**MARGOLUS, "layers": {"older": [[0] * 3], "newer": [[0] * 3]}}, "'layers'"),
    ({**TRAJECTORY, "model": {**HYPERBOLIC, "coupling_pos": {"table": {"lo": -4, "values": [0] * 9}}}}, "coupling_pos"),
]


# Inputs that are rejected like MALFORMED but left out of the pinned digest's
# battery: a list of two models where a mode reads one, a power family given
# the other kind's prefactor, a light cone and a two-layer run one step past
# their work caps, and a two-layer run whose energy outgrows what str() writes.
CROSSED = [
    ({"mode": "shell", "models": [BOWL, DIAMOND], "energy": 2}, "'models' must hold one model"),
    ({"mode": "spectral", "models": [DIAMOND, BOWL], "energy": 1}, "'models' must hold one model"),
    ({**TRAJECTORY, "model": {**DIAMOND, "potential": {"family": "power", "scale": 2, "mass": "1/2", "window": [-5, 5]}}}, "'mass'"),
    ({**TRAJECTORY, "models": [BOWL]}, "give 'model' or 'models', not both"),
    ({**LIGHTCONE, "steps": 2**16 + 1}, "'steps' = 65537 needs 1048592 sub-updates, past the cap"),
    ({**MARGOLUS, "steps": 4065}, "'steps' = 4065 needs 67137540 units of work (steps * (steps + 64)"),
    # each site-step's own cost: 19 steps on the longest line ran 3.7 s under steps**2 alone
    ({**MARGOLUS, "field": {"sizes": [174760], "stiffness": 1}, "steps": 19}, "'steps' = 19 needs 275596520 units of work"),
    # under the work cap, but the energy outgrows the digits str() may write
    ({**MARGOLUS, "field": {"sizes": [2], "stiffness": 1}, "steps": 5000}, "'steps' = 5000 grows the energy past"),
]


# Every error class the package defines, the base included.
ERROR_CLASSES = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, IntHamError)
]


class TestFailureModes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path)]) == 2

    def test_unknown_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"mode": "warp", "model": DIAMOND})
        assert main(["run", cfg]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_missing_start(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "trajectory", "model": DIAMOND, "out": str(tmp_path)},
        )
        assert main(["run", cfg]) == 2
        assert "start" in capsys.readouterr().err

    def test_escaping_contour_reports_site_and_pair(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "trajectory",
                "model": HYPERBOLIC,
                "start": [0, 3],
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["run", cfg]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "UnboundedContour"
        assert "leaves the window at cell (5, 0)" in report["message"]
        assert report["pair_index"] == 0
        assert report["energy"] == 0
        assert not (tmp_path / "out").exists()

    def test_an_output_path_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        for out in (taken, taken / "below"):
            cfg = write_config(tmp_path / "c.json", {**TRAJECTORY, "out": str(out)})
            assert main(["run", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and f"'out' {str(out)!r}" in err
            assert "Traceback" not in err
        assert taken.read_text() == "a file, not a directory"

    def test_a_census_ladder_past_the_cap_fails_fast(self, tmp_path, capsys):
        # [0, 10**9] would build 10**9 + 1 energies; one past the cap is
        # rejected before the range is built, and so is a list that long.
        for energies in ([10, 10 + MAX_ENERGIES], [10, 10**9], list(range(MAX_ENERGIES + 1))):
            cfg = write_config(tmp_path / "c.json", {**CENSUS, "census": {**CENSUS["census"], "energies": energies}})
            start = time.perf_counter()
            assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
            assert time.perf_counter() - start < 0.5
            err = capsys.readouterr().err
            assert err.startswith("config error: 'energies'") and f"MAX_ENERGIES = {MAX_ENERGIES}" in err
        assert not (tmp_path / "out").exists()
        at_cap = {**CENSUS["census"], "energies": [10, 9 + MAX_ENERGIES], "periods": False}
        cfg = write_config(tmp_path / "c.json", {**CENSUS, "census": at_cap, "out": str(tmp_path / "cap")})
        assert main(["run", cfg]) == 0

    def test_census_period_work_past_the_cap_fails_fast(self, tmp_path, capsys):
        # eleven energies from 10**5 walk tables out to +-100 012 each: the cost
        # check weighs the ceiling, and the same ladder without periods runs
        section = {**CENSUS["census"], "energies": [10**5, 10**5 + 10]}
        cfg = write_config(tmp_path / "c.json", {**CENSUS, "census": section})
        start = time.perf_counter()
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("config error: census: 'energies'") and "MAX_PERIOD_WORK" in err
        assert not (tmp_path / "out").exists()
        cfg = write_config(tmp_path / "c.json", {**CENSUS, "census": {**section, "periods": False}})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_lightcone_steps_past_the_cap_fail_fast(self, tmp_path, capsys, monkeypatch):
        # Both states take every step, so a run makes 2 * steps * sites *
        # components sub-updates; past the cap it is rejected before any state
        # is drawn, whether the steps come from the config or from --steps.
        out = tmp_path / "out"
        wide = {**LIGHTCONE, "field": {"sizes": [32, 32], "components": 2}, "steps": 1}
        for config, argv in ((LIGHTCONE, ["--steps", str(2**40)]), (wide, ["--steps", "257"]), ({**wide, "steps": 2**60}, [])):
            cfg = write_config(tmp_path / "c.json", config)
            start = time.perf_counter()
            assert main(["run", cfg, "--out", str(out), *argv]) == 2
            assert time.perf_counter() - start < 0.5
            err = capsys.readouterr().err
            assert err.startswith("config error: 'steps'") and f"MAX_LIGHTCONE_UPDATES = {fields.MAX_LIGHTCONE_UPDATES}" in err
        assert not out.exists()
        # a run of exactly the cap's sub-updates goes ahead
        monkeypatch.setattr(fields, "MAX_LIGHTCONE_UPDATES", 2 * 2 * 8)
        cfg = write_config(tmp_path / "c.json", LIGHTCONE)
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert main(["run", cfg, "--out", str(out), "--steps", "3"]) == 2
        assert "'steps' = 3 needs 48 sub-updates" in capsys.readouterr().err

    def test_margolus_steps_past_the_cap_fail_fast(self, tmp_path, capsys, monkeypatch):
        # Field values grow exponentially, so a run costs about steps * (steps
        # + MARGOLUS_STEP_UNITS) * sites * components; past the cap it is
        # rejected before any layer is drawn, whether the steps come from the
        # config or from --steps.  151 steps on the wide plane fit, 152 do not,
        # and neither do 19 steps on the longest line the plan cap allows.
        out = tmp_path / "out"
        wide = {**MARGOLUS, "field": {"sizes": [32, 32], "components": 2}, "steps": 1}
        line = {**MARGOLUS, "field": {"sizes": [174760], "stiffness": 1}, "steps": 19}
        for config, argv in (
            (MARGOLUS, ["--steps", str(2**40)]), (wide, ["--steps", "152"]), ({**wide, "steps": 2**60}, []), (line, []),
        ):
            cfg = write_config(tmp_path / "c.json", config)
            start = time.perf_counter()
            assert main(["run", cfg, "--out", str(out), *argv]) == 2
            assert time.perf_counter() - start < 0.5
            err = capsys.readouterr().err
            assert err.startswith("config error: 'steps'") and f"MAX_MARGOLUS_WORK = {fields.MAX_MARGOLUS_WORK}" in err
        assert not out.exists()
        # a run of exactly the cap's work goes ahead
        assert fields.MARGOLUS_STEP_UNITS == 64
        assert 151 * (151 + 64) * 2048 <= fields.MAX_MARGOLUS_WORK < 152 * (152 + 64) * 2048
        monkeypatch.setattr(fields, "MAX_MARGOLUS_WORK", 2 * (2 + 64) * 4)
        cfg = write_config(tmp_path / "c.json", MARGOLUS)
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert main(["run", cfg, "--out", str(out), "--steps", "3"]) == 2
        assert "'steps' = 3 needs 804 units of work" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_error_reports_carry_the_declared_context(self, cls):
        # Each declared keyword is reported under its own name, an int as
        # itself and anything else by repr, beside the sub-update's tags.
        values = {key: (i, -i) if i % 2 else i for i, key in enumerate(cls.context, 3)}
        exc = cls("boom", **values)
        exc.pair_index, exc.field_site = 1, ((2,), 0)
        report = _error_report(exc)
        expected = {key: value if isinstance(value, int) else repr(value) for key, value in values.items()}
        assert report == {
            "error": cls.__name__, "message": "boom", "pair_index": 1, "field_site": "((2,), 0)", **expected
        }
        assert _error_report(cls("quiet")) == {"error": cls.__name__, "message": "quiet"}

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_an_undeclared_error_keyword_is_a_type_error(self, cls):
        with pytest.raises(TypeError, match=f"{cls.__name__} carries only"):
            cls("boom", bogus=1)
        with pytest.raises(TypeError):
            cls("boom", pair_index=1)

    def test_unknown_field_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "lightcone",
                "field": {"sizes": [16], "phi_windw": [-4, 4]},
                "out": str(tmp_path),
            },
        )
        assert main(["run", cfg]) == 2
        assert "phi_windw" in capsys.readouterr().err

    def test_field_windows_wider_than_int64_raise_no_bare_overflow(self, tmp_path, capsys):
        huge = [-(2**70), 2**70]
        field = {"sizes": [4], "stiffness": 1, "phi_window": huge, "p_window": huge}
        near = {"phi": [[2**63 - 3] * 4], "mom": [[5] * 4]}
        for config, status, named in (
            ({"state": near, "steps": 3}, 3, '"error": "WindowExceeded",\n  "field_site"'),
            ({"state": {**near, "phi": [[2**63] * 4]}, "steps": 1}, 2, "'phi' entries must lie in int64"),
            ({"state": {**near, "mom": [[-(2**63) - 1] * 4]}, "steps": 1}, 2, "'mom' entries must lie in int64"),
            ({"random": {"lo": 0, "hi": 2**63}, "steps": 1}, 2, "'random'"),
            ({"random": {"lo": -(2**70), "hi": 0}, "steps": 1}, 2, "'random'"),
            ({"state": near, "perturb": {"amount": 2**63}, "steps": 1}, 2, "'perturb'"),
            # a base value at the int64 edge once wrapped to the other edge
            ({"random": {"lo": 2**63 - 1, "hi": 2**63 - 1}, "steps": 1}, 2, f"'perturb' moves phi[0, 0] to {2**63}"),
            ({"random": {"lo": 2**63 - 4, "hi": 2**63 - 1}, "perturb": {"amount": 4}, "steps": 1}, 2, "'perturb'"),
            ({"state": {**near, "phi": [[-(2**63)] * 4]}, "perturb": {"amount": -1}, "steps": 1}, 2, "'perturb'"),
        ):
            cfg = {"mode": "lightcone", "field": field, "out": str(tmp_path), **config}
            assert main(["run", write_config(tmp_path / "c.json", cfg)]) == status
            assert named in capsys.readouterr().err

    def test_a_band_past_the_scan_budget_fails_fast(self, tmp_path):
        # A level near 2**126 inside windows wider than int64 once scanned
        # about 2**62 potential values for one sub-update.
        huge = [-(2**70), 2**70]
        field = {"sizes": [4], "stiffness": 1, "phi_window": huge, "p_window": huge}
        for state in (
            {"phi": [[0, 3, 0, 3]], "mom": [[2**63 - 2, 0, 2**63 - 2, 0]]},
            {"phi": [[-(2**63)] * 4], "mom": [[-(2**63)] * 4]},
        ):
            start = time.perf_counter()
            with pytest.raises(WindowExceeded, match=f"passes {MAX_WINDOW} field values") as err:
                run({"mode": "lightcone", "field": field, "state": state, "out": str(tmp_path)})
            assert time.perf_counter() - start < 5
            assert err.value.field_site == ((0,), 0)

    def test_run_function_rejects_negative_steps(self, tmp_path):
        with pytest.raises(ConfigError):
            run({"mode": "trajectory", "model": DIAMOND, "start": [1, 0]}, steps=-1)

    @pytest.mark.parametrize("config, named", MALFORMED + CROSSED)
    def test_malformed_inputs_are_config_errors(self, tmp_path, capsys, config, named):
        # HUGE is written as the JSON literal 1e400, which parses as inf.
        out = tmp_path / "out"
        text = json.dumps({**config, "out": str(out)}).replace(f'"{HUGE}"', "1e400")
        assert HUGE not in text
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err
        assert not out.exists()


# SHA-256 of every output of the configs in ``_battery`` (see
# test_cli_outputs_match_their_pinned_digest); any change to one fails it.
CLI_DIGEST = "d431f73f3dc160320208c727df60788442ba65d2b7aff61e54da23cc42dc9a2d"

# One valid config per mode, small enough that any mutation of it runs fast.
VALID = {
    "trajectory": TRAJECTORY,
    "invert": {**TRAJECTORY, "mode": "invert"},
    "shell": SHELL,
    "spectral": {**SPECTRAL, "radius": 20, "size_cap": 64, "operator_check": True},
    "census": CENSUS,
    "margolus-contrast": MARGOLUS,
    "lightcone": {**LIGHTCONE, "perturb": {"site": [3], "component": 0, "amount": 2}},
}

# Small values, so a mutated size, step count or energy stays cheap: at
# most 12^3 sites and 12 steps.  Only the capped keys draw from the probes,
# which sit at and past their caps: the spectral keys in every mode, and
# 'steps' in the two modes that cap it by its work.  Each mutated config
# must return or raise within MUTATED_SECONDS.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "x", "1/2", "-3"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["lo", "hi", "x"]), inner, max_size=2),
    max_leaves=6,
)
PROBED = ("radius", "size_cap", "operator_check")
STEPS_CAPPED = ("lightcone", "margolus-contrast")
MUTATED_SECONDS = 5
cap_probes = st.sampled_from([0, 1, 4, MAX_CHECK_SIZE, MAX_CHECK_SIZE + 1, 10**6, 2.5, "20", -1])


@st.composite
def mutated_configs(draw, mode):
    """``VALID[mode]`` with a few edits: a key dropped, added or replaced, at
    the top level or inside a nested object or list."""
    config = json.loads(json.dumps(VALID[mode]))
    probed = PROBED + ("steps",) * (mode in STEPS_CAPPED)
    for _ in range(draw(st.integers(1, 3))):
        node = config
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
                break
            node = node[key]
        if isinstance(node, dict):
            key = draw(st.sampled_from([*node, *probed, "extra"]))
        elif node:
            key = draw(st.sampled_from(range(len(node))))
        else:
            continue
        if draw(st.booleans()):
            node[key] = draw(cap_probes | json_values if key in probed else json_values)
        elif isinstance(node, dict):
            node.pop(key, None)
        else:
            del node[key]
    return config


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mutated_configs_run_or_raise_package_errors(mode, data):
    config = data.draw(mutated_configs(mode))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        try:
            run(config, out_dir=out)
        except IntHamError:
            pass
    assert time.perf_counter() - start < MUTATED_SECONDS, config


def _battery() -> list[dict]:
    """The configs whose outputs the pinned CLI digest covers: each ``VALID``
    config under each mode, spectral shells at two energies and two radii,
    two-model runs, a contour that escapes, explicit field states and layers, a two-component plane,
    and every ``MALFORMED`` row."""
    configs = [{**config, "mode": mode} for config in VALID.values() for mode in MODES]
    configs += [{**SPECTRAL, "energy": e, "radius": r} for e in (1, 3) for r in (3, 20)]
    two = {"models": [DIAMOND, BOWL], "start": [[1, 0], [1, 1]], "steps": 5}
    configs += [{"mode": "trajectory", **two}, {"mode": "invert", **two}]
    configs.append({"mode": "trajectory", "model": HYPERBOLIC, "start": [0, 3]})  # exit 3: escapes
    configs.append({
        **LIGHTCONE,
        "state": {"phi": [[0, 2, -1, 3, 0, 1, -2, 0]], "mom": [[1, 0, 0, -2, 3, 0, 1, -1]], "time": 4},
        "perturb": {"site": [2], "amount": -1},
        "steps": 3,
    })
    configs.append({**MARGOLUS, "layers": {"older": [[0, 1, 0, 0]], "newer": [[1, 0, -1, 2]]}, "steps": 6})
    configs.append({
        "mode": "lightcone",
        "field": {"sizes": [4, 4], "components": 2, "masses": [0, "1/2"], "stiffness": "1/2"},
        "perturb": {"site": [1, 2], "component": 1},
        "steps": 3,
        "seed": 11,
    })
    return configs + [config for config, _ in MALFORMED]


def test_cli_outputs_match_their_pinned_digest(tmp_path, capsys):
    # One SHA-256 over, per config: the exit code, stdout, stderr with the
    # output directory masked, and each written file by name.
    digest = hashlib.sha256()

    def feed(*chunks):
        for chunk in chunks:
            chunk = chunk if isinstance(chunk, bytes) else str(chunk).encode()
            digest.update(b"%d:" % len(chunk) + chunk)

    for i, config in enumerate(_battery()):
        out = tmp_path / f"out{i}"
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps({**config, "out": str(out)}).replace(f'"{HUGE}"', "1e400"))
        status = main(["run", str(path)])
        captured = capsys.readouterr()
        feed(i, status, captured.out, captured.err.replace(str(out), "<out>"))
        for written in sorted(out.iterdir()) if out.exists() else ():
            feed(written.name, written.read_bytes())
    assert digest.hexdigest() == CLI_DIGEST


def test_module_entrypoint_round_trips(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "mode": "trajectory",
            "model": DIAMOND,
            "start": [1, 0],
            "steps": 4,
            "out": str(tmp_path),
        },
    )
    proc = subprocess.run(
        [sys.executable, "-m", "intham.cli", "run", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectory.csv").exists()
