"""Configuration, report serialization, experiment runner, and CLI."""
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import lrbas.decomposition
import lrbas.linalg
from lrbas import (
    ChannelGeometry,
    ConfigError,
    ConvergenceFailure,
    ExperimentConfig,
    IndefiniteMatrixError,
    LocalOperators,
    compare,
    config_from_dict,
    load_config,
    run,
)
from lrbas.cli import main
from lrbas.experiment import SUMMARY_HEADER
from lrbas.reporting import (
    format_float,
    read_csv,
    write_corrections_grid,
    write_csv,
    write_pgm,
)

# A well-formed summary table: one step and the totals row.
SUMMARY_OK = ",".join(SUMMARY_HEADER) + "\n" + "\n".join(
    ",".join([key] + ["1"] * (len(SUMMARY_HEADER) - 1)) for key in ("1", "total")
) + "\n"

# Contrast-10 channel layout scaled to coarse test grids: wide enough
# strips to survive 20x20 center sampling, mild enough contrast that
# every strategy reaches tight tolerances.
MILD = {
    "sigma_high": 11.0,
    "channel_centers": [0.6, 0.5, 0.4],
    "channel_height": 0.05,
    "x_left": 0.1,
    "x_right": 0.9,
    "port_length": 0.05,
}


def read_corrections_grid(path):
    """Parse a corrections grid back into per-subdomain counts."""
    _, rows = read_csv(path)
    counts = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
    return counts[::-1].ravel()


def read_pgm(path):
    """Parse a binary PGM written by write_pgm into a uint8 array."""
    with open(path, "rb") as handle:
        blob = handle.read()
    magic, dims, maxval, raster = blob.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path} is not an 8-bit binary PGM")
    cols, rows = (int(t) for t in dims.split())
    pixels = np.frombuffer(raster, dtype=np.uint8, count=rows * cols)
    return pixels.reshape(rows, cols)


def small_config(tmp_path, name="out", **solver):
    return config_from_dict(
        {
            "grid": {"size": 20},
            "decomposition": {"layout": 2, "overlap": 2},
            "geometry": dict(MILD),
            "solver": solver,
            "output": {"directory": str(tmp_path / name)},
        }
    )


class TestConfig:
    def test_empty_document_gives_reference_defaults(self):
        cfg = config_from_dict({})
        assert cfg.grid_size == 200
        assert cfg.layout == 10
        assert cfg.overlap == 4
        assert cfg.tau == 0.5
        assert cfg.strategy == "lrbas"
        assert cfg.eps == 1e-6
        assert cfg.eps_loc == 0.25
        assert cfg.keep_full_bases is False
        assert cfg.max_iter == 200
        assert len(cfg.schedule) == 5
        assert cfg.geometry.sigma_high == 1.0e5 + 1.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("  \n")
        assert load_config(path) == ExperimentConfig(output_dir="results")

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="unknown key grdi"):
            config_from_dict({"grdi": {}})
        with pytest.raises(ConfigError, match="unknown key seed"):
            config_from_dict({"seed": 7})

    def test_unknown_section_key_named_with_path(self):
        with pytest.raises(ConfigError, match="unknown key solver.verbose"):
            config_from_dict({"solver": {"verbose": True}})

    def test_zero_overlap_rejected(self):
        with pytest.raises(ConfigError, match="overlap must be at least 1"):
            config_from_dict({"decomposition": {"overlap": 0}})

    def test_layout_must_divide_grid(self):
        with pytest.raises(ConfigError, match="does not divide"):
            config_from_dict({"grid": {"size": 201}})

    def test_zero_eps_loc_is_valid(self):
        assert config_from_dict({"solver": {"eps_loc": 0}}).eps_loc == 0.0

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError, match="solver.strategy"):
            config_from_dict({"solver": {"strategy": "jacobi"}})

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="solver.eps must be a number"):
            config_from_dict({"solver": {"eps": "1e-6"}})
        with pytest.raises(ConfigError, match="grid.size must be an integer"):
            config_from_dict({"grid": {"size": 200.0}})
        with pytest.raises(ConfigError, match="keep_full_bases must be a boolean"):
            config_from_dict({"solver": {"keep_full_bases": 1}})
        with pytest.raises(ConfigError, match="channel_centers must be a list"):
            config_from_dict({"geometry": {"channel_centers": 0.5}})

    def test_non_finite_numbers_name_the_key(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"geometry": {"sigma_high": Infinity}}')
        with pytest.raises(ConfigError, match="geometry.sigma_high must be finite"):
            load_config(path)
        with pytest.raises(ConfigError, match="solver.eps must be finite"):
            config_from_dict({"solver": {"eps": float("nan")}})
        with pytest.raises(ConfigError, match="coarse.tau must be finite"):
            config_from_dict({"coarse": {"tau": 10**400}})
        with pytest.raises(ConfigError, match="geometry.block_y must hold finite numbers"):
            config_from_dict({"geometry": {"block_y": [0.3, float("inf")]}})

    def test_nan_eps_override_rejected(self):
        with pytest.raises(ConfigError, match="solver.eps must be positive"):
            replace(config_from_dict({}), eps=float("nan"))
        with pytest.raises(ConfigError, match="coarse.tau must be positive"):
            replace(config_from_dict({}), tau=float("nan"))

    def test_geometry_errors_are_wrapped(self):
        with pytest.raises(ConfigError, match="geometry: "):
            config_from_dict({"geometry": {"x_left": 0.9, "x_right": 0.1}})

    def test_schedule_parsing_and_validation(self):
        cfg = config_from_dict({"schedule": [[2, 5], [], [1]]})
        assert [sorted(s) for s in cfg.schedule] == [[2, 5], [], [1]]
        with pytest.raises(ConfigError, match="schedule: step 2 opens invalid ports"):
            config_from_dict({"schedule": [[1], [9]]})
        with pytest.raises(ConfigError, match="schedule step 1"):
            config_from_dict({"schedule": [[1.5]]})
        with pytest.raises(ConfigError, match="at least one step"):
            config_from_dict({"schedule": []})

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            config_from_dict([1, 2])

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_json_round_trip_preserves_config(self):
        cfg = config_from_dict(
            {
                "grid": {"size": 40},
                "decomposition": {"layout": 4, "overlap": 2},
                "coarse": {"tau": 0.3},
                "solver": {"strategy": "pcg-guess", "eps": 1e-8},
                "geometry": dict(MILD),
                "schedule": [[1], [1, 4]],
            }
        )
        assert config_from_dict(cfg.to_json_dict()) == cfg

    def test_overrides_are_revalidated(self):
        cfg = config_from_dict({})
        assert replace(cfg, grid_size=40, layout=4).grid_size == 40
        with pytest.raises(ConfigError, match="does not divide"):
            replace(cfg, grid_size=201)

    def test_solver_options_mapping(self):
        opts = config_from_dict({"solver": {"eps_loc": 0, "max_iter": 7}}).solver_options()
        assert opts.strategy == "lrbas"
        assert opts.eps_loc == 0.0
        assert opts.max_iter == 7
        assert opts.tau == 0.5

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestReporting:
    def test_csv_round_trip_lf_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [["1", "x"], ["2", "y"]])
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "x"], ["2", "y"]]

    def test_float_formatting_round_trips(self):
        for v in (0.1, 1e-6, 1 / 3, 9.240267870290425e-07, 0.0):
            assert float(format_float(v)) == v

    def test_corrections_grid_round_trip_and_orientation(self, tmp_path):
        path = tmp_path / "c.csv"
        counts = np.arange(9, dtype=np.int64)  # subdomain q * 3 + p
        write_corrections_grid(path, counts, 3)
        header, rows = read_csv(path)
        assert header == ["c0", "c1", "c2"]
        assert rows[0] == ["6", "7", "8"]  # top row of the domain first
        assert rows[2] == ["0", "1", "2"]
        assert np.array_equal(read_corrections_grid(path), counts)

    def test_pgm_writes_valid_p5_with_sidecar(self, tmp_path):
        values = np.array([[0.0, 1.0], [2.0, 4.0], [1.0, 3.0]])
        img = tmp_path / "v.pgm"
        write_pgm(img, values, tmp_path / "v.txt")
        pixels = read_pgm(img)
        assert pixels.shape == (3, 2)
        # rows are flipped: values[0] is the bottom of the domain
        assert pixels[2, 0] == 0 and pixels[2, 1] == round(255 / 4)
        assert pixels[1, 1] == 255
        lines = (tmp_path / "v.txt").read_text().splitlines()
        assert lines[0] == "min 0.0"
        assert lines[1] == "max 4.0"

    def test_constant_pgm_is_black(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_pgm(img, np.full((2, 2), 5.0), tmp_path / "c.txt")
        assert not read_pgm(img).any()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = small_config(tmp)
    return config, run(config)


@pytest.fixture(scope="module")
def three_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cmp")
    run(small_config(tmp, "pcg", strategy="pcg"))
    run(small_config(tmp, "adaptive", eps_loc=0.25))
    run(small_config(tmp, "exhaustive", eps_loc=0))
    return tmp


class TestRun:
    def test_every_declared_file_exists(self, artifacts):
        _, arts = artifacts
        assert arts.files
        for path in arts.files:
            assert path.is_file(), path

    def test_summary_parses_back_to_report(self, artifacts):
        _, arts = artifacts
        header, rows = read_csv(arts.directory / "summary.csv")
        assert header == ["k", "iterations", "local_corrections", "coarse_solves", "final_relative_residual"]
        assert len(rows) == len(arts.report.entries) + 1
        for row, entry in zip(rows, arts.report.entries):
            assert int(row[0]) == entry.k
            assert int(row[1]) == entry.iterations
            assert int(row[2]) == entry.total_corrections
            assert int(row[3]) == entry.coarse_solves
            assert float(row[4]) == entry.final_relative_residual
        totals = rows[-1]
        assert totals[0] == "total"
        assert int(totals[1]) == arts.report.total_iterations
        assert int(totals[2]) == arts.report.total_corrections
        assert int(totals[3]) == arts.report.total_coarse_solves
        assert float(totals[4]) == max(e.final_relative_residual for e in arts.report.entries)

    def test_per_step_tables_round_trip(self, artifacts):
        _, arts = artifacts
        for entry in arts.report.entries:
            _, rows = read_csv(arts.directory / f"residuals_{entry.k}.csv")
            assert [float(r[1]) for r in rows] == entry.residual_history
            assert [int(r[0]) for r in rows] == list(range(len(entry.residual_history)))
            grid = read_corrections_grid(arts.directory / f"corrections_{entry.k}.csv")
            assert np.array_equal(grid, entry.corrections)

    def test_geneo_counts_round_trip(self, artifacts):
        _, arts = artifacts
        _, rows = read_csv(arts.directory / "geneo_counts.csv")
        want = [
            (e.k, i, int(c)) for e in arts.report.entries for i, c in enumerate(e.geneo_counts)
        ]
        assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == want

    def test_images_have_grid_dimensions(self, artifacts):
        config, arts = artifacts
        m = config.grid_size
        for k in range(1, len(arts.report.entries) + 1):
            assert read_pgm(arts.directory / f"sigma_{k}.pgm").shape == (m, m)
            assert read_pgm(arts.directory / f"solution_{k}.pgm").shape == (m + 1, m + 1)
            sidecar = (arts.directory / f"sigma_{k}.txt").read_text().splitlines()
            assert float(sidecar[0].split()[1]) == 1.0
            assert float(sidecar[1].split()[1]) == 11.0

    def test_resolved_config_round_trips(self, artifacts):
        config, arts = artifacts
        with open(arts.directory / "config.json", encoding="utf-8") as handle:
            assert config_from_dict(json.load(handle)) == config

    def test_identical_configs_are_deterministic(self, tmp_path):
        a = run(small_config(tmp_path, "a"))
        b = run(small_config(tmp_path, "b"))
        assert (a.directory / "summary.csv").read_bytes() == (
            b.directory / "summary.csv"
        ).read_bytes()

    def test_failure_keeps_partial_artifacts_and_marker(self, tmp_path):
        config = small_config(tmp_path, "fail", eps=1e-16, max_iter=2)
        with pytest.raises(ConvergenceFailure, match="step 1"):
            run(config)
        out = tmp_path / "fail"
        assert (out / "FAILED").is_file()
        assert "step 1" in (out / "FAILED").read_text()
        assert (out / "config.json").is_file()
        assert (out / "sigma_1.pgm").is_file()
        assert (out / "summary.csv").is_file()

    def test_successful_rerun_clears_failed_marker(self, tmp_path):
        with pytest.raises(ConvergenceFailure):
            run(small_config(tmp_path, "again", strategy="pcg", max_iter=1))
        assert (tmp_path / "again" / "FAILED").is_file()
        arts = run(small_config(tmp_path, "again", strategy="pcg"))
        assert not (tmp_path / "again" / "FAILED").exists()
        assert all(path.name != "FAILED" for path in arts.files)
        run(small_config(tmp_path, "other", strategy="pcg"))
        comp = compare([tmp_path / "again", tmp_path / "other"], out_dir=tmp_path / "cmp")
        assert comp.rows[0] == comp.rows[1]


class TestCompare:
    def test_rows_in_canonical_order_with_ratio(self, three_runs):
        tmp = three_runs
        comp = compare(
            [tmp / "adaptive", tmp / "pcg", tmp / "exhaustive"], out_dir=tmp / "out"
        )
        assert [r.label for r in comp.rows] == ["pcg", "lrbas eps_loc=0", "lrbas eps_loc=0.25"]
        assert comp.csv_path.is_file() and comp.text_path.is_file()
        assert comp.text == comp.text_path.read_text(encoding="utf-8")
        assert "corrections ratio (eps_loc=0.25 / eps_loc=0)" in comp.text
        header, rows = read_csv(comp.csv_path)
        assert header[0] == "strategy"
        assert [r[0] for r in rows] == ["pcg", "lrbas", "lrbas"]

    def test_totals_match_summaries(self, three_runs):
        tmp = three_runs
        comp = compare([tmp / "pcg", tmp / "adaptive"], out_dir=tmp / "out2")
        _, rows = read_csv(tmp / "pcg" / "summary.csv")
        assert comp.rows[0].iterations == int(rows[-1][1])
        assert comp.rows[0].local_solutions == int(rows[-1][2])

    def test_identical_reports_give_identical_rows(self, tmp_path):
        run(small_config(tmp_path, "t1"))
        run(small_config(tmp_path, "t2"))
        comp = compare([tmp_path / "t1", tmp_path / "t2"], out_dir=tmp_path / "out")
        assert comp.rows[0] == comp.rows[1]

    def test_mismatched_configs_rejected(self, three_runs, tmp_path):
        cfg = config_from_dict(
            {
                "grid": {"size": 20},
                "decomposition": {"layout": 2, "overlap": 3},
                "geometry": dict(MILD),
                "output": {"directory": str(tmp_path / "other")},
            }
        )
        run(cfg)
        with pytest.raises(ConfigError, match="overlap differs"):
            compare([three_runs / "pcg", tmp_path / "other"], out_dir=tmp_path / "out")

    def test_needs_two_directories(self, three_runs):
        with pytest.raises(ConfigError, match="at least two"):
            compare([three_runs / "pcg"], out_dir=three_runs / "out3")

    def test_failed_run_rejected(self, three_runs, tmp_path):
        config = small_config(tmp_path, "bad", eps=1e-16, max_iter=1)
        with pytest.raises(ConvergenceFailure):
            run(config)
        with pytest.raises(ConfigError, match="holds a failed run"):
            compare([three_runs / "pcg", tmp_path / "bad"], out_dir=tmp_path / "out")

    def test_directory_without_report_rejected(self, three_runs, tmp_path):
        with pytest.raises(ConfigError, match="no config.json"):
            compare([three_runs / "pcg", tmp_path], out_dir=tmp_path / "out")


class TestCli:
    def write_config(self, tmp_path, **sections):
        doc = {
            "grid": {"size": 20},
            "decomposition": {"layout": 2, "overlap": 2},
            "geometry": dict(MILD),
            "output": {"directory": str(tmp_path / "out")},
        }
        doc.update(sections)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_solve_success_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "strategy lrbas: 5 systems" in printed
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_flags_override_config_keys(self, tmp_path):
        path = self.write_config(tmp_path)
        code = main(
            [
                "solve",
                "--config",
                str(path),
                "--strategy",
                "pcg",
                "--grid",
                "10",
                "--subdomains",
                "2",
                "--overlap",
                "1",
                "--eps",
                "1e-5",
                "--eps-loc",
                "0",
                "--keep-full-bases",
                "--out",
                str(tmp_path / "other"),
            ]
        )
        assert code == 0
        with open(tmp_path / "other" / "config.json", encoding="utf-8") as handle:
            resolved = json.load(handle)
        assert resolved["solver"]["strategy"] == "pcg"
        assert resolved["grid"]["size"] == 10
        assert resolved["decomposition"] == {"layout": 2, "overlap": 1}
        assert resolved["solver"]["eps"] == 1e-5
        assert resolved["solver"]["eps_loc"] == 0.0
        assert resolved["solver"]["keep_full_bases"] is True

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"solver": {"strategy": "jacobi"}}')
        assert main(["solve", "--config", str(path)]) == 1
        assert "solver.strategy" in capsys.readouterr().err

    def test_usage_error_exit_one(self):
        with pytest.raises(SystemExit) as info:
            main(["solve"])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_nonconvergence_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, solver={"eps": 1e-16, "max_iter": 1})
        assert main(["solve", "--config", str(path)]) == 2
        assert "step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [IndefiniteMatrixError, np.linalg.LinAlgError])
    def test_numerical_failure_exit_two_with_partial_artifacts(
        self, tmp_path, capsys, monkeypatch, error
    ):
        def failing_refresh(*args, **kwargs):  # refresh runs from step 2 on
            raise error("injected")

        monkeypatch.setattr(LocalOperators, "refresh", failing_refresh)
        path = self.write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 2
        assert "step 2: injected" in capsys.readouterr().err
        out = tmp_path / "out"
        assert "step 2: injected" in (out / "FAILED").read_text()
        _, rows = read_csv(out / "summary.csv")
        assert [row[0] for row in rows] == ["1", "total"]

    @pytest.mark.parametrize("failure", ["indefinite-weighted-matrix", "dense-fallback-fails"])
    def test_geneo_failure_on_arpack_path_exit_two(self, tmp_path, capsys, monkeypatch, failure):
        monkeypatch.setattr(lrbas.linalg, "_ARPACK_MIN_N", 0)
        attempts = []
        lowest = lrbas.linalg._lowest_by_arpack
        monkeypatch.setattr(lrbas.linalg, "_lowest_by_arpack", lambda *a: attempts.append(a) or lowest(*a))
        if failure == "indefinite-weighted-matrix":
            sym_gen_eig = lrbas.decomposition.sym_gen_eig
            monkeypatch.setattr(
                lrbas.decomposition, "sym_gen_eig", lambda K, B, upper: sym_gen_eig(K, -B, upper)
            )
        else:

            def stalled(*args, **kwargs):
                raise ArpackNoConvergence("injected", np.zeros(0), np.zeros((0, 0)))

            def broken(*args, **kwargs):
                raise np.linalg.LinAlgError("injected")

            monkeypatch.setattr(lrbas.linalg, "eigsh", stalled)
            monkeypatch.setattr(lrbas.linalg.sla, "eigh", broken)
        path = self.write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 2
        assert len(attempts) == 1
        err = capsys.readouterr().err
        assert "step 1: invalid right-hand matrix" in err
        assert "step 1: invalid right-hand matrix" in (tmp_path / "out" / "FAILED").read_text()

    def test_compare_exit_zero(self, tmp_path, capsys, monkeypatch):
        path = self.write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        assert (
            main(["solve", "--config", str(path), "--strategy", "pcg", "--out", str(tmp_path / "p")])
            == 0
        )
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(["compare", str(tmp_path / "out"), str(tmp_path / "p")]) == 0
        printed = capsys.readouterr().out
        assert "local solutions" in printed
        assert (tmp_path / "comparison.csv").is_file()

    @pytest.mark.parametrize(
        "config_text, summary_text, message",
        [
            ("{}", None, "has no summary.csv"),
            ("{}", ",".join(SUMMARY_HEADER) + "\ntotal,1\n", "is not a summary table"),
            ("{}", ",".join(SUMMARY_HEADER) + "\ntotal,1,x,1,0.5\n", "is not a summary table"),
            ("{}", "", "is not a summary table"),
            ("{not json", None, "is not valid JSON"),
            ("[]", None, "must be a JSON object"),
            ('{"solver": 1}', SUMMARY_OK, "section 'solver' must be a JSON object"),
            ('{"solver": [1]}', SUMMARY_OK, "section 'solver' must be a JSON object"),
            ('{"solver": {"eps_loc": "x"}}', SUMMARY_OK, "solver.eps_loc must be a number"),
            ('{"solver": {"eps_loc": null}}', SUMMARY_OK, "solver.eps_loc must be a number"),
            ('{"solver": {"strategy": ["pcg"]}}', SUMMARY_OK, "solver.strategy must be a string"),
            ('{"solver": {"keep_full_bases": "false"}}', SUMMARY_OK, "solver.keep_full_bases must be a boolean"),
            ('{"solver": {"strategy": "jacobi"}}', SUMMARY_OK, "solver.strategy must be one of"),
            ('{"solver": {"eps_loc": -1}}', SUMMARY_OK, "solver.eps_loc must be nonnegative"),
            ('{"solver": {"bogus": 1}}', SUMMARY_OK, "unknown key solver.bogus"),
        ],
        ids=[
            "no-summary",
            "short-totals",
            "non-integer-totals",
            "empty-summary",
            "invalid-json",
            "json-array",
            "solver-number",
            "solver-array",
            "eps-loc-string",
            "eps-loc-null",
            "strategy-array",
            "keep-full-string",
            "unknown-strategy",
            "negative-eps-loc",
            "unknown-key",
        ],
    )
    def test_compare_incomplete_report_exit_one(self, tmp_path, capsys, config_text, summary_text, message):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "config.json").write_text(config_text)
        if summary_text is not None:
            (bad / "summary.csv").write_text(summary_text)
        assert main(["compare", str(bad), str(bad), "--out", str(tmp_path / "cmp")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and message in err

    def test_compare_mismatch_exit_one(self, tmp_path, capsys, monkeypatch):
        a = self.write_config(tmp_path)
        main(["solve", "--config", str(a)])
        main(["solve", "--config", str(a), "--overlap", "3", "--out", str(tmp_path / "o3")])
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(["compare", str(tmp_path / "out"), str(tmp_path / "o3")]) == 1
        assert "not comparable" in capsys.readouterr().err
