"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--name", "nope", "--out", "x"])


class TestSuiteCommand:
    def test_writes_design_json(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = main(["suite", "--name", "ami33", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-design"
        assert len(doc["cells"]) == 33
        assert "wrote" in capsys.readouterr().out


class TestFlowCommand:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clid", seed=8, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_flow_from_design_file(self, design_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        summary = tmp_path / "summary.json"
        rc = main([
            "flow", "--design", str(design_file), "--flow", "overcell",
            "--svg", str(svg), "--json", str(summary),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell" in out
        assert svg.read_text().startswith("<svg")
        doc = json.loads(summary.read_text())
        assert doc["completion"] == 1.0

    def test_flow_two_layer(self, design_file, capsys):
        rc = main(["flow", "--design", str(design_file), "--flow", "two-layer"])
        assert rc == 0
        assert "two-layer-channel" in capsys.readouterr().out

    def test_flow_requires_input(self):
        with pytest.raises(SystemExit):
            main(["flow", "--flow", "overcell"])


class TestRouteCommand:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clirt", seed=11, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_route_two_planes(self, design_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        summary = tmp_path / "summary.json"
        rc = main([
            "route", "--design", str(design_file), "--planes", "2",
            "--svg", str(svg), "--json", str(summary),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell-6layer" in out
        assert "plane 0 (metal3/metal4):" in out
        assert "plane 1 (metal5/metal6):" in out
        # The SVG carries the per-plane legend.
        assert "plane 1: metal5/metal6" in svg.read_text()
        doc = json.loads(summary.read_text())
        assert doc["levelb"]["planes"] == 2
        assert all("plane" in net for net in doc["levelb"]["nets"])

    def test_route_default_single_plane(self, design_file, capsys):
        rc = main(["route", "--design", str(design_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell-4layer" in out
        assert "plane 0 (metal3/metal4):" in out
        assert "plane 1" not in out


class TestFlowParamsBoundary:
    @pytest.mark.parametrize(
        "argv, field_name",
        [
            (["--planes", "0"], "planes"),
            (["--planes", "-2"], "planes"),
            (["--iterate", "--max-iterations", "-3"], "max_iterations"),
        ],
    )
    def test_bad_count_exits_2_naming_the_field(self, argv, field_name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["route", "--suite", "ami33", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert field_name in err
        assert "Traceback" not in err


class TestCheckCommand:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clichk", seed=9, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_check_clean_design(self, design_file, tmp_path, capsys):
        report_json = tmp_path / "report.json"
        rc = main([
            "check", "--design", str(design_file), "--flow", "overcell",
            "--json", str(report_json),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        doc = json.loads(report_json.read_text())
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert "drc.short" in doc["rules_run"]

    def test_check_two_layer_flow(self, design_file, capsys):
        rc = main([
            "check", "--design", str(design_file), "--flow", "two-layer",
        ])
        assert rc == 0
        # Only the channel rule applies: the two-layer flow has no
        # level B wiring to verify.
        assert "CLEAN (1 rules checked)" in capsys.readouterr().out

    def test_check_requires_input(self):
        with pytest.raises(SystemExit):
            main(["check", "--flow", "overcell"])

    def test_check_two_planes_strict(self, design_file, capsys):
        rc = main([
            "check", "--design", str(design_file), "--flow", "overcell",
            "--planes", "2", "--strict",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell-6layer" in out
        assert "CLEAN" in out


class TestTablesCommand:
    def test_tables_from_design_file(self, tmp_path, capsys):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clit", seed=12, num_cells=6, num_nets=16,
                               num_critical=2)
        path = tmp_path / "d.json"
        save_design(design, path)
        rc = main(["tables", "--design", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Table 3" in out


class TestReportCommand:
    def test_report_from_design_file(self, tmp_path, capsys):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clir", seed=14, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "d.json"
        save_design(design, path)
        rc = main(["report", "--design", str(path), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Routing report" in out
        assert "Level B" in out


class TestTechOption:
    def test_flow_with_custom_technology(self, tmp_path, capsys):
        from repro.bench_suite import random_design
        from repro.io import save_design, save_technology
        from repro.technology import Technology

        design = random_design("clitech", seed=17, num_cells=6, num_nets=12,
                               num_critical=1)
        dpath = tmp_path / "d.json"
        save_design(design, dpath)
        tpath = tmp_path / "t.json"
        save_technology(Technology.four_layer(), tpath)
        rc = main([
            "flow", "--design", str(dpath), "--flow", "overcell",
            "--tech", str(tpath),
        ])
        assert rc == 0
        assert "overcell" in capsys.readouterr().out
