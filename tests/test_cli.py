"""Tests for the repro-cde command-line front end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.caches == 4
        assert args.selector == "uniform-random"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["--seed", "3", "demo", "--caches", "3"]) == 0
        out = capsys.readouterr().out
        assert "measured caches:   3" in out

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--caches", "2", "-q", "24",
                     "--seeds", "16"]) == 0
        out = capsys.readouterr().out
        assert "arrivals(omega)=2" in out
        assert "two-phase" in out

    def test_table1(self, capsys):
        assert main(["table1", "--domains", "40"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "DMARC" in out
        assert "69.6%" in out  # the paper column

    def test_analysis(self, capsys):
        assert main(["analysis", "4"]) == 0
        out = capsys.readouterr().out
        assert "8.3" in out  # 4 * H_4 = 8.33

    def test_figures_small(self, capsys):
        assert main(["figures", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "Figure 6" in out

    def test_ttlcheck(self, capsys):
        assert main(["ttlcheck", "--caches", "2"]) == 0
        out = capsys.readouterr().out
        assert "measured caches:       2" in out
        assert "ttl-consistent" in out

    def test_ttlcheck_violator(self, capsys):
        assert main(["ttlcheck", "--caches", "1", "--ttl", "600",
                     "--max-ttl", "30"]) == 0
        out = capsys.readouterr().out
        assert "early-expiry" in out

    def test_fingerprint(self, capsys):
        assert main(["fingerprint", "--software", "appliance-like"]) == 0
        out = capsys.readouterr().out
        assert "identified: appliance-like" in out

    def test_edns(self, capsys):
        assert main(["edns", "--platforms", "10", "--adoption", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "10 answer with EDNS (100%)" in out

    def test_multipool(self, capsys):
        assert main(["multipool", "--pools", "2"]) == 0
        out = capsys.readouterr().out
        assert "discovered 2 cache pools" in out

    def test_demo_json(self, capsys):
        import json

        assert main(["--seed", "3", "demo", "--caches", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_count"] == 2
        assert "egress_ips" in payload

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("[ok]") == 5

    def test_figures_csv_out(self, capsys, tmp_path):
        assert main(["figures", "--count", "3",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        for population in ("open-resolvers", "email-servers", "ad-network"):
            assert (tmp_path / population / "manifest.json").exists()
