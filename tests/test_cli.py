import os

import pytest

from segloss import bounds, cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("pair", ["dice-jaccard", "dice-tversky:0.3:0.7", "dice-whamming:0.5"])
def test_bounds_reports_match_golden(tmp_path, pair):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", pair, "--dmax", "12"]) == 0
    base = "bounds_" + pair.replace(":", "_")
    for ext in ("csv", "json"):
        with open(os.path.join(GOLDEN, f"{base}.{ext}"), "rb") as fh:
            want = fh.read()
        with open(tmp_path / f"{base}.{ext}", "rb") as fh:
            assert fh.read() == want, ext


def test_bounds_dmax_past_limit_is_usage_error(tmp_path, capsys):
    dmax = str(bounds.MAX_BRUTE_FORCE_D + 1)
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice-jaccard", "--dmax", dmax]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_bounds_pair_without_partner_is_usage_error(tmp_path, capsys):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("too_tight", [(0.0, None), (1.0, 0.0)])
def test_bounds_closed_form_violation_is_numeric_failure(tmp_path, capsys, monkeypatch, too_tight):
    monkeypatch.setattr(bounds, "closed_form_bounds", lambda a, b: too_tight)
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice-jaccard", "--dmax", "3"]) == 3
    assert "numeric failure" in capsys.readouterr().err
