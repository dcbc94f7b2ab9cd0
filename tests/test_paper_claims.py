"""The paper-claims ledger: one test per checkable claim of the abstract in
PAPER.md.

Each claim test's docstring opens with the abstract's words in curly
quotes, verbatim up to line wrapping, and
``test_every_claim_quotes_the_abstract_verbatim`` holds the quotes to the
paper.  A claim that does not hold at desk scale is marked ``xfail`` with
the measured numbers; ``xfail_strict`` then fails the suite as soon as it
starts to hold, so the marker cannot go stale.  A claim that a unit test
elsewhere already checks calls that test rather than copying it.
"""

import pathlib
import re

import pytest

from segloss import cli, metrics
from segloss.bounds import brute_force_sup, tversky_dice_bounds
from segloss.fileio import read_report_json
from segloss.losses import LossSpec, vertex_consistency_check

import test_bounds
from util import all_masks

ROOT = pathlib.Path(__file__).resolve().parents[1]
# test_experiment_reports_match_golden reproduces this tree byte for byte
TRAIN = ROOT / "tests" / "golden" / "train"


def _records(path) -> list[dict]:
    """The rows of a JSON report, each keyed by its column names."""
    table = read_report_json(str(path))
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_claim_1_surrogates_equal_their_metrics_on_binary_predictions():
    r"""“metric-sensitive losses, i.e. relaxations of these metrics such as
    soft Dice, soft Jaccard and Lov\'{a}sz-Softmax”: on every binary
    prediction of length d <= 4, each surrogate equals 1 minus the
    discrete similarity it relaxes."""
    specs = [
        (LossSpec("soft_dice_l1"), metrics.dice),
        (LossSpec("soft_dice_l2"), metrics.dice),
        (LossSpec("soft_jaccard"), metrics.jaccard),
        (LossSpec("lovasz"), metrics.jaccard),
    ]
    for d in (1, 2, 3, 4):
        for y in all_masks(d):
            for yh in all_masks(d):
                for spec, fn in specs:
                    s, disc, ok = vertex_consistency_check(spec, y, yh)
                    assert ok, (spec.label(), y.data, yh.data, s, disc)
                    assert disc == pytest.approx(1 - fn(y, yh), abs=1e-15)
                s, disc, ok = vertex_consistency_check(LossSpec("tversky", (0.3, 0.7)), y, yh)
                assert ok
                assert disc == pytest.approx(1 - metrics.tversky(y, yh, 0.3, 0.7), abs=1e-15)


def test_claim_2_dice_and_jaccard_approximate_each_other():
    """“We find that the Dice score and Jaccard index approximate each other
    relatively and absolutely”: J = D/(2 - D) on every mask pair, the
    closed-form errors are 3 - 2*sqrt(2) and 1, and the exhaustive suprema
    approach both as d grows."""
    for d in (2, 3, 5):
        for y in all_masks(d):
            for yh in all_masks(d):
                dv = metrics.dice(y, yh)
                assert metrics.jaccard(y, yh) == pytest.approx(dv / (2 - dv), abs=1e-12)

    test_bounds.test_dice_jaccard_closed_form()
    # the abs gap at d = 100 is 3.7e-9; the rel gap falls 0.154, 0.039, 0.020
    test_bounds.test_brute_force_approaches_closed_form("jaccard")


def test_claim_3_weighted_hamming_has_no_relative_approximation():
    """“but we find no such approximation for a weighted Hamming
    similarity”: the blow-up witness ratio grows without bound as its
    foreground fraction shrinks, and the dice-whamming:0.5 relative
    supremum keeps growing with d (5.76, 12.0, 24.5 at d = 25, 50, 100)."""
    test_bounds.test_blowup_ratio_grows_without_bound()
    rels = [brute_force_sup("dice", "whamming:0.5", d).empirical_rel for d in (25, 50, 100)]
    assert rels[0] < rels[1] < rels[2]
    assert rels[-1] > 20


def test_claim_4_tversky_error_grows_monotonically_away_from_dice(tmp_path):
    """“For the Tversky loss, the approximation gets monotonically worse when
    deviating from the trivial weight setting where soft Tversky equals
    soft Dice.”  In the report of ``segloss bounds --fig1-grid`` both error
    columns are 0 at alpha = 0.5, strictly decrease up to it and strictly
    increase after it."""
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--fig1-grid"]) == 0
    grid = _records(tmp_path / "fig1_grid.json")
    below = [r for r in grid if r["alpha"] < 0.5]
    above = [r for r in grid if r["alpha"] > 0.5]
    assert below and above
    (at,) = [r for r in grid if r["alpha"] == 0.5]
    for col in ("abs_error", "rel_error"):
        assert at[col] == 0
        assert all(a[col] > b[col] for a, b in zip(below, below[1:] + [at]))
        assert all(a[col] < b[col] for a, b in zip([at] + above, above))

    devs = [0.5, 0.6, 0.8, 1.0, 1.5, 3.0]
    abs_vals = [tversky_dice_bounds(v, v)[0] for v in devs]
    rel_vals = [tversky_dice_bounds(v, v)[1] for v in devs]
    assert all(x < y for x, y in zip(abs_vals, abs_vals[1:]))
    assert all(x < y for x, y in zip(rel_vals, rel_vals[1:]))


def test_claim_5_metric_sensitive_loss_beats_ce_on_dice_and_jaccard():
    """“can confirm that metric-sensitive losses are superior to cross-entropy
    based loss functions in case of evaluation with Dice Score or Jaccard
    Index”: in the pinned desk-scale train run, soft Dice beats CE on mean
    Dice (0.769 vs 0.670) and mean Jaccard, and the bootstrap ranks CE
    inferior to all."""
    arms = {r["method"]: r for r in _records(TRAIN / "summary.json")}
    ce, soft_dice = arms["ce"], arms["soft_dice_l1"]
    assert soft_dice["mean_dice"] > ce["mean_dice"]
    assert soft_dice["mean_jaccard"] > ce["mean_jaccard"]
    assert ce["inferior_to_all"] and soft_dice["top_ranked"]


def test_claim_6_metric_sensitive_loss_wins_across_sizes_and_fgbg_ratios():
    """“This further holds in a multi-class setting, and across different
    object sizes and foreground/background ratios.”  The object-size and
    fg/bg half: in the pinned train run, soft Dice's mean Dice is at least
    CE's in every size bin and at every fg/bg ratio.  That is one seed of a
    12-image tree, and its closest margins are size bin 1 (0.9560 vs
    0.9530) and fg/bg ratio 0.3 (0.8792 vs 0.8579)."""
    losses = []
    bins: dict[int, dict] = {}
    for r in _records(TRAIN / "strata.json"):
        bins.setdefault(r["bin"], {})[r["method"]] = r["mean_dice"]
    losses += [f"size bin {b}: {m['soft_dice_l1']:.4f} vs {m['ce']:.4f}"
               for b, m in bins.items() if m["soft_dice_l1"] < m["ce"]]
    fgbg = sorted(TRAIN.glob("fgbg_*_summary.json"))
    assert len(bins) > 1 and fgbg
    for path in fgbg:
        arms = {r["method"]: r for r in _records(path)}
        ce, soft_dice = arms["ce"], arms["soft_dice_l1"]
        if soft_dice["mean_dice"] < ce["mean_dice"]:
            losses.append(f"fg/bg ratio {ce['ratio']:g}: {soft_dice['mean_dice']:.4f} vs {ce['mean_dice']:.4f}")
    assert not losses, "; ".join(losses)


@pytest.mark.skip(reason="segloss is binary end to end; the multi-class harness is ROADMAP item 9")
def test_claim_7_metric_sensitive_loss_wins_multi_class():
    """“This further holds in a multi-class setting”: the multi-class half,
    which needs per-class losses and scores."""


def _squash(text: str) -> str:
    return " ".join(text.split())


def test_every_claim_quotes_the_abstract_verbatim():
    abstract = _squash(ROOT.joinpath("PAPER.md").read_text(encoding="utf-8"))
    claims = {name: fn for name, fn in globals().items() if name.startswith("test_claim_")}
    assert len(claims) == 7
    for name, fn in claims.items():
        quote = re.match(r"“([^”]+)”", fn.__doc__)
        assert quote, f"{name} does not open with a quote"
        assert _squash(quote.group(1)) in abstract, name
