import json
import os
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from hereditas.errors import InvalidConfigError
from hereditas.io import dump_json, from_json_fields, to_json
from hereditas import cli, simulate
from hereditas.selectors import FitResult, LassoOptions, StepwiseOptions
from hereditas.simulate import (
    CampaignReport,
    DEFAULT_CELLS,
    HIERARCHICAL,
    LASSO,
    PRESETS,
    REGULAR,
    SCHEMES,
    STEPWISE,
    SettingConfig,
    build_truth,
    fit_pipeline,
    generate_replicate,
    preset,
    run_campaign,
    run_pipeline,
    standardize_train,
)
from hereditas.standardize import MEAN_SD, MEDIAN_IQR, CoefficientVector
from hereditas.terms import canonical_terms, inter, main, quad

FAST = dict(n_train=120, n_valid=120, n_test=500, replicates=2)


def fast_cfg(name="setting1", **kw):
    return from_json_fields(SettingConfig, {**to_json(preset(name)), **FAST, **kw},
                            "config field")


class TestBuildTruth:
    def test_setting1_active_set(self):
        truth = build_truth(preset("setting1"))
        expect = {main(0), main(1), main(2),
                  inter(0, 1), inter(0, 2), inter(1, 2),
                  quad(0), quad(1), quad(2)}
        assert truth.active == expect
        assert all(v == 1.0 for v in truth.active_coefs.values())
        assert truth.sigma == 8.0

    def test_setting4_has_six_interactions(self):
        truth = build_truth(preset("setting4"))
        inters = {t for t in truth.active if t.kind == "inter"}
        assert inters == {inter(j, k) for j in range(4) for k in range(j + 1, 4)}

    def test_r7_extra_main_without_children(self):
        truth = build_truth(preset("R7"))
        assert main(3) in truth.active
        assert not any(
            t.is_second_order and 3 in t.parents() for t in truth.active
        )

    def test_reduced_truth_violates_heredity(self):
        truth = build_truth(replace(preset("setting1"), reduced_truth=True))
        mains = {t for t in truth.active if t.kind == "main"}
        assert mains == {main(0), main(1)}
        # children of X3 stay active, so the truth itself breaks heredity
        assert inter(0, 2) in truth.active and quad(2) in truth.active

    def test_coefficient_magnitudes(self):
        truth = build_truth(preset("setting2"))
        assert truth.active_coefs[main(0)] == 1.0
        assert truth.active_coefs[inter(0, 1)] == 2.0
        assert truth.active_coefs[quad(0)] == 2.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(InvalidConfigError):
            SettingConfig(n_active_mains=2, n_active_inters=2, n_active_quads=1)
        with pytest.raises(InvalidConfigError):
            SettingConfig(p=3, n_active_mains=3, extra_active_mains=1,
                          n_active_inters=3, n_active_quads=3)

    def test_zero_coefficient_needs_no_active_term_of_its_kind(self):
        for field in ("coef_main", "coef_inter", "coef_quad"):
            with pytest.raises(InvalidConfigError, match=f"^{field} is 0, but 3 active terms"):
                SettingConfig(**{field: 0.0})
        truth = build_truth(SettingConfig(coef_inter=0.0, n_active_inters=0))
        assert {t.kind for t in truth.active} == {"main", "quad"}


class TestGenerateReplicate:
    def test_bit_identical_regeneration(self):
        cfg = fast_cfg()
        a = generate_replicate(cfg, 3)
        b = generate_replicate(cfg, 3)
        assert np.array_equal(a.train.design, b.train.design)
        assert np.array_equal(a.test.y, b.test.y)

    def test_streams_differ_between_replicates(self):
        cfg = fast_cfg()
        a = generate_replicate(cfg, 0)
        b = generate_replicate(cfg, 1)
        assert not np.array_equal(a.train.design, b.train.design)

    def test_lognormal_strictly_positive(self):
        data = generate_replicate(fast_cfg("R1"), 0)
        assert np.all(data.train.design > 0)
        assert np.all(data.test.design > 0)

    def test_train_variance_near_signal_plus_noise(self):
        # Var(Y) for the first preset is 12 + 64 = 76.
        cfg = replace(preset("setting1"), replicates=20)
        vs = [generate_replicate(cfg, r).train.y.var(ddof=1) for r in range(20)]
        assert np.mean(vs) == pytest.approx(76.0, abs=8.0)

    def test_null_model_test_mse_near_total_variance(self):
        # Predicting the train mean on the 10,000-row test split lands near
        # Var(Y) = signal + noise = 76 for the first preset.
        from hereditas.metrics import mse

        data = generate_replicate(preset("setting1"), 0)
        pred = np.full(data.test.design.shape[0], data.train.y.mean())
        assert mse(pred, data.test.y) == pytest.approx(76.0, abs=8.0)

    def test_split_sizes(self):
        data = generate_replicate(fast_cfg(), 0)
        assert data.train.design.shape[0] == 120
        assert data.valid.design.shape[0] == 120
        assert data.test.design.shape[0] == 500

    def test_test_split_is_never_expanded(self):
        # One expanded setting1 test split is 10,000 x 65 floats (5.2 MB); a
        # replicate and its four cells, scored from the mains, stay below it.
        cfg = preset("setting1")
        expanded = cfg.n_test * len(build_truth(cfg).terms) * 8
        tracemalloc.start()
        try:
            data = generate_replicate(cfg, 0)
            for method, scheme in DEFAULT_CELLS:
                run_pipeline(data, method, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < expanded


class TestRunPipeline:
    def test_hierarchical_lasso_msh_exactly_one(self):
        cfg = fast_cfg()
        for rep in range(3):
            out = run_pipeline(generate_replicate(cfg, rep), LASSO, HIERARCHICAL)
            assert out.msh == 1.0

    def test_hierarchical_stepwise_msh_exactly_one(self):
        cfg = fast_cfg()
        out = run_pipeline(generate_replicate(cfg, 0), STEPWISE, HIERARCHICAL)
        assert out.msh == 1.0

    def test_regular_msh_can_fall_short(self):
        cfg = fast_cfg()
        vals = [
            run_pipeline(generate_replicate(cfg, rep), LASSO, REGULAR).msh
            for rep in range(4)
        ]
        assert min(vals) < 1.0

    def test_median_iqr_scheme_runs(self):
        cfg = fast_cfg(estimator=MEDIAN_IQR)
        out = run_pipeline(generate_replicate(cfg, 0), LASSO, HIERARCHICAL,
                           estimator=MEDIAN_IQR)
        assert out.msh == 1.0

    def test_null_truth_recovers_noise_floor(self):
        cfg = fast_cfg(n_active_mains=0, n_active_inters=0, n_active_quads=0,
                       n_test=4000)
        out = run_pipeline(generate_replicate(cfg, 0), LASSO, HIERARCHICAL)
        assert out.sensitivity is None  # no active terms to find
        assert out.mse == pytest.approx(64.0, rel=0.15)
        # near-null: a handful of chance correlates out of 65 terms is fine
        assert out.n_selected <= 12

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfigError):
            run_pipeline(generate_replicate(fast_cfg(), 0), "ridge", REGULAR)
        with pytest.raises(InvalidConfigError, match="unknown method 'Lasso'"):
            run_pipeline(generate_replicate(fast_cfg(), 0), LASSO, REGULAR,
                         options={"Lasso": LassoOptions(n_lambda=5)})
        # An options object of another method's type names the method it was given for.
        with pytest.raises(InvalidConfigError, match="lasso options must be LassoOptions"):
            run_pipeline(generate_replicate(fast_cfg(), 0), STEPWISE, REGULAR,
                         options={LASSO: StepwiseOptions()})

    def test_a_method_is_one_table_entry(self, monkeypatch):
        # The stub's tuning object and non-convergence reason reach FittedPipeline
        # through the table alone.
        @dataclass(frozen=True)
        class StubOptions:
            converged: bool = False

        def step(z_tr, y_tr, _valid, _apply_params, terms, tag, opts):
            coefs = CoefficientVector(terms, float(np.mean(y_tr)), np.zeros(len(terms)), tag)
            fit = FitResult(coefs, tuning=0.0, iterations=0,
                            converged=(opts or StubOptions()).converged)
            return fit, {"rows": len(y_tr)}, "the stub never moves"

        monkeypatch.setitem(simulate.SELECTORS, "stub", (StubOptions, step))
        data = generate_replicate(fast_cfg(), 0)
        for scheme in SCHEMES:
            fitted = fit_pipeline(data.train, data.valid, data.truth.terms, "stub", scheme)
            assert fitted.tuning == {"rows": len(data.train.y)}
            assert fitted.warning == "the fit did not converge: the stub never moves"
            assert fitted.raw_coefs.intercept == pytest.approx(np.mean(data.train.y))
            assert not fitted.raw_coefs.selected()
        fitted = fit_pipeline(data.train, data.valid, data.truth.terms, "stub", REGULAR,
                              options={"stub": StubOptions(converged=True)})
        assert fitted.warning is None

    def test_a_scheme_is_one_table_entry(self, monkeypatch, tmp_path):
        # The stub reaches the pipeline and the fit command through the table
        # alone, and the default campaign still runs exactly the paper's four cells.
        calls = []

        def step(raw, terms, estimator):
            calls.append(raw.shape)
            return simulate._hierarchical(raw, terms, estimator)

        campaign = ["simulate", "--preset", "setting1", "--replicates", "1", "--out-dir"]
        assert cli.main(campaign + [str(tmp_path / "without")]) == 0
        monkeypatch.setitem(simulate.SCHEMES, "stub", step)
        data = generate_replicate(fast_cfg(), 0)
        stub = fit_pipeline(data.train, data.valid, data.truth.terms, LASSO, "stub").raw_coefs
        assert calls == [data.train.design.shape]
        hier = fit_pipeline(data.train, data.valid, data.truth.terms, LASSO,
                            HIERARCHICAL).raw_coefs
        assert stub.intercept == hier.intercept
        np.testing.assert_array_equal(stub.values, hier.values)

        csv = os.path.join(os.path.dirname(__file__), "data", "four_mains.csv")
        out = tmp_path / "fit"
        assert cli.main(["fit", csv, "--scheme", "stub", "--seed", "5",
                         "--out-dir", str(out)]) == 0
        assert len(calls) == 2
        assert json.loads((out / "four_mains.lasso.stub.fit.json").read_text())["scheme"] == "stub"

        assert cli.main(campaign + [str(tmp_path / "with")]) == 0
        assert len(calls) == 2
        report = [(tmp_path / run / "setting1.report.json").read_bytes()
                  for run in ("without", "with")]
        assert report[1] == report[0]


class TestRunCampaign:
    def test_two_replicate_aggregation_hand_check(self):
        cfg = fast_cfg()
        rep = run_campaign(cfg, cells=[(LASSO, HIERARCHICAL)])
        cell = rep.cell(LASSO, HIERARCHICAL)
        per = [m.mse for m in cell.per_replicate]
        agg = cell.aggregates["mse"]
        assert agg.mean == pytest.approx(np.mean(per))
        assert agg.median == pytest.approx(np.median(per))
        assert agg.se == pytest.approx(np.std(per, ddof=1) / np.sqrt(2))
        assert cell.aggregates["msh"].mean == 1.0
        assert cell.aggregates["msh"].se == 0.0

    def test_unknown_cell_or_scheme(self):
        with pytest.raises(KeyError):
            CampaignReport(fast_cfg(), (), None, False).cell(LASSO, REGULAR)
        with pytest.raises(InvalidConfigError, match="unknown scheme 'z-score'"):
            standardize_train(np.ones((4, 1)), canonical_terms(1), "z-score", MEAN_SD)

    def test_thread_count_does_not_change_report(self):
        cfg = fast_cfg(replicates=4)
        a = run_campaign(cfg, threads=1)
        b = run_campaign(cfg, threads=4)
        assert dump_json(to_json(a)) == dump_json(to_json(b))

    def test_selector_options_reach_the_pooled_workers(self):
        cfg = fast_cfg()
        options = {LASSO: LassoOptions(n_lambda=5), STEPWISE: StepwiseOptions(max_selected=3)}
        one = run_campaign(cfg, threads=1, options=options)
        two = run_campaign(cfg, threads=2, options=options)
        assert dump_json(to_json(one)) == dump_json(to_json(two))
        default = run_campaign(cfg)
        for cell in two.cells:
            assert cell.per_replicate != default.cell(cell.method, cell.scheme).per_replicate

    def test_snr_cross_check_not_flagged_for_table_presets(self):
        cfg = fast_cfg()
        rep = run_campaign(cfg, cells=[(LASSO, HIERARCHICAL)])
        assert rep.snr.value == pytest.approx(0.1875)
        assert not rep.snr_flagged

    def test_heredity_violating_truth_keeps_msh_one(self):
        cfg = fast_cfg(reduced_truth=True, replicates=3)
        rep = run_campaign(cfg, cells=[(LASSO, HIERARCHICAL), (STEPWISE, HIERARCHICAL)])
        for cell in rep.cells:
            assert all(m.msh == 1.0 for m in cell.per_replicate)

    def test_default_cells_cover_all_four(self):
        assert DEFAULT_CELLS == (
            (LASSO, HIERARCHICAL), (LASSO, REGULAR),
            (STEPWISE, HIERARCHICAL), (STEPWISE, REGULAR),
        )
        parser = cli.build_parser()
        sim = parser.parse_args(["simulate", "--preset", "setting1"])
        assert (sim.methods, sim.schemes) == ("lasso,stepwise", "hierarchical,regular")
        fit = parser.parse_args(["fit", "d.csv"])
        std = parser.parse_args(["standardize", "d.csv"])
        assert (fit.method, fit.scheme, std.scheme) == (LASSO, HIERARCHICAL, HIERARCHICAL)


class TestPresets:
    def test_all_presets_valid(self):
        for name, cfg in PRESETS.items():
            assert cfg.name == name
            build_truth(cfg)

    def test_snr_flags_exactly_four_presets(self):
        # Criterion 4 covers setting1-9 only; the robustness presets R1, R3,
        # R6 and R9 disagree with their tabulated SNR by more than 0.01.
        flagged = {name for name, cfg in PRESETS.items() if simulate.campaign_snr(cfg)[1]}
        assert flagged == {"R1", "R3", "R6", "R9"}

    def test_unknown_preset_lists_options(self):
        with pytest.raises(InvalidConfigError) as err:
            preset("setting99")
        assert "setting1" in str(err.value)

    def test_config_json_round_trip(self):
        cfg = preset("R8")
        back = from_json_fields(SettingConfig, json.loads(json.dumps(to_json(cfg))),
                                "config field")
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfigError):
            from_json_fields(SettingConfig, {"nonsense": 1}, "config field")
