"""Integration tests for the analytic experiments (Figures 1-6, fixed layers, ablations)."""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment


def payload(key: str, **fields):
    """The rich result object of one run of a registered experiment."""
    return get_experiment(key).run(**fields).payload


def table(key: str, **fields) -> str:
    """The text form of one run: its envelope's records, rendered."""
    return get_experiment(key).run(**fields).table()


class TestFigure1:
    def test_matches_paper(self):
        result = payload("figure1")
        assert result.matches_paper
        assert all(result.properties.values())
        assert result.session_link_rates["l3"] == (0.0, 2.0, 2.0)
        assert result.session_link_rates["l4"] == (1.0, 1.0, 1.0)

    def test_table_renders(self):
        text = table("figure1")
        assert "r2,2" in text and "property" in text


class TestFigure2:
    def test_matches_paper(self):
        result = payload("figure2")
        assert result.single_rate_matches_paper
        assert result.multi_rate_is_more_max_min_fair

    def test_property_flip(self):
        result = payload("figure2")
        assert not result.single_rate_properties["same-path-receiver-fairness"]
        assert not result.single_rate_properties["fully-utilized-receiver-fairness"]
        assert not result.single_rate_properties["per-receiver-link-fairness"]
        assert result.single_rate_properties["per-session-link-fairness"]
        assert all(result.multi_rate_properties.values())

    def test_table_renders(self):
        assert "single_rate_holds" in table("figure2")


class TestFigure3:
    def test_both_directions(self):
        result = payload("figure3")
        assert result.example_a.matches_paper
        assert result.example_b.matches_paper
        assert result.demonstrates_both_directions

    def test_rate_changes(self):
        result = payload("figure3")
        assert result.example_a.rate_change((2, 0)) == pytest.approx(-2.0)
        assert result.example_a.rate_change((0, 0)) == pytest.approx(2.0)
        assert result.example_b.rate_change((2, 0)) == pytest.approx(2.0)
        assert result.example_b.rate_change((0, 0)) == pytest.approx(-2.0)

    def test_table_renders(self):
        assert "Figure 3(a)" in table("figure3")


class TestFigure4:
    def test_matches_paper(self):
        result = payload("figure4")
        assert result.matches_paper
        assert result.shared_link_redundancy == pytest.approx(2.0)

    def test_higher_redundancy_lowers_rates_further(self):
        mild = payload("figure4", redundancy=1.5)
        severe = payload("figure4", redundancy=3.0)
        assert severe.allocation.min_rate() < mild.allocation.min_rate()

    def test_table_renders(self):
        assert "shared link" in table("figure4")


class TestFigure5:
    def test_bounds_and_monotonicity(self):
        result = payload("figure5")
        assert result.respects_upper_bounds
        for values in result.curves.values():
            assert values == sorted(values)

    def test_simulation_cross_check(self):
        result = payload(
            "figure5",
            receiver_counts=(1, 5, 20),
            simulate=True,
            packets_per_quantum=50,
            num_quanta=150,
            seed=1,
        )
        assert result.simulated is not None
        for name, simulated in result.simulated.items():
            for analytic, measured in zip(result.curves[name], simulated):
                assert measured == pytest.approx(analytic, rel=0.15)

    def test_table_renders(self):
        assert "receivers" in table("figure5")


class TestFigure6:
    def test_formula_matches_water_filling(self):
        result = payload("figure6")
        assert result.cross_check_max_error < 1e-9

    def test_curves_decrease_in_redundancy(self):
        result = payload("figure6")
        for values in result.curves.values():
            assert values == sorted(values, reverse=True)

    def test_full_population_curve_is_inverse(self):
        result = payload("figure6")
        for redundancy, value in zip(result.redundancies, result.curves[1.0]):
            assert value == pytest.approx(1.0 / redundancy)

    def test_table_renders(self):
        text = table("figure6")
        assert "fraction_multi_rate" in text and "0.05" in text


class TestFixedLayers:
    def test_paper_example(self):
        result = payload("fixed_layers")
        assert result.matches_paper_set
        assert result.no_max_min_fair_exists
        assert result.unconstrained_fair_rates == pytest.approx((0.5, 0.5))

    def test_table_renders(self):
        assert "max_min_fair_exists" in table("fixed_layers")


class TestFigure7:
    def test_equal_loss_is_worst_for_every_protocol(self):
        result = payload("figure7")
        assert result.equal_loss_is_worst

    def test_coordinated_never_higher_than_uncoordinated(self):
        result = payload("figure7")
        for coordinated, uncoordinated in zip(
            result.redundancy["coordinated"], result.redundancy["uncoordinated"]
        ):
            assert coordinated <= uncoordinated + 1e-9

    def test_table_renders(self):
        assert "loss split" in table("figure7")


class TestAblations:
    def test_layer_ablation_claims(self):
        run = get_experiment("layer_ablation").run()
        result = run.payload
        assert result.never_worse_than_single_layer
        assert result.monotone_in_layers
        assert "layers" in run.table()

    def test_layer_ablation_validation(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            get_experiment("layer_ablation").run(layer_counts=(2, 4))

    @pytest.mark.parametrize(
        "layer_counts",
        [(), (2, 4), (1, 0), (1, -2), (1, 2.5), (1, True), 1],
        ids=["empty", "no-baseline", "zero", "negative", "float", "bool", "scalar"],
    )
    def test_layer_ablation_spec_rejects_bad_layer_counts(self, layer_counts):
        from repro.errors import ExperimentError
        from repro.experiments.layer_ablation import LayerAblationSpec

        with pytest.raises(ExperimentError, match="layer_counts"):
            LayerAblationSpec(layer_counts=layer_counts)

    def test_mixed_sessions_lemma3(self):
        run = get_experiment("mixed_sessions").run(seed=3)
        result = run.payload
        assert result.ordering_is_monotone
        assert result.theorem2_holds_throughout
        assert len(result.steps) == result.num_sessions + 1
        assert "num_multi_rate" in run.table()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_sessions_other_seeds(self, seed):
        result = payload("mixed_sessions", seed=seed)
        assert result.ordering_is_monotone
