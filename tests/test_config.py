"""Tests for PipelineConfig schedules and the paper-constant reference."""

import pytest

from repro.core import PipelineConfig, paper_constants


class TestValidation:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.expander_degree % 2 == 0

    def test_odd_expander_degree_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(expander_degree=7)

    def test_growth_below_two_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(growth=1)

    def test_with_overrides(self):
        config = PipelineConfig().with_overrides(growth=8)
        assert config.growth == 8
        assert PipelineConfig().growth == 4  # original untouched

    @pytest.mark.parametrize(
        "field, value", [("walk_rounds_cap", 24), ("leader_floor", 1e-3)]
    )
    def test_fields_no_stage_reads_are_gone(self, field, value):
        """No stage read either constant, so setting one changed nothing;
        the pipeline now rejects them instead of ignoring them."""
        with pytest.raises(TypeError):
            PipelineConfig(**{field: value})


class TestSchedules:
    def test_phase_count_is_log_log(self):
        """F grows like log log n (Lemma 6.7's phase bound)."""
        config = PipelineConfig(growth=4, max_phases=10, target_size_exponent=1 / 3)
        f_small = config.phase_count(100)
        f_large = config.phase_count(10**9)
        assert f_small <= f_large
        assert f_large <= 5  # log2 log4 (1e9^(1/3)) ~ 2.4

    def test_phase_count_capped(self):
        config = PipelineConfig(max_phases=2)
        assert config.phase_count(10**12) <= 2

    def test_growth_schedule_squares(self):
        """Δ_i = Δ^{2^{i-1}} (Eq. 3)."""
        config = PipelineConfig(growth=4, max_phases=3, target_size_exponent=0.9)
        schedule = config.growth_schedule(10**8)
        for first, second in zip(schedule, schedule[1:]):
            assert second == first**2

    def test_schedule_reaches_target(self):
        config = PipelineConfig(growth=4, max_phases=8)
        n = 10**6
        f = config.phase_count(n)
        size_after = config.growth ** (2**f - 1)
        assert size_after >= n ** config.target_size_exponent or f == config.max_phases

    def test_batch_half_degree(self):
        config = PipelineConfig(growth=4, oversample=8)
        assert config.batch_half_degree == 16

    def test_no_walk_count(self):
        """``randomize_components`` derives its walk count from
        ``batches · batch_half_degree``; the config carries no copy."""
        assert not hasattr(PipelineConfig(), "walk_count")


class TestWalkLength:
    def test_longer_for_smaller_gap(self):
        config = PipelineConfig()
        assert config.walk_length(1000, 0.01) > config.walk_length(1000, 0.5)

    def test_capped(self):
        config = PipelineConfig(max_walk_length=64)
        assert config.walk_length(10**6, 1e-9) == 64

    def test_floor(self):
        config = PipelineConfig()
        assert config.walk_length(10, 2.0) >= 4

    def test_gap_retention_lengthens_walks(self):
        tight = PipelineConfig(gap_retention=1.0)
        loose = PipelineConfig(gap_retention=0.1)
        assert loose.walk_length(1000, 0.3) > tight.walk_length(1000, 0.3)


class TestPaperConstants:
    def test_constants_at_representative_n(self):
        consts = paper_constants(10**5)
        assert consts["expander_degree"] == 100
        # eps = (100 log n)^-2 is tiny; s = 1e6 log n / eps^2 is astronomical.
        assert consts["eps"] < 1e-5
        assert consts["oversample"] > 1e12
        assert consts["phases"] >= 1

    def test_walks_per_vertex_is_50_log_n(self):
        import math

        consts = paper_constants(1000)
        assert consts["walks_per_vertex"] == pytest.approx(50 * math.log(1000))
