import numpy as np
import pytest

from ppmbench.eventlog import EOC, MISSING, Event, Vocabulary, augment_eoc
from ppmbench.inference import (
    DecodeConfig,
    SuffixPrediction,
    decode_suffix,
    remaining_time_direct,
    remaining_time_recursive,
)
from ppmbench.models import RecurrentPredictor, TrainConfig, train
from ppmbench.splitting import make_prefix_samples, temporal_split

from conftest import FixedDistributionModel, HashedRandomModel, make_linear_log

VOCAB3 = Vocabulary([EOC, "a", "b"])


def one_event_prefix(activity="a"):
    return (
        Event(
            case_id="c",
            activity=activity,
            timestamp_ms=1_600_000_000_000,
            attributes={"res": "r1"},
        ),
    )


class TestDecodeBasics:
    def test_point_mass_on_eoc(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0], delta=1234.0)
        pred = decode_suffix(model, one_event_prefix(), DecodeConfig(max_len=10))
        assert pred.activities == (EOC,)
        assert pred.time_deltas == (1234.0,)
        assert pred.remaining_time == 1234.0
        assert not pred.truncated

    def test_truncation_at_max_len(self):
        model = FixedDistributionModel(VOCAB3, [0.0, 1.0, 0.0])  # never EOC
        pred = decode_suffix(model, one_event_prefix(), DecodeConfig(max_len=4))
        assert pred.activities == ("a", "a", "a", "a")
        assert pred.truncated

    def test_predicted_events_carry_missing_attributes(self):
        seen = []

        class SpyModel(FixedDistributionModel):
            def predict(self, events):
                seen.append(events[-1])
                return super().predict(events)

        model = SpyModel(VOCAB3, [0.2, 0.8, 0.0], delta=60.0)
        decode_suffix(model, one_event_prefix(), DecodeConfig(strategy="argmax", max_len=3))
        # the second call sees the first predicted event
        assert seen[1].attributes == {"res": MISSING}
        assert seen[1].timestamp_ms == seen[0].timestamp_ms + 60_000

    def test_argmax_tie_breaks_lowest_index(self):
        model = FixedDistributionModel(VOCAB3, [0.0, 0.5, 0.5])
        pred = decode_suffix(model, one_event_prefix(), DecodeConfig(max_len=1))
        assert pred.activities == ("a",)  # index 1 beats index 2

    def test_argmax_is_seed_independent(self):
        model = HashedRandomModel(VOCAB3, seed=5)
        a = decode_suffix(model, one_event_prefix(), DecodeConfig(max_len=6, seed=1))
        b = decode_suffix(model, one_event_prefix(), DecodeConfig(max_len=6, seed=999))
        assert a == b

    def test_non_distribution_rejected(self):
        for probs in ([0.9, 0.9, 0.1], [np.nan] * 3):
            model = FixedDistributionModel(VOCAB3, probs)
            with pytest.raises(ValueError):
                decode_suffix(model, one_event_prefix(), DecodeConfig(max_len=3))

    def test_empty_prefix_rejected(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            decode_suffix(model, (), DecodeConfig(max_len=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(strategy="nucleus")
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_len=0)


class TestStrategyEquivalences:
    def test_beam_one_equals_argmax_on_seeded_models(self):
        vocab = Vocabulary([EOC, "a", "b", "c"])
        for seed in range(100):
            model = HashedRandomModel(vocab, seed)
            prefix = one_event_prefix("a" if seed % 2 else "b")
            a = decode_suffix(model, prefix, DecodeConfig(strategy="argmax", max_len=8))
            b = decode_suffix(model, prefix, DecodeConfig(strategy="beam", beam_width=1, max_len=8))
            assert a.activities == b.activities
            assert a.cumulative_log_prob == pytest.approx(b.cumulative_log_prob, abs=1e-9)

    def test_point_mass_all_strategies_agree(self):
        model = FixedDistributionModel(VOCAB3, [0.0, 1.0, 0.0])

        class EndAfterTwo(FixedDistributionModel):
            def predict(self, events):
                if len(events) >= 3:
                    return np.array([1.0, 0.0, 0.0]), self.delta
                return np.array([0.0, 1.0, 0.0]), self.delta

        model = EndAfterTwo(VOCAB3, [0.0, 1.0, 0.0])
        outs = [
            decode_suffix(model, one_event_prefix(), DecodeConfig(strategy=s, beam_width=3, max_len=9, seed=4))
            for s in ("argmax", "random", "beam")
        ]
        assert outs[0].activities == outs[1].activities == outs[2].activities == ("a", "a", EOC)

    def test_beam_never_scores_below_greedy(self):
        vocab = Vocabulary([EOC, "a", "b", "c"])
        for seed in range(60):
            model = HashedRandomModel(vocab, seed)
            prefix = one_event_prefix()
            greedy = decode_suffix(model, prefix, DecodeConfig(strategy="beam", beam_width=1, max_len=7))
            wide = decode_suffix(model, prefix, DecodeConfig(strategy="beam", beam_width=4, max_len=7))
            assert wide.cumulative_log_prob >= greedy.cumulative_log_prob - 1e-12

    def test_random_first_step_frequencies(self):
        model = FixedDistributionModel(VOCAB3, [0.5, 0.3, 0.2])
        counts = np.zeros(3)
        n = 20_000
        for seed in range(n):
            pred = decode_suffix(
                model, one_event_prefix(), DecodeConfig(strategy="random", max_len=5, seed=seed)
            )
            counts[VOCAB3.index(pred.activities[0])] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - np.array([0.5, 0.3, 0.2])) < 0.015)

    def test_no_output_exceeds_max_len(self):
        vocab = Vocabulary([EOC, "a", "b"])
        for seed in range(20):
            model = HashedRandomModel(vocab, seed)
            for strategy in ("argmax", "random", "beam"):
                pred = decode_suffix(
                    model,
                    one_event_prefix(),
                    DecodeConfig(strategy=strategy, beam_width=2, max_len=5, seed=seed),
                )
                assert len(pred.activities) <= 5
                assert pred.activities.count(EOC) <= 1
                if pred.activities and pred.activities[-1] != EOC:
                    assert pred.truncated


class TestRemainingTime:
    def test_recursive_sums_deltas(self):
        pred = SuffixPrediction(
            activities=("x", EOC), time_deltas=(86400.0, 86400.0),
            remaining_time=172800.0, cumulative_log_prob=-0.5,
        )
        assert remaining_time_recursive(pred) == 172800.0

    def test_single_eoc_delta(self):
        pred = SuffixPrediction(
            activities=(EOC,), time_deltas=(42.0,), remaining_time=42.0, cumulative_log_prob=0.0
        )
        assert remaining_time_recursive(pred) == 42.0

    def test_truncated_sum(self):
        pred = SuffixPrediction(
            activities=("a", "a"), time_deltas=(10.0, 20.0),
            remaining_time=30.0, cumulative_log_prob=-2.0, truncated=True,
        )
        assert remaining_time_recursive(pred) == 30.0

    def test_direct_requires_remaining_head(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0])  # time_target == "next"
        with pytest.raises(ValueError):
            remaining_time_direct(model, one_event_prefix())

    def test_direct_on_trained_model(self):
        log = augment_eoc(make_linear_log(60))
        split = temporal_split(log)
        cfg = TrainConfig(hidden=16, layers=1, epochs=40, patience=10, time_target="remaining")
        model = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        train(model, split, seed=0)
        # prefix = full trace minus EOC: the true remaining time is zero
        sample = [s for s in make_prefix_samples(split.test) if s.next_activity == EOC][0]
        value = remaining_time_direct(model, sample.prefix)
        assert value >= 0.0
        assert value / 86400.0 < 0.3  # within normalization tolerance of zero

    def test_direct_clamps_negative(self):
        class NegativeTimeModel(FixedDistributionModel):
            time_target = "remaining"

            def predict(self, events):
                return self.probs.copy(), -50.0

        model = NegativeTimeModel(VOCAB3, [1.0, 0.0, 0.0])
        assert remaining_time_direct(model, one_event_prefix()) == 0.0


class TestZeroWeightDirectModel:
    def test_untrained_zero_head_yields_inverse_of_zero(self):
        # a zero-weight remaining head emits 0 in normalized space; the
        # prediction is then the inverse transform of 0, clamped at >= 0
        from ppmbench.encoding import Normalizer

        norm = Normalizer("log").fit([3600.0, 7200.0])

        class ZeroHeadModel(FixedDistributionModel):
            time_target = "remaining"

            def predict(self, events):
                return self.probs.copy(), max(0.0, float(norm.inverse([0.0])[0]))

        model = ZeroHeadModel(VOCAB3, [1.0, 0.0, 0.0])
        value = remaining_time_direct(model, one_event_prefix())
        assert value == pytest.approx(3600.0)  # the train minimum, constant


class TestBeamLengthNormalization:
    class TwoStepModel(FixedDistributionModel):
        """P(EOC)=0.6 at the prefix; P(EOC)=0.99 after one more event."""

        def predict(self, events):
            if len(events) == 1:
                return np.array([0.6, 0.4, 0.0]), self.delta
            return np.array([0.99, 0.01, 0.0]), self.delta

    def test_flag_changes_selection(self):
        model = self.TwoStepModel(VOCAB3, [0.6, 0.4, 0.0])
        plain = decode_suffix(
            model, one_event_prefix(),
            DecodeConfig(strategy="beam", beam_width=3, max_len=5),
        )
        normalized = decode_suffix(
            model, one_event_prefix(),
            DecodeConfig(strategy="beam", beam_width=3, max_len=5, length_normalize=True),
        )
        # composed probability favors stopping (0.6 > 0.4 * 0.99); the
        # per-step average favors the longer, higher-average sequence
        assert plain.activities == (EOC,)
        assert normalized.activities == ("a", EOC)
