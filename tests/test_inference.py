import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmbench.eventlog import EOC, MISSING, Event, Vocabulary, augment_eoc
from ppmbench import inference
from ppmbench.inference import DecodeConfig, SuffixPrediction, decode_suffix
from ppmbench.metrics import evaluate_protocol, mae
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
        class EndAfterOne(FixedDistributionModel):
            def predict(self, events):
                if len(events) >= 2:
                    return np.array([1.0, 0.0, 0.0]), self.delta
                return np.array([0.0, 1.0, 0.0]), self.delta

        model = EndAfterOne(VOCAB3, [0.0, 1.0, 0.0], delta=86400.0)
        for strategy in ("argmax", "random", "beam"):
            pred = decode_suffix(
                model, one_event_prefix(), DecodeConfig(strategy=strategy, beam_width=2, max_len=5)
            )
            assert pred.activities == ("a", EOC)
            assert pred.time_deltas == (86400.0, 86400.0)
            assert pred.remaining_time == 172800.0

    def test_single_eoc_delta(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0], delta=42.0)
        for strategy in ("argmax", "random", "beam"):
            pred = decode_suffix(model, one_event_prefix(), DecodeConfig(strategy=strategy, max_len=5))
            assert pred.activities == (EOC,)
            assert pred.remaining_time == 42.0

    def test_truncated_sum(self):
        class GrowingDelta(FixedDistributionModel):
            def predict(self, events):
                return self.probs.copy(), 10.0 * len(events)

        model = GrowingDelta(VOCAB3, [0.0, 1.0, 0.0])
        for strategy in ("argmax", "random", "beam"):
            pred = decode_suffix(model, one_event_prefix(), DecodeConfig(strategy=strategy, max_len=2))
            assert pred.truncated
            assert pred.time_deltas == (10.0, 20.0)
            assert pred.remaining_time == 30.0

    def test_no_time_head_decodes_zero_deltas(self):
        model = FixedDistributionModel(VOCAB3, [0.5, 0.5, 0.0], delta=None)
        model.time_target = None
        pred = decode_suffix(model, one_event_prefix(), DecodeConfig(strategy="beam", beam_width=2, max_len=3))
        assert pred.time_deltas == (0.0,) * len(pred.activities)
        assert pred.remaining_time == 0.0

    def test_direct_on_trained_model(self):
        log = augment_eoc(make_linear_log(60))
        split = temporal_split(log)
        cfg = TrainConfig(hidden=16, layers=1, epochs=40, patience=10, time_target="remaining")
        model = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        train(model, split, seed=0)
        # prefix = full trace minus EOC: the true remaining time is zero
        sample = [s for s in make_prefix_samples(split.test) if s.next_activity == EOC][0]
        _, value = model.predict(sample.prefix)
        assert value >= 0.0
        assert value / 86400.0 < 0.3  # within normalization tolerance of zero

    def test_direct_clamps_negative(self):
        class NegativeTimeModel(FixedDistributionModel):
            time_target = "remaining"

            def predict(self, events):
                return self.probs.copy(), -50.0

        log = direct_test_log()
        model = NegativeTimeModel(log.activity_vocab, [1.0] + [0.0] * 4)
        report = evaluate_protocol(model, log, DecodeConfig(), tasks=("remaining_time",))
        truths = [s.remaining_time for s in make_prefix_samples(log)]
        assert report.mae_remaining == mae([0.0] * len(truths), truths)

    def test_direct_without_time_value_rejected(self):
        log = direct_test_log()
        model = FixedDistributionModel(log.activity_vocab, [1.0] + [0.0] * 4, delta=None)
        model.time_target = "remaining"
        with pytest.raises(ValueError, match="no time prediction"):
            evaluate_protocol(model, log, DecodeConfig(), tasks=("remaining_time",))


def direct_test_log():
    """Ten linear A-B-C-D cases, EOC-augmented (vocabulary A, B, C, D, EOC)."""
    return augment_eoc(make_linear_log(10))


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

        log = direct_test_log()
        model = ZeroHeadModel(log.activity_vocab, [1.0] + [0.0] * 4)
        report = evaluate_protocol(model, log, DecodeConfig(), tasks=("remaining_time",))
        truths = [s.remaining_time for s in make_prefix_samples(log)]
        assert norm.inverse([0.0])[0] == pytest.approx(3600.0)  # the train minimum, constant
        assert report.mae_remaining == mae([3600.0] * len(truths), truths)


class TestOnePredictPerPrefix:
    def test_direct_model_scores_next_activity_and_remaining_time_from_one_predict(self):
        log = augment_eoc(make_linear_log(40))
        split = temporal_split(log)
        cfg = TrainConfig(hidden=8, layers=1, epochs=2, patience=2, time_target="remaining")
        model = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        train(model, split, seed=0)
        calls = []
        predict = model.predict
        model.predict = lambda events: calls.append(len(events)) or predict(events)
        tasks = ("next_activity", "remaining_time")
        report = evaluate_protocol(model, split.test, DecodeConfig(), tasks=tasks)
        samples = make_prefix_samples(split.test)
        assert calls == [len(s.prefix) for s in samples]
        model.predict = predict
        direct = [model.predict(s.prefix)[1] for s in samples]
        truths = [s.remaining_time for s in samples]
        assert report.mae_remaining == mae(direct, truths)
        assert report.n_samples == {"next_activity": len(samples), "remaining_time": len(samples)}


class TestLazyBeamExtension:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_each_step_extends_at_most_beam_width_survivors(self, width, monkeypatch):
        # the call log of one decode reads P...P E...E per step: the step's
        # predictions, then the extensions of its survivors
        log = []
        extend = inference._extend
        monkeypatch.setattr(inference, "_extend", lambda *args: log.append("E") or extend(*args))

        class LoggingModel(HashedRandomModel):
            def predict(self, events):
                log.append("P")
                return super().predict(events)

        vocab = Vocabulary([EOC, "a", "b", "c", "d", "e"])
        extended = 0
        for seed in range(8):
            log.clear()
            model = LoggingModel(vocab, seed)
            cfg = DecodeConfig(strategy="beam", beam_width=width, max_len=6, seed=seed)
            decode_suffix(model, attributed_prefix(2, seed), cfg)
            runs = "".join(log).replace("P", " ").split()
            assert all(len(run) <= width for run in runs), (seed, runs)
            extended += len(runs)
        assert extended


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


# --- the two decode loops that the single hypothesis search replaced,
# copied as they were: argmax and random sampling in one loop, beam search
# in another. ---


def _ref_extend(events, activity, delta, attr_names):
    last = events[-1]
    predicted = Event(
        case_id=last.case_id,
        activity=activity,
        timestamp_ms=last.timestamp_ms + int(round(delta * 1000.0)),
        attributes={name: MISSING for name in attr_names},
    )
    return events + (predicted,)


def _ref_log(p):
    return math.log(max(p, 1e-300))


def _ref_decode(model, prefix, cfg):
    events = tuple(prefix)
    attr_names = tuple(events[-1].attributes)
    if cfg.strategy == "beam":
        return _ref_beam_decode(model, events, cfg, attr_names)
    rng = np.random.default_rng(cfg.seed) if cfg.strategy == "random" else None
    activities, deltas, log_prob = [], [], 0.0
    vocab = model.activity_vocab
    for _ in range(cfg.max_len):
        probs, delta = model.predict(events)
        if cfg.strategy == "argmax":
            choice = int(np.argmax(probs))
        else:
            choice = int(rng.choice(len(probs), p=probs / probs.sum()))
        label = vocab.label(choice)
        step_delta = float(delta) if (delta is not None and model.time_target == "next") else 0.0
        activities.append(label)
        deltas.append(step_delta)
        log_prob += _ref_log(float(probs[choice]))
        if label == EOC:
            return SuffixPrediction(tuple(activities), tuple(deltas), sum(deltas), log_prob)
        events = _ref_extend(events, label, step_delta, attr_names)
    return SuffixPrediction(tuple(activities), tuple(deltas), sum(deltas), log_prob, truncated=True)


@dataclass
class _RefBeam:
    events: tuple
    tokens: tuple
    deltas: tuple
    log_prob: float
    finished: bool


def _ref_beam_score(beam, length_normalize):
    if length_normalize and beam.tokens:
        return beam.log_prob / len(beam.tokens)
    return beam.log_prob


def _ref_beam_decode(model, events, cfg, attr_names):
    vocab = model.activity_vocab
    eoc_idx = vocab.index(EOC)
    beams = [_RefBeam(events, (), (), 0.0, False)]
    for _ in range(cfg.max_len):
        if all(b.finished for b in beams):
            break
        candidates = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            probs, delta = model.predict(beam.events)
            step_delta = float(delta) if (delta is not None and model.time_target == "next") else 0.0
            for idx in range(len(probs)):
                tokens = beam.tokens + (idx,)
                lp = beam.log_prob + _ref_log(float(probs[idx]))
                if idx == eoc_idx:
                    candidates.append(_RefBeam(beam.events, tokens, beam.deltas + (step_delta,), lp, True))
                else:
                    candidates.append(
                        _RefBeam(
                            _ref_extend(beam.events, vocab.label(idx), step_delta, attr_names),
                            tokens, beam.deltas + (step_delta,), lp, False,
                        )
                    )
        candidates.sort(key=lambda b: (-_ref_beam_score(b, cfg.length_normalize), b.tokens))
        beams = candidates[: cfg.beam_width]
    best = min(beams, key=lambda b: (not b.finished, -_ref_beam_score(b, cfg.length_normalize), b.tokens))
    return SuffixPrediction(
        activities=tuple(vocab.label(i) for i in best.tokens),
        time_deltas=best.deltas,
        remaining_time=sum(best.deltas),
        cumulative_log_prob=best.log_prob,
        truncated=not best.finished,
    )


class HashedEventModel(HashedRandomModel):
    """Like ``HashedRandomModel``, but the distribution also depends on every
    event's timestamp and attributes, so a decoder that extends the prefix
    differently decodes differently."""

    def predict(self, events):
        key = "\x1f".join(
            f"{e.activity}|{e.timestamp_ms}|{sorted(e.attributes.items())}" for e in events
        ).encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8, key=self.seed.to_bytes(8, "little")).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        probs = rng.dirichlet(np.ones(len(self.activity_vocab)))
        return probs, float(rng.uniform(60.0, 86400.0))


def attributed_prefix(length, seed):
    """A prefix of ``length`` events over labels a/b/c with a resource attribute."""
    return tuple(
        Event(
            case_id="c",
            activity="abc"[(seed + i) % 3],
            timestamp_ms=1_600_000_000_000 + i * 3_723_500,
            attributes={"res": f"r{(seed * 7 + i) % 4}", "org": "o1"},
        )
        for i in range(length)
    )


DECODE_CONFIGS = [
    DecodeConfig(strategy=strategy, beam_width=width, max_len=6, length_normalize=normalize)
    for strategy in ("argmax", "random", "beam")
    for width in (1, 2, 3, 4)
    for normalize in (False, True)
]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("model_cls", [HashedRandomModel, HashedEventModel])
    def test_search_matches_the_two_loops(self, model_cls):
        for seed in range(24):
            vocab = Vocabulary([EOC, "a", "b", "c", "d", "e"][: 4 + seed % 3])
            model = model_cls(vocab, seed)
            for length in (1, 2, 3):
                prefix = attributed_prefix(length, seed)
                for cfg in DECODE_CONFIGS:
                    cfg = replace(cfg, seed=seed)
                    expected = _ref_decode(model, prefix, cfg)
                    got = decode_suffix(model, prefix, cfg)
                    assert got == expected, (seed, length, cfg)

    def test_short_max_len_truncates_like_the_loops(self):
        vocab = Vocabulary([EOC, "a", "b", "c"])
        for seed in range(40):
            model = HashedRandomModel(vocab, seed)
            for cfg in DECODE_CONFIGS:
                cfg = replace(cfg, max_len=1 + seed % 3, seed=seed)
                prefix = attributed_prefix(1 + seed % 3, seed)
                assert decode_suffix(model, prefix, cfg) == _ref_decode(model, prefix, cfg)


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def decode_cases(draw):
    vocab = Vocabulary([EOC, "a", "b", "c", "d"][: draw(st.integers(2, 5))])
    model = HashedRandomModel(vocab, draw(st.integers(0, 2**63)))
    prefix = attributed_prefix(draw(st.integers(1, 3)), draw(st.integers(0, 100)))
    cfg = DecodeConfig(
        strategy=draw(st.sampled_from(["argmax", "random", "beam"])),
        beam_width=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
        length_normalize=draw(st.booleans()),
    )
    return model, prefix, cfg


class TestDecodeProperties:
    @PROPERTY_SETTINGS
    @given(decode_cases())
    def test_invariants(self, case):
        model, prefix, cfg = case
        pred = decode_suffix(model, prefix, cfg)
        assert 1 <= len(pred.activities) <= cfg.max_len
        assert (pred.activities[-1] == EOC) == (not pred.truncated)
        assert EOC not in pred.activities[:-1]
        assert len(pred.time_deltas) == len(pred.activities)
        assert pred.remaining_time == sum(pred.time_deltas)

    @PROPERTY_SETTINGS
    @given(decode_cases())
    def test_argmax_equals_beam_of_width_one(self, case):
        model, prefix, cfg = case
        argmax = decode_suffix(model, prefix, replace(cfg, strategy="argmax"))
        beam1 = decode_suffix(model, prefix, replace(cfg, strategy="beam", beam_width=1))
        assert argmax == beam1
