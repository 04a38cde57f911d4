import copy
import hashlib
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmbench.eventlog import EOC, MISSING, Event, EventLog, Trace, Vocabulary, augment_eoc
from ppmbench import models
from ppmbench.inference import DecodeConfig, SuffixPrediction, decode_suffix, decode_suffixes
from ppmbench.metrics import dl_similarity, evaluate_protocol, mae
from ppmbench.models import (
    AutoencoderPredictor, RecurrentPredictor, TrainConfig, build_predictor, train
)
from ppmbench.splitting import PrefixSample, make_prefix_samples, temporal_split

from conftest import (
    EventPredictor, FixedDistributionModel, HashedRandomModel, flat_labels, generator_log, make_linear_log,
    make_random_log, prefix_activities, reference_inputs,
)

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

    def test_unfitted_neural_model_rejected_before_encoding(self):
        log = augment_eoc(make_linear_log(5))
        for model in (RecurrentPredictor("gru", log.activity_vocab), AutoencoderPredictor(log.activity_vocab)):
            with pytest.raises(RuntimeError, match="before fit"):
                decode_suffix(model, log.traces[0].events[:2], DecodeConfig(max_len=3))

    def test_empty_prefix_rejected(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            decode_suffix(model, (), DecodeConfig(max_len=3))

    def test_sample_of_no_events_rejected(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0])
        trace = Trace("c", one_event_prefix())
        for k in (0, -1):
            with pytest.raises(ValueError, match="empty prefix"):
                decode_suffixes(model, [PrefixSample(trace, 1), PrefixSample(trace, k)], DecodeConfig(max_len=3))

    def test_sample_longer_than_its_trace_rejected(self):
        model = FixedDistributionModel(VOCAB3, [1.0, 0.0, 0.0])
        trace = Trace("c", one_event_prefix())
        n = len(trace.events)
        with pytest.raises(ValueError, match="exceeds its trace"):
            decode_suffixes(model, [PrefixSample(trace, n), PrefixSample(trace, n + 1)], DecodeConfig(max_len=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(strategy="nucleus")
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_len=0)
        for name, value in (("seed", -1), ("seed", 1.5), ("seed", True), ("max_len", 2.5),
                            ("max_len", True), ("beam_width", 2.0), ("beam_width", False)):
            with pytest.raises(ValueError, match=name):
                DecodeConfig(**{name: value})


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


class TestOneStart:
    """The protocol builds one start of its test samples and reads it twice:
    its ``predict()`` scores, and the decode searches from it."""

    def test_the_protocol_scores_the_start_once(self, monkeypatch):
        # the decode's first step reads the scores of the start, so only the
        # rows still unfinished after it are scored again
        log = augment_eoc(make_linear_log(40))
        split = temporal_split(log)
        model = RecurrentPredictor("gru", log.activity_vocab, config=TrainConfig(hidden=8, layers=1, epochs=1))
        train(model, split, seed=0)
        rows = []
        infer = model._infer

        def counting(hypotheses):
            rows.append(len(hypotheses))
            return infer(hypotheses)

        monkeypatch.setattr(model, "_infer", counting)
        evaluate_protocol(model, split.test, DecodeConfig(max_len=3))
        assert rows == [32, 24, 24]

    def test_direct_model_scores_next_activity_and_remaining_time_from_one_start(self):
        log = augment_eoc(make_linear_log(40))
        split = temporal_split(log)
        cfg = TrainConfig(hidden=8, layers=1, epochs=2, patience=2, time_target="remaining")
        model = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        train(model, split, seed=0)
        singles, starts = [], []
        predict, hypotheses = model.predict, model.hypotheses
        model.predict = lambda events: singles.append(len(events)) or predict(events)

        def spy_start(samples):
            starts.append([(s.trace.case_id, s.k) for s in samples])
            return hypotheses(samples)

        model.hypotheses = spy_start
        tasks = ("next_activity", "remaining_time")
        report = evaluate_protocol(model, split.test, DecodeConfig(), tasks=tasks)
        samples = make_prefix_samples(split.test)
        assert singles == []
        assert starts == [[(s.trace.case_id, s.k) for s in samples]]
        probs, times = hypotheses(samples).predict()
        assert probs.shape == (len(samples), len(log.activity_vocab))
        truths = [s.remaining_time for s in samples]
        assert report.mae_remaining == mae(times, truths)
        assert report.n_samples == {"next_activity": len(samples), "remaining_time": len(samples)}
        assert report.truncated_suffixes is None  # nothing was decoded

    @pytest.mark.parametrize(
        "arch, overrides, counted",
        [
            ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}, "replay_states"),
            ("autoencoder", {"ngram_dim": 16, "ae_hidden": (8, 4)}, "ngram_hash_codes"),
        ],
        ids=["mlp-timed-state", "autoencoder"],
    )
    def test_the_protocol_replays_or_hashes_its_test_set_once(self, arch, overrides, counted, monkeypatch):
        log, net = generator_log(1, 600)
        split = temporal_split(log)
        samples = make_prefix_samples(split.test)
        n = len(samples)
        assert n > 2 * models.REPLAY_CHUNK
        small = dict(hidden=8, layers=1, epochs=1, patience=1, pretrain_epochs=1, freeze_epochs=1)
        model = build_predictor(arch, TrainConfig(**small, **overrides), log.activity_vocab, log.attribute_vocabs, net)
        train(model, split, seed=1)
        calls = []

        def counting(*args, original=getattr(models, counted)):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(models, counted, counting)
        cfg = DecodeConfig(strategy="beam", beam_width=2, max_len=6)
        report = evaluate_protocol(model, split.test, cfg)
        assert len(calls) == (-(-n // models.REPLAY_CHUNK) if arch == "mlp" else 1)
        # the shared start scores and decodes as two starts of their own do
        probs, _ = model.predict_batch(samples)
        truth = [log.activity_vocab.index(s.next_activity) for s in samples]
        assert report.accuracy == sum(int(p == t) for p, t in zip(probs.argmax(axis=1).tolist(), truth)) / n
        decoded = decode_suffixes(model, samples, cfg)
        assert report.truncated_suffixes == sum(d.truncated for d in decoded)
        assert report.dl_similarity == sum(
            dl_similarity(d.activities, s.suffix_activities) for d, s in zip(decoded, samples)
        ) / n


class TestTruncatedSuffixCount:
    def test_a_model_that_never_ends_a_case_truncates_every_decode(self):
        log = augment_eoc(make_linear_log(12))
        never_ends = [0.0 if label == EOC else 1.0 for label in log.activity_vocab.labels]
        model = FixedDistributionModel(log.activity_vocab, np.array(never_ends) / sum(never_ends))
        cfg = DecodeConfig(max_len=3)
        report = evaluate_protocol(model, log, cfg, tasks=("next_activity", "suffix"))
        samples = make_prefix_samples(log)
        assert report.truncated_suffixes == len(samples)
        assert all(decode_suffix(model, s.prefix, cfg).truncated for s in samples)

    def test_a_model_that_always_ends_a_case_truncates_none(self):
        log = augment_eoc(make_linear_log(12))
        ends = [1.0 if label == EOC else 0.0 for label in log.activity_vocab.labels]
        model = FixedDistributionModel(log.activity_vocab, ends)
        report = evaluate_protocol(model, log, DecodeConfig(max_len=3), tasks=("suffix",))
        assert report.truncated_suffixes == 0
        n = report.n_samples["suffix"]
        assert report.as_rows() == [("suffix", "dl_similarity", report.dl_similarity, n)]


class TestLazyBeamExtension:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_each_step_extends_at_most_beam_width_survivors(self, width, monkeypatch):
        # the call log of one decode reads P...P E...E per step: the step's
        # predictions, then the extensions of its survivors
        log = []
        extend = models._extend
        monkeypatch.setattr(models, "_extend", lambda *args: log.append("E") or extend(*args))

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


def _ref_beam_decode(model, events, cfg, attr_names, final=None):
    # ``final``, when given, receives the beams the search ends with
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
    if final is not None:
        final.extend(beams)
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


class TieModel(EventPredictor):
    """Distributions over the vocabulary whose entries come from a few
    weights, each moved by up to two ulps: many candidates tie exactly, and
    more only once a score rounds. Keyed on the prefix activities."""

    time_target = "next"

    def __init__(self, vocab, seed):
        self.activity_vocab = vocab
        self.seed = seed

    def predict(self, events):
        key = "\x1f".join(e.activity for e in events).encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8, key=self.seed.to_bytes(8, "little")).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        weights = rng.integers(1, 3, size=len(self.activity_vocab)).astype(np.float64)
        probs = weights / weights.sum()
        for i, ulps in enumerate(rng.integers(-2, 3, size=len(probs))):
            for _ in range(abs(int(ulps))):
                probs[i] = np.nextafter(probs[i], 2.0 if ulps > 0 else 0.0)
        return probs, 3600.0


class TestPerParentPruning:
    def test_tied_candidates_are_pruned_as_the_loops_prune_them(self):
        vocab = Vocabulary([EOC, "a", "b", "c", "d", "e", "f", "g"])
        rounding_ties = 0
        for seed in range(30):
            model = TieModel(vocab, seed)
            probs, _ = model.predict(attributed_prefix(1, seed))
            scores = [-6.0 + math.log(p) for p in probs]
            rounding_ties += sum(
                a != b and sa == sb for a, sa in zip(probs, scores) for b, sb in zip(probs, scores)
            )
            for width in (1, 2, 3, 4):
                for normalize in (False, True):
                    cfg = DecodeConfig(strategy="beam", beam_width=width, max_len=5, length_normalize=normalize)
                    prefix = attributed_prefix(1 + seed % 3, seed)
                    assert decode_suffix(model, prefix, cfg) == _ref_decode(model, prefix, cfg), (seed, cfg)
        assert rounding_ties  # the distributions hold probabilities that differ but score alike


LOCKSTEP_CONFIGS = [
    DecodeConfig(strategy="argmax", max_len=8, seed=3),
    DecodeConfig(strategy="random", max_len=8, seed=3),
    DecodeConfig(strategy="beam", beam_width=2, max_len=8, length_normalize=True),
    DecodeConfig(strategy="beam", beam_width=3, max_len=8),
]
DECODE_MODELS = (
    ("markov", {}),
    ("gru", {"attributes": ("Resource",), "embedding_dim": 4}),
    ("gru", {"max_len": 4}),
    ("lstm", {"time_target": "remaining"}),
    ("rnn", {"time_target": None}),
    ("mlp", {"input_mode": "padded_flat"}),
    ("mlp", {"input_mode": "single_event"}),
    ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}),
    ("autoencoder", {"pretrain_epochs": 1, "freeze_epochs": 1}),
)


@pytest.fixture(scope="module")
def decode_models():
    """One trained model of every decoding form and the test prefixes of its log."""
    log, net = generator_log(3, 120)
    split = temporal_split(log)
    trained = []
    for arch, hp in DECODE_MODELS:
        config = TrainConfig(hidden=8, layers=1, epochs=1, patience=1, **hp)
        model = build_predictor(arch, config, split.train.activity_vocab, split.train.attribute_vocabs, net)
        train(model, split, seed=0)
        trained.append(model)
    return trained, make_prefix_samples(split.test)


@pytest.fixture(scope="module")
def ngram_models():
    """Autoencoders at ngram_k 1 and 4 on the log of ``decode_models``."""
    log, _ = generator_log(3, 120)
    split = temporal_split(log)
    trained = []
    for ngram_k in (1, 4):
        config = TrainConfig(epochs=1, patience=1, ngram_k=ngram_k, pretrain_epochs=1, freeze_epochs=1)
        model = build_predictor("autoencoder", config, split.train.activity_vocab, split.train.attribute_vocabs)
        train(model, split, seed=0)
        trained.append(model)
    return trained


WIDE_MODELS = (
    ("gru", {"hidden": 64, "layers": 2}),
    ("lstm", {"hidden": 128, "layers": 1}),
    ("mlp", {"hidden": 128, "layers": 2, "input_mode": "padded_flat"}),
    ("mlp", {"hidden": 64, "layers": 2, "input_mode": "timed_state"}),
)


@pytest.fixture(scope="module")
def wide_models():
    """Models at hidden 64 and 128, where a one-row product rounds otherwise
    than a many-row one, and the test prefixes of the log of ``decode_models``."""
    log, net = generator_log(3, 120)
    split = temporal_split(log)
    trained = []
    for arch, hp in WIDE_MODELS:
        config = TrainConfig(epochs=1, patience=1, **hp)
        model = build_predictor(arch, config, split.train.activity_vocab, split.train.attribute_vocabs, net)
        train(model, split, seed=0)
        trained.append(model)
    return trained, make_prefix_samples(split.test)


class TestLockstepSearch:
    @pytest.mark.parametrize("cfg", LOCKSTEP_CONFIGS, ids=lambda c: f"{c.strategy}{c.beam_width}")
    def test_one_search_over_all_prefixes_decodes_as_the_per_prefix_loops(self, decode_models, cfg):
        # every forward runs blocks of ROW_BLOCK rows: the batch changes no bit of any row
        trained, samples = decode_models
        for model in trained:
            expected = [_ref_decode(model, s.prefix, replace(cfg, seed=cfg.seed ^ i)) for i, s in enumerate(samples)]
            assert decode_suffixes(model, samples, cfg) == expected, model.architecture

    @pytest.mark.parametrize("cfg", LOCKSTEP_CONFIGS, ids=lambda c: f"{c.strategy}{c.beam_width}")
    def test_wide_models_decode_as_the_per_prefix_loops(self, wide_models, cfg):
        trained, samples = wide_models
        for model in trained:
            expected = [_ref_decode(model, s.prefix, replace(cfg, seed=cfg.seed ^ i)) for i, s in enumerate(samples)]
            assert decode_suffixes(model, samples, cfg) == expected, (model.architecture, model.config.hidden)

    def test_a_prefix_decodes_alike_alone_and_in_every_batch_order(self, decode_models):
        trained, samples = decode_models
        samples = samples[:40]
        orders = [np.random.default_rng(seed).permutation(len(samples)) for seed in range(2)]
        for model in trained:
            for cfg in LOCKSTEP_CONFIGS:
                batch = decode_suffixes(model, samples, cfg)
                for i in (0, 17, 39):
                    assert decode_suffix(model, samples[i].prefix, replace(cfg, seed=cfg.seed ^ i)) == batch[i]
                for order in orders:
                    shuffled = decode_suffixes(model, [samples[i] for i in order], cfg)
                    if cfg.strategy == "random":  # the generator goes with the position
                        batch = [
                            decode_suffix(model, samples[i].prefix, replace(cfg, seed=cfg.seed ^ j))
                            for j, i in enumerate(order)
                        ]
                        assert shuffled == batch
                    else:
                        assert shuffled == [batch[i] for i in order]

    def test_a_gru_decodes_past_its_window_as_the_loops_do(self, decode_models):
        trained, samples = decode_models
        gru = trained[2]
        assert gru.encoder.max_len == 4
        long = [s for s in samples if s.k >= 4]  # every hypothesis outgrows the window
        assert len(long) >= 10
        for cfg in LOCKSTEP_CONFIGS:
            expected = [_ref_decode(gru, s.prefix, replace(cfg, seed=cfg.seed ^ i)) for i, s in enumerate(long)]
            assert decode_suffixes(gru, long, cfg) == expected

    def test_carried_rows_equal_the_rows_of_the_extended_prefixes(self, decode_models, ngram_models):
        # random tokens take the timed-state mlp's hypotheses out of its net;
        # the autoencoders at ngram_k 1 and 4 carry no codes and three, and
        # markov the last order codes that its rows depend on
        trained, samples = decode_models
        rng = np.random.default_rng(0)
        for model in trained + ngram_models:
            hypotheses = model.hypotheses(samples)
            if model.config.input_mode == "timed_state":
                assert not hypotheses.states.nonconforming.any()
            events = [s.prefix for s in samples]
            for _ in range(6):
                parents = rng.integers(0, len(events), size=len(events) + 3).tolist()
                tokens = rng.integers(0, len(model.activity_vocab), size=len(parents)).tolist()
                deltas = rng.uniform(0.0, 1e6, size=len(parents)).tolist()
                hypotheses = hypotheses.extend(parents, tokens, deltas)
                label = model.activity_vocab.label
                events = [models._extend(events[p], label(t), d) for p, t, d in zip(parents, tokens, deltas)]
                if model.architecture == "markov":
                    order = model.config.order
                    contexts = [tuple(label(c) for c in row if c >= 0) for row in hypotheses.contexts.tolist()]
                    assert contexts == [tuple(ev.activity for ev in e[len(e) - order :]) for e in events]
                    continue
                X, M = reference_inputs(model, as_samples(events))
                cut_X, cut_M = hypotheses.inputs()
                assert np.array_equal(cut_X, X) and cut_X.dtype == X.dtype
                assert (M is None and cut_M is None) or np.array_equal(cut_M, M)
            if model.config.input_mode == "timed_state":
                states = [models.replay_timed_state(model.petri_net, e, e[-1].timestamp_ms, 1.0) for e in events]
                nonconforming = [state.nonconforming for state in states]
                assert hypotheses.states.nonconforming.tolist() == nonconforming
                assert min(nonconforming) > 0  # every test prefix replays, and every hypothesis has left the net

    def test_window_hypotheses_extend_past_their_window_as_the_reference(self):
        # an rnn reading a window of 3 events of T = 5 slots, extended for
        # more than T steps: each step's cut windows equal the reference
        # encode of the extended prefixes, its ids are its parent's shifted
        # left with the new row last and zero before the window, and the
        # rows table grows by the decoded rows alone
        log, net = generator_log(3, 120)
        split = temporal_split(log)
        config = TrainConfig(hidden=8, layers=1, epochs=1, patience=1, window=3, max_len=5)
        model = build_predictor("rnn", config, split.train.activity_vocab)
        train(model, split, seed=0)
        T, limit = model.encoder.max_len, model.encoder.limit
        assert (T, limit) == (5, 3)
        samples = make_prefix_samples(split.test)
        hypotheses = model.hypotheses(samples)
        events = [s.prefix for s in samples]
        rng = np.random.default_rng(0)
        for _ in range(T + 3):
            parents = rng.integers(0, len(events), size=len(events) + 3)
            tokens = rng.integers(0, len(model.activity_vocab), size=len(parents)).tolist()
            deltas = rng.uniform(0.0, 1e6, size=len(parents)).tolist()
            extended = hypotheses.extend(parents, tokens, deltas)
            label = model.activity_vocab.label
            events = [models._extend(events[p], label(t), d) for p, t, d in zip(parents, tokens, deltas)]
            X, M = reference_inputs(model, as_samples(events))
            cut_X, cut_M = extended.inputs()
            assert cut_X.dtype == X.dtype and cut_X.tobytes() == X.tobytes() and np.array_equal(cut_M, M)
            assert len(extended.rows) == len(hypotheses.rows) + len(parents)
            new = np.arange(len(hypotheses.rows), len(extended.rows))
            assert extended.ids.dtype == np.int32 and np.array_equal(extended.ids[:, -1], new)
            held = np.minimum([len(e) for e in events], limit)
            assert np.array_equal(extended.ids != 0, np.arange(T) >= T - held[:, None])
            kept = extended.ids[:, :-1] != 0
            assert np.array_equal(extended.ids[:, :-1][kept], hypotheses.ids[parents][:, 1:][kept])
            assert extended.truncated_prefixes == sum(len(e) > limit for e in events)
            hypotheses = extended

    def test_a_decode_starts_with_one_pass_per_sample_set(self, decode_models, monkeypatch):
        # the gru encodes, and the autoencoder hashes, its whole sample set
        # in one pass; the timed-state mlp replays it in consecutive ranges of
        # REPLAY_CHUNK samples. The samples are drawn with repeats, so a
        # trace's samples fall in several ranges, and about one event in four
        # lacks its attributes.
        trained, samples = decode_models
        rng = np.random.default_rng(0)
        traces = {id(s.trace): s.trace for s in samples}
        stripped = {
            key: Trace(t.case_id, tuple(replace(ev, attributes={}) if rng.random() < 0.25 else ev for ev in t.events))
            for key, t in traces.items()
        }
        drawn = rng.choice(len(samples), size=2 * models.REPLAY_CHUNK + 7)
        samples = [PrefixSample(stripped[id(samples[i].trace)], samples[i].k) for i in drawn]
        prefixes = [prefix_activities(s) for s in samples]
        for model in (trained[1], trained[8], trained[7]):
            calls = []  # the prefixes of each call's layout, in its order
            if model.architecture == "gru":
                def counted(flat, *args, encode_flat=model.encoder.encode_flat):
                    calls.append([tuple(flat_labels(flat)[e - k : e]) for e, k in zip(flat.ends, flat.ks)])
                    return encode_flat(flat, *args)

                monkeypatch.setattr(model.encoder, "encode_flat", counted)
            elif model.architecture == "mlp":
                def counted(net, flat, *args, replay=models.replay_states):
                    calls.append([tuple(flat_labels(flat)[e - k : e]) for e, k in zip(flat.ends, flat.ks)])
                    return replay(net, flat, *args)

                monkeypatch.setattr(models, "replay_states", counted)
            else:
                def counted(codes, labels, ends, ks, *args, hash_codes=models.ngram_hash_codes):
                    calls.append([tuple(labels[c] for c in codes[e - k : e]) for e, k in zip(ends, ks)])
                    return hash_codes(codes, labels, ends, ks, *args)

                monkeypatch.setattr(models, "ngram_hash_codes", counted)
            hypotheses = model.hypotheses(samples)
            assert [p for call in calls for p in call] == prefixes, model.architecture
            chunks = -(-len(samples) // models.REPLAY_CHUNK) if model.config.input_mode == "timed_state" else 1
            assert len(calls) == chunks, model.architecture
            X, M = reference_inputs(model, samples)
            cut_X, cut_M = hypotheses.inputs()
            assert np.array_equal(cut_X, X) and cut_X.dtype == X.dtype
            assert (M is None and cut_M is None) or np.array_equal(cut_M, M)
        # the last hypotheses are the timed-state mlp's
        missing = trained[7].attribute_vocabs["Resource"].index(MISSING)
        held = [["Resource" in s.trace.events[s.k - 1].attributes] for s in samples]
        assert 0 < sum(map(sum, held)) < len(held)
        assert hypotheses.decoded_counts[:, [missing]].tolist() == held
        assert hypotheses.decoded_counts.sum() == sum(map(sum, held))
        markov = trained[0]
        contexts = markov.hypotheses(samples).contexts.tolist()
        label = markov.activity_vocab.label
        assert [tuple(label(c) for c in row if c >= 0) for row in contexts] == [
            p[max(0, len(p) - markov.config.order) :] for p in prefixes
        ]


def _log_rule_pools():
    """Probabilities in [0.01, 0.15) from a fixed generator, split into those
    on which the running numpy's ``np.log`` rounds otherwise than ``math.log`` and
    the rest."""
    candidates = np.random.default_rng(0).uniform(0.01, 0.15, 100_000)
    apart = np.log(candidates) != np.array([math.log(p) for p in candidates.tolist()])
    return candidates[apart], candidates[~apart]


LOG_APART, LOG_ALIKE = _log_rule_pools()


class LogRuleModel(EventPredictor):
    """Distributions whose entries, all but one, are probabilities on which
    ``np.log`` and ``math.log`` round apart (any probabilities when the
    running numpy has none); the last entry takes the rest of the mass.
    Keyed on the prefix activities."""

    time_target = "next"

    def __init__(self, vocab, seed):
        self.activity_vocab = vocab
        self.seed = seed

    def predict(self, events):
        key = "\x1f".join(e.activity for e in events).encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8, key=self.seed.to_bytes(8, "little")).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        probs = rng.choice(LOG_APART if len(LOG_APART) else LOG_ALIKE, size=len(self.activity_vocab))
        rest = int(rng.integers(len(probs)))
        probs[rest] = 0.0
        probs[rest] = 1.0 - probs.sum()
        return probs, 3600.0


class TestLogRule:
    VOCAB = Vocabulary([EOC, "a", "b", "c", "d", "e"])

    def test_the_stub_holds_probabilities_that_np_log_rounds_apart(self):
        if not len(LOG_APART):
            pytest.skip("np.log and math.log agree on every probability tried")
        probs, _ = LogRuleModel(self.VOCAB, 0).predict(attributed_prefix(1, 0))
        assert (np.log(probs) != np.array([math.log(p) for p in probs.tolist()])).sum() >= len(probs) - 1

    def test_scores_compose_with_math_log(self):
        for seed in range(12):
            model = LogRuleModel(self.VOCAB, seed)
            prefix = attributed_prefix(1 + seed % 3, seed)
            for width in (1, 2, 3, 4):
                for normalize in (False, True):
                    cfg = DecodeConfig(strategy="beam", beam_width=width, max_len=5, length_normalize=normalize)
                    assert decode_suffix(model, prefix, cfg) == _ref_decode(model, prefix, cfg), (seed, cfg)


@pytest.fixture(scope="module")
def three_label_models():
    """A markov and a gru over two activities and the end-of-case label, and
    the test prefixes of their log."""
    log = augment_eoc(make_random_log(np.random.default_rng(5), 60, n_acts=2))
    split = temporal_split(log)
    trained = []
    for arch in ("markov", "gru"):
        model = build_predictor(arch, TrainConfig(hidden=8, layers=1, epochs=1, patience=1), log.activity_vocab)
        train(model, split, seed=0)
        trained.append(model)
    return trained, make_prefix_samples(split.test)


def sharing_tie_markov(eoc_first):
    """An order-2 markov at alpha 0 fitted on the cases A B and A B C D: after
    A it gives B EOC and B C D the same probability, 1/2, and B C D EOC too.
    ``eoc_first`` puts the end-of-case label first in its vocabulary, or last."""
    traces = tuple(
        Trace(f"c{i}", tuple(Event(f"c{i}", a, 1_500_000_000_000 + j * 60_000) for j, a in enumerate(acts)))
        for i, acts in enumerate((("A", "B"), ("A", "B", "C", "D")))
    )
    log = augment_eoc(EventLog(traces=traces, activity_vocab=Vocabulary(["A", "B", "C", "D"])))
    vocab = Vocabulary([EOC, "A", "B", "C", "D"] if eoc_first else ["A", "B", "C", "D", EOC])
    model = models.MarkovPredictor(vocab, TrainConfig(order=2, alpha=0.0))
    model.fit(make_prefix_samples(log), [], seed=0)
    return model, [s for s in make_prefix_samples(log) if s.k == 1]


def _ties_across_lengths(final, length_normalize):
    """Whether a finished beam ties in score with a longer one that shares its first token."""
    return any(
        f.finished and len(b.tokens) > len(f.tokens) and b.tokens[0] == f.tokens[0]
        and _ref_beam_score(f, length_normalize) == _ref_beam_score(b, length_normalize)
        for f in final for b in final
    )


class TestSearchEdges:
    @pytest.mark.parametrize("width", [3, 4, 6])
    def test_a_beam_wider_than_the_vocabulary(self, three_label_models, width):
        trained, samples = three_label_models
        for model in trained:
            assert len(model.activity_vocab) == 3
            for normalize in (False, True):
                cfg = DecodeConfig(strategy="beam", beam_width=width, max_len=5, length_normalize=normalize)
                expected = [_ref_decode(model, s.prefix, cfg) for s in samples]
                assert decode_suffixes(model, samples, cfg) == expected, (model.architecture, cfg)

    def test_max_len_cuts_beams_of_finished_and_unfinished_hypotheses(self, decode_models):
        trained, samples = decode_models
        samples = samples[:40]
        for model in trained[:2]:  # markov, gru
            mixed = 0
            for max_len in (1, 3):
                for normalize in (False, True):
                    cfg = DecodeConfig(strategy="beam", beam_width=3, max_len=max_len, length_normalize=normalize)
                    expected = []
                    for s in samples:
                        final = []
                        expected.append(_ref_beam_decode(model, s.prefix, cfg, tuple(s.prefix[-1].attributes), final))
                        mixed += len({b.finished for b in final}) == 2
                    assert decode_suffixes(model, samples, cfg) == expected, (model.architecture, cfg)
            assert mixed, model.architecture

    @pytest.mark.parametrize("eoc_first", [True, False])
    def test_a_finished_hypothesis_ties_a_longer_one_on_markov(self, eoc_first):
        model, samples = sharing_tie_markov(eoc_first)
        ties = 0
        for width in (1, 2, 3, 4):
            for normalize in (False, True):
                cfg = DecodeConfig(strategy="beam", beam_width=width, max_len=6, length_normalize=normalize)
                for s in samples:
                    final = []
                    expected = _ref_beam_decode(model, s.prefix, cfg, tuple(s.prefix[-1].attributes), final)
                    ties += _ties_across_lengths(final, normalize)
                    assert decode_suffix(model, s.prefix, cfg) == expected, (width, normalize)
        assert ties
        # at width 1 the tie after A B is the whole search: B EOC against B C
        cfg = DecodeConfig(strategy="beam", beam_width=1, max_len=6)
        assert decode_suffix(model, samples[0].prefix, cfg).activities == (
            ("B", EOC) if eoc_first else ("B", "C", "D", EOC)
        )

    def test_a_finished_hypothesis_ties_a_longer_one_on_gru(self, decode_models):
        # the head gives every prefix the same probability, 1/2 or 1/3, for
        # the end-of-case label and one or two others, and about 1e-22 for
        # every other label: normalised scores of lengths 1, 2 and 4 tie. One
        # gru has the end-of-case label last in its vocabulary, the other first
        trained, samples = decode_models
        samples = samples[:20]
        log, _ = generator_log(3, 120)
        labels = [label for label in log.activity_vocab.labels if label != EOC]
        log = replace(log, activity_vocab=Vocabulary([EOC] + labels))
        eoc_first = build_predictor("gru", TrainConfig(hidden=8, layers=1, epochs=1, patience=1), log.activity_vocab)
        train(eoc_first, temporal_split(log), seed=0)
        ties = 0
        for gru in (copy.deepcopy(trained[1]), eoc_first):
            eoc = gru.activity_vocab.index(EOC)
            others = [i for i in range(len(gru.activity_vocab)) if i != eoc]
            for tied in ([eoc, others[0]], [eoc, others[0], others[1]]):
                bias = np.full(len(gru.activity_vocab), -50.0)
                bias[tied] = 0.0
                gru.params["head_act:W"] = np.zeros_like(gru.params["head_act:W"])
                gru.params["head_act:b"] = bias.astype(gru.params["head_act:b"].dtype)
                assert (gru.predict_batch(samples)[0][:, tied] == 1.0 / len(tied)).all()
                for width in (1, 2, 3, 4):
                    for normalize in (False, True):
                        cfg = DecodeConfig(strategy="beam", beam_width=width, max_len=5, length_normalize=normalize)
                        expected = []
                        for s in samples:
                            final = []
                            attr_names = tuple(s.prefix[-1].attributes)
                            expected.append(_ref_beam_decode(gru, s.prefix, cfg, attr_names, final))
                            ties += _ties_across_lengths(final, normalize)
                        assert decode_suffixes(gru, samples, cfg) == expected, (eoc, tied, cfg)
        assert ties


@pytest.fixture(scope="module")
def timed_models(decode_models):
    """A gru reading a window of 3 events and the timed-state mlp of
    ``decode_models``, both with a next-time head, and the test prefixes."""
    trained, samples = decode_models
    log, net = generator_log(3, 120)
    split = temporal_split(log)
    gru = build_predictor("gru", TrainConfig(hidden=8, layers=1, epochs=1, patience=1, window=3), log.activity_vocab)
    train(gru, split, seed=0)
    return (gru, trained[7]), samples


class TestHugeTimePredictions:
    """A time head that predicts deltas past the int64 millisecond range, or
    infinite ones, still decodes to the end: a decoded event's step is
    rounded to the millisecond and clipped to [0, MAX_STEP_MS], while the
    suffix keeps the predicted deltas."""

    def test_steps_round_half_to_even_and_clip(self):
        deltas = [0.0, 0.0004, 0.0005, 0.0015, 0.0025, 1.2345, 86400.5, 3.7e9, 9e12]
        ms = models._decoded_ms(np.full(len(deltas), 7, dtype=np.int64), deltas)
        assert ms.dtype == np.int64
        assert ms.tolist() == [7 + int(round(d * 1000.0)) for d in deltas]
        huge = models._decoded_ms(np.zeros(5, dtype=np.int64), [-1.0, -math.inf, 1e200, sys.float_info.max, math.inf])
        assert huge.tolist() == [0, 0] + [models.MAX_STEP_MS] * 3

    @pytest.mark.parametrize("bias", [30.0, 1e4], ids=["huge", "infinite"])
    @pytest.mark.parametrize("which", [0, 1], ids=["gru-window", "mlp-timed-state"])
    def test_a_model_decodes_to_the_end(self, timed_models, which, bias):
        trained, samples = timed_models
        model = copy.deepcopy(trained[which])
        model.params["head_time:b"][:] = bias  # about 1e200 s at 30; expm1 overflows to inf at 1e4
        samples = samples[:24]
        with np.errstate(over="ignore"):
            _, times = model.predict_batch(samples)
            start = model.hypotheses(samples[:1])
            stepped = start.extend([0], [0], [float(times[0])])
            for cfg in LOCKSTEP_CONFIGS:
                suffixes = decode_suffixes(model, samples, cfg)
                for i, (sample, suffix) in enumerate(zip(samples, suffixes)):
                    assert suffix == decode_suffix(model, sample.prefix, replace(cfg, seed=cfg.seed ^ i))
                    assert suffix.truncated == (len(suffix.activities) == cfg.max_len and suffix.activities[-1] != EOC)
                    assert all(d >= 1e150 for d in suffix.time_deltas)
        assert np.isinf(times).all() if bias > 100 else np.isfinite(times).all() and (times > 1e150).all()
        if which == 0:
            assert stepped.last_ms[0] == start.last_ms[0] + models.MAX_STEP_MS
        else:
            assert stepped.states.at_ms[0] == start.states.at_ms[0] + models.MAX_STEP_MS

    @pytest.mark.parametrize("delta", [1e200, math.inf], ids=["huge", "infinite"])
    def test_a_duck_typed_model_decodes_to_the_end(self, delta):
        seen = []

        class HugeDeltaModel:  # not a Predictor: it decodes through EventHypotheses
            activity_vocab = VOCAB3
            time_target = "next"

            def predict(self, events):
                seen.append(events[-1].timestamp_ms)
                return np.array([1.0, 0.0, 0.0] if len(events) >= 4 else [0.0, 1.0, 0.0]), delta

        prefix = one_event_prefix()
        result = decode_suffix(HugeDeltaModel(), prefix, DecodeConfig(max_len=8))
        assert result.activities == ("a", "a", "a", EOC) and not result.truncated
        assert seen == [prefix[0].timestamp_ms + i * models.MAX_STEP_MS for i in range(4)]
        assert result.time_deltas == (min(delta, sys.float_info.max),) * 4  # the search reads inf as the largest float


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def as_samples(prefixes):
    """One sample per prefix, holding all of its events."""
    return [PrefixSample(Trace(p[0].case_id, tuple(p)), len(p)) for p in prefixes]


@st.composite
def decode_cases(draw):
    vocab = Vocabulary([EOC, "a", "b", "c", "d"][: draw(st.integers(2, 5))])
    model = HashedRandomModel(vocab, draw(st.integers(0, 2**63)))
    prefixes = [
        attributed_prefix(draw(st.integers(1, 3)), draw(st.integers(0, 100)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    cfg = DecodeConfig(
        strategy=draw(st.sampled_from(["argmax", "random", "beam"])),
        beam_width=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
        length_normalize=draw(st.booleans()),
    )
    return model, prefixes, cfg


class TestDecodeProperties:
    @PROPERTY_SETTINGS
    @given(decode_cases())
    def test_invariants(self, case):
        model, prefixes, cfg = case
        for pred in decode_suffixes(model, as_samples(prefixes), cfg):
            assert 1 <= len(pred.activities) <= cfg.max_len
            assert (pred.activities[-1] == EOC) == (not pred.truncated)
            assert EOC not in pred.activities[:-1]
            assert len(pred.time_deltas) == len(pred.activities)
            assert pred.remaining_time == sum(pred.time_deltas)

    @PROPERTY_SETTINGS
    @given(decode_cases())
    def test_argmax_equals_beam_of_width_one(self, case):
        model, prefixes, cfg = case
        argmax = decode_suffixes(model, as_samples(prefixes), replace(cfg, strategy="argmax"))
        beam1 = decode_suffixes(model, as_samples(prefixes), replace(cfg, strategy="beam", beam_width=1))
        assert argmax == beam1

    @PROPERTY_SETTINGS
    @given(decode_cases())
    def test_each_prefix_decodes_in_the_batch_as_alone_with_its_seed(self, case):
        model, prefixes, cfg = case
        alone = [decode_suffix(model, p, replace(cfg, seed=cfg.seed ^ i)) for i, p in enumerate(prefixes)]
        assert decode_suffixes(model, as_samples(prefixes), cfg) == alone
