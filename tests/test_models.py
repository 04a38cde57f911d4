import functools
import gc
import json
import math
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ppmbench import models
from ppmbench.bench import BenchmarkConfig, ConfigError, DatasetSpec, ModelSpec
from ppmbench import nnkernel as nn
from ppmbench.eventlog import EOC, Event, EventLog, Trace, UnknownLabelError, Vocabulary, augment_eoc
from ppmbench.inference import DecodeConfig, decode_suffixes
from ppmbench.metrics import evaluate_protocol
from ppmbench.models import (
    POOL_BATCHES,
    REPLAY_CHUNK,
    AutoencoderPredictor,
    MarkovPredictor,
    MLPPredictor,
    Predictor,
    RecurrentPredictor,
    TrainConfig,
    TrainReport,
    build_predictor,
    load_predictor,
    save_predictor,
    train,
)
from ppmbench.petrinet import PetriNet, TimedStateVector, Transition, replay_states
from ppmbench.splitting import FlatPrefixes, PrefixSample, SampleSet, make_prefix_samples, temporal_split

from conftest import (
    DenseInputs, flat_labels, generator_log, make_linear_log, make_random_log, markov_tables, prefix_activities,
    ref_batch_inputs, start_inputs,
)
from test_label_codes import ref_ngram_hash_prefixes

def npz_arrays(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def fast_config(**overrides):
    defaults = dict(hidden=12, layers=1, epochs=6, patience=6, batch_size=16)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def linear_split():
    log = augment_eoc(make_linear_log(60))
    return log, temporal_split(log)


def linear_net():
    """Sound workflow net of the A-B-C-D chain that make_linear_log writes."""
    acts = ["A", "B", "C", "D"]
    places = tuple(f"p{i}" for i in range(5))
    transitions = tuple(Transition(f"t{a}", a) for a in acts)
    arcs = []
    for i, a in enumerate(acts):
        arcs.append((f"p{i}", f"t{a}"))
        arcs.append((f"t{a}", f"p{i+1}"))
    return PetriNet(
        places=places, transitions=transitions, arcs=tuple(arcs), initial_marking={"p0": 1}
    )


def markov_fit(samples, vocab, order=2, alpha=0.0):
    predictor = MarkovPredictor(vocab, TrainConfig(order=order, alpha=alpha))
    predictor.fit(samples, [], seed=0)
    return predictor


def activity_events(acts):
    return tuple(
        Event(case_id="q", activity=a, timestamp_ms=1_000_000 + 1000 * i) for i, a in enumerate(acts)
    )


class TestMarkov:
    def test_deterministic_process(self):
        log = augment_eoc(make_linear_log(5, acts=("A", "B", "C")))
        predictor = markov_fit(make_prefix_samples(log), log.activity_vocab)
        probs, _ = predictor.predict(activity_events(("A",)))
        assert probs[log.activity_vocab.index("B")] == 1.0

    def test_unseen_context_pure_smoothing_is_uniform(self):
        vocab = Vocabulary(["A", "B", "C", "D"])
        probs, delta = markov_fit([], vocab, alpha=1.0).predict(activity_events(("A", "B")))
        assert np.allclose(probs, 0.25)
        assert delta is None

    def test_two_continuations_equal_probability(self):
        # train = {ABC, ABD} in equal measure; context (A, B)
        traces = []
        for i, acts in enumerate((("A", "B", "C"), ("A", "B", "D"))):
            events = tuple(
                Event(case_id=f"c{i}", activity=a, timestamp_ms=1_000_000 + i * 10_000 + j * 1000)
                for j, a in enumerate(acts)
            )
            traces.append(Trace(case_id=f"c{i}", events=events))
        log = augment_eoc(
            EventLog(traces=tuple(traces), activity_vocab=Vocabulary(["A", "B", "C", "D"]))
        )
        predictor = markov_fit(make_prefix_samples(log), log.activity_vocab)
        probs, _ = predictor.predict(activity_events(("A", "B")))
        assert probs[log.activity_vocab.index("C")] == pytest.approx(0.5)
        assert probs[log.activity_vocab.index("D")] == pytest.approx(0.5)

    def test_alpha_zero_reproduces_empirical_frequencies(self):
        # enumeration oracle on a small random log: the model's effective
        # context is the last min(order, prefix length) activities, and with
        # alpha = 0 its distribution must equal the empirical conditional
        # frequency of that context in the training samples
        rng = np.random.default_rng(77)
        log = augment_eoc(make_random_log(rng, 30))
        samples = make_prefix_samples(log)
        order = 2
        predictor = MarkovPredictor(log.activity_vocab, TrainConfig(order=order, alpha=0.0))
        predictor.fit(samples, [], seed=0)
        for sample in samples[:50]:
            probs, _ = predictor.predict(sample.prefix)
            j = min(order, len(sample.prefix))
            ctx = prefix_activities(sample)[len(sample.prefix) - j :]
            matches = [
                s
                for s in samples
                if len(s.prefix) >= j and prefix_activities(s)[len(s.prefix) - j :] == ctx
            ]
            assert matches  # the sample itself matches its own context
            counts = {}
            for m in matches:
                counts[m.next_activity] = counts.get(m.next_activity, 0) + 1
            total = sum(counts.values())
            for label in log.activity_vocab:
                expected = counts.get(label, 0) / total
                assert probs[log.activity_vocab.index(label)] == pytest.approx(expected)

    def test_probability_vector_invariant(self):
        rng = np.random.default_rng(5)
        log = augment_eoc(make_random_log(rng, 20))
        samples = make_prefix_samples(log)
        predictor = MarkovPredictor(log.activity_vocab, TrainConfig(order=2, alpha=0.5))
        predictor.fit(samples, [], seed=0)
        for sample in samples[:30]:
            probs, delta = predictor.predict(sample.prefix)
            assert probs.shape == (len(log.activity_vocab),)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-6
            assert delta is None or delta >= 0.0

    def test_exact_time_on_deterministic_log(self, linear_split):
        log, split = linear_split
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        sample = make_prefix_samples(split.test)[0]
        _, delta = predictor.predict(sample.prefix)
        assert delta == sample.next_time_delta  # exact, constant gaps


def ref_fit_ngram_counts(samples, order, vocab):
    tables = [{} for _ in range(order + 1)]
    for sample in samples:
        acts = prefix_activities(sample)
        target = vocab.index(sample.next_activity)
        for j in range(0, order + 1):
            if j > len(acts):
                break
            ctx = acts[len(acts) - j :]
            tables[j].setdefault(ctx, Counter())[target] += 1
    return tables


def ref_markov_predict(tables, activities, order, alpha, vocab):
    acts = tuple(activities)
    k = len(vocab)
    for j in range(min(order, len(acts)), -1, -1):
        ctx = acts[len(acts) - j :]
        counts = tables[j].get(ctx) if j < len(tables) else None
        if counts:
            total = sum(counts.values())
            probs = np.full(k, float(alpha), dtype=np.float64)
            for idx, c in counts.items():
                probs[idx] += c
            return probs / (total + alpha * k)
    return np.full(k, 1.0 / k, dtype=np.float64)


def ref_delta_tables(samples, order):
    delta_tables = [{} for _ in range(order + 1)]
    for sample in samples:
        acts = prefix_activities(sample)
        for j in range(0, order + 1):
            if j > len(acts):
                break
            ctx = acts[len(acts) - j :]
            total, n = delta_tables[j].get(ctx, (0.0, 0))
            delta_tables[j][ctx] = (total + sample.next_time_delta, n + 1)
    return delta_tables


def ref_delta(delta_tables, acts, order):
    for j in range(min(order, len(acts)), -1, -1):
        ctx = acts[len(acts) - j :]
        entry = delta_tables[j].get(ctx) if j < len(delta_tables) else None
        if entry and entry[1] > 0:
            return max(0.0, entry[0] / entry[1])
    return None


class TestMarkovReferenceEquivalence:
    """One table per order backs off exactly like the separate count and
    delta tables it replaced (inline copies above)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_prefix_predicts_as_the_reference(self, seed):
        log, _ = generator_log(seed, 60)
        split = temporal_split(log)
        train_samples = make_prefix_samples(split.train)
        vocab = log.activity_vocab
        rng = np.random.default_rng(seed)
        labels = [label for label in vocab.labels if label != EOC]
        # random label sequences, most of them unseen at the higher orders;
        # a trailing end-of-case label is never a context, so those back off
        # to the unigram
        unseen = [
            tuple(str(a) for a in rng.choice(labels, size=int(rng.integers(1, 5))))
            + ((EOC,) if i % 2 else ())
            for i in range(40)
        ]
        queries = [prefix_activities(s) for s in make_prefix_samples(split.test)] + unseen
        for order in range(4):
            counts = ref_fit_ngram_counts(train_samples, order, vocab)
            deltas = ref_delta_tables(train_samples, order)
            for alpha in (0.0, 1.0):
                predictor = markov_fit(train_samples, vocab, order, alpha)
                for acts in queries:
                    probs, delta = predictor.predict(activity_events(acts))
                    assert np.array_equal(
                        probs, ref_markov_predict(counts, acts, order, alpha, vocab)
                    ), (order, alpha, acts)
                    assert delta == ref_delta(deltas, acts, order), (order, alpha, acts)


def ref_backoff_walk(tables, predictor, events):
    """The one-prefix backoff walk ``MarkovPredictor.predict`` ran before
    rows were kept per context, copied as it was, over ``tables``, the
    model's :func:`markov_tables`: probabilities and time, None for no time."""
    acts = tuple(ev.activity for ev in events)
    k = len(predictor.activity_vocab)
    alpha = predictor.config.alpha
    for j in range(min(len(tables) - 1, len(acts)), -1, -1):
        counts, delta_sum = tables[j].get(acts[len(acts) - j :]) or (None, 0.0)
        if counts:
            total = sum(counts.values())
            probs = np.full(k, float(alpha), dtype=np.float64)
            for idx, c in counts.items():
                probs[idx] += c
            return probs / (total + alpha * k), max(0.0, delta_sum / total)
    return np.full(k, 1.0 / k, dtype=np.float64), None


class BackoffWalkModel:
    """A fitted Markov model scored as it was before: one backoff walk per
    prefix. It is not a ``Predictor``, so it decodes through event tuples,
    as the Markov model did."""

    time_target = "next"

    def __init__(self, predictor):
        self.predictor, self.activity_vocab = predictor, predictor.activity_vocab
        self.tables = markov_tables(predictor)

    def predict(self, events):
        return ref_backoff_walk(self.tables, self.predictor, events)


def ref_mean_nll(predictor, samples):
    """The fit report's mean negative log-likelihood over the backoff walks."""
    tables = markov_tables(predictor)
    probs = np.array([ref_backoff_walk(tables, predictor, s.prefix)[0] for s in samples])
    truth = [predictor.activity_vocab.index(s.next_activity) for s in samples]
    return -sum(np.log(np.maximum(probs[np.arange(len(samples)), truth], 1e-12)).tolist()) / len(samples)


class TestMarkovContextRows:
    """Rows kept per context, scored and decoded in batches, equal the
    backoff walk of each prefix bit for bit."""

    DECODES = [
        DecodeConfig(strategy="argmax", max_len=8, seed=3),
        DecodeConfig(strategy="random", max_len=8, seed=3),
        DecodeConfig(strategy="beam", beam_width=2, max_len=8, length_normalize=True),
        DecodeConfig(strategy="beam", beam_width=3, max_len=8),
    ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_fit_reports_and_decodes_equal_the_backoff_walk(self, seed):
        log, _ = generator_log(seed, 120)
        split = temporal_split(log)
        train_samples, val_samples = make_prefix_samples(split.train), make_prefix_samples(split.validation)
        samples = make_prefix_samples(split.test) + train_samples[::7]
        rng = np.random.default_rng(seed)
        samples = [samples[i] for i in rng.permutation(len(samples))]
        for order in range(4):
            for alpha in (0.0, 1.0):
                predictor = MarkovPredictor(log.activity_vocab, TrainConfig(order=order, alpha=alpha))
                report = predictor.fit(train_samples, val_samples, seed=0)
                assert report.train_losses == (ref_mean_nll(predictor, train_samples),)
                assert report.val_losses == (ref_mean_nll(predictor, val_samples),)
                probs, times = predictor.predict_batch(samples)
                tables = markov_tables(predictor)
                for row, time_s, sample in zip(probs, times, samples):
                    want, want_time = ref_backoff_walk(tables, predictor, sample.prefix)
                    assert row.tobytes() == want.tobytes(), (order, alpha, prefix_activities(sample))
                    assert time_s == want_time if want_time is not None else np.isnan(time_s)
                reference = BackoffWalkModel(predictor)
                for cfg in self.DECODES:
                    assert decode_suffixes(predictor, samples[:60], cfg) == decode_suffixes(
                        reference, samples[:60], cfg
                    ), (order, alpha, cfg)

    def test_a_refit_or_reload_clears_the_memo(self, linear_split, tmp_path):
        log, split = linear_split
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        samples = make_prefix_samples(split.test)
        before = predictor.predict_batch(samples)[0]
        assert predictor._memo
        save_predictor(predictor, tmp_path / "model")
        other = augment_eoc(make_linear_log(20, acts=("A", "C", "B", "D")))
        predictor.fit(make_prefix_samples(other), [], seed=0)
        assert not np.array_equal(predictor.predict_batch(samples)[0], before)
        predictor._restore(json.loads((tmp_path / "model.json").read_text(encoding="utf-8")), tmp_path / "model")
        assert not predictor._memo
        assert np.array_equal(predictor.predict_batch(samples)[0], before)


class TestNeuralBasics:
    def test_mlp_rejects_zero_hidden(self, linear_split):
        log, split = linear_split
        with pytest.raises(ValueError):
            MLPPredictor(log.activity_vocab, config=fast_config(hidden=0))

    @pytest.mark.parametrize(
        "name",
        ["hidden", "layers", "epochs", "batch_size", "patience", "lr_patience",
         "embedding_dim", "window", "max_len", "ngram_k", "ngram_dim"],
    )
    def test_config_rejects_non_positive_sizes(self, name):
        for value in (0, -1):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("alpha", -0.5), ("order", -1), ("decay_seconds", 0.0), ("decay_seconds", -1.0),
         ("ae_hidden", (8, 0)), ("lr", 0.0), ("lr", -0.5), ("lr", float("nan")),
         ("momentum", -0.1), ("momentum", 1.0), ("momentum", 2.0), ("clip_norm", 0.0),
         ("clip_norm", -1.0), ("lr_decay", 0.0), ("lr_decay", -0.5), ("lr_decay", 1.5),
         ("hash_seed", -1), ("hash_seed", 2**64), ("hash_seed", 1.5)],
    )
    def test_config_rejects_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_config_accepts_range_edges(self):
        config = TrainConfig(alpha=0.0, order=0, decay_seconds=0.5, embedding_dim=1, window=1,
                             max_len=1, ngram_k=1, ngram_dim=1, ae_hidden=(1,), patience=1,
                             lr=1e-9, momentum=0.0, clip_norm=1e-9, lr_decay=1.0)
        assert (config.order, config.alpha) == (0, 0.0)
        assert TrainConfig(hash_seed=2**64 - 1).hash_seed == 2**64 - 1
        assert TrainConfig(momentum=0.999, clip_norm=None, lr_decay=1e-9).clip_norm is None

    def test_autoencoder_stages_of_zero_epochs_are_skipped(self, linear_split):
        log, split = linear_split
        cfg = fast_config(epochs=2, ngram_dim=16, ae_hidden=(8, 4), pretrain_epochs=0, freeze_epochs=0)
        predictor = AutoencoderPredictor(log.activity_vocab, config=cfg)
        report = train(predictor, split, seed=0)
        assert predictor.recon_losses == [(), ()]
        assert len(report.train_losses) == 2

    def test_autoencoder_rejects_undercompleteness_violation(self):
        vocab = Vocabulary(["A", "B", EOC])
        with pytest.raises(ValueError):
            AutoencoderPredictor(vocab, config=TrainConfig(ngram_dim=16, ae_hidden=(16,), time_target=None))
        with pytest.raises(ValueError):
            AutoencoderPredictor(vocab, config=TrainConfig(ngram_dim=16, ae_hidden=(8, 9), time_target=None))

    def test_config_is_fixed_at_construction(self, linear_split):
        log, split = linear_split
        samples = make_prefix_samples(split.train)
        autoencoder = AutoencoderPredictor(log.activity_vocab, config=fast_config(ngram_dim=16, ae_hidden=(8,)))
        assert autoencoder.time_target is None and autoencoder.config.time_target is None
        with pytest.raises(TypeError):  # an overcomplete encoder cannot slip in at fit
            autoencoder.fit(samples, [], config=TrainConfig(ngram_dim=8, ae_hidden=(32, 16)))
        mlp = MLPPredictor(log.activity_vocab, config=fast_config())
        with pytest.raises(TypeError):  # nor a timed_state input without a net
            mlp.fit(samples, [], config=fast_config(input_mode="timed_state"))

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            RecurrentPredictor("transformer", Vocabulary(["A"]))

    def test_probability_invariant_all_models(self, linear_split):
        log, split = linear_split
        sample = make_prefix_samples(split.test)[0]
        for arch in ("mlp", "rnn", "lstm", "gru", "autoencoder"):
            cfg = fast_config(epochs=2, time_target=None if arch == "autoencoder" else "next",
                              ngram_dim=16, ae_hidden=(8, 4), pretrain_epochs=2, freeze_epochs=1)
            predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs)
            train(predictor, split, seed=1)
            probs, delta = predictor.predict(sample.prefix)
            assert probs.shape == (len(log.activity_vocab),)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-6
            if arch == "autoencoder":
                assert delta is None
            else:
                assert delta >= 0.0

    def test_single_activity_log_degenerate(self):
        log = augment_eoc(make_linear_log(20, acts=("A",)))
        split = temporal_split(log)
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        sample = make_prefix_samples(split.test)[0]
        probs, _ = predictor.predict(sample.prefix)
        # single observed continuation: all mass on EOC
        assert probs[log.activity_vocab.index(EOC)] == 1.0


class TestTrainingLoop:
    def test_report_invariants(self, linear_split):
        log, split = linear_split
        predictor = RecurrentPredictor("gru", log.activity_vocab, config=fast_config())
        report = train(predictor, split, seed=3)
        assert report.best_epoch == int(np.argmin(report.val_losses))
        assert report.val_losses[report.best_epoch] == min(report.val_losses)
        assert len(report.train_losses) == len(report.val_losses)
        assert report.seed == 3

    def test_same_seed_bit_identical(self, linear_split):
        log, split = linear_split

        def run():
            predictor = RecurrentPredictor("gru", log.activity_vocab, config=fast_config(epochs=4))
            report = train(predictor, split, seed=11)
            return predictor, report

        p1, r1 = run()
        p2, r2 = run()
        assert r1.core() == r2.core()
        for k in p1.params:
            assert np.array_equal(p1.params[k], p2.params[k])

    def test_different_seed_differs(self, linear_split):
        log, split = linear_split
        p1 = RecurrentPredictor("gru", log.activity_vocab, config=fast_config(epochs=3))
        p2 = RecurrentPredictor("gru", log.activity_vocab, config=fast_config(epochs=3))
        r1 = train(p1, split, seed=1)
        r2 = train(p2, split, seed=2)
        assert r1.core() != r2.core()

    def test_early_stopping_respects_patience(self, linear_split):
        log, split = linear_split
        cfg = fast_config(epochs=50, patience=3)
        predictor = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        report = train(predictor, split, seed=5)
        if len(report.train_losses) < 50:
            stalled = len(report.val_losses) - 1 - report.best_epoch
            assert stalled >= 3

    def test_non_finite_loss_stops_training(self, linear_split):
        # diverges in the first reconstruction pretraining stage
        log, split = linear_split
        cfg = TrainConfig(lr=1e4, clip_norm=None, time_target=None)
        predictor = AutoencoderPredictor(log.activity_vocab, config=cfg)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite.*epoch"):
            train(predictor, split, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_stops_training_before_its_update(self, bad):
        # a finite loss with a non-finite gradient in the second epoch's first batch
        rng = np.random.default_rng(0)
        params = {"W": rng.normal(size=(3, 2)).astype(np.float32), "b": np.zeros(2, np.float32)}
        before = {}

        def batch_step(p, idx):
            grads = {k: np.full_like(v, 0.1) for k, v in p.items()}
            batch_step.calls += 1
            if batch_step.calls == 5:
                before.update({k: v.copy() for k, v in p.items()})
                grads["W"][1, 0] = bad
            return 1.0, grads

        batch_step.calls = 0
        config = TrainConfig(epochs=3, patience=3, batch_size=2, lr=0.1)
        with pytest.raises(ValueError, match=r"non-finite gradient norm (nan|inf) in epoch 1"):
            models._sgd_train(params, batch_step, None, 8, config, 0)
        assert batch_step.calls == 5
        for k in params:
            assert np.array_equal(params[k], before[k]), k

    def test_wall_clock_covers_whole_fit(self, linear_split):
        # the autoencoder spends most of its fit before the fine-tune stage
        log, split = linear_split
        cfg = fast_config(
            time_target=None, ngram_dim=16, ae_hidden=(8, 4),
            pretrain_epochs=15, freeze_epochs=5, epochs=1,
        )
        predictor = AutoencoderPredictor(log.activity_vocab, config=cfg)
        start = time.perf_counter()
        report = train(predictor, split, seed=0)
        assert report.wall_clock_seconds >= 0.5 * (time.perf_counter() - start)

    @pytest.mark.parametrize("arch", ["markov", "mlp", "gru", "autoencoder"])
    def test_epoch_seconds_one_per_epoch_and_outside_core(self, arch, linear_split):
        log, split = linear_split
        cfg = fast_config(
            epochs=3, time_target=None if arch == "autoencoder" else "next",
            ngram_dim=16, ae_hidden=(8, 4), pretrain_epochs=2, freeze_epochs=1,
        )
        report = train(build_predictor(arch, cfg, log.activity_vocab), split, seed=0)
        assert len(report.epoch_seconds) == len(report.train_losses)
        assert all(s >= 0.0 for s in report.epoch_seconds)
        assert sum(report.epoch_seconds) <= report.wall_clock_seconds
        assert set(report.core()) == {"train_losses", "val_losses", "best_epoch", "seed"}

    @pytest.mark.parametrize("clip_norm", [1e-9, None])
    @pytest.mark.parametrize("arch", ["mlp", "gru", "autoencoder"])
    def test_clip_count_and_gradient_norm_per_epoch(self, arch, clip_norm, linear_split):
        log, split = linear_split
        cfg = fast_config(
            epochs=3, clip_norm=clip_norm, time_target=None if arch == "autoencoder" else "next",
            ngram_dim=16, ae_hidden=(8, 4), pretrain_epochs=2, freeze_epochs=1,
        )
        report = train(build_predictor(arch, cfg, log.activity_vocab), split, seed=0)
        epochs = len(report.train_losses)
        batches = -(-len(make_prefix_samples(split.train)) // cfg.batch_size)
        # a clip norm below every gradient's clips every batch; none clips none
        assert report.clipped_batches == ((batches if clip_norm else 0),) * epochs
        assert len(report.grad_norms) == epochs
        assert all(math.isfinite(norm) and norm > 1e-9 for norm in report.grad_norms)
        assert set(report.core()) == {"train_losses", "val_losses", "best_epoch", "seed"}

    @pytest.mark.parametrize("clip_norm", [1e-9, None])
    @pytest.mark.parametrize("pretrain_epochs", [2, 0])
    def test_every_earlier_stage_reports_its_clip_counts(self, clip_norm, pretrain_epochs, linear_split):
        log, split = linear_split
        cfg = fast_config(
            epochs=2, clip_norm=clip_norm, time_target=None, ngram_dim=16, ae_hidden=(8, 4),
            pretrain_epochs=pretrain_epochs, freeze_epochs=1,
        )
        report = train(build_predictor("autoencoder", cfg, log.activity_vocab), split, seed=0)
        batches = -(-len(make_prefix_samples(split.train)) // cfg.batch_size) if clip_norm else 0
        # two layerwise reconstruction stages, then the frozen-encoder stage
        pretrain = (batches,) * pretrain_epochs
        assert report.stage_clipped_batches == (pretrain, pretrain, (batches,))
        assert "stage_clipped_batches" not in report.core()

    @pytest.mark.parametrize("arch", ["markov", "mlp", "gru"])
    def test_single_stage_models_report_no_earlier_stages(self, arch, linear_split):
        log, split = linear_split
        cfg = fast_config(epochs=2, clip_norm=1e-9)
        report = train(build_predictor(arch, cfg, log.activity_vocab), split, seed=0)
        assert report.stage_clipped_batches == ()

    def test_learning_rate_halves_after_each_stalled_epoch(self):
        val_losses = iter([3.0, 2.0, 2.5, 2.6, 1.0, 1.5, 1.7])
        config = TrainConfig(epochs=7, patience=7, lr=0.1, lr_decay=0.5, lr_patience=1)
        _, report = models._sgd_train(
            {"w": np.zeros(2)}, lambda p, idx: (0.0, {"w": np.zeros(2)}), lambda p: next(val_losses), 4, config, 0
        )
        # epochs 2, 3 and 5 stall; each halves the rate of the epoch after it
        assert report.learning_rates == (0.1, 0.1, 0.1, 0.05, 0.025, 0.025, 0.0125)
        assert "learning_rates" not in report.core()

    def test_learning_rates_follow_the_stalls_of_a_real_run(self, linear_split):
        log, split = linear_split
        cfg = fast_config(epochs=8, patience=8, lr=0.5, lr_decay=0.5, lr_patience=1)
        report = train(RecurrentPredictor("gru", log.activity_vocab, config=cfg), split, seed=0)
        rate, expected = cfg.lr, []
        for epoch, loss in enumerate(report.val_losses):
            expected.append(rate)
            if epoch > 0 and loss >= min(report.val_losses[:epoch]):  # no new best: a stalled epoch
                rate *= cfg.lr_decay
        assert report.learning_rates == tuple(expected)
        assert report.learning_rates[-1] < cfg.lr  # the run stalled at least once

    def test_autoencoder_recon_losses_non_increasing(self, linear_split):
        # cross-stage ordering of the final reconstruction losses is scale- and
        # seed-dependent (each stage reconstructs a different signal); assert
        # it at the shipped seed, plus the robust within-stage improvement
        log, split = linear_split
        cfg = fast_config(
            time_target=None, ngram_dim=16, ae_hidden=(8, 4),
            pretrain_epochs=15, freeze_epochs=2, epochs=3,
        )
        predictor = AutoencoderPredictor(log.activity_vocab, config=cfg)
        train(predictor, split, seed=0)
        finals = [losses[-1] for losses in predictor.recon_losses]
        assert len(finals) == 2
        assert finals[1] <= finals[0]
        for losses in predictor.recon_losses:
            assert losses[-1] <= losses[0]


def reference_sgd_train(params, batch_step, val_loss_fn, n_train, config, seed, lengths=None):
    """The SGD loop as it was before recurrent batches were bucketed by
    length: each epoch's batches are consecutive slices of one permutation,
    whatever ``lengths`` says."""
    rng = np.random.default_rng(seed)
    opt = nn.SGD(config.lr, config.momentum, config.clip_norm)
    train_hist, val_hist = [], []
    best_val, best_epoch, best_params = np.inf, 0, {k: v.copy() for k, v in params.items()}
    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        total, batches = 0.0, 0
        for s in range(0, n_train, config.batch_size):
            loss, grads = batch_step(params, order[s : s + config.batch_size])
            opt.step(params, grads)
            total += loss
            batches += 1
        train_hist.append(total / max(batches, 1))
        val_hist.append(val_loss_fn(params) if val_loss_fn is not None else train_hist[-1])
        if val_hist[-1] < best_val:
            best_val, best_epoch, best_params = val_hist[-1], epoch, {k: v.copy() for k, v in params.items()}
        stalled = epoch - best_epoch
        if stalled >= config.patience:
            break
        if config.lr_decay < 1.0 and stalled > 0 and stalled % config.lr_patience == 0:
            opt.lr *= config.lr_decay
    report = TrainReport(
        train_losses=tuple(train_hist), val_losses=tuple(val_hist), best_epoch=best_epoch,
        wall_clock_seconds=0.0, epoch_seconds=(0.0,) * len(train_hist), seed=seed,
    )
    return best_params, report


class TestBatchOrder:
    """A recurrent model's epoch: one permutation cut into pools of
    ``POOL_BATCHES`` batches, each pool sorted stably by prefix length, its
    batches cut, and the batch order permuted by the same generator. Every
    other model keeps the plain permutation's consecutive batches."""

    @staticmethod
    def lengths(n, seed=0):
        return np.random.default_rng(seed).integers(1, 16, size=n)

    @pytest.mark.parametrize("n, batch_size", [(0, 4), (1, 4), (37, 4), (128, 4), (1000, 3), (4516, 32)])
    def test_every_index_once_per_epoch(self, n, batch_size):
        rng = np.random.default_rng(5)
        for _ in range(3):
            batches = models._epoch_batches(rng, n, batch_size, self.lengths(n))
            assert len(batches) == -(-n // batch_size)
            assert sorted(len(b) for b in batches)[1:] == [batch_size] * (len(batches) - 1)
            assert np.array_equal(np.sort(np.concatenate(batches + [np.empty(0, int)])), np.arange(n))

    @pytest.mark.parametrize("n, batch_size", [(37, 4), (1000, 3), (4516, 32)])
    def test_pools_are_sorted_stably_by_length(self, n, batch_size):
        lengths = self.lengths(n, seed=n)
        batches = models._epoch_batches(np.random.default_rng(9), n, batch_size, lengths)
        replay = np.random.default_rng(9)
        permutation = replay.permutation(n)
        batch_order = replay.permutation(len(batches))
        cut = [None] * len(batches)
        for j, i in enumerate(batch_order):
            cut[i] = batches[j]
        sequence = np.concatenate(cut)
        pool = POOL_BATCHES * batch_size
        rank = np.empty(n, dtype=np.int64)
        rank[permutation] = np.arange(n)  # position in the permutation
        for s in range(0, n, pool):
            rows = sequence[s : s + pool]
            assert set(rows.tolist()) == set(permutation[s : s + pool].tolist())
            keys = list(zip(lengths[rows].tolist(), rank[rows].tolist()))
            assert keys == sorted(keys)  # by length, ties in permutation order

    def test_deterministic_for_a_fixed_seed(self):
        lengths = self.lengths(500)

        def epochs(seed):
            rng = np.random.default_rng(seed)
            return [np.concatenate(models._epoch_batches(rng, 500, 8, lengths)) for _ in range(3)]

        assert all(np.array_equal(a, b) for a, b in zip(epochs(4), epochs(4), strict=True))
        assert not all(np.array_equal(a, b) for a, b in zip(epochs(4), epochs(5), strict=True))

    def test_without_lengths_the_plain_permutation(self):
        batches = models._epoch_batches(np.random.default_rng(2), 50, 8)
        order = np.random.default_rng(2).permutation(50)
        assert len(batches) == 7
        assert all(np.array_equal(b, order[s : s + 8]) for b, s in zip(batches, range(0, 50, 8)))

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("mlp", {"input_mode": "padded_flat", "attributes": ("Resource",)}),
            ("mlp", {"input_mode": "single_event"}),
            ("mlp", {"input_mode": "timed_state"}),
            ("autoencoder", {"ngram_dim": 16, "ae_hidden": (8, 4), "pretrain_epochs": 2, "freeze_epochs": 2}),
        ],
        ids=["mlp-padded-flat", "mlp-single-event", "mlp-timed-state", "autoencoder"],
    )
    def test_non_recurrent_training_keeps_the_plain_order(self, arch, overrides, monkeypatch):
        log, net, split = generator_split(1)
        cfg = TrainConfig(hidden=8, layers=1, epochs=3, patience=3, batch_size=16, **overrides)

        def fit():
            predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
            return predictor, train(predictor, split, seed=3)

        predictor, report = fit()
        monkeypatch.setattr(models, "_sgd_train", reference_sgd_train)
        reference, reference_report = fit()
        assert report.core() == reference_report.core()
        assert predictor.params.keys() == reference.params.keys()
        for name in predictor.params:
            assert np.array_equal(predictor.params[name], reference.params[name]), name

    def test_recurrent_batches_step_at_most_half_the_columns(self, monkeypatch):
        log, net, split = generator_split(1)
        cfg = TrainConfig(hidden=8, layers=1, epochs=3, patience=3, time_target=None)
        steps = []
        forward = nn.sequence_forward

        def counting_forward(cell, params, inputs, mask=None):
            hs, caches = forward(cell, params, inputs, mask)
            if len(inputs) <= cfg.batch_size:  # a training batch, not a validation block
                steps.append(len(caches[2]))
            return hs, caches

        monkeypatch.setattr(nn, "sequence_forward", counting_forward)
        predictor = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        report = train(predictor, split, seed=1)
        samples = make_prefix_samples(split.train)
        lengths = ref_batch_inputs(predictor, samples)[1].sum(axis=1)
        rng = np.random.default_rng(1)  # today's order steps each batch to its longest prefix
        plain = [
            lengths[batch].max()
            for _ in report.train_losses
            for batch in models._epoch_batches(rng, len(samples), cfg.batch_size)
        ]
        assert len(steps) == len(plain) == 3 * -(-len(samples) // cfg.batch_size)
        assert np.mean(steps) <= 0.5 * np.mean(plain)


class TestEmbeddingPath:
    def test_embedding_model_trains_and_predicts(self, linear_split):
        log, split = linear_split
        cfg = fast_config(embedding_dim=5, epochs=3)
        predictor = RecurrentPredictor("gru", log.activity_vocab, config=cfg)
        train(predictor, split, seed=4)
        assert predictor.params["emb"].shape == (len(log.activity_vocab), 5)
        probs, _ = predictor.predict(make_prefix_samples(split.test)[0].prefix)
        assert abs(probs.sum() - 1.0) < 1e-6


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize(
        "arch, input_mode",
        [
            ("markov", "padded_flat"),
            ("mlp", "padded_flat"),
            ("gru", "padded_flat"),
            ("autoencoder", "padded_flat"),
            ("mlp", "timed_state"),
        ],
        ids=["markov", "mlp", "gru", "autoencoder", "timed-state-mlp"],
    )
    def test_save_load_predicts_identically(self, arch, input_mode, linear_split, tmp_path):
        log, split = linear_split
        cfg = fast_config(
            epochs=2, time_target=None if arch == "autoencoder" else "next",
            ngram_dim=16, ae_hidden=(8, 4), pretrain_epochs=2, freeze_epochs=1,
            input_mode=input_mode,
        )
        net = linear_net() if input_mode == "timed_state" else None
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=6)
        written = save_predictor(predictor, tmp_path / "model", seed=6)
        assert written == [tmp_path / "model.npz", tmp_path / "model.json"]
        loaded = load_predictor(tmp_path / "model", net)
        assert loaded.architecture == predictor.architecture
        for sample in make_prefix_samples(split.test)[:5]:
            p_orig, d_orig = predictor.predict(sample.prefix)
            p_new, d_new = loaded.predict(sample.prefix)
            assert np.array_equal(p_orig, p_new)
            assert d_orig == d_new

    @pytest.mark.parametrize("arch", ["gru", "markov"])
    def test_edited_vocabulary_rejected(self, arch, linear_split, tmp_path):
        log, split = linear_split
        predictor = build_predictor(arch, fast_config(epochs=1), log.activity_vocab)
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["activity_vocab"][0] = "Z"
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ValueError, match="vocab_sha256"):
            load_predictor(tmp_path / "model")

    MARKOV_FAULTS = {
        "order-missing": r"markov checkpoint holds \[.*\], order 2 needs",
        "order-added": r"markov checkpoint holds \[.*'o3:contexts'.*\], order 2 needs",
        "contexts-shape": r"o2:contexts is int64 \(3, 1\), not int64 \(3, 2\)",
        "contexts-dtype": r"o2:contexts is int32 \(3, 2\), not int64 \(3, 2\)",
        "counts-shape": r"o2:counts is int64 \(3, 4\), not int64 \(3, 5\)",
        "counts-dtype": r"o2:counts is float64 \(3, 5\), not int64 \(3, 5\)",
        "delta-sums-shape": r"o2:delta_sums is float64 \(2,\), not float64 \(3,\)",
        "code-negative": "o2:contexts holds a code outside the 5 activities",
        "code-past-the-vocabulary": "o2:contexts holds a code outside the 5 activities",
        "context-repeated": "o2:contexts repeats a context",
        "count-negative": "o2:counts needs counts >= 0",
        "context-unobserved": "o2:counts needs counts >= 0 and an observation per context",
        "delta-sum-negative": "o2:delta_sums holds a negative delta sum",
        "delta-sum-nan": "parameter 'o2:delta_sums' holds a NaN or an infinity",
        "delta-sum-infinite": "parameter 'o2:delta_sums' holds a NaN or an infinity",
        "delta-sums-not-numbers": "parameter 'o2:delta_sums' holds <U32, not numbers",
    }

    @pytest.mark.parametrize("fault", MARKOV_FAULTS)
    def test_malformed_markov_parameters_rejected(self, fault, linear_split, tmp_path):
        log, split = linear_split
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.npz"
        arrays = npz_arrays(path)
        names = ("contexts", "counts", "delta_sums")
        contexts, counts, delta_sums = (arrays[f"param:o2:{name}"] for name in names)  # A-B, B-C and C-D
        edits = {
            "order-missing": lambda: [arrays.pop(f"param:o2:{name}") for name in names],
            "order-added": lambda: arrays.update({f"param:o3:{name}": arrays[f"param:o2:{name}"] for name in names}),
            "contexts-shape": lambda: arrays.update({"param:o2:contexts": contexts[:, 1:]}),
            "contexts-dtype": lambda: arrays.update({"param:o2:contexts": contexts.astype(np.int32)}),
            "counts-shape": lambda: arrays.update({"param:o2:counts": counts[:, 1:]}),
            "counts-dtype": lambda: arrays.update({"param:o2:counts": counts.astype(np.float64)}),
            "delta-sums-shape": lambda: arrays.update({"param:o2:delta_sums": delta_sums[1:]}),
            "code-negative": lambda: contexts.__setitem__((0, 0), -1),
            "code-past-the-vocabulary": lambda: contexts.__setitem__((0, 0), len(log.activity_vocab)),
            "context-repeated": lambda: contexts.__setitem__(1, contexts[0]),
            "count-negative": lambda: counts.__setitem__((0, counts[0].argmin()), -1),
            "context-unobserved": lambda: counts.__setitem__(0, 0),
            "delta-sum-negative": lambda: delta_sums.__setitem__(0, -1.0),
            "delta-sum-nan": lambda: delta_sums.__setitem__(0, np.nan),
            "delta-sum-infinite": lambda: delta_sums.__setitem__(0, np.inf),
            "delta-sums-not-numbers": lambda: arrays.update({"param:o2:delta_sums": delta_sums.astype(str)}),
        }
        edits[fault]()
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=self.MARKOV_FAULTS[fault]):
            load_predictor(tmp_path / "model")

    def test_version_1_sidecar_rejected(self, linear_split, tmp_path):
        # a version-1 Markov checkpoint kept its count tables in the sidecar and wrote no .npz
        log, split = linear_split
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        (tmp_path / "model.npz").unlink()
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["format_version"] = 1
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        for reader in (load_predictor, models.checkpoint_needs_petri_net):
            with pytest.raises(ValueError, match="unsupported sidecar version 1: this version reads version 2"):
                reader(tmp_path / "model")

    SIDECAR_FAULTS = {
        "not-an-object": "sidecar holds a JSON list, not an object",
        "architecture-missing": "checkpoint architecture None, not one of",
        "architecture-unknown": "checkpoint architecture 'transformer', not one of",
        "config-not-a-mapping": r"checkpoint config \[64, 2\], not a mapping",
        "config-unknown-key": "checkpoint config: .*'flat_dim'",
        "config-bad-value": "checkpoint config: hidden must be >= 1",
        "config-bad-type": "checkpoint config: hidden must be an integer, got '64'",
        "activity-vocab-not-a-list": "checkpoint activity_vocab is not a list of labels",
        "activity-vocab-not-labels": "checkpoint activity_vocab is not a list of labels",
        "attribute-vocabs-not-an-object": "checkpoint attribute_vocabs is not an object of label lists",
        "attribute-vocab-not-a-list": "checkpoint attribute_vocabs is not an object of label lists",
    }

    @pytest.mark.parametrize("reader", ["load_predictor", "checkpoint_needs_petri_net"])
    @pytest.mark.parametrize("fault", SIDECAR_FAULTS)
    def test_malformed_sidecar_rejected(self, fault, reader, linear_split, tmp_path):
        log, split = linear_split
        predictor = RecurrentPredictor("gru", log.activity_vocab, config=fast_config(epochs=1))
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        edits = {
            "architecture-missing": lambda: sidecar.pop("architecture"),
            "architecture-unknown": lambda: sidecar.update(architecture="transformer"),
            "config-not-a-mapping": lambda: sidecar.update(config=[64, 2]),
            "config-unknown-key": lambda: sidecar["config"].update(flat_dim=15),
            "config-bad-value": lambda: sidecar["config"].update(hidden=0),
            "config-bad-type": lambda: sidecar["config"].update(hidden="64"),
            "activity-vocab-not-a-list": lambda: sidecar.update(activity_vocab="ABCD"),
            "activity-vocab-not-labels": lambda: sidecar["activity_vocab"].append(5),
            "attribute-vocabs-not-an-object": lambda: sidecar.update(attribute_vocabs=[["r1"]]),
            "attribute-vocab-not-a-list": lambda: sidecar["attribute_vocabs"].update(Resource="r1"),
        }
        if fault in edits:
            edits[fault]()
        path.write_text(json.dumps([sidecar] if fault == "not-an-object" else sidecar), encoding="utf-8")
        with pytest.raises(ValueError, match=self.SIDECAR_FAULTS[fault]):
            getattr(models, reader)(tmp_path / "model")

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_an_unfitted_predictor_is_not_saved(self, arch, linear_split, tmp_path):
        log, _ = linear_split
        predictor = build_predictor(arch, fast_config(ngram_dim=16, ae_hidden=(8,)), log.activity_vocab)
        with pytest.raises(RuntimeError, match="before fit"):
            save_predictor(predictor, tmp_path / "out" / "model")
        assert not (tmp_path / "out").exists()

    MALFORMED_SIZES = [
        ("hidden", True), ("layers", 2.0), ("epochs", 2.5), ("batch_size", 1.5), ("lr_patience", True),
        ("order", 1.5), ("window", 2.5), ("max_len", 3.0), ("embedding_dim", True), ("ngram_k", 2.5),
        ("ae_hidden", [8.5]), ("ae_hidden", 8), ("pretrain_epochs", 1.5), ("freeze_epochs", True),
        ("hash_seed", True), ("attributes", "Resource"), ("attributes", ["Resource", 1]),
    ]

    @pytest.mark.parametrize("name, value", MALFORMED_SIZES)
    def test_a_malformed_size_is_refused_up_front(self, name, value, linear_split, tmp_path):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
        model = ModelSpec("m", "gru", {name: value})
        config = BenchmarkConfig(datasets=(DatasetSpec("d", str(tmp_path / "log.csv")),), models=(model,))
        with pytest.raises(ConfigError, match=f"model 'm': {name}"):
            config.validate()
        log, split = linear_split
        predictor = MarkovPredictor(log.activity_vocab, TrainConfig(order=1))
        train(predictor, split)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["config"][name] = value
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ValueError, match=f"checkpoint config: {name}"):
            load_predictor(tmp_path / "model")

    @pytest.mark.parametrize("fault", ["truncated", "missing", "nan", "inf"])
    @pytest.mark.parametrize("arch", ["gru", "mlp", "autoencoder"])
    def test_malformed_parameters_rejected(self, arch, fault, linear_split, tmp_path):
        log, split = linear_split
        cfg = fast_config(
            epochs=1, time_target=None if arch == "autoencoder" else "next",
            ngram_dim=16, ae_hidden=(8, 4), pretrain_epochs=1, freeze_epochs=1,
        )
        predictor = build_predictor(arch, cfg, log.activity_vocab)
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.npz"
        arrays = npz_arrays(path)
        if fault == "truncated":
            arrays["param:head_act:b"] = arrays["param:head_act:b"][:1]
        elif fault == "missing":
            del arrays["param:head_act:b"]
        else:
            arrays["param:head_act:b"][-1] = {"nan": np.nan, "inf": -np.inf}[fault]
        np.savez(path, **arrays)
        message = "'head_act:b'" + (" holds a NaN or an infinity" if fault in ("nan", "inf") else "")
        with pytest.raises(ValueError, match=message):
            load_predictor(tmp_path / "model")


class TestTimedStateMlp:
    def test_timed_state_input_learns_linear_process(self, linear_split):
        log, split = linear_split
        cfg = fast_config(input_mode="timed_state", epochs=15, time_target="next")
        predictor = MLPPredictor(
            log.activity_vocab, log.attribute_vocabs, cfg, petri_net=linear_net()
        )
        train(predictor, split, seed=0)
        assert predictor.decay_seconds > 0  # defaulted to the longest train case
        samples = make_prefix_samples(split.test)
        hits = 0
        for s in samples:
            probs, _ = predictor.predict(s.prefix)
            if log.activity_vocab.label(int(np.argmax(probs))) == s.next_activity:
                hits += 1
        assert hits / len(samples) == 1.0

    def test_unknown_input_mode_rejected(self):
        with pytest.raises(ValueError, match="input_mode"):
            TrainConfig(input_mode="typo")

    def test_timed_state_requires_net(self):
        vocab = Vocabulary(["A", EOC])
        with pytest.raises(ValueError):
            MLPPredictor(vocab, config=TrainConfig(input_mode="timed_state"))

    def test_checkpoint_for_another_net_size_fails_on_load(self, linear_split, tmp_path):
        log, split = linear_split
        cfg = fast_config(input_mode="timed_state", epochs=1)
        net = linear_net()
        predictor = MLPPredictor(log.activity_vocab, log.attribute_vocabs, cfg, petri_net=net)
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        assert "flat_dim" not in json.loads((tmp_path / "model.json").read_text())["extra"]
        bigger = PetriNet(
            places=net.places + ("spare",),
            transitions=net.transitions,
            arcs=net.arcs,
            initial_marking=net.initial_marking,
        )
        with pytest.raises(ValueError, match="'l0:W'"):
            load_predictor(tmp_path / "model", bigger)

    @pytest.mark.parametrize(
        "decay_seconds", ["missing", None, 0, -1.0, math.inf, math.nan, "3600", True],
        ids=["missing", "null", "zero", "negative", "infinite", "nan", "string", "bool"],
    )
    def test_sidecar_decay_horizon_must_be_finite_and_positive(self, decay_seconds, linear_split, tmp_path):
        log, split = linear_split
        cfg = fast_config(input_mode="timed_state", epochs=1)
        predictor = MLPPredictor(log.activity_vocab, log.attribute_vocabs, cfg, petri_net=linear_net())
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        if decay_seconds == "missing":
            del sidecar["extra"]["decay_seconds"]
        else:
            sidecar["extra"]["decay_seconds"] = decay_seconds
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ValueError, match="decay_seconds"):
            load_predictor(tmp_path / "model", linear_net())

    def test_a_refit_equals_a_fresh_fit(self):
        # the horizon defaults to the longest training case of each fit: a
        # refit on more cases must not keep the first fit's
        log, net = generator_log(1, 120)
        split = temporal_split(log)
        samples = make_prefix_samples(split.train)
        cfg = fast_config(input_mode="timed_state", epochs=2, attributes=("Resource",))

        def fitted(*sample_sets):
            predictor = MLPPredictor(log.activity_vocab, log.attribute_vocabs, cfg, petri_net=net)
            for train_samples in sample_sets:
                predictor.fit(train_samples, [], seed=3)
            return predictor

        refit, fresh = fitted(samples[:50], samples), fitted(samples)
        assert refit.decay_seconds == fresh.decay_seconds > fitted(samples[:50]).decay_seconds
        assert refit.params.keys() == fresh.params.keys()
        for name in fresh.params:
            assert refit.params[name].tobytes() == fresh.params[name].tobytes(), name
        given = replace(cfg, decay_seconds=1234.5)
        predictor = MLPPredictor(log.activity_vocab, log.attribute_vocabs, given, petri_net=net)
        for train_samples in (samples[:50], samples):
            predictor.fit(train_samples, [], seed=3)
            assert predictor.decay_seconds == 1234.5

    def test_sidecar_with_stored_width_still_loads(self, linear_split, tmp_path):
        log, split = linear_split
        cfg = fast_config(input_mode="timed_state", epochs=1)
        predictor = MLPPredictor(log.activity_vocab, log.attribute_vocabs, cfg, petri_net=linear_net())
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["extra"]["flat_dim"] = 15
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        loaded = load_predictor(tmp_path / "model", linear_net())
        prefix = make_prefix_samples(split.test)[0].prefix
        assert np.array_equal(loaded.predict(prefix)[0], predictor.predict(prefix)[0])


class TestInputs:
    """The start of a whole trace's prefixes equals the start of each prefix
    alone, bit for bit, so no input reads an event past its prefix;
    ``_fit_arrays`` puts each set's arrays in sample order, whatever that
    order is."""

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("mlp", {"input_mode": "padded_flat", "attributes": ("Resource",)}),
            ("mlp", {"input_mode": "single_event"}),
            ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}),
            ("rnn", {"window": 4}),
            ("lstm", {"embedding_dim": 3, "max_len": 5}),
            ("gru", {"attributes": ("Resource",), "time_target": "remaining"}),
            ("autoencoder", {"ngram_dim": 16, "ae_hidden": (8, 4)}),
        ],
        ids=["mlp-padded-flat", "mlp-single-event", "mlp-timed-state", "rnn", "lstm", "gru", "autoencoder"],
    )
    def test_a_trace_encodes_as_its_prefixes(self, arch, overrides):
        log, net = generator_log(1, 60)
        predictor = build_predictor(
            arch, TrainConfig(**overrides), log.activity_vocab, log.attribute_vocabs, net
        )
        samples = make_prefix_samples(log)
        order = np.random.default_rng(0).permutation(len(samples))
        shuffled = [samples[i] for i in order]
        (start, y_act, y_time), (shuffled_start, ys_act, ys_time) = predictor._fit_arrays(samples, shuffled)
        (X, M), (Xs, Ms) = start.inputs(), shuffled_start.inputs()
        rows = []
        for trace in log.traces:
            ks = list(range(1, len(trace)))
            Xt, Mt = start_inputs(predictor, [PrefixSample(trace, k) for k in ks])
            for j, k in enumerate(ks):
                Xk, Mk = start_inputs(predictor, [PrefixSample(Trace(trace.case_id, trace.events[:k]), k)])
                assert np.array_equal(Xt[j], Xk[0])
                assert (Mt is None and Mk is None) or np.array_equal(Mt[j], Mk[0])
                rows.append((Xt[j], None if Mt is None else Mt[j]))
        assert len(rows) == len(samples)
        assert np.array_equal(X, np.stack([x for x, _ in rows]))
        assert M is None or np.array_equal(M, np.stack([m for _, m in rows]))
        assert np.array_equal(Xs, X[order]) and np.array_equal(ys_act, y_act[order])
        assert M is None or np.array_equal(Ms, M[order])
        assert y_time is None or np.array_equal(ys_time, y_time[order])


def frozen_batch_inputs(model, samples):
    """Inputs and mask (None for none) of the samples, as the three input
    paths that fed ``fit`` and ``predict_batch`` before each model read them
    from its start built them, kept here unchanged: the encoder's flat
    encode, the timed-state replay in ranges of ``REPLAY_CHUNK`` samples
    written into one array, and the n-gram hash made in the model's dtype."""
    if isinstance(model, AutoencoderPredictor):
        flat, cfg = SampleSet.of(samples).flat, model.config
        k, dim, seed = cfg.ngram_k, cfg.ngram_dim, cfg.hash_seed
        return ref_ngram_hash_prefixes(flat_labels(flat), flat.ends, flat.ks, k, dim, seed, model.dtype), None
    if model.config.input_mode != "timed_state":
        rows, ids = model.encoder.encode_flat(SampleSet.of(samples).flat, model.dtype)
        return rows[ids], ids != 0
    vocabs = {name: model.attribute_vocabs[name] for name in model.config.attributes}
    X = np.empty((len(samples), TimedStateVector.width(model.petri_net, vocabs)), model.dtype)
    for s in range(0, len(samples), REPLAY_CHUNK):
        states = replay_states(model.petri_net, SampleSet.of(samples[s : s + REPLAY_CHUNK]).flat, None, vocabs)
        X[s : s + REPLAY_CHUNK] = states.vectors(model.petri_net, model.decay_seconds, model.dtype)
    return X, None


class TestFrozenInputPaths:
    """Every neural model, in every input mode and with the Resource
    attribute on, trains and scores on the bits that the frozen input paths
    give: the arrays of ``_fit_arrays`` and the outputs of ``predict_batch``
    (on the test samples, and on a shuffle of them with repeats that cuts
    each trace across several replay ranges)."""

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("mlp", {"input_mode": "padded_flat"}),
            ("mlp", {"input_mode": "single_event"}),
            ("mlp", {"input_mode": "timed_state"}),
            ("rnn", {"window": 3}),
            ("lstm", {"embedding_dim": 4, "time_target": "remaining"}),
            ("gru", {"layers": 2}),
            ("autoencoder", {"ngram_dim": 16, "ae_hidden": (8, 4), "pretrain_epochs": 1, "freeze_epochs": 1}),
        ],
        ids=["mlp-padded-flat", "mlp-single-event", "mlp-timed-state", "rnn-window", "lstm-embedding-remaining",
             "gru", "autoencoder"],
    )
    def test_fit_arrays_and_scores_equal_the_frozen_paths(self, arch, overrides):
        log, net, split = generator_split(1)
        cfg = TrainConfig(**{"hidden": 8, "layers": 1, "epochs": 1, "patience": 1, **overrides},
                          attributes=("Resource",))
        model = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train_samples, val = make_prefix_samples(split.train), make_prefix_samples(split.validation)
        model.fit(train_samples, val, seed=1)
        for (start, _, _), samples in zip(model._fit_arrays(train_samples, val), (train_samples, val)):
            X, M = start.inputs()
            frozen_X, frozen_M = frozen_batch_inputs(model, samples)
            assert X.dtype == frozen_X.dtype and X.tobytes() == frozen_X.tobytes()
            assert (M is None and frozen_M is None) or M.tobytes() == frozen_M.tobytes()
        test = make_prefix_samples(split.test)
        mixed = [test[i] for i in np.random.default_rng(1).choice(len(test), size=len(test) + 50)]
        for samples in (test, mixed):
            probs, times = model.predict_batch(samples)
            frozen_probs, frozen_times = model._infer(DenseInputs(*frozen_batch_inputs(model, samples)))
            assert probs.tobytes() == frozen_probs.tobytes() and times.tobytes() == frozen_times.tobytes()


@functools.cache
def generator_split(seed):
    log, net = generator_log(seed, 600)
    return log, net, temporal_split(log)


class TestPredictBatch:
    """``predict_batch`` of the test samples against the per-row ``predict``
    loop: probabilities and times agree bit for bit."""

    SMALL = {"hidden": 16, "layers": 1, "epochs": 2, "patience": 2}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {"attributes": ("Resource",), "layers": 2}),
            ("gru", {"hidden": 64, "layers": 2}),
            ("lstm", {"embedding_dim": 4, "time_target": "remaining"}),
            ("rnn", {"window": 3, "time_target": None}),
            ("gru", {"max_len": 4}),
            ("mlp", {"input_mode": "padded_flat"}),
            ("mlp", {"input_mode": "single_event"}),
            ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}),
            ("autoencoder", {"pretrain_epochs": 2, "freeze_epochs": 1}),
            ("markov", {}),
        ],
        ids=[
            "gru-resource-2-layers", "gru-64-2-layers", "lstm-embedding-remaining", "rnn-window", "gru-max-len",
            "mlp-padded-flat", "mlp-single-event", "mlp-timed-state", "autoencoder", "markov",
        ],
    )
    def test_batch_matches_the_predict_loop(self, arch, overrides, seed):
        log, net, split = generator_split(seed)
        cfg = TrainConfig(**{**self.SMALL, **overrides})
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=seed)
        samples = make_prefix_samples(split.test)
        probs, times = predictor.predict_batch(samples)
        rows = [predictor.predict(s.prefix) for s in samples]
        loop_probs = np.array([p for p, _ in rows], dtype=np.float64)
        loop_times = np.array([np.nan if t is None else t for _, t in rows])
        assert probs.dtype == times.dtype == np.float64
        assert probs.shape == (len(samples), len(log.activity_vocab)) and times.shape == (len(samples),)
        assert np.array_equal(probs, loop_probs)
        assert np.array_equal(times, loop_times, equal_nan=True)
        if predictor.time_target is None:
            assert np.isnan(times).all()
        else:
            assert np.all(times >= 0.0)

        order = np.random.default_rng(seed).permutation(len(samples))
        shuffled, _ = predictor.predict_batch([samples[i] for i in order])
        back = np.empty_like(shuffled)
        back[order] = shuffled
        assert np.array_equal(back, probs)

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("markov", {}),
            ("gru", {}),
            ("autoencoder", {"pretrain_epochs": 1, "freeze_epochs": 1}),
            ("mlp", {"input_mode": "timed_state"}),
        ],
        ids=["markov", "gru", "autoencoder", "mlp-timed-state"],
    )
    def test_a_prefix_outside_its_trace_is_rejected(self, arch, overrides):
        log, net, split = generator_split(1)
        cfg = TrainConfig(**{**self.SMALL, "epochs": 1, **overrides})
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=1)
        trace = split.test.traces[0]
        for k, message in ((len(trace) + 2, "exceeds its trace"), (len(trace) + 1, "exceeds its trace"),
                           (0, "empty prefix"), (-1, "empty prefix")):
            with pytest.raises(ValueError, match=message):
                predictor.predict_batch([PrefixSample(trace, 1), PrefixSample(trace, k)])
        probs, _ = predictor.predict_batch([PrefixSample(trace, len(trace))])
        assert probs.shape == (1, len(log.activity_vocab))

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("markov", {"order": 1}),
            ("gru", {"attributes": ("Resource",)}),
            ("autoencoder", {"pretrain_epochs": 1, "freeze_epochs": 1}),
            ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}),
        ],
        ids=["markov", "gru", "autoencoder", "mlp-timed-state"],
    )
    def test_labels_after_every_prefix_are_not_read(self, arch, overrides):
        """An activity and an attribute value outside the model's
        vocabularies after every prefix of a trace: no input reads them, so
        its prefixes score as those of the trace without that event, and
        only the next activity that names one is an ``UnknownLabelError``."""
        log, net, split = generator_split(1)
        cfg = TrainConfig(**{**self.SMALL, "epochs": 1, **overrides})
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=1)
        trace = next(t for t in split.test.traces if len(t) > 3)
        k, at = 2, trace.events[1].timestamp_ms
        expected = predictor.predict_batch([PrefixSample(trace, j) for j in range(1, k + 1)])
        tampered = [
            Trace(trace.case_id, trace.events[:k] + (stranger,) + trace.events[k:])
            for stranger in (Event(trace.case_id, "Q", at), Event(trace.case_id, EOC, at, {"Resource": "no such one"}))
        ]
        for t in tampered:
            got = predictor.predict_batch([PrefixSample(t, j) for j in range(1, k + 1)])
            for a, b in zip(got, expected):
                assert np.array_equal(a, b, equal_nan=True)
        with pytest.raises(UnknownLabelError, match="'Q'"):
            SampleSet([PrefixSample(tampered[0], k)]).next_activity_indices(log.activity_vocab)

    def test_the_default_stacks_predict_with_nan_for_no_time(self):
        events = tuple(Event("c", a, 1000 * i) for i, a in enumerate("abab"))
        log = augment_eoc(EventLog(traces=(Trace("c", events),), activity_vocab=Vocabulary(["a", "b"])))
        row = np.array([0.25, 0.25, 0.5], dtype=np.float32)

        class TimedAfterB:
            activity_vocab = log.activity_vocab

            def predict(self, events):
                return row, 5.0 if events[-1].activity == "b" else None

        prefixes = [s.prefix for s in make_prefix_samples(log)]
        probs, times = models.EventHypotheses(TimedAfterB(), prefixes).predict()
        assert probs.dtype == np.float64 and np.array_equal(probs, [row] * 4)
        assert np.array_equal(times, [np.nan, 5.0, np.nan, 5.0], equal_nan=True)
        empty_probs, empty_times = models.EventHypotheses(TimedAfterB(), []).predict()
        assert empty_probs.shape == (0, 3) and empty_times.shape == (0,)

    def test_a_predictor_scores_through_predict_batch_alone(self):
        class PredictOnly(Predictor):
            activity_vocab = Vocabulary(["a", EOC])

            def predict(self, events):
                return np.array([0.5, 0.5]), None

        sample = PrefixSample(Trace("c", (Event("c", "a", 0),)), 1)
        for method in (PredictOnly().predict_batch, PredictOnly().hypotheses):
            with pytest.raises(NotImplementedError):
                method([sample])

    @pytest.mark.parametrize(
        "arch, overrides",
        [(arch, {}) for arch in models.ARCHITECTURES]
        + [("mlp", {"input_mode": "single_event"}), ("mlp", {"input_mode": "timed_state"})],
        ids=[*models.ARCHITECTURES, "mlp-single-event", "mlp-timed-state"],
    )
    def test_no_samples_score_and_decode_to_nothing(self, arch, overrides):
        log, net, split = generator_split(1)
        cfg = TrainConfig(**{**self.SMALL, "epochs": 1, "pretrain_epochs": 1, "freeze_epochs": 1, **overrides})
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=1)
        for probs, times in (predictor.predict_batch([]), predictor.hypotheses([]).predict()):
            assert probs.shape == (0, len(log.activity_vocab)) and probs.dtype == np.float64
            assert times.shape == (0,) and times.dtype == np.float64
        assert decode_suffixes(predictor, [], DecodeConfig()) == []

    @pytest.mark.parametrize("arch", ["markov", "gru", "mlp", "autoencoder"])
    def test_an_empty_prefix_is_rejected(self, arch):
        log, net, split = generator_split(1)
        cfg = TrainConfig(**{**self.SMALL, "epochs": 1, "pretrain_epochs": 1, "freeze_epochs": 1})
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=1)
        with pytest.raises(ValueError, match="empty prefix"):
            predictor.predict(())


@functools.cache
def invariance_split():
    log, net = generator_log(1, 200)
    return log, net, temporal_split(log)


def zero_padded_blocked_outputs(predictor, X, M):
    """``_blocked_outputs`` as it was when it padded a short last block with
    zero rows under an all-False mask, kept as the reference."""
    lengths = M.sum(axis=1)
    rows = np.argsort(-lengths, kind="stable")

    def block(a, s):
        picked = rows[s : s + models.ROW_BLOCK]
        out = np.zeros((models.ROW_BLOCK,) + a.shape[1:], dtype=a.dtype)
        np.take(a, picked, axis=0, out=out[: len(picked)])
        return out

    outputs = [predictor._outputs(predictor.params, block(X, s), block(M, s))[:2] for s in range(0, len(X), models.ROW_BLOCK)]
    back = np.argsort(rows)
    logits = np.concatenate([logits for logits, _ in outputs])[: len(X)][back]
    return logits, np.concatenate([tpred for _, tpred in outputs])[: len(X)][back]


class TestBatchInvariance:
    """Each test row's ``predict_batch`` output is bit-equal alone, in the
    full batch and in a shuffled batch, at every width: inference runs
    blocks of ``ROW_BLOCK`` rows, so every row goes through products of one
    shape. (A one-row product rounds differently from a many-row one at
    hidden 64 and 128.)"""

    @pytest.mark.parametrize("hidden", [16, 64, 128])
    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {"attributes": ("Resource",)}),
            ("lstm", {"embedding_dim": 4, "time_target": "remaining"}),
            ("rnn", {}),
            ("mlp", {"input_mode": "padded_flat"}),
            ("mlp", {"input_mode": "single_event"}),
            ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}),
            ("autoencoder", {"pretrain_epochs": 1, "freeze_epochs": 1}),
        ],
        ids=[
            "gru-resource", "lstm-embedding-remaining", "rnn", "mlp-padded-flat", "mlp-single-event",
            "mlp-timed-state", "autoencoder",
        ],
    )
    def test_a_row_scores_alike_alone_in_the_batch_and_shuffled(self, arch, overrides, hidden):
        log, net, split = invariance_split()
        if arch == "autoencoder":  # two encoder layers, the wider one ``hidden`` units
            overrides = {**overrides, "ngram_dim": 2 * hidden, "ae_hidden": (hidden, hidden // 2)}
        cfg = TrainConfig(hidden=hidden, layers=2, epochs=1, patience=1, **overrides)
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        train(predictor, split, seed=1)
        samples = make_prefix_samples(split.test)
        assert len(samples) % models.ROW_BLOCK  # the last block is padded
        probs, times = predictor.predict_batch(samples)
        order = np.random.default_rng(hidden).permutation(len(samples))
        shuffled_probs, shuffled_times = predictor.predict_batch([samples[i] for i in order])
        assert np.array_equal(shuffled_probs, probs[order])
        assert np.array_equal(shuffled_times, times[order], equal_nan=True)
        for i, sample in enumerate(samples):
            row_probs, row_times = predictor.predict_batch([sample])
            assert np.array_equal(row_probs[0], probs[i]), i
            assert np.array_equal(row_times[0], times[i], equal_nan=True), i


    @pytest.mark.parametrize(
        "arch, overrides, layers",
        [("gru", {}, 1), ("lstm", {"embedding_dim": 4}, 1), ("gru", {"attributes": ("Resource",)}, 2)],
        ids=["gru", "lstm-embedding", "gru-2-layers"],
    )
    def test_a_short_last_block_filled_with_real_rows_scores_as_zero_padding(self, arch, overrides, layers):
        log, net, split = invariance_split()
        cfg = TrainConfig(hidden=16, layers=layers, epochs=1, patience=1, **overrides)
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs)
        train(predictor, split, seed=1)
        start = predictor.hypotheses(make_prefix_samples(split.test))
        assert len(start) % models.ROW_BLOCK
        logits, tpred = predictor._blocked_outputs(predictor.params, start)
        zero_logits, zero_tpred = zero_padded_blocked_outputs(predictor, *start.inputs())
        assert logits.tobytes() == zero_logits.tobytes() and tpred.tobytes() == zero_tpred.tobytes()

    def test_a_recurrent_forward_blocks_its_rows_longest_first(self, monkeypatch):
        log, net, split = invariance_split()
        cfg = TrainConfig(hidden=16, layers=1, epochs=1, patience=1)
        predictor = build_predictor("gru", cfg, log.activity_vocab)
        train(predictor, split, seed=1)
        samples = make_prefix_samples(split.test)
        stepped = []
        forward = nn.sequence_forward

        def counting_forward(cell, params, inputs, mask=None):
            hs, caches = forward(cell, params, inputs, mask)
            stepped.append(len(caches[2]))
            return hs, caches

        monkeypatch.setattr(nn, "sequence_forward", counting_forward)
        predictor.predict_batch(samples)
        lengths = np.sort(ref_batch_inputs(predictor, samples)[1].sum(axis=1))[::-1]
        # a block steps from the first column of its longest row
        assert stepped == [lengths[s] for s in range(0, len(samples), models.ROW_BLOCK)]


def frozen_blocks(X, M, recurrent):
    """The inputs of each block of ``_blocked_outputs`` of rows ``X``, ``M``,
    cut from those arrays: rows longest first for a recurrent model, the last
    block filled with copies of its last row."""
    rows = np.argsort(-M.sum(axis=1), kind="stable") if recurrent else np.arange(len(X))
    filled = np.append(rows, np.repeat(rows[-1:], -len(rows) % models.ROW_BLOCK))
    cuts = [filled[s : s + models.ROW_BLOCK] for s in range(0, len(X), models.ROW_BLOCK)]
    return [(X[idx], M[idx]) for idx in cuts]


def same_inputs(cut, frozen):
    """Two (X, M) pairs hold the same bits, dtypes included."""
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(cut, frozen))


class TestCutInputs:
    """A window model's start holds its feature rows and int32 row ids, and
    every batch of ``fit`` and every block of ``_blocked_outputs`` (training,
    validation and scoring) cuts its windows from them as it reads them: each
    equals the rows of the padded inputs of its whole sample set, frozen as
    the per-trace encode and ``encoder.windows`` build them, bit for bit."""

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {"attributes": ("Resource",)}),
            ("lstm", {"embedding_dim": 4}),
            ("rnn", {"window": 3, "max_len": 5}),
            ("mlp", {"input_mode": "padded_flat"}),
            ("mlp", {"input_mode": "single_event"}),
        ],
        ids=["gru", "lstm-embedding", "rnn-window", "mlp-padded-flat", "mlp-single-event"],
    )
    def test_every_batch_and_block_equals_the_frozen_padded_inputs(self, arch, overrides, monkeypatch):
        log, net, split = invariance_split()
        cfg = TrainConfig(hidden=8, layers=1, epochs=2, patience=2, batch_size=16, **overrides)
        model = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs)
        train_samples, val, test = map(make_prefix_samples, (split.train, split.validation, split.test))
        assert len(val) % models.ROW_BLOCK and len(test) % models.ROW_BLOCK  # each last block is filled
        batches, fed, blocks = [], [], []
        sgd_train, batch_loss, outputs = models._sgd_train, model._batch_loss, model._outputs

        def spying_sgd_train(params, batch_step, *args):
            def step(p, idx):
                batches.append(idx)
                return batch_step(p, idx)

            return sgd_train(params, step, *args)

        def spying_batch_loss(params, X, M, *targets):
            fed.append((X, M))
            return batch_loss(params, X, M, *targets)

        def spying_outputs(params, X, M):
            if len(X) == models.ROW_BLOCK:  # a block, not a training batch
                blocks.append((X, M))
            return outputs(params, X, M)

        monkeypatch.setattr(models, "_sgd_train", spying_sgd_train)
        monkeypatch.setattr(model, "_batch_loss", spying_batch_loss)
        monkeypatch.setattr(model, "_outputs", spying_outputs)
        model.fit(train_samples, val, seed=1)
        recurrent = arch != "mlp"
        if arch == "rnn":
            assert model.encoder.limit == 3 < model.encoder.max_len
        X, M = ref_batch_inputs(model, train_samples)
        rng = np.random.default_rng(1)  # the seed of fit's one SGD stage
        epochs = [models._epoch_batches(rng, len(X), cfg.batch_size, M.sum(axis=1) if recurrent else None)
                  for _ in range(cfg.epochs)]
        assert len(batches) == len(fed) == sum(map(len, epochs))
        assert all(np.array_equal(idx, expected) for idx, expected in zip(batches, sum(epochs, [])))
        for idx, cut in zip(batches, fed):
            assert same_inputs(cut, (X[idx], M[idx]))
        val_blocks = frozen_blocks(*ref_batch_inputs(model, val), recurrent)
        assert len(blocks) == cfg.epochs * len(val_blocks)  # one validation forward per epoch
        assert all(same_inputs(cut, frozen) for cut, frozen in zip(blocks, val_blocks * cfg.epochs))
        blocks.clear()
        model.predict_batch(test)
        test_blocks = frozen_blocks(*ref_batch_inputs(model, test), recurrent)
        assert len(blocks) == len(test_blocks)
        assert all(same_inputs(cut, frozen) for cut, frozen in zip(blocks, test_blocks))


class TestStartMemory:
    """A gru start holds the feature rows of its events and int32 row ids,
    no (N, T, F) padded inputs, so ``train()`` peaks below the size of the
    padded training inputs it no longer builds."""

    CONFIG = TrainConfig(hidden=8, layers=1, epochs=1, patience=1, attributes=("Resource",))

    def test_a_start_holds_rows_and_int32_ids(self):
        log, net, split = invariance_split()
        model = build_predictor("gru", self.CONFIG, log.activity_vocab, log.attribute_vocabs)
        train(model, split, seed=1)
        samples = SampleSet(make_prefix_samples(split.train))
        start = model._start(samples)
        n, T, F = len(samples), model.encoder.max_len, model.encoder.num_features
        events = int(samples.flat.inside.sum())
        arrays = [a for a in vars(start).values() if isinstance(a, np.ndarray)]
        assert max(a.size for a in arrays) < n * T * F
        assert start.rows.shape == (events + 1, F) and start.ids.shape == (n, T) and start.ids.dtype == np.int32
        per_hypothesis = 3 * 8 * n  # int64 case start, last timestamp and length
        assert sum(a.nbytes for a in arrays) <= start.rows.nbytes + start.ids.nbytes + per_hypothesis

    def test_train_peaks_below_the_padded_inputs(self):
        log, net, split = invariance_split()
        model = build_predictor("gru", self.CONFIG, log.activity_vocab, log.attribute_vocabs)
        tracemalloc.start()
        try:
            train(model, split, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = len(make_prefix_samples(split.train)) * model.encoder.max_len * model.encoder.num_features * 4
        assert peak < padded


def fit_keeping_val_loss(monkeypatch, predictor, train_samples, val_samples):
    """Fit the predictor and return the validation-loss function its last
    SGD stage ran with."""
    kept = []
    sgd_train = models._sgd_train

    def keeping_sgd_train(params, batch_step, val_loss_fn, *args):
        if val_loss_fn is not None:
            kept.append(val_loss_fn)
        return sgd_train(params, batch_step, val_loss_fn, *args)

    monkeypatch.setattr(models, "_sgd_train", keeping_sgd_train)
    predictor.fit(train_samples, val_samples, seed=1)
    monkeypatch.setattr(models, "_sgd_train", sgd_train)
    [val_loss] = kept
    return val_loss


class TestValidationLoss:
    """The per-epoch validation loss runs the blocked inference forward: its
    cross-entropy is the mean negative log of ``predict_batch``'s probability
    of each true activity, bit for bit, so the padded rows of the last block
    never count; the whole loss agrees with a whole-set ``_head_loss`` to
    float32 rounding; and it holds one block's caches at a time."""

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {"attributes": ("Resource",)}),
            ("lstm", {"embedding_dim": 4, "time_target": "remaining"}),
            ("mlp", {"input_mode": "timed_state"}),
            ("autoencoder", {"ngram_dim": 16, "ae_hidden": (8, 4), "pretrain_epochs": 1, "freeze_epochs": 1}),
        ],
        ids=["gru-resource", "lstm-embedding-remaining", "mlp-timed-state", "autoencoder"],
    )
    def test_the_loss_is_the_inference_forward_over_the_real_rows(self, arch, overrides, rows, monkeypatch):
        log, net, split = invariance_split()
        cfg = TrainConfig(hidden=8, layers=1, epochs=1, patience=1, **overrides)
        predictor = build_predictor(arch, cfg, log.activity_vocab, log.attribute_vocabs, net)
        val = make_prefix_samples(split.validation)[:rows]
        assert len(val) == rows
        train_samples = make_prefix_samples(split.train)
        val_loss = fit_keeping_val_loss(monkeypatch, predictor, train_samples, val)
        cross_entropies = []
        cross_entropy = nn.softmax_cross_entropy

        def recording_cross_entropy(logits, targets):
            loss, dlogits = cross_entropy(logits, targets)
            cross_entropies.append(loss)
            return loss, dlogits

        monkeypatch.setattr(nn, "softmax_cross_entropy", recording_cross_entropy)
        loss = val_loss(predictor.params)
        monkeypatch.setattr(nn, "softmax_cross_entropy", cross_entropy)
        probs, _ = predictor.predict_batch(val)
        targets = np.array([log.activity_vocab.index(s.next_activity) for s in val])
        assert cross_entropies == [float(-np.log(np.maximum(probs[np.arange(rows), targets], 1e-300)).mean())]
        # a refit of the encoding on the same samples gives the state the fit trained with
        val_start, y_act, y_time = predictor._fit_arrays(train_samples, val)[1]
        whole_set = predictor._head_loss(predictor.params, *val_start.inputs(), y_act, y_time)[0]
        assert loss == pytest.approx(whole_set, rel=1e-6)
        if predictor.time_target is None:  # the autoencoder has no time head
            assert loss == cross_entropies[0]
        else:
            assert loss > cross_entropies[0]
        order = np.random.default_rng(rows).permutation(rows)
        logits, _ = predictor._blocked_outputs(predictor.params, predictor.hypotheses(val))
        shuffled, _ = predictor._blocked_outputs(predictor.params, predictor.hypotheses([val[i] for i in order]))
        assert np.array_equal(shuffled, logits[order])

    def test_a_recurrent_validation_forward_steps_each_block_from_its_longest_row(self, monkeypatch):
        log, net, split = invariance_split()
        cfg = TrainConfig(hidden=16, layers=1, epochs=2, patience=2, batch_size=16)
        val = make_prefix_samples(split.validation)
        stepped = []
        forward = nn.sequence_forward

        def counting_forward(cell, params, inputs, mask=None):
            hs, caches = forward(cell, params, inputs, mask)
            if len(inputs) == models.ROW_BLOCK:  # a validation block, not a training batch
                stepped.append(len(caches[2]))
            return hs, caches

        monkeypatch.setattr(nn, "sequence_forward", counting_forward)
        predictor = build_predictor("gru", cfg, log.activity_vocab)
        report = predictor.fit(make_prefix_samples(split.train), val, seed=1)
        lengths = np.sort(ref_batch_inputs(predictor, val)[1].sum(axis=1))[::-1]
        per_epoch = [lengths[s] for s in range(0, len(val), models.ROW_BLOCK)]
        assert len(report.val_losses) == 2
        assert stepped == per_epoch * 2
        assert per_epoch[-1] < lengths[0]  # the shortest rows' block steps fewer columns

    def test_validation_memory_does_not_grow_with_rows_times_columns_times_hidden(self, monkeypatch):
        log, net, split = invariance_split()
        cfg = TrainConfig(hidden=64, layers=2, epochs=1, patience=1, attributes=("Resource",))
        train_samples = make_prefix_samples(split.train)
        block_pair = make_prefix_samples(split.validation)[: 2 * models.ROW_BLOCK]
        peaks = {}
        for blocks in (2, 16):
            predictor = build_predictor("gru", cfg, log.activity_vocab, log.attribute_vocabs)
            val_loss = fit_keeping_val_loss(monkeypatch, predictor, train_samples, block_pair * (blocks // 2))
            tracemalloc.start()
            try:
                val_loss(predictor.params)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # per extra row: eight float64 copies of its logits and time prediction
        extra_rows = (16 - 2) * models.ROW_BLOCK
        assert peaks[16] - peaks[2] <= extra_rows * 8 * 8 * (len(log.activity_vocab) + 1)


class TestDeterministicLearnability:
    def test_mlp_reaches_full_accuracy(self, linear_split):
        # the process is a function of the prefix, so the flat encoding
        # suffices; the Markov oracle proves the target is attainable
        log, split = linear_split
        cfg = fast_config(hidden=32, layers=1, epochs=30, patience=30)
        predictor = MLPPredictor(log.activity_vocab, config=cfg)
        train(predictor, split, seed=0)
        samples = make_prefix_samples(split.test)
        hits = sum(
            1
            for s in samples
            if log.activity_vocab.label(int(np.argmax(predictor.predict(s.prefix)[0])))
            == s.next_activity
        )
        assert hits / len(samples) == 1.0


@pytest.fixture
def layouts(monkeypatch):
    """The prefix count of each ``FlatPrefixes.of`` call, in call order."""
    counted = []
    of = FlatPrefixes.of.__func__

    def counting(cls, traces, trace_of, ks):
        counted.append(len(ks))
        return of(cls, traces, trace_of, ks)

    monkeypatch.setattr(FlatPrefixes, "of", classmethod(counting))
    return counted


SET_READERS = [
    ("markov", {}),
    ("gru", {"embedding_dim": 4}),
    ("mlp", {"input_mode": "timed_state", "attributes": ("Resource",)}),
    ("autoencoder", {"ngram_dim": 16, "ae_hidden": (8, 4), "pretrain_epochs": 1, "freeze_epochs": 1}),
]
SET_READER_IDS = ["markov", "gru-embedding", "mlp-timed-state", "autoencoder"]


def set_reader(arch, overrides, log, net):
    config = TrainConfig(**{"hidden": 8, "layers": 1, "epochs": 2, "patience": 2, **overrides})
    return build_predictor(arch, config, log.activity_vocab, log.attribute_vocabs, net)


def fitted_state(predictor) -> dict:
    """What a fit leaves: the parameter bytes, and a neural model's encoder,
    normalizer and decay horizon."""
    encoder, time_norm = (getattr(predictor, name, None) for name in ("encoder", "time_norm"))
    return {
        "params": {k: (v.dtype, v.shape, v.tobytes()) for k, v in predictor.params.items()},
        "encoder": encoder.state() if encoder else None,
        "time_norm": time_norm.state() if time_norm else None,
        "decay_seconds": getattr(predictor, "decay_seconds", None),
    }


class TestSampleSetReaders:
    """Every model reads a :class:`SampleSet` as it reads the list of its
    samples; a fit, a protocol run and a decode lay each set out once, and a
    fit rejects a sample without a target before it changes anything."""

    @pytest.mark.parametrize("arch, overrides", SET_READERS, ids=SET_READER_IDS)
    def test_a_set_fits_as_its_list(self, arch, overrides):
        log, net, split = invariance_split()
        train_samples, val_samples = make_prefix_samples(split.train), make_prefix_samples(split.validation)
        from_list, from_set = (set_reader(arch, overrides, log, net) for _ in range(2))
        report = from_list.fit(train_samples, val_samples, seed=3)
        assert from_set.fit(SampleSet(train_samples), SampleSet(val_samples), seed=3).core() == report.core()
        assert fitted_state(from_set) == fitted_state(from_list)

    @pytest.mark.parametrize("part", ["train", "validation"])
    @pytest.mark.parametrize("arch", ["markov", "gru", "mlp", "autoencoder"])
    def test_a_sample_without_a_target_is_rejected_before_the_fit_changes_anything(self, arch, part):
        log = augment_eoc(make_linear_log(30))
        split = temporal_split(log)
        config = TrainConfig(hidden=8, layers=1, epochs=1, patience=1, ngram_dim=16, ae_hidden=(8,))
        trace = split.part(part).traces[0]
        for k in (0, len(trace)):
            samples = {"train": make_prefix_samples(split.train), "validation": make_prefix_samples(split.validation)}
            samples[part] = samples[part][:3] + [PrefixSample(trace, k)]
            predictor = build_predictor(arch, config, log.activity_vocab, log.attribute_vocabs)
            untouched = fitted_state(predictor)
            with pytest.raises(ValueError, match=f"case {trace.case_id!r} has no target: its prefix length {k}"):
                predictor.fit(samples["train"], samples["validation"])
            assert fitted_state(predictor) == untouched
            assert predictor.params == {}

    @pytest.mark.parametrize("arch, overrides", [r for r in SET_READERS if r[0] != "mlp"],
                             ids=[i for i in SET_READER_IDS if i != "mlp-timed-state"])
    def test_a_fit_lays_each_set_out_once_and_keeps_neither(self, arch, overrides, layouts):
        log, net, split = invariance_split()
        train_set = SampleSet(make_prefix_samples(split.train))
        val_set = SampleSet(make_prefix_samples(split.validation))
        sizes = [len(train_set), len(val_set)]
        kept = [weakref.ref(train_set), weakref.ref(val_set)]
        set_reader(arch, overrides, log, net).fit(train_set, val_set)
        assert layouts == sizes
        del train_set, val_set
        gc.collect()
        assert [ref() for ref in kept] == [None, None]

    @pytest.mark.parametrize("arch, overrides", [r for r in SET_READERS if r[0] != "mlp"],
                             ids=[i for i in SET_READER_IDS if i != "mlp-timed-state"])
    def test_the_protocol_lays_out_and_checks_its_test_set_once(self, arch, overrides, layouts, monkeypatch):
        log, net, split = invariance_split()
        predictor = set_reader(arch, overrides, log, net)
        train(predictor, split)
        layouts.clear()
        cuts = []
        reject = SampleSet._reject

        def counting(self, cut):
            cuts.append(cut)
            return reject(self, cut)

        monkeypatch.setattr(SampleSet, "_reject", counting)
        report = evaluate_protocol(predictor, split.test, DecodeConfig(strategy="beam", beam_width=2, max_len=4))
        assert layouts == [len(make_prefix_samples(split.test))]
        assert cuts == [0, 1]  # the scored prefixes, then the targets
        assert report.accuracy is not None and report.dl_similarity is not None
