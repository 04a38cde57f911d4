import json
import shutil
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ppmbench.eventlog import EOC, Event, EventLog, Trace, Vocabulary, augment_eoc
from ppmbench.models import (
    AutoencoderPredictor,
    MarkovPredictor,
    MLPPredictor,
    RecurrentPredictor,
    TrainConfig,
    build_predictor,
    load_predictor,
    save_predictor,
    train,
)
from ppmbench.petrinet import PetriNet, Transition
from ppmbench.splitting import make_prefix_samples, temporal_split

from conftest import generator_log, make_linear_log, make_random_log

DATA = Path(__file__).parent / "data"


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
            ctx = sample.prefix_activities[len(sample.prefix) - j :]
            matches = [
                s
                for s in samples
                if len(s.prefix) >= j and s.prefix_activities[len(s.prefix) - j :] == ctx
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

    def test_sidecar_with_mismatched_contexts_rejected(self, linear_split, tmp_path):
        log, split = linear_split
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["state"]["deltas"][1][0][0] = "Z"
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ValueError, match="different contexts"):
            load_predictor(tmp_path / "model")


def ref_fit_ngram_counts(samples, order, vocab):
    tables = [{} for _ in range(order + 1)]
    for sample in samples:
        acts = sample.prefix_activities
        target = vocab.index(sample.next_activity)
        for j in range(0, order + 1):
            if j > len(acts):
                break
            ctx = acts[len(acts) - j :]
            tables[j].setdefault(ctx, Counter())[target] += 1
    return tables


def ref_markov_predict(tables, prefix_activities, order, alpha, vocab):
    acts = tuple(prefix_activities)
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
        acts = sample.prefix_activities
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
        queries = [s.prefix_activities for s in make_prefix_samples(split.test)] + unseen
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
        assert (tmp_path / "model.npz").exists() == (arch != "markov")
        params = [] if arch == "markov" else [tmp_path / "model.npz"]
        assert written == params + [tmp_path / "model.json"]
        loaded = load_predictor(tmp_path / "model", net)
        assert loaded.architecture == predictor.architecture
        for sample in make_prefix_samples(split.test)[:5]:
            p_orig, d_orig = predictor.predict(sample.prefix)
            p_new, d_new = loaded.predict(sample.prefix)
            assert np.array_equal(p_orig, p_new)
            assert d_orig == d_new

    def test_edited_vocabulary_rejected(self, linear_split, tmp_path):
        log, split = linear_split
        predictor = RecurrentPredictor("gru", log.activity_vocab, config=fast_config(epochs=1))
        train(predictor, split, seed=0)
        save_predictor(predictor, tmp_path / "model")
        path = tmp_path / "model.json"
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["activity_vocab"][0] = "Z"
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ValueError, match="vocab_sha256"):
            load_predictor(tmp_path / "model")

    @pytest.mark.parametrize("fault", ["truncated", "missing"])
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
        else:
            del arrays["param:head_act:b"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="'head_act:b'"):
            load_predictor(tmp_path / "model")


class TestVersion1Checkpoints:
    """``tests/data/v1_{lstm,gru}`` were written with per-gate cell arrays
    (checkpoint version 1): hidden 4, 2 layers, embedding_dim 2, 20 epochs
    with patience 20 and batch size 16 on ``make_linear_log(60)``, seed 0.
    ``v1_predictions.json`` holds their ``predict`` output on the first 10
    test prefixes."""

    @pytest.mark.parametrize("arch", ["lstm", "gru"])
    def test_loads_with_fused_cells(self, arch, linear_split):
        _, split = linear_split
        expected = json.loads((DATA / "v1_predictions.json").read_text(encoding="utf-8"))[arch]
        loaded = load_predictor(DATA / f"v1_{arch}")
        assert sorted(k for k in loaded.params if k.startswith("l1:")) == ["l1:U", "l1:W", "l1:b"]
        samples = make_prefix_samples(split.test)[:10]
        for sample, probs, delta in zip(samples, expected["probs"], expected["deltas"], strict=True):
            p, d = loaded.predict(sample.prefix)
            assert np.abs(p - probs).max() <= 1e-6
            assert np.argmax(p) == np.argmax(probs)
            assert d == pytest.approx(delta, rel=1e-5)

    def test_truncated_gate_array_rejected(self, tmp_path):
        for suffix in (".json", ".npz"):
            shutil.copy(DATA / f"v1_lstm{suffix}", tmp_path / f"model{suffix}")
        path = tmp_path / "model.npz"
        arrays = npz_arrays(path)
        arrays["param:l1:bo"] = arrays["param:l1:bo"][:3]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="'l1:b'"):
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
    """``_inputs`` of a whole trace equals ``_inputs`` of each prefix alone,
    bit for bit, so no input reads an event past its prefix; ``_arrays`` puts
    them in sample order, whatever that order is."""

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
        X, M, y_act, y_time = predictor._fit_arrays(samples)
        rows = []
        for trace in log.traces:
            ks = list(range(1, len(trace)))
            Xt, Mt = predictor._inputs(trace.events, ks)
            for j, k in enumerate(ks):
                Xk, Mk = predictor._inputs(trace.events[:k], [k])
                assert np.array_equal(Xt[j], Xk[0])
                assert (Mt is None and Mk is None) or np.array_equal(Mt[j], Mk[0])
                rows.append((Xt[j], None if Mt is None else Mt[j]))
        assert len(rows) == len(samples)
        assert np.array_equal(X, np.stack([x for x, _ in rows]))
        assert M is None or np.array_equal(M, np.stack([m for _, m in rows]))

        order = np.random.default_rng(0).permutation(len(samples))
        Xs, Ms, ys_act, ys_time = predictor._arrays([samples[i] for i in order])
        assert np.array_equal(Xs, X[order]) and np.array_equal(ys_act, y_act[order])
        assert M is None or np.array_equal(Ms, M[order])
        assert y_time is None or np.array_equal(ys_time, y_time[order])


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
