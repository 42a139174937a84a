"""Self-play episode generation, replay training, and the full loop."""

import warnings

import numpy as np
import pytest

from hrcsched import (
    DeadlockError,
    IterationReport,
    NOOP,
    NetEvaluator,
    SearchConfig,
    TrainingConfig,
    TrainingExample,
    UniformEvaluator,
    avoid_stall,
    clip_gradients,
    episode_seed,
    generate_episode,
    init_params,
    initial_state,
    load_checkpoint,
    parse_jobspec,
    train_iteration,
    training_log_csv,
    training_loop,
    transition,
)
from hrcsched import selfplay
from hrcsched.game import pick
from hrcsched.net import loss, network_width
from hrcsched.selfplay import _column_policy

from conftest import TINY_TEXT


def tiny_net_evaluator(seed=0):
    params = init_params(2, 2, filters=(4,), dense_units=8, seed=seed)
    return NetEvaluator(params, 2, 2)


def test_episode_seed_formula():
    assert episode_seed(0, 0, 0) == 0
    assert episode_seed(5, 3, 2) == 5 * 1_000_003 + 3 * 1_009 + 2
    seeds = {episode_seed(m, k, e) for m in range(3) for k in range(10) for e in range(12)}
    assert len(seeds) == 3 * 10 * 12


def test_training_loop_trains_on_newest_examples(monkeypatch):
    # the loop keeps at most `capacity` examples, and the oldest fall out first
    made, handed = [], []
    real_generate = selfplay.generate_episode

    def generate(*args, **kwargs):
        record, examples = real_generate(*args, **kwargs)
        made.extend(examples)
        return record, examples

    def train(examples, params, config, seed=0):
        handed.append((list(examples), list(made)))
        return params, 0.0, 0.0

    monkeypatch.setattr(selfplay, "generate_episode", generate)
    monkeypatch.setattr(selfplay, "train_iteration", train)
    cfg = TrainingConfig(
        iterations=2, episodes=3, search=SearchConfig(simulations=5), capacity=4,
        filters=(4,), dense_units=8,
    )
    training_loop(parse_jobspec(TINY_TEXT), cfg)
    assert len(handed) == 2
    for examples, so_far in handed:
        assert len(so_far) > cfg.capacity  # so some examples were evicted
        newest = so_far[-cfg.capacity:]
        assert len(examples) == len(newest) == cfg.capacity
        assert all(a is b for a, b in zip(examples, newest))


def test_column_policy_folds_out_noop():
    state = initial_state(parse_jobspec(TINY_TEXT))
    pairs = [(pick("A"), 0.6), (pick("C"), 0.3), (NOOP, 0.1)]
    policy = _column_policy(state, pairs)
    assert policy == pytest.approx([2 / 3, 1 / 3])
    assert _column_policy(state, [(NOOP, 1.0)]).tolist() == [0.0, 0.0]


def test_avoid_stall():
    state = initial_state(parse_jobspec(TINY_TEXT))
    # the human declining is fine while the robot can still act
    assert avoid_stall(state, NOOP, [(pick("A"), 0.2), (NOOP, 0.8)]) == NOOP
    # picks pass through untouched
    assert avoid_stall(state, pick("A"), [(pick("A"), 1.0)]) == pick("A")
    declined, _, _ = transition(state, NOOP)
    # the robot declining after the human did would stall: redirected to
    # the highest-probability pick
    pairs = [(pick("C"), 0.4), (NOOP, 0.6)]
    assert avoid_stall(declined, NOOP, pairs) == pick("C")
    with pytest.raises(DeadlockError):
        avoid_stall(declined, NOOP, [(NOOP, 1.0)])


def test_avoid_stall_counts_agents_left_without_a_pick():
    state = initial_state(parse_jobspec(TINY_TEXT))
    state, _, _ = transition(state, NOOP)
    state, _, _ = transition(state, pick("C"))
    assert state.clock == 4
    # the robot is still to act, but A is human-only and B is buried, so a
    # wait by the human would leave every agent idle all the same
    assert avoid_stall(state, NOOP, [(pick("A"), 0.3), (NOOP, 0.7)]) == pick("A")
    with pytest.raises(DeadlockError):
        avoid_stall(state, NOOP, [(NOOP, 1.0)])


def test_generate_episode_is_deterministic():
    spec = parse_jobspec(TINY_TEXT)
    cfg = SearchConfig(simulations=20)
    a_rec, a_ex = generate_episode(spec, tiny_net_evaluator(), cfg, seed=9)
    b_rec, b_ex = generate_episode(spec, tiny_net_evaluator(), cfg, seed=9)
    assert a_rec.makespan == b_rec.makespan
    assert a_rec.schedule == b_rec.schedule
    assert len(a_ex) == len(b_ex)
    for ea, eb in zip(a_ex, b_ex):
        assert np.array_equal(ea.x, eb.x)
        assert np.array_equal(ea.policy, eb.policy)
        assert ea.value == eb.value


def test_generate_episode_examples():
    spec = parse_jobspec(TINY_TEXT)
    record, examples = generate_episode(
        spec, tiny_net_evaluator(), SearchConfig(simulations=20), seed=4
    )
    assert sum(record.rewards) == -record.makespan
    assert examples
    assert len(examples) <= len(record.decisions)
    for e in examples:
        assert e.x.shape == (2, 2, 3)
        assert e.policy.shape == (2,)
        assert e.policy.sum() == pytest.approx(1.0)
        assert e.value <= 0.0
    # return-to-go: the value target is the decision clock minus the makespan
    clocks = [d.state.clock for d in record.decisions if d.policy.sum() > 0]
    assert [e.value for e in examples] == [c - record.makespan for c in clocks]
    # the first decision sees the full makespan
    assert examples[0].value == -record.makespan


def test_examples_from_a_padded_evaluator_train():
    # a 4x5 network on the 2x2 job: input and policy are both padded to 5 columns
    spec = parse_jobspec(TINY_TEXT)
    params = init_params(4, 5, filters=(4,), dense_units=8)
    evaluator = NetEvaluator(params, 4, 5)
    record, examples = generate_episode(spec, evaluator, SearchConfig(simulations=20), seed=4)
    assert examples
    narrow = [d.policy for d in record.decisions if d.policy.sum() > 0]
    for e, policy in zip(examples, narrow):
        assert e.x.shape == (4, 5, 3)
        assert e.policy.tolist() == policy.tolist() + [0.0, 0.0, 0.0]
    trained, ce, mse = train_iteration(examples, params, TrainingConfig(epochs=1))
    assert trained.keys() == params.keys() and ce > 0.0 and mse > 0.0


def test_generate_episode_without_dims_gives_no_examples():
    spec = parse_jobspec(TINY_TEXT)
    record, examples = generate_episode(
        spec, UniformEvaluator(2), SearchConfig(simulations=20), seed=4
    )
    assert record.makespan > 0
    assert examples == []


def test_greedy_episode_ignores_seed():
    spec = parse_jobspec(TINY_TEXT)
    cfg = SearchConfig(simulations=30)
    a, _ = generate_episode(spec, tiny_net_evaluator(), cfg, seed=1, temperature_moves=0)
    b, _ = generate_episode(spec, tiny_net_evaluator(), cfg, seed=2, temperature_moves=0)
    assert a.makespan == b.makespan
    assert a.schedule == b.schedule


def test_clip_gradients():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_gradients(grads, 2.5)
    norm = np.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
    assert norm == pytest.approx(2.5)
    assert clipped["a"][0] / clipped["b"][0] == pytest.approx(3.0 / 4.0)
    untouched = clip_gradients(grads, 100.0)
    assert untouched is grads
    zeros = {"a": np.zeros(2)}
    assert clip_gradients(zeros, 1.0) is zeros


def test_gradient_norm_is_summed_left_to_right():
    # squares 1e16, 1, 1: left to right (builtin sum up to Python 3.11) the
    # total stays 1e16; compensated (Python 3.12's sum) it is 1e16 + 2
    grads = {"a": np.array([1e8]), "b": np.array([1.0]), "c": np.array([1.0])}
    assert clip_gradients(grads, 1.0)["a"][0] == 1.0


def test_train_iteration_empty_or_zero_epochs_is_identity():
    params = init_params(2, 2, filters=(4,), dense_units=8)
    out, ce, mse = train_iteration([], params, TrainingConfig())
    assert out is params and ce == 0.0 and mse == 0.0
    example = TrainingExample(x=np.zeros((2, 2, 3)), policy=np.array([1.0, 0.0]), value=-3.0)
    out, ce, mse = train_iteration([example], params, TrainingConfig(epochs=0))
    assert out is params and ce == 0.0 and mse == 0.0


def test_train_iteration_reduces_loss():
    rng = np.random.default_rng(0)
    examples = []
    for _ in range(12):
        x = (rng.random((2, 2, 3)) < 0.4).astype(float)
        pi = rng.random(2)
        pi /= pi.sum()
        examples.append(TrainingExample(x=x, policy=pi, value=-float(rng.integers(2, 10))))
    params = init_params(2, 2, filters=(4,), dense_units=8, seed=1)
    before = loss(params, examples)
    trained, ce, mse = train_iteration(
        examples, params, TrainingConfig(epochs=20, learning_rate=0.005), seed=3
    )
    after = loss(trained, examples)
    assert after < before
    assert ce > 0.0 and mse > 0.0


def test_train_iteration_is_deterministic():
    example = TrainingExample(
        x=np.eye(2)[..., None] * np.ones(3), policy=np.array([0.7, 0.3]), value=-4.0
    )
    examples = [example] * 8
    params = init_params(2, 2, filters=(4,), dense_units=8)
    a, _, _ = train_iteration(examples, params, TrainingConfig(), seed=5)
    b, _, _ = train_iteration(examples, params, TrainingConfig(), seed=5)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_training_loop_smoke(tmp_path):
    spec = parse_jobspec(TINY_TEXT)
    cfg = TrainingConfig(
        iterations=2,
        episodes=3,
        search=SearchConfig(simulations=10),
        filters=(4,),
        dense_units=8,
        seed=1,
    )
    seen = []
    reports, params = training_loop(spec, cfg, out_dir=tmp_path, progress=seen.append)
    assert [r.iteration for r in reports] == [0, 1]
    assert seen == reports
    assert all(r.episodes == 3 for r in reports)
    assert reports[1].best_makespan <= reports[0].best_makespan
    assert all(r.mean_makespan >= r.best_makespan for r in reports)
    for name in ("checkpoint_000.txt", "checkpoint_001.txt", "checkpoint_final.txt"):
        assert (tmp_path / name).exists()
    final = load_checkpoint(tmp_path / "checkpoint_final.txt")
    assert network_width(final) == spec.width
    for k in params:
        assert np.array_equal(final[k], params[k])


def test_training_loop_zero_iterations(tmp_path):
    spec = parse_jobspec(TINY_TEXT)
    cfg = TrainingConfig(iterations=0, filters=(4,), dense_units=8, seed=2)
    reports, params = training_loop(spec, cfg, out_dir=tmp_path)
    assert reports == []
    fresh = init_params(spec.height, spec.width, filters=(4,), dense_units=8, seed=2)
    for k in params:
        assert np.array_equal(params[k], fresh[k])
    assert (tmp_path / "checkpoint_final.txt").exists()


@pytest.mark.parametrize("episodes", [0, -2])
def test_training_loop_needs_an_episode(tmp_path, episodes):
    # refused before any work: no numpy warning from a mean over no
    # episodes, and no checkpoint written
    cfg = TrainingConfig(iterations=1, episodes=episodes, filters=(4,), dense_units=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="episodes"):
            training_loop(parse_jobspec(TINY_TEXT), cfg, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_training_loop_is_deterministic():
    spec = parse_jobspec(TINY_TEXT)

    def run():
        cfg = TrainingConfig(
            iterations=2,
            episodes=2,
            search=SearchConfig(simulations=10),
            filters=(4,),
            dense_units=8,
            seed=7,
        )
        return training_loop(spec, cfg)

    first_reports, first_params = run()
    second_reports, second_params = run()
    assert first_reports == second_reports
    for k in first_params:
        assert np.array_equal(first_params[k], second_params[k])


def test_training_log_csv():
    reports = [
        IterationReport(0, 10, 7.5, 7, 2.0, 50.0),
        IterationReport(1, 10, 7.25, 6, 1.75, 42.125),
    ]
    assert training_log_csv(reports) == (
        "iteration,episodes,mean_makespan,best_makespan,policy_loss,value_loss\n"
        "0,10,7.5,7,2,50\n"
        "1,10,7.25,6,1.75,42.125\n"
    )
