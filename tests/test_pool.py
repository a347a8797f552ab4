"""The shared map: item order, the processes it runs in, faults and the
error state of its children, and the two callers, prediction's chunk pass
and the ablation sweep. Two CPUs are faked through the affinity mask; what
a forked child appends to a list of this process is lost, so pids are
logged to a file."""

import multiprocessing
import os

import numpy as np
import pytest

from spotlighter import cli, pipeline, pool
from spotlighter.cli import EXIT_OK, main
from spotlighter.errors import DimMismatch
from spotlighter.features import generate_base_novel
from spotlighter.pipeline import _CHUNK, make_eval_class_set, predict_batch, predict_modes

from .test_cli import TINY_FLAGS


def _mask(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))


def _log_pid(path):
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def _pids(path):
    return [int(pid) for pid in path.read_text().split()] if path.exists() else []


def _log_chunk_pids(monkeypatch, path):
    predict_chunk = pipeline._predict_chunk

    def pid_logging_chunk(*args):
        _log_pid(path)
        return predict_chunk(*args)

    monkeypatch.setattr(pipeline, "_predict_chunk", pid_logging_chunk)


def test_results_keep_item_order_across_processes(monkeypatch):
    _mask(monkeypatch, 2)
    got = list(pool.shared_map(lambda i: (i * i, os.getpid()), range(7)))
    assert [square for square, _ in got] == [i * i for i in range(7)]
    pids = [pid for _, pid in got]
    assert pids[0::2] == [os.getpid()] * 4
    assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()
    assert multiprocessing.active_children() == []


def test_children_run_under_the_callers_error_state(monkeypatch):
    _mask(monkeypatch, 2)
    with np.errstate(over="raise", divide="raise"):
        want = np.geterr()
        got = list(pool.shared_map(lambda _: (np.geterr(), os.getpid()), range(4)))
    assert [state for state, _ in got] == [want] * 4
    assert len({pid for _, pid in got}) == 2


@pytest.fixture()
def multi_chunk_split(tiny_state, tiny_config):
    n = 2 * _CHUNK + 3
    _, big, _ = generate_base_novel(tiny_config.synth_spec(), 1,
                                    -(-n // tiny_config.n_classes))
    ctx = make_eval_class_set(tiny_state, big.text_embeddings, True)
    return big.tokens[:n], ctx


def test_chunks_shared_between_processes_give_the_serial_bytes(tiny_state, multi_chunk_split,
                                                               monkeypatch, tmp_path):
    tokens, ctx = multi_chunk_split
    out = {}
    for n_cpus in (2, 1):
        _mask(monkeypatch, n_cpus)
        log = tmp_path / f"chunks{n_cpus}.log"
        _log_chunk_pids(monkeypatch, log)
        out[n_cpus] = predict_modes(tokens, tiny_state, ctx, ("both", "lev1", "lev2"))
        assert multiprocessing.active_children() == []
        pids = _pids(log)
        assert len(pids) == 3
        assert len(set(pids)) == n_cpus and os.getpid() in pids
    for mode, (preds, probs) in out[1].items():
        assert out[2][mode][0].tobytes() == preds.tobytes()
        assert out[2][mode][1].tobytes() == probs.tobytes()


def test_a_package_error_in_a_childs_chunk_keeps_its_type(tiny_state, multi_chunk_split,
                                                          monkeypatch):
    tokens, ctx = multi_chunk_split
    test_pid = os.getpid()
    predict_chunk = pipeline._predict_chunk

    def faulty_chunk(*args):
        if os.getpid() != test_pid:
            raise DimMismatch("fault in a child's chunk")
        return predict_chunk(*args)

    monkeypatch.setattr(pipeline, "_predict_chunk", faulty_chunk)
    _mask(monkeypatch, 2)
    with pytest.raises(DimMismatch, match="fault in a child's chunk") as excinfo:
        predict_batch(tokens, tiny_state, ctx)
    assert "faulty_chunk" in str(excinfo.value.__cause__)
    assert multiprocessing.active_children() == []


def test_a_one_chunk_split_forks_nothing(tiny_state, tiny_episode, monkeypatch, tmp_path):
    _, base_test, _ = tiny_episode
    assert base_test.n_items <= _CHUNK
    ctx = make_eval_class_set(tiny_state, base_test.text_embeddings, True)
    want = predict_batch(base_test.tokens, tiny_state, ctx)

    def no_fork(*args):
        raise AssertionError("a one-chunk split forked")

    _mask(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    log = tmp_path / "chunks.log"
    _log_chunk_pids(monkeypatch, log)
    got = predict_batch(base_test.tokens, tiny_state, ctx)
    assert _pids(log) == [os.getpid()]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_ablate_cells_score_multi_chunk_splits_in_their_own_process(capsys, tmp_path,
                                                                    monkeypatch):
    # 3 classes x 22 test items are two chunks per split: each cell scores
    # them in the process that trained it, so the chunk pids are the
    # training pids and no cell forks a grandchild
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPOTLIGHTER_SEED", raising=False)
    trainings, chunks = tmp_path / "trainings.log", tmp_path / "chunks.log"

    def pid_logging_train(*args, **kwargs):
        _log_pid(trainings)
        return pipeline.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", pid_logging_train)
    _log_chunk_pids(monkeypatch, chunks)
    _mask(monkeypatch, 2)
    code = main(["ablate", *TINY_FLAGS, "--epochs", "1", "--test-per-class", "22",
                 "--out", "sweep.csv"])
    assert code == EXIT_OK
    assert multiprocessing.active_children() == []
    training_pids = set(_pids(trainings))
    assert len(training_pids) == 2 and os.getpid() in training_pids
    assert len(_pids(chunks)) == 24 * 2 * 2  # a base and a novel pass per cell
    assert set(_pids(chunks)) <= training_pids
