"""The input boundary: every `.spot` or SPOTCKPT file and every config value
either works or fails with a SpotlighterError whose family sets the exit
code, with a one-line `error:` message and no traceback."""

import contextlib
import copy
import inspect
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotlighter import errors
from spotlighter.cli import main
from spotlighter.config import RunConfig, parse_value
from spotlighter.errors import ConfigError, DataError, NumericError, SpotlighterError, UsageError
from spotlighter.pipeline import load_state, save_state

TINY_FLAGS = ["--d", "16", "--n-tok", "8", "--n-classes", "3",
              "--signal-tokens", "2", "--distractor-pool", "6",
              "--shots", "3", "--test-per-class", "3", "--k-act", "4",
              "--n-proto", "2", "--heads", "2", "--seed", "11"]

# the exit code of every error class, as the CLI assigned them before the
# codes moved onto the error families
EXIT_CODES = {
    "ConfigError": 1, "InvalidSpec": 1, "InvalidK": 1, "KOutOfRange": 1,
    "WorkloadTooSmall": 1,
    "BadMagic": 2, "TruncatedFile": 2, "HeaderMismatch": 2, "VersionMismatch": 2,
    "DimMismatch": 2, "LabelOutOfRange": 2, "EmptySplit": 2, "EmptySelection": 2,
    "UnlabeledSplit": 2,
    "NonFiniteLoss": 3, "ZeroVector": 3,
    "NonPositiveTemperature": 3,
}
FAMILIES = (UsageError, DataError, NumericError)


def test_exit_code_table():
    for name, code in EXIT_CODES.items():
        assert getattr(errors, name).exit_code == code, name


def test_every_error_in_exactly_one_family():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, SpotlighterError) and c is not SpotlighterError
               and c not in FAMILIES]
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_CODES)
    for cls in classes:
        assert sum(issubclass(cls, fam) for fam in FAMILIES) == 1, cls.__name__


# --- files ---------------------------------------------------------------------

def run_main(*argv):
    """(exit code, stderr) of one CLI run; any exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    assert run_main("gen", *TINY_FLAGS, "--out-dir", root)[0] == 0
    ckpt = root / "ckpt.bin"
    assert run_main("train", *TINY_FLAGS, "--epochs", "1",
                    "--train", root / "base-train.spot", "--out", ckpt)[0] == 0
    return {"checkpoint": ckpt.read_bytes(),
            "base": (root / "base-test.spot").read_bytes(),
            "novel": (root / "novel-test.spot").read_bytes()}


def split_file(raw: bytes):
    """(magic, header, payload) of a container file."""
    off = 8 if raw.startswith(b"SPOTCKPT") else 4
    hlen = int.from_bytes(raw[off + 1: off + 5], "little")
    return raw[:off + 1], json.loads(raw[off + 5: off + 5 + hlen]), raw[off + 5 + hlen:]


def join_file(magic: bytes, header, payload: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True).encode()
    return magic + len(blob).to_bytes(4, "little") + blob + payload


def eval_with(tmp_path, files, **replaced):
    """Exit code and stderr of `spotlighter eval` with some files replaced."""
    paths = {}
    for role, raw in files.items():
        paths[role] = tmp_path / f"{role}.bin"
        paths[role].write_bytes(replaced.get(role, raw))
    return run_main("eval", "--checkpoint", paths["checkpoint"],
                    "--base", paths["base"], "--novel", paths["novel"])


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def json_paths(node, prefix=()):
    """Every key/index path to a value in a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**62, 2**62)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def corruptions(draw, files):
    role = draw(st.sampled_from(sorted(files)))
    raw = files[role]
    kind = draw(st.sampled_from(("truncate", "flip", "replace")))
    if kind == "truncate":
        return role, raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        pos = draw(st.integers(0, len(raw) - 1))
        mask = draw(st.integers(1, 255))
        return role, raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]
    magic, header, payload = split_file(raw)
    path = draw(st.sampled_from(sorted(json_paths(header), key=repr)))
    header = copy.deepcopy(header)
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(json_values)
    return role, join_file(magic, header, payload)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_files_fail_cleanly(files, tmp_path, data):
    role, raw = data.draw(corruptions(files))
    assert_clean_exit(*eval_with(tmp_path, files, **{role: raw}))


def test_intact_files_evaluate(files, tmp_path):
    assert eval_with(tmp_path, files) == (0, "")


def mutate_header(raw: bytes, edit) -> bytes:
    magic, header, payload = split_file(raw)
    edit(header)
    return join_file(magic, header, payload)


def _rename_tensor(h):
    h["tensors"][0]["name"] = "renamed"


def _set_config(key, value):
    return lambda h: h["config"].__setitem__(key, value)


@pytest.mark.parametrize("edit, code, needle", [
    (_rename_tensor, 2, "manifest"),
    (lambda h: h.pop("config"), 2, "missing keys ['config']"),
    (_set_config("d", "16"), 1, "'16' is not a valid int"),
    (_set_config("semantic_on", 1), 1, "1 is not a valid bool"),
    (_set_config("k_act", True), 1, "True is not a valid int"),
    (_set_config("d", 2**40), 2, "manifest"),
    (lambda h: h["tensors"].pop(), 2, "header declares"),
    (lambda h: h.__setitem__("history", 5), 2, "history must be a list"),
    (lambda h: h.__setitem__("config", [1]), 1, "mapping"),
])
def test_checkpoint_header_defects(files, tmp_path, edit, code, needle):
    got, err = eval_with(tmp_path, files, checkpoint=mutate_header(files["checkpoint"], edit))
    assert got == code and needle in err, err
    assert_clean_exit(got, err)


def test_non_finite_checkpoint_tensor(files, tmp_path):
    raw = files["checkpoint"][:-8] + struct.pack("<d", float("nan"))
    got, err = eval_with(tmp_path, files, checkpoint=raw)
    assert got == DataError.exit_code and "bank.prototypes" in err


def test_earlier_checkpoint_versions_rejected(files, tmp_path):
    for version in (1, 2, 3):
        raw = files["checkpoint"][:8] + bytes([version]) + files["checkpoint"][9:]
        got, err = eval_with(tmp_path, files, checkpoint=raw)
        assert got == 2 and f"version {version}, expected 4" in err, err
        assert_clean_exit(got, err)


def _set_last_label(raw: bytes, label: int) -> bytes:
    magic, header, payload = split_file(raw)
    pos = 4 * (header["n_items"] - 1)
    return join_file(magic, header,
                     payload[:pos] + struct.pack("<I", label) + payload[pos + 4:])


@pytest.mark.parametrize("corrupt, needle", [
    (lambda raw: raw[:-4] + struct.pack("<f", float("nan")), "non-finite feature values"),
    (lambda raw: _set_last_label(raw, 99), "label exceeds class count"),
], ids=["nan-token", "label-out-of-range"])
def test_feature_content_defects_are_data_errors(files, tmp_path, corrupt, needle):
    got, err = eval_with(tmp_path, files, base=corrupt(files["base"]))
    assert got == DataError.exit_code and "base.bin" in err and needle in err, err
    assert_clean_exit(got, err)


@pytest.mark.parametrize("key, value", [("n_items", "x"), ("n_items", -1), ("d", 2.0),
                                        ("has_labels", "yes")])
def test_feature_header_defects(files, tmp_path, key, value):
    raw = mutate_header(files["base"], lambda h: h.__setitem__(key, value))
    got, err = eval_with(tmp_path, files, base=raw)
    assert got == 2 and "base.bin" in err, err


def test_header_must_be_an_object(files, tmp_path):
    magic, _, payload = split_file(files["novel"])
    got, err = eval_with(tmp_path, files, novel=join_file(magic, [1, 2], payload))
    assert got == 2 and "not a JSON object" in err


def test_split_with_more_classes_than_the_bank(files, tmp_path):
    wide = tmp_path / "wide"
    flags = TINY_FLAGS[:4] + ["--n-classes", "5"] + TINY_FLAGS[6:]
    assert run_main("gen", *flags, "--out-dir", wide)[0] == 0
    got, err = eval_with(tmp_path, files, base=(wide / "base-test.spot").read_bytes())
    assert got == 2 and "trained bank" in err


# --- values ----------------------------------------------------------------------

def test_from_dict_rejects_mistyped_values():
    for key, value in (("d", "16"), ("d", 16.0), ("epochs", False), ("semantic_on", 1),
                       ("lambda1", "0.02"), ("lambda1", float("nan")),
                       ("tier_mode", ["both"])):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({key: value})
    assert RunConfig.from_dict({"lambda1": 0, "semantic_on": False}).lambda1 == 0


def test_one_coercion_for_files_flags_and_environment(tmp_path, monkeypatch):
    assert parse_value("semantic_on", "Off", "x") is False
    assert parse_value("d", "16", "x") == 16 and parse_value("lambda2", "1", "x") == 1.0
    for key, text in (("semantic_on", "maybe"), ("d", "1.5"), ("nope", "1")):
        with pytest.raises(ConfigError):
            parse_value(key, text, "x")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPOTLIGHTER_SEED", raising=False)
    for argv in (["--semantic-on", "maybe"], ["--d", "1.5"], ["--seed", "x"]):
        code, err = run_main("gen", *argv, "--out-dir", "x")
        assert code == 1 and err.startswith("error: --"), err
        assert_clean_exit(code, err)
    monkeypatch.setenv("SPOTLIGHTER_SEED", "abc")
    code, err = run_main("gen", "--out-dir", "x")
    assert code == 1 and err.startswith("error: SPOTLIGHTER_SEED")


# --- command flags outside the config ----------------------------------------------

# the ids stay those the rows had while the table also held the deleted
# bench --warmup and gradcheck --eps checks, so each row keeps its name
@pytest.mark.parametrize("argv, needle", [
    (["bench", "--reps", "0"], "reps"),
    (["bench", "--k-list", "a"], "--k-list"),
    (["bench", "--k-list", ","], "--k-list"),
    (["gradcheck", "--seeds", "0"], "seed"),
    (["gradcheck", "--seeds", "-3"], "seed"),
], ids=["argv0-reps", "argv2---k-list", "argv3---k-list", "argv6-seed", "argv7-seed"])
def test_command_flags_fail_cleanly(files, tmp_path, argv, needle):
    if argv[0] == "bench":
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(files["checkpoint"])
        argv = argv + ["--checkpoint", ckpt]
    code, err = run_main(*argv)
    assert code == 1 and needle in err, err
    assert_clean_exit(code, err)


# --- numeric failures, in a process of their own -----------------------------------
# (pytest captures warnings in-process, which would hide numpy's stray lines)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv):
    """(exit code, stderr) of `python -m spotlighter.cli` in a fresh process."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "spotlighter.cli", *map(str, argv)],
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": pythonpath})
    return result.returncode, result.stderr


def test_overflowing_checkpoint_weights_fail_eval(files, tmp_path):
    # finite weights whose outputs overflow must fail, not turn every
    # probability row uniform and every prediction into class 0
    (tmp_path / "ckpt.bin").write_bytes(files["checkpoint"])
    state = load_state(tmp_path / "ckpt.bin")
    state.params.trm_w[...] = 1e300
    save_state(state, tmp_path / "big.bin")
    for role in ("base", "novel"):
        (tmp_path / f"{role}.spot").write_bytes(files[role])
    code, err = run_process("eval", "--checkpoint", tmp_path / "big.bin",
                            "--base", tmp_path / "base.spot", "--novel", tmp_path / "novel.spot")
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_overflowing_loss_fails_train_with_one_line(files, tmp_path):
    (tmp_path / "train.spot").write_bytes(files["base"])
    code, err = run_process("train", *TINY_FLAGS, "--epochs", "1", "--lambda2", "1e300",
                            "--train", tmp_path / "train.spot", "--out", tmp_path / "c.bin")
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: non-finite loss component"), err
