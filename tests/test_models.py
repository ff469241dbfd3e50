"""Classifier head growth, the conditional generator, and checkpoints."""
import json
import re
import zipfile

import numpy as np
import pytest

from fedscil import Classifier, ConditionalGenerator, make_student
from fedscil.autodiff import Optimizer, backprop, frozen
from fedscil.checkpoint import load_state, save_state
from fedscil.errors import ContractError


def _zero_head(model: Classifier) -> None:
    for head in model.heads.values():
        head.weight.data[:] = 0.0
        head.bias.data[:] = 0.0


# -- classifier forward ----------------------------------------------------------

def test_zero_weight_head_gives_uniform_softmax(rng):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    _zero_head(model)
    logits = model.forward(rng.standard_normal((5, 4)), mode="eval")
    assert np.array_equal(logits.data, np.zeros((5, 3)))
    assert np.allclose(logits.softmax().data, np.full((5, 3), 1 / 3), atol=1e-12)


def test_identical_rows_get_identical_logits(rng):
    # BLAS blocking may reorder sums between rows, so equality is to 1e-12
    model = Classifier(in_dim=4, base_classes=3, seed=1)
    row = rng.standard_normal(4)
    logits = model.forward(np.tile(row, (6, 1)), mode="eval")
    assert np.allclose(logits.data, np.tile(logits.data[0], (6, 1)), atol=1e-12)


def test_forward_validates_input_shape():
    model = Classifier(in_dim=4, base_classes=2, seed=0)
    with pytest.raises(ContractError):
        model.forward(np.ones((3, 5)), mode="eval")


def test_eval_forward_leaves_running_stats_untouched(rng):
    model = Classifier(in_dim=4, base_classes=2, seed=0)
    before = [(bn.running_mean.data.copy(), bn.running_var.data.copy())
              for bn in model.bn_layers()]
    model.forward(rng.standard_normal((8, 4)), mode="eval")
    for bn, (m, v) in zip(model.bn_layers(), before):
        assert np.array_equal(bn.running_mean.data, m)
        assert np.array_equal(bn.running_var.data, v)
    model.forward(rng.standard_normal((8, 4)), mode="train")
    assert not np.array_equal(model.bn_layers()[0].running_mean.data, before[0][0])


# -- head expansion ---------------------------------------------------------------

def test_expand_by_zero_is_identity():
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 0, seed=9)
    assert model.classes_seen == 3
    assert len(model.heads) == 1


def test_expand_head_appends_and_preserves_old_columns(rng):
    model = Classifier(in_dim=4, base_classes=12, seed=0)
    x = rng.standard_normal((5, 4))
    before = model.forward(x, mode="eval").data
    model.expand_head(1, 2, seed=9)
    after = model.forward(x, mode="eval").data
    assert after.shape == (5, 14)
    assert np.array_equal(after[:, :12], before)


def test_expand_head_retags_groups():
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    assert model.heads[0].weight.group == "head_new"
    model.expand_head(1, 2, seed=9)
    assert model.heads[0].weight.group == "head_old"
    assert model.heads[1].weight.group == "head_new"


def test_expand_head_rejects_duplicate_session():
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=9)
    with pytest.raises(ContractError):
        model.expand_head(1, 2, seed=10)
    with pytest.raises(ContractError):
        model.expand_head(2, -1, seed=10)


def test_append_head_block_refuses_a_session_that_has_one(rng):
    """The session map never overwrites a block: the first one stays."""
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    first = model.heads[0]
    with pytest.raises(ContractError, match="^session 0 does not follow session 0$"):
        model.append_head_block(0, 2, rng)
    assert model.heads == {0: first} and model.classes_seen == 3


def _tags(model: Classifier) -> list[tuple[str, str]]:
    return [(name, group) for name, _, group in model.state_entries()]


def test_append_head_block_refuses_a_session_before_the_last(rng):
    """Blocks stay in session order, so the last block is the new session's
    and a column index equals its class id; a refusal changes nothing."""
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.append_head_block(2, 2, rng)
    heads, tags = dict(model.heads), _tags(model)
    with pytest.raises(ContractError, match="^session 1 does not follow session 2$"):
        model.append_head_block(1, 2, rng)
    assert model.heads == heads and _tags(model) == tags
    assert model.session_map == {0: (0, 3), 2: (3, 5)}


def test_from_arch_refuses_an_out_of_order_head():
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    arch = {**model.arch(), "head": [[1, 2], [0, 3]]}
    with pytest.raises(ContractError, match="^session 0 does not follow session 1$"):
        Classifier.from_arch(arch)


@pytest.mark.parametrize("tamper", [
    lambda groups: groups.update({"head.s0.weight": "head_new"}),
    lambda groups: groups.update({"head.s1.bias": "bogus"}),
    lambda groups: groups.pop("head.s1.weight"),
    lambda groups: groups.clear(),
], ids=["old block tagged new", "unknown tag", "missing tag", "no tags"])
def test_from_arch_takes_tags_from_block_position(tamper):
    """The head list alone fixes every tag: earlier blocks head_old, the last
    head_new. The recorded groups map is written but never read."""
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    arch = model.arch()
    tamper(arch["groups"])
    assert _tags(Classifier.from_arch(arch)) == _tags(model)


# -- session slices ----------------------------------------------------------------

def test_session_slice_widths_and_concatenation(rng):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    model.expand_head(2, 3, seed=2)
    assert model.session_map == {0: (0, 3), 1: (3, 5), 2: (5, 8)}
    x = rng.standard_normal((4, 4))
    logits = model.forward(x, mode="eval")
    parts = [model.forward(x, mode="eval", session=t).data for t in (0, 1, 2)]
    assert parts[0].shape == (4, 3)
    assert np.array_equal(np.concatenate(parts, axis=1), logits.data)
    # hand-built column selection for the middle session
    assert np.array_equal(parts[1], logits.data[:, 3:5])


def test_logits_slice_rejects_unknown_session(rng):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    with pytest.raises(ContractError):
        model.forward(rng.standard_normal((2, 4)), mode="eval", session=1)


# -- clone and state ----------------------------------------------------------------

def _entries_bytes(model: Classifier) -> list:
    return [(name, group, arr.dtype, arr.shape, arr.tobytes())
            for name, arr, group in model.state_entries()]


def test_clone_is_independent(rng):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    # move the running statistics off a fresh model's, so they must travel
    model.forward(rng.standard_normal((5, 4)), mode="train")
    twin = model.clone()
    assert _entries_bytes(twin) == _entries_bytes(model)
    twin.heads[0].weight.data[:] = 7.0
    twin.bn_layers()[0].running_mean.data[:] = 5.0
    assert not np.array_equal(model.heads[0].weight.data,
                              twin.heads[0].weight.data)
    assert not np.array_equal(model.bn_layers()[0].running_mean.data,
                              twin.bn_layers()[0].running_mean.data)


@pytest.mark.parametrize("made", ["after a training step", "inside frozen"])
def test_a_clone_takes_no_gradient_and_no_frozen_flag(rng, made):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    params = model.parameters()
    if made == "inside frozen":
        with frozen(params):
            twin = model.clone()
    else:
        backprop(model.forward(rng.standard_normal((5, 4)), mode="train").sum(),
                 params)
        Optimizer(params, "sgd_momentum", {"backbone": 0.1, "head_old": 0.1,
                                           "head_new": 0.1}, 0.9).step()
        assert all(p.grad is not None for p in params)
        twin = model.clone()
    assert all(p.requires_grad and p.grad is None for p in twin.parameters())
    assert not any(t.requires_grad for t in twin.tensors()[len(params):])
    assert _entries_bytes(twin) == _entries_bytes(model)


def test_state_round_trip_is_exact(rng):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    # move the running statistics off a fresh model's, so they must travel
    model.forward(rng.standard_normal((5, 4)), mode="train")
    state = {name: arr.copy() for name, arr, _ in model.state_entries()}
    other = Classifier(in_dim=4, base_classes=3, seed=99)
    other.expand_head(1, 2, seed=98)
    other.load_state(state)
    x = rng.standard_normal((3, 4))
    assert np.array_equal(model.forward(x, mode="eval").data,
                          other.forward(x, mode="eval").data)


def test_load_state_rejects_mismatched_names():
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    state = {name: arr for name, arr, _ in model.state_entries()}
    state.pop(next(iter(state)))
    with pytest.raises(ContractError):
        model.load_state(state)


@pytest.mark.parametrize("name, value", [
    ("backbone.bn2.running_var", None),
    ("bogus", np.zeros(1)),
    ("head.s1.bias", np.zeros(3)),  # the last parameter installed
    ("backbone.bn1.running_var", np.ones((1, 64))),  # would broadcast
], ids=["missing name", "extra name", "late parameter shape",
        "running statistic shape"])
def test_a_refused_state_is_named_and_changes_nothing(name, value):
    """load_state names the tensor it refuses, and runs every check before
    it installs the first one: after a refusal every state entry holds its
    old bytes. A (1, 64) running statistic of a 64-channel layer would
    broadcast through the forward, so its shape is checked like a
    parameter's."""
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    before = [(n, arr.copy()) for n, arr, _ in model.state_entries()]
    state = {n: arr + 1.0 for n, arr in before}
    if value is None:
        del state[name]
    else:
        state[name] = value
    with pytest.raises(ContractError, match=re.escape(name)):
        model.load_state(state)
    after = model.state_entries()
    assert [n for n, _, _ in after] == [n for n, _ in before]
    for (n, old), (_, new, _) in zip(before, after):
        assert old.dtype == new.dtype and old.tobytes() == new.tobytes(), n


def test_state_entries_cover_running_stats():
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    groups = {name: group for name, _, group in model.state_entries()}
    assert any(name.endswith("running_mean") for name in groups)
    assert {"backbone", "head_new", "bn_stats"} <= set(groups.values())


# -- checkpoint archive ---------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    model.expand_head(1, 2, seed=1)
    path = tmp_path / "model.ckpt"
    save_state(path, model.state_entries(), extra={"arch": model.arch()})
    arrays, groups, extra = load_state(path)
    for name, arr, group in model.state_entries():
        assert np.array_equal(arrays[name], arr)
        assert groups[name] == group
    rebuilt = Classifier.from_arch(extra["arch"])
    rebuilt.load_state(arrays)
    x = rng.standard_normal((3, 4))
    assert np.array_equal(rebuilt.forward(x, mode="eval").data,
                          model.forward(x, mode="eval").data)
    assert rebuilt.session_map == model.session_map
    assert _tags(rebuilt) == _tags(model)


def test_checkpoint_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    model = Classifier(in_dim=4, base_classes=3, seed=0)
    saved = []
    for clock in (1.0e9, 1.5e9):
        monkeypatch.setattr(zipfile.time, "time", lambda: clock)
        path = tmp_path / f"model-{clock:.0f}.ckpt"
        save_state(path, model.state_entries(), extra={"arch": model.arch()})
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_checkpoint_rejects_duplicate_names(tmp_path):
    entries = [("w", np.ones(2), "backbone"), ("w", np.zeros(2), "backbone")]
    with pytest.raises(ContractError):
        save_state(tmp_path / "dup.ckpt", entries)


_BLOB = "data/0000.bin"  # backbone.fc1.weight, shape (4, 5)


@pytest.mark.parametrize("damage, message", [
    (lambda members, entries: members.update({_BLOB: members[_BLOB][:-8]}),
     "entry backbone.fc1.weight: 152 bytes, shape [4, 5]"),
    (lambda members, entries: members.update({_BLOB: members[_BLOB][:-3]}),
     "entry backbone.fc1.weight: 157 bytes, shape [4, 5]"),
    (lambda members, entries: members.pop(_BLOB),
     "entry backbone.fc1.weight has no member data/0000.bin"),
    (lambda members, entries: entries[1].update(name=entries[0]["name"]),
     "entry backbone.fc1.weight is repeated"),
], ids=["blob cut by 8 bytes", "blob cut by 3 bytes", "missing blob",
        "repeated name"])
def test_checkpoint_reader_refuses_a_damaged_archive(tmp_path, damage, message):
    """A checkpoint rewritten member by member: a blob whose size does not fit
    its shape, a blob that is gone, or a name that repeats is refused with the
    file and the entry named, where numpy or zipfile would raise its own error
    or the last of two entries would silently win."""
    path = tmp_path / "model.ckpt"
    save_state(path, Classifier(in_dim=4, base_classes=3, seed=0,
                                hidden=5, feature_dim=2).state_entries())
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    manifest = json.loads(members.pop("manifest.json"))
    damage(members, manifest["entries"])
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, raw in members.items():
            zf.writestr(name, raw)
    with pytest.raises(ContractError, match=re.escape(f"{path}: {message}")):
        load_state(path)


# -- conditional generator -------------------------------------------------------------

def _generator(seed=0, dim=5):
    low = np.full(dim, -2.0)
    high = np.linspace(1.0, 3.0, dim)
    return ConditionalGenerator(noise_dim=3, classes=4, out_low=low,
                                out_high=high, seed=seed), low, high


def test_generator_same_inputs_same_outputs(rng):
    gen, _, _ = _generator()
    z = rng.standard_normal((6, 3))
    labels = rng.integers(0, 4, size=6)
    a = gen.forward(z, labels, mode="train").data
    b = gen.forward(z, labels, mode="train").data
    assert np.array_equal(a, b)


def test_generator_respects_output_envelope(rng):
    gen, low, high = _generator()
    z = 5.0 * rng.standard_normal((64, 3))
    out = gen.forward(z, rng.integers(0, 4, size=64), mode="train").data
    assert np.all(out >= low - 1e-9)
    assert np.all(out <= high + 1e-9)


def test_generator_condition_changes_output(rng):
    gen, _, _ = _generator()
    z = np.tile(rng.standard_normal(3), (4, 1))
    out = gen.forward(z, np.array([0, 1, 2, 3]), mode="train").data
    assert not np.array_equal(out[0], out[1])


def test_generator_parameters_keep_their_names_order_and_draws():
    """The generator's body is the backbone recipe; its parameters keep the
    names, order and initial values of the generator's own layers."""
    gen, _, _ = _generator(seed=4)
    names = [p.name for p in gen.parameters()]
    assert names == ["gen.fc1.weight", "gen.fc1.bias", "gen.bn1.gamma",
                     "gen.bn1.beta", "gen.fc2.weight", "gen.fc2.bias",
                     "gen.bn2.gamma", "gen.bn2.beta", "gen.out.weight",
                     "gen.out.bias"]
    assert all(p.group == "backbone" for p in gen.parameters())
    rng = np.random.default_rng(4)
    expected = {}
    for layer, fan_in, width in (("fc1", 3 + 4, 64), ("fc2", 64, 64), ("out", 64, 5)):
        bound = 1.0 / np.sqrt(fan_in)
        expected[f"gen.{layer}.weight"] = rng.uniform(-bound, bound, (fan_in, width))
        expected[f"gen.{layer}.bias"] = rng.uniform(-bound, bound, (width,))
    for bn in ("bn1", "bn2"):
        expected[f"gen.{bn}.gamma"] = np.ones(64)
        expected[f"gen.{bn}.beta"] = np.zeros(64)
    for p in gen.parameters():
        assert np.array_equal(p.data, expected[p.name]), p.name


def test_generator_validation(rng):
    with pytest.raises(ContractError):
        ConditionalGenerator(3, 0, -np.ones(2), np.ones(2), seed=0)
    with pytest.raises(ContractError):
        ConditionalGenerator(3, 2, np.ones(2), -np.ones(2), seed=0)
    gen, _, _ = _generator()
    with pytest.raises(ContractError):
        gen.forward(rng.standard_normal((2, 3)), np.array([0, 4]))
    with pytest.raises(ContractError):
        gen.forward(rng.standard_normal((2, 2)), np.array([0, 1]))


def test_make_student_head_covers_one_session(rng):
    student = make_student(in_dim=4, classes=2, session=3, seed=7,
                           hidden=8, feature_dim=6)
    assert student.classes_seen == 2
    assert student.session_map == {3: (0, 2)}
    logits = student.forward(rng.standard_normal((3, 4)), mode="eval")
    assert logits.shape == (3, 2)
