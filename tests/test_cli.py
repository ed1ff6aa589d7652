import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import agcn
from agcn import cli
from agcn.cli import main
from agcn.graph import khop_mask, load_graph
from agcn.model import Dims, init_params, save_params
from agcn.training import TrainingConfig, history_to_csv


def _gen_dataset(tmp_path, blocks="8,8", p_in="0.6", p_out="0.05", seed="0"):
    out = tmp_path / "data"
    rc = main(["generate", "sbm", "--blocks", blocks, "--p-in", p_in,
               "--p-out", p_out, "--seed", seed, "--out-dir", str(out)])
    assert rc == 0
    return out / "sbm.edges", out / "sbm.features.csv", out / "sbm.labels"


def _train_args(edges, feats, labels, out, extra=()):
    return ["train", "--graph", str(edges), "--features", str(feats),
            "--labels", str(labels), "--epochs", "12", "--layers", "1",
            "--heads", "2", "--dq", "4", "--dv", "4", "--dout", "4",
            "--seed", "0", "--restarts", "2", "--out-dir", str(out),
            *extra]


def _subcommands(parser):
    """``parser``'s subcommand parsers by name, in the order it adds them."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_readme_command_lists_name_the_parser_subcommands():
    # a `agcn <group> a|b|c` line of the README names exactly the group's
    # subcommands, so a subcommand that goes or comes shows up here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {group: names.split("|") for group, names in
              re.findall(r"^`agcn ([\w-]+) ([\w|-]+)`", readme, re.M)}
    groups = {name: list(_subcommands(p))
              for name, p in _subcommands(cli._build_parser()).items()
              if _subcommands(p)}
    assert listed == groups
    assert set(groups) == {"analyze", "generate"}


def test_readme_train_flags_are_the_parser_options():
    # the `agcn train` paragraph of the README names every train option and
    # no other, so a flag that goes or comes shows up here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [paragraph] = re.findall(r"^`agcn train` —.*?(?=\n\n)", readme, re.M | re.S)
    options = {opt for action in _subcommands(cli._build_parser())["train"]._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][\w-]*", paragraph)) == options - {"--help"}


def test_readme_dimension_record_is_the_dims_fields():
    # the `params.bin` paragraph of the README names the dimension record's
    # keys in field order, so a key that goes or comes shows up here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [record] = re.findall(r"The dimension record holds (.*?);", readme, re.S)
    assert re.findall(r"`(\w+)`", record) == [f.name for f in
                                               dataclasses.fields(Dims)]


@pytest.mark.parametrize("flag, value", [("--feature-dim", "0"),
                                         ("--noise-scale", "nan"),
                                         ("--mean-scale", "inf")])
def test_generate_sbm_bad_feature_flag_exits_one_with_line(tmp_path, capsys,
                                                           flag, value):
    rc = main(["generate", "sbm", "--blocks", "4,4", "--p-in", "0.5",
               "--p-out", "0.1", flag, value, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: " + flag[2:].replace("-", "_"))
    assert not (tmp_path / "o").exists()


def test_generate_sbm_rerun_byte_identical(tmp_path):
    a = _gen_dataset(tmp_path / "a", seed="5")
    b = _gen_dataset(tmp_path / "b", seed="5")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_train_writes_artifacts_with_metrics(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "run"
    rc = main(_train_args(edges, feats, labels, out, ("--k", "2",
                                                      "--lambda", "1e-2")))
    assert rc == 0
    record = json.loads((out / "result.json").read_text())
    assert 0.0 <= record["result"]["acc"] <= 1.0
    assert 0.0 <= record["result"]["nmi"] <= 1.0
    assert record["dataset"]["n_nodes"] == 16
    assert (out / "params.bin").exists()
    assert (out / "history.csv").exists()
    assert len(record["dataset"]["sha256"]) == 64
    pred = (out / "labels.csv").read_text().strip().splitlines()
    assert len(pred) == 16
    assert set(pred) <= {"0", "1"}


def test_train_lambda_zero_history_identity(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "run"
    rc = main(_train_args(edges, feats, labels, out, ("--lambda", "0")))
    assert rc == 0
    rows = (out / "history.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 12
    for row in rows:
        _, l_pos, l_neg, l_total = row.split(",")
        assert l_total == l_neg
        assert l_pos == "nan"


def test_train_rerun_is_reproducible(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(edges, feats, labels, out_a)) == 0
    assert main(_train_args(edges, feats, labels, out_b)) == 0
    assert (out_a / "params.bin").read_bytes() == (out_b / "params.bin").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
    ra = json.loads((out_a / "result.json").read_text())
    rb = json.loads((out_b / "result.json").read_text())
    ra.pop("wall_clock_seconds"), rb.pop("wall_clock_seconds")
    assert ra == rb


def test_train_sweep_ranked_records(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "sweep"
    rc = main(_train_args(edges, feats, labels, out,
                          ("--sweep", "--k", "1,2", "--lambda", "1e-2,1")))
    assert rc == 0
    ranked = json.loads((out / "sweep.json").read_text())["ranked"]
    assert len(ranked) == 4
    accs = [r["acc"] for r in ranked]
    assert accs == sorted(accs, reverse=True)
    assert {(r["k"], r["lambda"]) for r in ranked} == {
        (1, 1e-2), (1, 1.0), (2, 1e-2), (2, 1.0)}
    for r in ranked:
        assert (out / r["out_dir"] / "result.json").exists()


@pytest.mark.parametrize("grid", [("--k", "1", "--lambda", "1234567,1234568"),
                                  ("--k", "2,2"),
                                  ("--k", "2", "--lambda", "0,-0")])
def test_train_sweep_directory_collision_exits_one(tmp_path, capsys, grid):
    # both grid points print as one k{k}_lam{lam:g} name; -0 is the point 0
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "sweep"
    rc = main(_train_args(edges, feats, labels, out, ("--sweep", *grid)))
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "share the directory" in err[0], err
    assert not out.exists()


def test_train_vanilla_mode_without_margin_loss(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "run"
    rc = main(_train_args(edges, feats, labels, out,
                          ("--mode", "vanilla", "--no-lneg", "--lambda", "1e-2")))
    assert rc == 0
    record = json.loads((out / "result.json").read_text())
    assert record["config"]["mode"] == "vanilla"
    assert record["config"]["use_neg"] is False
    rows = (out / "history.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, _, l_neg, _ = row.split(",")
        assert l_neg == "0.0"


def test_every_config_field_has_a_train_flag():
    # flags are the only way a setting reaches TrainingConfig, so each field
    # set away from its default by its flag must come out of _train_config
    train_parser = _subcommands(cli._build_parser())["train"]
    flags = {a.dest: a for a in train_parser._actions}
    for field in dataclasses.fields(TrainingConfig):
        if field.name == "use_neg":
            extra, value = ["--no-lneg"], False
        else:
            assert field.name in flags, f"no train flag sets {field.name}"
            action = flags[field.name]
            if action.choices:
                [value] = set(action.choices) - {field.default}
            else:
                value = field.default * 2 or 1
            extra = [action.option_strings[0], str(value)]
        args = train_parser.parse_args(["--graph", "g", "--features", "f",
                                        *extra])
        [cfg] = cli._train_config(args).values()
        assert getattr(cfg, field.name) == value, field.name
        assert value != field.default, field.name


def test_train_grid_without_sweep_rejected(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    rc = main(_train_args(edges, feats, labels, tmp_path / "x",
                          ("--k", "1,2")))
    assert rc == 1


def test_train_non_finite_flag_is_one_error_line(tmp_path, capsys):
    edges, feats, labels = _gen_dataset(tmp_path)
    capsys.readouterr()
    rc = main(_train_args(edges, feats, labels, tmp_path / "run",
                          ("--lr", "nan")))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == ["error: lr must be finite and > 0"]
    assert not (tmp_path / "run").exists()


def test_train_allocation_numpy_refuses_is_one_error_line(tmp_path, capsys):
    # a loss history of 10**15 epochs would take 24 PB, past any user
    # address space, so numpy refuses it before touching a page
    edges, feats, labels = _gen_dataset(tmp_path)
    capsys.readouterr()
    rc = main(_train_args(edges, feats, labels, tmp_path / "run",
                          ("--epochs", "1000000000000000")))
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")


def test_memory_error_without_a_message_is_one_error_line(tmp_path, capsys,
                                                           monkeypatch):
    # the interpreter's own MemoryError carries no text
    edges, feats, labels = _gen_dataset(tmp_path)
    capsys.readouterr()

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "train", no_memory)
    rc = main(_train_args(edges, feats, labels, tmp_path / "run", ()))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


@pytest.mark.parametrize("flags, message", [
    (("--dq", "6", "--heads", "4"), "d_q=6 not divisible by heads=4"),
    # every sweep point is checked, not only the first
    (("--sweep", "--k", "1,0"), "k must be >= 1"),
    (("--sweep", "--k", "1", "--lambda", "1,-1"), "lambda must be finite and >= 0"),
    (("--k", "1,x"), "bad --k value '1,x'"),
    (("--sweep",), "--sweep ranks by accuracy and needs --labels"),
], ids=["indivisible_heads", "sweep_k_zero",
        "sweep_negative_lambda", "unparsable_k", "sweep_without_labels"])
def test_train_bad_setting_fails_before_reading_inputs(tmp_path, capsys,
                                                       flags, message):
    # the graph file does not exist: the setting is rejected first
    rc = main(["train", "--graph", str(tmp_path / "nowhere.edges"),
               "--features", str(tmp_path / "nowhere.csv"), *flags,
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sweep", [(), ("--sweep",)], ids=["single", "sweep"])
@pytest.mark.parametrize("flag", ["--k", "--lambda"])
@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
def test_train_empty_grid_fails_before_reading_inputs(tmp_path, capsys, sweep,
                                                      flag, value):
    rc = main(["train", "--graph", str(tmp_path / "nowhere.edges"),
               "--features", str(tmp_path / "nowhere.csv"), flag, value,
               *sweep, "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} names no value"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "r-ratio", "--k-range", "3:1"], "--k-range"),
    (["train", "--k", "3:1", "--sweep"], "--k"),
    (["generate", "sbm", "--blocks", ",", "--p-in", "0.5", "--p-out", "0.1"],
     "--blocks"),
], ids=["empty_k_range", "empty_k_range_sweep", "empty_blocks"])
def test_integer_lists_that_name_no_value_fail_before_reading_inputs(
        tmp_path, capsys, argv, flag):
    # every integer list is read by one rule: an empty range is an empty list
    if argv[0] != "generate":
        argv = [*argv, "--graph", str(tmp_path / "nowhere.edges"),
                "--features", str(tmp_path / "nowhere.csv")]
    rc = main([*argv, "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} names no value"]
    assert not (tmp_path / "run").exists()


def test_train_k_takes_an_inclusive_range():
    train_parser = _subcommands(cli._build_parser())["train"]
    args = train_parser.parse_args(["--graph", "g", "--features", "f",
                                    "--k", "1:3", "--lambda", "0.1",
                                    "--sweep"])
    assert [cfg.k for cfg in cli._train_config(args).values()] == [1, 2, 3]


def test_analyze_paths_histogram_with_inf(tmp_path):
    data = tmp_path / "d"
    data.mkdir()
    (data / "g.edges").write_text("0 1\n")
    (data / "g.csv").write_text("0\n0\n0\n")
    (data / "g.lab").write_text("0\n0\n0\n")
    out = tmp_path / "out"
    rc = main(["analyze", "paths", "--graph", str(data / "g.edges"),
               "--features", str(data / "g.csv"),
               "--labels", str(data / "g.lab"), "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())["histogram"]
    assert payload == {"1": 1, "inf": 2}


def test_analyze_grouping_writes_coords(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "out"
    rc = main(["analyze", "grouping", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--k", "5",
               "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "grouping_coords.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,pred,truth,error"
    assert len(rows) == 17
    report = json.loads((out / "report.json").read_text())
    assert report["k"] == 5


def test_analyze_r_ratio_range(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "out"
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--k-range", "1:3",
               "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["k_range"] == [1, 2, 3]
    assert report["mode"] == "pair-mean"


@pytest.mark.parametrize("k_range", ["a:3", "1:b"])
def test_analyze_r_ratio_bad_k_range_exits_one_with_line(tmp_path, capsys,
                                                         k_range):
    edges, feats, labels = _gen_dataset(tmp_path)
    capsys.readouterr()
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--k-range", k_range,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: bad --k-range value {k_range!r}"]
    assert not (tmp_path / "o").exists()


def test_analyze_r_ratio_order_below_one_exits_one_with_line(tmp_path,
                                                            capsys):
    edges, feats, labels = _gen_dataset(tmp_path)
    capsys.readouterr()
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--k-range", "0:2",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: k_range must contain orders >= 1"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["grouping", "r-ratio"])
def test_analyze_zero_restarts_exits_one_with_line(tmp_path, capsys, command):
    edges, feats, labels = _gen_dataset(tmp_path)
    capsys.readouterr()
    rc = main(["analyze", command, "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--restarts", "0",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: restarts=0 must be >= 1"]
    assert not (tmp_path / "o").exists()


def test_analyze_r_ratio_accepts_external_predictions(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    pred = tmp_path / "pred.labels"
    pred.write_text("\n".join(str(i % 2) for i in range(16)) + "\n")
    out = tmp_path / "out"
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--pred", str(pred),
               "--k-range", "1,2", "--out-dir", str(out)])
    assert rc == 0


def test_analyze_r_ratio_bad_prediction_row_exits_one_with_line(tmp_path,
                                                                capsys):
    edges, feats, labels = _gen_dataset(tmp_path)
    pred = tmp_path / "pred.txt"
    pred.write_text("x\n" + "0\n" * 15)
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--pred", str(pred),
               "--k-range", "1,2", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: non-integer label 'x' [{pred}:1]"]


def test_analyze_r_ratio_negative_prediction_exits_one_with_line(tmp_path,
                                                                 capsys):
    edges, feats, labels = _gen_dataset(tmp_path)
    pred = tmp_path / "pred.txt"
    pred.write_text("0\n" * 3 + "-1\n" + "1\n" * 12)
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--pred", str(pred),
               "--k-range", "1,2", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: label -1 outside [0, 16) [{pred}:4]"]
    assert not (tmp_path / "o").exists()


def test_train_negative_label_exits_one_with_line(tmp_path, capsys):
    edges, feats, labels = _gen_dataset(tmp_path)
    rows = labels.read_text().splitlines()
    rows[5] = "-1"
    labels.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    rc = main(_train_args(edges, feats, labels, out))
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: label -1 outside [0, 16) [{labels}:6]"]
    assert not out.exists()


@pytest.mark.parametrize("label", ["3", "99999999999999999999"])
@pytest.mark.parametrize("command", ["train", "r-ratio"])
def test_label_outside_node_count_exits_one_with_line(tmp_path, capsys,
                                                      command, label):
    edges, feats = tmp_path / "g.edges", tmp_path / "g.csv"
    edges.write_text("0 1\n1 2\n")
    feats.write_text("0\n1\n2\n")
    labels, bad = tmp_path / "g.lab", tmp_path / "bad.lab"
    labels.write_text("0\n1\n1\n")
    bad.write_text(f"0\n\n{label}\n1\n")
    out = tmp_path / "o"
    if command == "train":
        argv = _train_args(edges, feats, bad, out)
    else:
        argv = ["analyze", "r-ratio", "--graph", str(edges), "--features",
                str(feats), "--labels", str(labels), "--pred", str(bad),
                "--k-range", "1", "--out-dir", str(out)]
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: label {label} outside [0, 3) [{bad}:3]"]
    assert not out.exists()


_DATASET = ["--graph", "data/sbm.edges", "--features", "data/sbm.features.csv",
            "--labels", "data/sbm.labels"]


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1", *_DATASET],
    ["generate", "sbm", "--blocks", "4,4", "--p-in", "0.5", "--p-out", "0.1",
     "--seed", "-1"],
    ["analyze", "grouping", "--seed", "-1", *_DATASET],
    ["analyze", "r-ratio", "--seed", "-1", *_DATASET],
    ["analyze", "mask-features", "--seed", "-1", *_DATASET],
], ids=["train", "generate_sbm", "grouping", "r_ratio",
        "mask_features"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "analyze":
        # train must fail before it reads any file; the analyses read theirs
        _gen_dataset(tmp_path)
        capsys.readouterr()
    rc = main([*argv, "--out-dir", "o"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("digits", ["1_0", "\u0662"],
                         ids=["underscore", "arabic_indic_digit"])
@pytest.mark.parametrize("argv, flag, template, code", [
    (["train", *_DATASET], "--k", "{}", 1),
    (["train", *_DATASET], "--layers", "{}", 2),
    (["train", *_DATASET], "--seed", "{}", 2),
    (["generate", "sbm", "--p-in", "0.5", "--p-out", "0.1"], "--blocks",
     "4,{}", 1),
    (["analyze", "r-ratio", *_DATASET], "--k-range", "1,{}", 1),
    (["analyze", "r-ratio", *_DATASET], "--k-range", "1:{}", 1),
], ids=["train_k", "train_layers", "train_seed", "generate_blocks",
        "r_ratio_list", "r_ratio_range"])
def test_integer_flags_take_an_optional_sign_and_ascii_digits(
        tmp_path, capsys, monkeypatch, argv, flag, template, code, digits):
    # int() reads "1_0" as 10 and the Arabic-Indic two as 2; the edge,
    # label and prediction readers reject both, and so does every flag:
    # argparse's with exit 2, a list with one error line and exit 1. No
    # input file exists, so the value is rejected before any is read
    monkeypatch.chdir(tmp_path)
    text = template.format(digits)
    argv = [*argv, flag, text, "--out-dir", "o"]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"argument {flag}: invalid int value: {text!r}"
                in capsys.readouterr().err)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad {flag} value {text!r}"]
    assert not (tmp_path / "o").exists()


def _flag_types():
    """The ``type`` of every option of every (sub)command parser."""
    parsers, types = [cli._build_parser()], []
    while parsers:
        parser = parsers.pop()
        types += [action.type for action in parser._actions]
        parsers += _subcommands(parser).values()
    return types


def test_no_flag_reads_integers_with_int():
    # every integer flag goes through the rule the test above pins
    types = _flag_types()
    assert int not in types and cli._int in types


_SBM = ["generate", "sbm", "--blocks", "4,4"]


@pytest.mark.parametrize("text", ["1_0e-3", "\u0662", "0x10", " 1"],
                         ids=["underscore", "arabic_indic_digit", "hex",
                              "space"])
@pytest.mark.parametrize("argv, flag", [
    (["train", *_DATASET], "--lambda"),
    (["train", *_DATASET], "--gamma"),
    (["train", *_DATASET], "--lr"),
    (["analyze", "mask-features", *_DATASET], "--fraction"),
    ([*_SBM, "--p-out", "0.1"], "--p-in"),
    ([*_SBM, "--p-in", "0.5"], "--p-out"),
    ([*_SBM, "--p-in", "0.5", "--p-out", "0.1"], "--mean-scale"),
    ([*_SBM, "--p-in", "0.5", "--p-out", "0.1"], "--noise-scale"),
], ids=["train_lambda", "train_gamma", "train_lr", "mask_fraction",
        "sbm_p_in", "sbm_p_out", "sbm_mean_scale", "sbm_noise_scale"])
def test_float_flags_take_the_feature_readers_spellings(
        tmp_path, capsys, monkeypatch, argv, flag, text):
    # float() reads "1_0e-3" as 0.01, the Arabic-Indic two as 2 and " 1" as
    # 1; the feature reader rejects them, and so does every float flag:
    # argparse's with exit 2, the --lambda list with one error line and
    # exit 1. No input file exists, so the value is rejected before any is
    # read
    monkeypatch.chdir(tmp_path)
    argv = [*argv, flag, text, "--out-dir", "o"]
    if flag == "--lambda":
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad {flag} value {text!r}"]
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"argument {flag}: invalid float value: {text!r}"
                in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["1", "-1.5", "+.5", "1.", "1.e5", "1e-3",
                                  "1E+3", "inf", "-Infinity", "NaN", "-nan"])
def test_float_rule_reads_a_value_as_the_feature_reader_does(text):
    np.testing.assert_equal(cli._float(text), np.loadtxt([text]).item())


def test_no_flag_reads_floats_with_float():
    # every float flag goes through the rule the tests above pin
    types = _flag_types()
    assert float not in types and cli._float in types


@pytest.mark.parametrize("rows, message", [
    (15, "error: 15 labels for 16 nodes [{path}]"),
    (17, "error: more labels than the 16 nodes [{path}:17]"),
], ids=["too_few", "too_many"])
def test_train_label_count_mismatch_names_file(tmp_path, capsys, rows,
                                               message):
    edges, feats, labels = _gen_dataset(tmp_path)
    labels.write_text("0\n" * rows)
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(_train_args(edges, feats, labels, out))
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [message.format(path=labels)]
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    (15, "error: 15 labels for 16 nodes [{path}]"),
    (17, "error: more labels than the 16 nodes [{path}:17]"),
], ids=["too_few", "too_many"])
def test_analyze_r_ratio_prediction_count_mismatch_names_file(tmp_path, capsys,
                                                              rows, message):
    edges, feats, labels = _gen_dataset(tmp_path)
    pred = tmp_path / "pred.txt"
    pred.write_text("0\n" * rows)
    capsys.readouterr()
    rc = main(["analyze", "r-ratio", "--graph", str(edges), "--features",
               str(feats), "--labels", str(labels), "--pred", str(pred),
               "--k-range", "1,2", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [message.format(path=pred)]
    assert not (tmp_path / "o").exists()


def test_analyze_mask_features_file_output(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path)
    out = tmp_path / "out"
    rc = main(["analyze", "mask-features", "--graph", str(edges),
               "--features", str(feats), "--labels", str(labels),
               "--fraction", "0.5", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    masked = np.loadtxt(out / "masked.features.csv", delimiter=",")
    assert ((masked == 0).all(axis=1)).sum() == 8
    assert (out / "masked.edges").read_bytes() == edges.read_bytes()


def test_analyze_mask_features_reports_the_rows_it_zeroes(tmp_path):
    # 0.25 * 10 = 2.5 sits on the rounding rule's tie
    edges, feats, labels = _gen_dataset(tmp_path, blocks="5,5")
    assert not (np.loadtxt(feats, delimiter=",") == 0).all(axis=1).any()
    out = tmp_path / "out"
    rc = main(["analyze", "mask-features", "--graph", str(edges),
               "--features", str(feats), "--labels", str(labels),
               "--fraction", "0.25", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    masked = np.loadtxt(out / "masked.features.csv", delimiter=",")
    zeroed = int((masked == 0).all(axis=1).sum())
    assert json.loads((out / "report.json").read_text())["n_masked"] == zeroed
    assert zeroed == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus-flag"])
    assert exc.value.code == 2


def test_runtime_error_exits_one(tmp_path):
    edges, feats, _ = _gen_dataset(tmp_path)
    rc = main(["analyze", "r-ratio", "--graph", str(edges),
               "--features", str(feats), "--k-range", "1:2",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_non_finite_feature_exits_one_with_one_line(tmp_path, capsys, bad):
    edges, feats, _ = _gen_dataset(tmp_path)
    rows = feats.read_text().splitlines()
    rows[3] = ",".join([bad] + rows[3].split(",")[1:])
    feats.write_text("\n".join(rows) + "\n")
    rc = main(["analyze", "paths", "--graph", str(edges), "--features",
               str(feats), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: non-finite feature value")
    assert err[0].endswith(f"{feats}:4]")


def test_unparsable_feature_exits_one_naming_its_line(tmp_path, capsys):
    (tmp_path / "g.edges").write_text("0 1\n")
    feats = tmp_path / "g.csv"
    feats.write_text("1,2\n3,x\n")
    rc = main(["analyze", "paths", "--graph", str(tmp_path / "g.edges"),
               "--features", str(feats), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: bad feature row '3,x'")
    assert err[0].endswith(f"{feats}:2]")


@pytest.mark.parametrize("missing", ["--graph", "--features"])
def test_missing_input_file_exits_two_with_one_line(tmp_path, capsys, missing):
    edges, feats, _ = _gen_dataset(tmp_path)
    files = {"--graph": edges, "--features": feats}
    files[missing] = tmp_path / "nowhere.txt"
    rc = main(["analyze", "paths", "--graph", str(files["--graph"]),
               "--features", str(files["--features"]),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tmp_path / 'nowhere.txt'}: No such file or directory"]


def _child_env(**extra):
    """Environment of a child process that imports the agcn under test, also
    when only pytest's ``pythonpath`` setting put it on sys.path."""
    src = str(Path(agcn.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_console_script_entry(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "agcn.cli", "--version"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0


def test_train_reruns_in_fresh_processes_are_byte_identical(tmp_path):
    edges, feats, labels = _gen_dataset(tmp_path, blocks="15,15",
                                        p_in="0.4", p_out="0.05")
    # most 2-hop lists hold more than 16 pairs, so the sampler draws
    g = load_graph(edges, feats, labels)
    sizes = khop_mask(g, 2).list_sizes() - 1
    assert (sizes * (sizes - 1) // 2 > 16).mean() > 0.5
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        args = _train_args(edges, feats, labels, out,
                           ["--k", "2", "--pair-cap", "16"])
        proc = subprocess.run([sys.executable, "-m", "agcn.cli", *args],
                              capture_output=True, text=True,
                              env=_child_env(AGCN_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
    for name in ("params.bin", "history.csv", "labels.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("sweep", [False, True, "--help", "--version"])
def test_train_into_a_closed_pipe_exits_zero(tmp_path, unbuffered, sweep):
    # False and True train once or sweep; a flag prints and exits at once
    argv, runs = [sweep], []
    if not isinstance(sweep, str):
        edges, feats, labels = _gen_dataset(tmp_path)
        out = tmp_path / "run"
        extra = ["--sweep", "--k", "1,2", "--lambda", "1e-2"] if sweep else []
        argv = _train_args(edges, feats, labels, out, extra)
        runs = [out / "k1_lam0.01", out / "k2_lam0.01"] if sweep else [out]
    read_end, write_end = os.pipe()
    os.close(read_end)          # like `agcn train ... | true`
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "agcn.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_child_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for run in runs:
        for name in ("result.json", "params.bin", "history.csv", "labels.csv"):
            assert (run / name).exists(), (run, name)
    if runs:
        assert (out / "sweep.json").exists() == sweep


class _Bomb:
    """Fails when formatted or converted, so a writer stops midway."""

    def _fail(self, *args):
        raise RuntimeError("write failed")

    __format__ = __float__ = _fail


def _fail_params(path, monkeypatch):
    params = init_params(Dims(d=3, d_q=4, d_v=4, heads=1,
                              layers=1, d_out=2), seed=0)
    # the header is written before the buffer fails to convert
    flat = params.flat.astype(object)
    flat[-1] = _Bomb()
    save_params(SimpleNamespace(dims=params.dims, flat=flat), path)


def _fail_history(path, monkeypatch):
    history_to_csv(np.array([[1.0, 2.0, 3.0]] * 3 + [[_Bomb()] * 3]), path)


def _fail_labels(path, monkeypatch):
    edges, feats, labels = _gen_dataset(path.parent.parent)
    clustered = SimpleNamespace(labels=[0, 1, _Bomb()], to_dict=dict)
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: clustered)
    cli._run_single(load_graph(edges, feats, labels),
                    TrainingConfig(epochs=1, layers=1, heads=1, d_q=2, d_v=2,
                                   d_out=2), path.parent)


def _fail_json(path, monkeypatch):
    cli._write_json(path, {"a": 1, "b": _Bomb()})


@pytest.mark.parametrize("name,write", [
    ("params.bin", _fail_params),
    ("history.csv", _fail_history),
    ("labels.csv", _fail_labels),
    ("result.json", _fail_json),
    ("sweep.json", _fail_json),
])
def test_failed_artifact_write_keeps_previous_file(tmp_path, monkeypatch,
                                                   name, write):
    out = tmp_path / "out"
    out.mkdir()
    path = out / name
    path.write_bytes(b"previous artifact\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(path, monkeypatch)
    assert path.read_bytes() == b"previous artifact\n"
    assert sorted(p.name for p in out.iterdir()) == [name]
