"""Every reader opens its path through tensorio.open_input, so a path that
cannot be read raises a typed error naming it, whatever the reason."""

import os

import numpy as np
import pytest

from echokit import checkpoint
from echokit.datasets import read_labels
from echokit.ef import EF_LABEL_HEADER
from echokit.errors import ConfigurationError, InputNotFoundError
from echokit.nn import ModelGraph
from echokit.tensorio import output_dir, read_json, read_tensor, write_tensor

# Each reader, the file name it opens and how it is called with that file's path.
READERS = {
    "read_tensor": ("t.ctr", read_tensor),
    "read_json": ("doc.json", read_json),
    "read_labels": ("labels.csv", lambda path: read_labels(path, EF_LABEL_HEADER, ())),
    "load_manifest": ("manifest.json", lambda path: checkpoint.load_manifest(path.parent)),
    "load_params_into": ("params.ctr",
                         lambda path: checkpoint.load_params_into(path.parent, ModelGraph([]))),
}


def missing(tmp_path, name):
    return tmp_path / name


def directory(tmp_path, name):
    (tmp_path / name).mkdir()
    return tmp_path / name


def below_a_file(tmp_path, name):
    (tmp_path / "afile").write_bytes(b"")
    return tmp_path / "afile" / name


def name_over_the_limit(tmp_path, name):
    return tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)) / name


def symlink_loop(tmp_path, name):
    (tmp_path / name).symlink_to(name)
    return tmp_path / name


def nul_byte(tmp_path, name):
    return tmp_path / "a\0b" / name


# Each bad path and a fragment of the message it must give.
CASES = {
    missing: "does not exist",
    directory: "is a directory, not a file",
    below_a_file: "does not exist",
    name_over_the_limit: "cannot open input",
    symlink_loop: "cannot open input",
    nul_byte: "cannot open input",
}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("reader", READERS)
def test_bad_path_raises_a_typed_error_naming_it(tmp_path, reader, case):
    name, read = READERS[reader]
    path = case(tmp_path, name)
    with pytest.raises(InputNotFoundError) as raised:
        read(path)
    assert CASES[case] in str(raised.value)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("reader", READERS)
def test_control_the_same_file_reads(tmp_path, reader):
    name, read = READERS[reader]
    contents = {
        "read_tensor": lambda path: write_tensor(path, np.zeros(2)),
        "read_json": lambda path: path.write_text("[]"),
        "read_labels": lambda path: path.write_text("clip_path,ef_percent\nc.ctr,50\n"),
        "load_manifest": lambda path: path.write_text(
            '{"format": "%s"}' % checkpoint.FORMAT),
        "load_params_into": lambda path: path.write_bytes(b""),
    }
    contents[reader](tmp_path / name)
    read(tmp_path / name)


@pytest.mark.parametrize("data", [b"{", b"\xff{}", b"[1,]"], ids=["truncated", "non_utf8",
                                                                  "trailing_comma"])
def test_read_json_rejects_text_that_is_not_json(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ConfigurationError, match=f"{path}: not valid JSON"):
        read_json(path)


def test_read_json_decodes_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes('{"name": "é"}'.encode("utf-8"))
    assert read_json(path) == {"name": "é"}


@pytest.mark.parametrize("where", ["afile", "afile/sub"])
def test_output_dir_that_cannot_be_made_raises_configuration_error(tmp_path, where):
    (tmp_path / "afile").write_bytes(b"")
    with pytest.raises(ConfigurationError, match=f"cannot create output directory {tmp_path}"):
        output_dir(tmp_path / where)


def test_output_dir_makes_parents_and_accepts_an_existing_one(tmp_path):
    assert output_dir(tmp_path / "a" / "b") == tmp_path / "a" / "b"
    assert output_dir(tmp_path / "a" / "b").is_dir()
