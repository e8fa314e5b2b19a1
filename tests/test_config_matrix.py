"""Every config key set to every wrong type: accepted or a ConfigError.

Each key of each section, the operator's included, is set in turn to a
list, a mapping, a string, a boolean, null, the JSON number 1e400 (which
json reads as inf) and the int 10**400, in a config that is otherwise
valid for a command that reads the section.  load_config, the command's
section rule and the operator parse must accept the value or raise a
ConfigError naming <section>.<key>; no other exception may escape.  A
value is accepted only where its type is valid.  Nothing is solved.
"""

import json

import pytest

from degenpde import cli

WRONG = {
    "list": [1, 2, 3],
    "mapping": {"a": 1},
    "string": "x",
    "bool": True,
    "null": None,
    "json_1e400": "@1e400@",   # replaced in the file's text by 1e400
    "int_10e400": 10 ** 400,
}
READER = {"operator": "solve_elliptic", "grid": "solve_elliptic",
          "elliptic": "solve_elliptic", "parabolic": "solve_parabolic",
          "sweep": "sweep"}
VALID = {"operator": cli.DEFAULT_OPERATOR, "grid": cli.GRID_KEYS,
         "elliptic": cli.ELLIPTIC_KEYS, "parabolic": cli.PARABOLIC_KEYS,
         "sweep": {"parameter": "m", "values": [0.2]}}
# a null grading is the model's default, a list of numbers is a sweep's
# values, and 10**400 is an integer; every other value has a wrong type
ACCEPTED = {("grid", "grading", "null"), ("sweep", "values", "list")} | {
    (section, key, "int_10e400") for section, key in [
        ("grid", "num_cells"), ("grid", "num_x"), ("parabolic", "steps"),
        ("parabolic", "snapshot_stride")]}
CASES = [(section, key, kind) for section in READER
         for key in VALID[section] for kind in WRONG]


@pytest.mark.parametrize("section, key, kind", CASES,
                         ids=["%s.%s-%s" % case for case in CASES])
def test_wrong_type_is_accepted_or_config_error_naming_its_key(
        tmp_path, section, key, kind):
    command = READER[section]
    cfg = {section: dict(VALID[section], **{key: WRONG[kind]})}
    if command == "sweep":
        cfg["operator"] = cli.DEFAULT_OPERATOR
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@1e400@"', "1e400"))
    try:
        loaded = cli.load_config(str(path))
        cli._check_sections(command, loaded)
        loaded.setdefault("operator", dict(cli.DEFAULT_OPERATOR))
        if command != "sweep":
            cli._problem(loaded)
    except cli.ConfigError as exc:
        assert "%s.%s" % (section, key) in str(exc)
        assert (section, key, kind) not in ACCEPTED
        return
    assert (section, key, kind) in ACCEPTED
