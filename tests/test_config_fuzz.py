"""Random configs at the command-line boundary: accepted or a ConfigError.

Hypothesis draws JSON-able configs, mostly valid sections with a few keys
replaced by arbitrary values (wrong types, NaN, infinities, nested lists,
integers beyond the float range), and a command.  load_config, the
command's section rule and the operator parse must return or raise
ConfigError, which main maps to exit 2; nothing is solved.  A config the
rule accepts for verify holds only suite, and one it accepts for another
command no suite.  A parse that returns must have seen numbers only: a
string or a boolean operator value is rejected.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from degenpde import cli

HUGE = st.sampled_from([10 ** 400, -10 ** 400])
SCALARS = (st.none() | st.booleans() | st.integers() | HUGE
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["", "1.5", "x"]))
VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.lists(
    st.lists(SCALARS, max_size=3), max_size=3) | st.dictionaries(
    st.sampled_from(["a", "num_x"]), SCALARS, max_size=2)


def _section(defaults):
    """The defaults with one or two keys, or an unknown one, replaced by
    arbitrary values; or an arbitrary value in place of the mapping."""
    edits = st.dictionaries(st.sampled_from(sorted(defaults) + ["bogus"]),
                            VALUES, min_size=1, max_size=2)
    return edits.map(lambda e: {**defaults, **e}) | VALUES


CONFIGS = st.fixed_dictionaries({}, optional={
    "operator": _section(cli.DEFAULT_OPERATOR),
    "grid": _section(cli.GRID_KEYS),
    "elliptic": _section(cli.ELLIPTIC_KEYS),
    "parabolic": _section(cli.PARABOLIC_KEYS),
    "sweep": _section({"parameter": "m", "values": [0.2, 0.6]}),
    "suite": VALUES,
    "bogus": VALUES,
})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(CONFIGS, st.sampled_from(["solve_elliptic", "solve_parabolic",
                                 "verify", "sweep"]))
def test_config_boundary_accepts_or_raises_config_error(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        try:
            loaded = cli.load_config(path)
            cli._check_sections(command, loaded)
            if command == "verify":
                assert set(loaded) <= {"suite"}
                return
            assert "suite" not in loaded
            loaded.setdefault("operator", dict(cli.DEFAULT_OPERATOR))
            cli._problem(loaded)
        except cli.ConfigError:
            return
    # an accepted operator holds numbers only: no string or boolean leaf
    assert not any(isinstance(v, (str, bool)) for value in
                   loaded["operator"].values() for v in _leaves(value))


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


LOOKALIKES = st.sampled_from(["1.5", "0", "nan", True, False])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(set(cli.DEFAULT_OPERATOR) - {"dimension"})),
       LOOKALIKES)
def test_string_or_boolean_operator_number_is_config_error(key, fake):
    # the number, or each entry of the list, replaced by a string that
    # numpy would parse or by a boolean that numpy would cast
    default = cli.DEFAULT_OPERATOR[key]
    value = [fake] * len(default) if isinstance(default, list) else fake
    op = dict(cli.DEFAULT_OPERATOR, **{key: value})
    with pytest.raises(cli.ConfigError, match="operator.%s must be" % key):
        cli._problem({"operator": op})
