"""Property tests of the config boundary, generated from the rules the
config dataclasses declare: a valid document survives a dump and reload
unchanged, and anything but a finite number in a numeric field is a
ConfigError.  Derandomized and solver-free, so they run fast and the same
way every time."""

import json
import math
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybcavity.config import (SECTIONS, config_from_dict, default_run_config,
                             dump_config)
from ybcavity.errors import ConfigError
from ybcavity.transit import TransitConfig

DEFAULTS = json.loads(dump_config(default_run_config()))


def _keys(section: str):
    """The declared fields behind a section's keys; "run" also carries
    the TransitConfig fields that are not sections."""
    owners = [SECTIONS[section]] + ([TransitConfig] if section == "run"
                                    else [])
    return [f for cls in owners for f in fields(cls)
            if "rule" in f.metadata and f.name not in SECTIONS]


def _number(rule, default):
    """Numbers within a factor of two of the default, inside the rule's
    bounds (a geometry this close to the default can always be
    simulated); ints as well where a float is expected."""
    if default:
        low, high = sorted((default / 2, default * 2))
    else:
        low, high = -1.0, 1.0
    if rule["kind"] is int:
        return st.integers(rule["ge"],
                           rule["le"] or int(max(high, rule["ge"] + 9)))
    bound = rule["gt"] if rule["gt"] is not None else rule["ge"]
    low = low if bound is None else max(low, bound)
    high = high if rule["le"] is None else min(high, rule["le"])
    numbers = st.floats(low, high, exclude_min=low == rule["gt"])
    if math.ceil(low) <= math.floor(high) and low != rule["gt"]:
        numbers |= st.integers(math.ceil(low), math.floor(high))
    return numbers


def _value(f, default):
    rule = f.metadata["rule"]
    kind = rule["kind"]
    if is_dataclass(kind):
        return st.fixed_dictionaries({}, optional={
            g.name: _value(g, default[g.name]) for g in fields(kind)})
    if rule["choices"] is not None:
        return st.sampled_from(rule["choices"])
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.text("abc_./", min_size=1, max_size=8)
    if kind is tuple:
        return st.lists(_number(rule, max(default)), min_size=1, max_size=4)
    if default is None:
        return st.none() | _number(rule, None)
    return _number(rule, default)


DOCUMENTS = st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries({}, optional={
        f.name: _value(f, DEFAULTS[section][f.name])
        for f in _keys(section)})
    for section in SECTIONS})


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(DOCUMENTS)
def test_valid_documents_survive_a_dump_and_reload(document):
    config = config_from_dict(document)
    text = dump_config(config)
    assert config_from_dict(json.loads(text)) == config
    # every value given is kept as given: an int in a float field too
    dumped = json.loads(text)
    for section, keys in document.items():
        for key, value in keys.items():
            want = value if not isinstance(value, dict) \
                else {**dumped[section][key], **value}
            assert dumped[section][key] == want
            assert type(dumped[section][key]) is type(want)


def _numeric_paths():
    """Document paths of every numeric field, nested grid fields
    included; a path ending in [0] is an element of a list."""
    for section in SECTIONS:
        for f in _keys(section):
            kind = f.metadata["rule"]["kind"]
            if is_dataclass(kind):
                yield from ((section, f.name, g.name) for g in fields(kind))
            elif kind is tuple:
                yield (section, f.name, 0)
            elif kind in (int, float):
                yield (section, f.name)


@pytest.mark.parametrize("path", list(_numeric_paths()),
                         ids=lambda path: ".".join(map(str, path)))
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf, True, False])
       | st.text(max_size=4))
def test_non_numbers_in_numeric_fields_are_config_errors(path, bad):
    document = [bad] if path[-1] == 0 else bad
    for key in reversed(path[:-1] if path[-1] == 0 else path):
        document = {key: document}
    with pytest.raises(ConfigError):
        config_from_dict(document)
