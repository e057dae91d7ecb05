"""Property tests of the config boundary, generated from the rules the
config dataclasses declare: a valid document survives a dump and reload
unchanged, and anything but a finite number in a numeric field is a
ConfigError.  Derandomized and solver-free, so they run fast and the same
way every time.  Also: a config that breaks a rule cannot be built, and
every config key has a reader in the package."""

import ast
import json
import math
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybcavity
from ybcavity import observables, transit
from ybcavity.config import (SECTIONS, RunConfig, config_from_dict,
                             config_to_dict, dump_config)
from ybcavity.errors import ConfigError
from ybcavity.lightshift import BeamParams
from ybcavity.observables import fluorescence_spectrum
from ybcavity.transit import TransitConfig, child_rng, simulate_transit

DEFAULTS = json.loads(dump_config(RunConfig()))


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


def _with_one_waist(document, waist):
    """The cavity and the geometry name one mode waist: both sections
    get the drawn waist, or neither sets it (waist None)."""
    if waist is not None:
        for section in ("cavity", "geometry"):
            document.setdefault(section, {})["mode_waist"] = waist
    return document


_WAIST = next(f for f in _keys("cavity") if f.name == "mode_waist")

DOCUMENTS = st.builds(_with_one_waist, st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries({}, optional={
        f.name: _value(f, DEFAULTS[section][f.name])
        for f in _keys(section) if f.name != "mode_waist"})
    for section in SECTIONS}),
    st.none() | _value(_WAIST, DEFAULTS["cavity"]["mode_waist"]))


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


def test_every_section_but_the_drive_builds_the_configs_defaults():
    # one source of truth: a section made with no arguments is its part
    # of the default config; a bare BeamParams has no power or waist, as
    # the drive's defaults live on TransitConfig.drive
    document = config_to_dict(RunConfig())
    for name, cls in SECTIONS.items():
        if cls is BeamParams:
            continue
        part = asdict(cls())
        assert {key: document[name][key] for key in part} == part, name


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


@pytest.fixture
def no_solve(monkeypatch):
    """Make the sampler and the quadrature raise if they are ever entered."""
    def reached(*args):
        raise AssertionError("a solve started")
    monkeypatch.setattr(transit, "_transits", reached)
    monkeypatch.setattr(observables, "_ensemble_expected_counts", reached)


_CFG = TransitConfig()


@pytest.mark.parametrize("run", [
    lambda: simulate_transit(child_rng(0, 0), "up", replace(
        _CFG, cavity=replace(_CFG.cavity, detection_efficiency=2.0))),
    lambda: simulate_transit(child_rng(0, 0), "up", replace(
        _CFG, geometry=replace(_CFG.geometry, time_step=1e-12))),
    lambda: fluorescence_spectrum([0.0], replace(
        _CFG, cavity=replace(_CFG.cavity, kappa=math.nan)), True),
    lambda: simulate_transit(child_rng(0, 0), "up", replace(
        _CFG, cavity=replace(_CFG.cavity, mode_waist=3e-5))),
    lambda: simulate_transit(child_rng(0, 0), "up", replace(
        _CFG, geometry=replace(_CFG.geometry, mode_waist=3e-5))),
], ids=["efficiency_2", "time_step_1e-12", "nan_kappa",
        "cavity_waist_alone", "geometry_waist_alone"])
def test_rule_breaking_config_fails_at_replace(no_solve, run):
    # 6.7e8 segments for the time step: the error comes before any array
    with pytest.raises(ConfigError):
        run()


# config key -> why it stays without a reader in the package
_UNREAD_KEYS = {
    "run.threads": "the benchmark's configs (perfbench/workloads.py) "
                   "write it, so config files that set it must still load",
}


def _config_keys(cls, prefix):
    """Document keys of a config dataclass's fields (nested dataclasses
    that are no section, such as a GridSpec, by their dotted path)."""
    for f in fields(cls):
        kind = f.metadata["rule"]["kind"]
        if f.name in SECTIONS:
            continue
        if is_dataclass(kind):
            yield from _config_keys(kind, f"{prefix}.{f.name}")
        else:
            yield f"{prefix}.{f.name}", f.name


def test_every_config_key_has_a_reader():
    """Each config field is read as an attribute somewhere in the package
    outside the rules that check it: a key nothing reads is a knob that
    turns nothing."""
    read = set()
    for path in Path(ybcavity.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rules = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__post_init__"]
        in_rules = {id(n) for rule in rules for n in ast.walk(rule)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in in_rules}
    keys = [key for section, cls in SECTIONS.items()
            for key in _config_keys(cls, section)]
    keys += _config_keys(TransitConfig, "run")
    unread = sorted(key for key, name in keys
                    if name not in read and key not in _UNREAD_KEYS)
    assert unread == []
    assert all(name not in read for key, name in keys
               if key in _UNREAD_KEYS), "an allowlisted key is read now"
